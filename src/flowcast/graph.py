"""Weighted directed sensor graph built from a thresholded Gaussian kernel.

Node indices are always assigned in ascending sensor_id order, so every
derived structure is independent of the input row order. Candidate edges
come from a grid-screened, exact great-circle k-nearest-neighbor search; edge
weights are a pluggable driving-distance provider's d through exp(-(d/sigma)^2).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .sparse import CsrMatrix
from .tables import read_table, write_table

EARTH_RADIUS_MILES = 3958.7613

METADATA_HEADER = ["sensor_id", "latitude", "longitude", "district", "sensor_type", "lane_type"]
THRESHOLD_MODES = ("distance_sq", "weight")  # build_adjacency threshold_on values


@dataclass(frozen=True)
class SensorMeta:
    sensor_id: str
    latitude: float
    longitude: float
    district: str = ""
    sensor_type: str = ""
    lane_type: str = ""

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise DataError(f"sensor {self.sensor_id}: latitude {self.latitude} out of range")
        if not -180.0 <= self.longitude <= 180.0:
            raise DataError(f"sensor {self.sensor_id}: longitude {self.longitude} out of range")


def canonical_order(meta: list[SensorMeta]) -> list[SensorMeta]:
    """Sort by sensor_id; duplicate ids are a schema violation."""
    ordered = sorted(meta, key=lambda m: m.sensor_id)
    for a, b in zip(ordered, ordered[1:]):
        if a.sensor_id == b.sensor_id:
            raise DataError(f"duplicate sensor_id {a.sensor_id!r}")
    return ordered


def haversine_miles(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(a)))


class SensorGraph:
    """Immutable weighted directed graph over canonically ordered sensors."""

    def __init__(self, sensor_ids: list[str], adjacency: CsrMatrix,
                 kernel_sigma: float | None = None, kernel_thresh: float | None = None,
                 threshold_on: str | None = None):
        self.sensor_ids = list(sensor_ids)
        self.n_nodes = len(self.sensor_ids)
        if adjacency.rows != self.n_nodes or adjacency.cols != self.n_nodes:
            raise ValueError("adjacency shape does not match node count")
        self.adjacency = adjacency
        self.id_to_index = {s: i for i, s in enumerate(self.sensor_ids)}
        if len(self.id_to_index) != self.n_nodes:
            raise DataError("sensor ids are not unique")
        self.kernel_sigma = kernel_sigma
        self.kernel_thresh = kernel_thresh
        self.threshold_on = threshold_on

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz

    # ------------------------------------------------------------------
    # serialization: self-describing JSON with exact float64 round trip
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        r, c, v = self.adjacency.triples()
        doc = {
            "format": "flowcast-graph-v1",
            "n_nodes": self.n_nodes,
            "sensor_ids": self.sensor_ids,
            "kernel_sigma": self.kernel_sigma,
            "kernel_thresh": self.kernel_thresh,
            "threshold_on": self.threshold_on,
            "edges": list(zip(r.tolist(), c.tolist(), v.tolist())),
        }
        Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SensorGraph":
        """Read a graph file; any malformed content raises DataError."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(doc, dict) or doc.get("format") != "flowcast-graph-v1":
            raise DataError(f"{path}: not a flowcast graph file")
        missing = [key for key in ("n_nodes", "sensor_ids", "edges", "kernel_sigma",
                                   "kernel_thresh", "threshold_on") if key not in doc]
        if missing:
            raise DataError(f"{path}: missing keys {missing}")
        n, ids = doc["n_nodes"], doc["sensor_ids"]
        if type(n) is not int or n < 0:
            raise DataError(f"{path}: n_nodes must be a non-negative integer, not {n!r}")
        if not isinstance(ids, list) or len(ids) != n or not all(isinstance(s, str) for s in ids):
            raise DataError(f"{path}: sensor_ids must be a list of {n} strings")
        edges = doc["edges"]
        bad_edges = f"{path}: edges must be a list of [row, col, weight] numbers"
        if not isinstance(edges, list):
            raise DataError(bad_edges)
        try:
            if set(map(len, edges)) - {3}:
                raise DataError(bad_edges)
        except TypeError:  # an edge without a length
            raise DataError(bad_edges) from None
        # one array per field: numpy infers int64 only where every entry is an integer
        rows, cols, weights = ((np.array(f) for f in zip(*edges)) if edges
                               else (np.zeros(0, dtype=np.int64),) * 3)
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise DataError(f"{path}: edge endpoints must be integers")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise DataError(f"{path}: edge endpoints must lie in [0, {n})")
        if weights.dtype.kind not in "iuf" or not np.isfinite(weights).all():
            raise DataError(f"{path}: edge weights must be finite numbers")
        adj = CsrMatrix.from_triples(n, n, rows, cols, weights)
        return cls(ids, adj, doc["kernel_sigma"], doc["kernel_thresh"], doc["threshold_on"])


# ----------------------------------------------------------------------
# distance providers
# ----------------------------------------------------------------------


class ProviderError(DataError):
    """A distance provider failed; never silently reported as zero."""


class DistanceProvider:
    """Base of the providers: `dist(i, j)` in miles, and `nearest` and `thin` built on it."""

    def nearest(self, sources, count: int, n_nodes: int) -> list[list[tuple[float, int]]]:
        """Per source v: its `count` nearest other nodes among 0..n_nodes-1 as
        (dist(v, u), u) pairs in ascending order, ties on index.

        This default asks `dist` for every (v, u) pair.
        """
        return [sorted((self.dist(int(v), u), u) for u in range(n_nodes) if u != v)[:count]
                for v in sources]

    def thin(self, ordered, d_prime: float) -> list[int]:
        """Keep each node of `ordered` in turn unless a kept node is within d_prime
        of it by the smaller of the two query directions; asks `dist` per pair."""
        kept: list[int] = []
        for c in ordered:
            if not any(min(self.dist(c, h), self.dist(h, c)) <= d_prime for h in kept):
                kept.append(c)
        return kept


class HaversineDistances(DistanceProvider):
    """Great-circle provider; symmetric, stateless, safe to share."""

    def __init__(self, meta: list[SensorMeta]):
        self._lat = [m.latitude for m in meta]
        self._lon = [m.longitude for m in meta]

    def dist(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return haversine_miles(self._lat[i], self._lon[i], self._lat[j], self._lon[j])

    def nearest(self, sources, count: int, n_nodes: int) -> list[list[tuple[float, int]]]:
        """The scalar scan's result, with `dist` called only on a candidate set.

        numpy's great-circle rows give each d(v, u) as some d~ within e of the
        `math` value d. If t~ is the count-th smallest d~, count nodes have
        d <= t~ + e, so the count-th smallest d is at most t~ + e, and every
        node ranked at or before it, ties included, has d~ <= t~ + 2e. So the
        candidates d~ <= t~ (1 + 1e-6) + 1e-9 hold the exact top count whenever
        2e <= 1e-6 t~ + 1e-9, and ranking them by `dist` gives the scan's list.
        Over 3,000 points uniform on the sphere e was at most 1.2e-10 mi
        (5.4e-14 relative). Near antipodes, where a is within an ulp of 1, asin
        widens it to 1.2e-4 mi at d ~ 12,437 mi; the relative term allows 1.2e-2.
        `_grid_screen` leaves out only nodes whose true distance exceeds that
        bound, so whose d and d~ exceed t~ + e: they rank after the count-th.
        """
        if n_nodes > len(self._lat):
            raise ProviderError(f"{n_nodes} nodes but coordinates for {len(self._lat)}")
        count = min(count, n_nodes - 1)
        if count < 1:
            return [[] for _ in sources]
        sources = np.asarray(sources, dtype=np.int64)
        out: list = [None] * sources.size
        lat, lon = np.radians(self._lat[:n_nodes]), np.radians(self._lon[:n_nodes])
        for pos, cols, d, bound in _grid_screen(lat, lon, sources, count):
            for p, v, row, b in zip(pos.tolist(), sources[pos].tolist(), d, bound):
                out[p] = sorted((self.dist(v, u), u) for u in cols[row <= b].tolist())[:count]
        return out

    def thin(self, ordered, d_prime: float) -> list[int]:
        """The default's list. With d~ within e of d as in `nearest`, d~ <= d_prime
        (1 - 1e-6) - 1e-9 proves a pair near and d~ > d_prime (1 + 1e-6) + 1e-9
        far while e <= 1e-6 d_prime + 1e-9; only pairs between go to `dist`."""
        lat, lon = np.radians(self._lat), np.radians(self._lon)
        near, far = d_prime * (1.0 - 1e-6) - 1e-9, d_prime * (1.0 + 1e-6) + 1e-9
        cand, kept = np.asarray(ordered, dtype=np.int64), np.zeros(len(ordered), dtype=bool)
        step = max(1, (1 << 18) // max(1, cand.size))  # about 2 MB blocks
        for lo in range(0, cand.size, step):
            d = _great_circle(lat, lon, cand[lo:lo + step], cand[:lo + step])
            for i in range(lo, min(lo + step, cand.size)):
                if not (kept[:i] & (d[i - lo, :i] <= near)).any():
                    c, band = int(cand[i]), cand[:i][kept[:i] & (d[i - lo, :i] <= far)].tolist()
                    kept[i] = not any(min(self.dist(c, h), self.dist(h, c)) <= d_prime for h in band)
        return cand[kept].tolist()


class TableDistances(DistanceProvider):
    """Distances from a precomputed table keyed by node index; may be asymmetric."""

    def __init__(self, n_nodes: int, table: dict[tuple[int, int], float]):
        self.n_nodes = n_nodes
        for (i, j), d in table.items():
            if d < 0:
                raise ProviderError(f"negative distance for pair ({i}, {j})")
        self._table = dict(table)

    def dist(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        try:
            return self._table[(i, j)]
        except KeyError:
            raise ProviderError(f"no distance recorded for pair ({i}, {j})") from None

    @classmethod
    def from_csv(cls, path, meta: list[SensorMeta]) -> "TableDistances":
        """Load `from_id,to_id,miles` rows; ids must exist in the metadata."""
        index = {m.sensor_id: i for i, m in enumerate(canonical_order(meta))}
        table: dict[tuple[int, int], float] = {}
        for lineno, row in read_table(path, ["from_id", "to_id", "miles"]):
            src, dst, miles = row[0].strip(), row[1].strip(), row[2].strip()
            if src not in index or dst not in index:
                raise DataError(f"{path}: row {lineno}: unknown sensor id")
            try:
                d = float(miles)
            except ValueError:
                raise DataError(f"{path}: row {lineno}: bad miles value {miles!r}") from None
            if d < 0 or not math.isfinite(d):
                raise DataError(f"{path}: row {lineno}: invalid distance {d}")
            table[(index[src], index[dst])] = d
        return cls(len(index), table)


class RoutingServiceClient(DistanceProvider):
    """Optional HTTP routing backend.

    Issues ``GET {base_url}/route?from_lat=..&from_lon=..&to_lat=..&to_lon=..``
    and expects a JSON body ``{"miles": <float>}``. Any transport failure,
    non-200 status, malformed body, or negative distance raises ProviderError.
    """

    def __init__(self, base_url: str, meta: list[SensorMeta], timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._coords = [(m.latitude, m.longitude) for m in meta]

    def dist(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        import urllib.request  # here, not at the top: it loads ssl, http and email
        (lat1, lon1), (lat2, lon2) = self._coords[i], self._coords[j]
        url = (f"{self.base_url}/route?from_lat={lat1}&from_lon={lon1}"
               f"&to_lat={lat2}&to_lon={lon2}")
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                if resp.status != 200:
                    raise ProviderError(f"routing service returned status {resp.status}")
                body = json.loads(resp.read().decode("utf-8"))
        except ProviderError:
            raise
        except (urllib.error.URLError, TimeoutError, ValueError, OSError) as exc:
            raise ProviderError(f"routing query failed for ({i}, {j}): {exc}") from exc
        miles = body.get("miles") if isinstance(body, dict) else None
        if not isinstance(miles, (int, float)) or miles < 0 or not math.isfinite(miles):
            raise ProviderError(f"routing service returned invalid distance {miles!r}")
        return float(miles)


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------


def _great_circle(lat: np.ndarray, lon: np.ndarray, rows, cols) -> np.ndarray:
    """miles[rows, cols] (radians in); elementwise, so blocks agree with whole rows."""
    dphi = lat[rows, None] - lat[None, cols]
    dlam = lon[rows, None] - lon[None, cols]
    a = np.sin(dphi / 2.0) ** 2 + np.cos(lat[rows, None]) * np.cos(lat[None, cols]) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def _grid_screen(lat: np.ndarray, lon: np.ndarray, rows: np.ndarray, count: int):
    """Yield (pos, cols, d, bound) per block of `rows`: d = miles[rows[pos], cols]
    over ascending cols, a row's own column at inf; bound = t~ (1 + 1e-6) + 1e-9
    per row, t~ its count-th smallest d.

    Unit vectors on their principal axes sit in a 3-D grid of about `count`
    points per cell, so poles and the antimeridian need no special case. A
    block's cols are the nodes of the cells within Chebyshev index distance r
    of its own. Cells more than r apart on an axis put two points more than
    r * edge apart there, less the rounding of the vectors, the turn and
    floor(x / edge) (under 1e-14), so other nodes lie beyond reach = 2 R asin(
    (r * edge - 1e-12) / 2). r doubles until reach exceeds every bound; cols
    then hold every node the whole row ranks at or before t~, at equal values.
    """
    xyz = np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1)
    centered = xyz - xyz.mean(axis=0)
    xyz = xyz @ np.linalg.eigh(centered.T @ centered)[1]  # a patch of the sphere lies in two axes
    ext = np.sort(np.ptp(xyz, axis=0))[::-1]
    n_cells = max(1.0, lat.size / count)  # the edge that splits the extent into n_cells
    edge = max(1e-9, *((np.prod(ext[:j]) / n_cells) ** (1.0 / j) for j in (1, 2, 3)))
    idx = (np.floor(xyz / edge) - np.floor(xyz.min(axis=0) / edge)).astype(np.int64)
    dims = tuple((idx.max(axis=0) + 1).tolist())  # edge >= ext[0] / n_cells: each < n_cells + 2
    keys, cell_of = np.unique(np.ravel_multi_index(idx.T, dims), return_inverse=True)
    cells = np.stack(np.unravel_index(keys, dims), axis=1)
    members = np.argsort(cell_of, kind="stable")  # node indices grouped by cell, ascending
    starts = np.searchsorted(cell_of[members], np.arange(len(cells) + 1))
    index = {key: c for c, key in enumerate(map(tuple, cells.tolist()))}

    def ring(c: int, r: int) -> list[int]:
        """The occupied cells within Chebyshev index distance r of cell c."""
        if (2 * r + 1) ** 3 > len(cells):  # scan the occupied cells, not (2r + 1)^3 mostly empty ones
            return np.flatnonzero(np.abs(cells - cells[c]).max(axis=1) <= r).tolist()
        near = itertools.product(*(range(x - r, x + r + 1) for x in cells[c].tolist()))
        return [index[key] for key in near if key in index]

    row_cell = cell_of[rows]
    for c in np.unique(row_cell).tolist():
        group = np.flatnonzero(row_cell == c)
        step = max(1, (1 << 18) // sum(starts[q + 1] - starts[q] for q in ring(c, 1)))  # ~2 MB blocks
        for pos in (group[lo:lo + step] for lo in range(0, group.size, step)):
            block, r = rows[pos], 1
            while True:
                cells_r = ring(c, r)
                cols = np.sort(np.concatenate([members[starts[q]:starts[q + 1]] for q in cells_r]))
                d = _great_circle(lat, lon, block, cols)
                d[np.arange(block.size), np.searchsorted(cols, block)] = np.inf
                bound = (np.partition(d, count - 1, axis=1)[:, count - 1] * (1.0 + 1e-6) + 1e-9
                         if cols.size > count else np.full(block.size, np.inf))
                reach = 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, (r * edge - 1e-12) / 2.0))
                if len(cells_r) == len(cells) or reach > bound.max():
                    break
                r *= 2
            yield pos, cols, d, bound


def knn_candidates(meta: list[SensorMeta], k: int) -> set[tuple[int, int]]:
    """Directed (i, j) pairs: each node's k nearest others by great-circle miles.

    Indices refer to the canonical (sensor_id-sorted) order. Ties break on
    ascending node index, so the result is a pure function of the metadata set.
    """
    if not meta:
        raise DataError("empty graph")
    if k < 1:
        raise ValueError("k must be at least 1")
    ordered = canonical_order(meta)
    take = min(k, len(ordered) - 1)
    if take < 1:
        return set()
    lat = np.radians([m.latitude for m in ordered])
    lon = np.radians([m.longitude for m in ordered])
    pairs: set[tuple[int, int]] = set()
    for rows, cols, d, _ in _grid_screen(lat, lon, np.arange(lat.size), take):
        # a stable sort over ascending columns breaks distance ties on ascending index
        nearest = cols[np.argsort(d, axis=1, kind="stable")[:, :take]]
        pairs.update((i, j) for i, row in zip(rows.tolist(), nearest.tolist()) for j in row)
    return pairs


def build_adjacency(meta: list[SensorMeta], pairs: set[tuple[int, int]], provider,
                    thresh: float, sigma_mode: str | float = "auto",
                    threshold_on: str = "distance_sq") -> SensorGraph:
    """Gaussian-kernel weights w = exp(-(d/sigma)^2) on pairs passing the threshold.

    threshold_on="distance_sq" keeps a pair when d^2 <= thresh;
    threshold_on="weight" keeps it when w >= thresh.
    sigma_mode is "auto" (population std of all queried distances) or a fixed float.
    Self pairs (i, i) are skipped.
    """
    if threshold_on not in THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode {threshold_on!r}")
    ordered = canonical_order(meta)
    n = len(ordered)
    queried = sorted((i, j) for i, j in pairs if i != j)
    dists = np.empty(len(queried))
    for pos, (i, j) in enumerate(queried):
        d = provider.dist(i, j)
        if not math.isfinite(d):
            raise ProviderError(f"non-finite distance for pair ({i}, {j})")
        if d < 0:
            raise ProviderError(f"negative distance for pair ({i}, {j})")
        dists[pos] = d
    if sigma_mode == "auto":
        if queried:
            sigma = float(np.std(dists))
        else:
            sigma = 0.0
        if sigma == 0.0:
            raise NumericalError("degenerate kernel width")
    else:
        sigma = float(sigma_mode)
        if sigma <= 0.0:
            raise NumericalError("degenerate kernel width")
    rows, cols, weights = [], [], []
    for (i, j), d in zip(queried, dists):
        w = math.exp(-((d / sigma) ** 2))
        keep = d * d <= thresh if threshold_on == "distance_sq" else w >= thresh
        if keep and w > 0.0:
            rows.append(i)
            cols.append(j)
            weights.append(w)
    adj = CsrMatrix.from_triples(n, n, rows, cols, weights)
    return SensorGraph([m.sensor_id for m in ordered], adj,
                       kernel_sigma=sigma, kernel_thresh=float(thresh),
                       threshold_on=threshold_on)


# ----------------------------------------------------------------------
# metadata CSV
# ----------------------------------------------------------------------


def read_metadata_csv(path) -> list[SensorMeta]:
    meta: list[SensorMeta] = []
    for lineno, row in read_table(path, METADATA_HEADER):
        try:
            lat, lon = float(row[1]), float(row[2])
        except ValueError:
            raise DataError(f"{path}: row {lineno}: bad coordinates") from None
        try:
            meta.append(SensorMeta(row[0].strip(), lat, lon,
                                   row[3].strip(), row[4].strip(), row[5].strip()))
        except DataError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from None
    if not meta:
        raise DataError(f"{path}: no sensors listed")
    return meta


def write_metadata_csv(path, meta: list[SensorMeta]) -> None:
    write_table(path, METADATA_HEADER, ([m.sensor_id, repr(m.latitude), repr(m.longitude),
                                         m.district, m.sensor_type, m.lane_type] for m in meta))
