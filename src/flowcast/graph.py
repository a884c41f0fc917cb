"""Weighted directed sensor graph built from a thresholded Gaussian kernel.

Node indices are always assigned in ascending sensor_id order, so every
derived structure is independent of the input row order. Candidate edges
come from great-circle k-nearest-neighbor search; edge weights come from a
pluggable driving-distance provider pushed through exp(-(d/sigma)^2).
"""

from __future__ import annotations

import csv
import json
import math
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .sparse import CsrMatrix

EARTH_RADIUS_MILES = 3958.7613

METADATA_HEADER = ["sensor_id", "latitude", "longitude", "district", "sensor_type", "lane_type"]


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

    def weight(self, i: int, j: int) -> float:
        lo, hi = self.adjacency.indptr[i], self.adjacency.indptr[i + 1]
        cols = self.adjacency.indices[lo:hi]
        pos = np.searchsorted(cols, j)
        if pos < cols.size and cols[pos] == j:
            return float(self.adjacency.data[lo + pos])
        return 0.0

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
            "edges": [[int(ri), int(ci), float(vi)] for ri, ci, vi in zip(r, c, v)],
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
    """Base of the providers: `dist(i, j)` in miles, and `nearest` built on it."""

    def nearest(self, sources, count: int, n_nodes: int) -> list[list[tuple[float, int]]]:
        """Per source v: its `count` nearest other nodes among 0..n_nodes-1 as
        (dist(v, u), u) pairs in ascending order, ties on index.

        This default asks `dist` for every (v, u) pair.
        """
        return [sorted((self.dist(int(v), u), u) for u in range(n_nodes) if u != v)[:count]
                for v in sources]


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
        """
        if n_nodes > len(self._lat):
            raise ProviderError(f"{n_nodes} nodes but coordinates for {len(self._lat)}")
        count = min(count, n_nodes - 1)
        if count < 1:
            return [[] for _ in sources]
        lat = np.radians(self._lat[:n_nodes])
        lon = np.radians(self._lon[:n_nodes])
        out = []
        for rows, d in _great_circle_blocks(lat, lon, np.asarray(sources, dtype=np.int64)):
            d[np.arange(rows.size), rows] = np.inf  # a node is never its own neighbor
            bound = np.partition(d, count - 1, axis=1)[:, count - 1] * (1.0 + 1e-6) + 1e-9
            for v, row, b in zip(rows.tolist(), d, bound):
                ranked = sorted((self.dist(v, u), u) for u in np.flatnonzero(row <= b).tolist())
                out.append(ranked[:count])
        return out


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
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["from_id", "to_id", "miles"]:
                raise DataError(f"{path}: expected header from_id,to_id,miles")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise DataError(f"{path}: row {lineno}: expected 3 fields")
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


def _great_circle_blocks(lat: np.ndarray, lon: np.ndarray, rows: np.ndarray):
    """Yield (block, miles[block, n]) over `rows` in blocks of about 2^18 cells,
    so memory stays linear in n. lat and lon are in radians."""
    cos_lat = np.cos(lat)
    step = max(1, (1 << 18) // lat.size)  # 2 MB per temporary
    for lo in range(0, rows.size, step):
        block = rows[lo:lo + step]
        dphi = lat[block, None] - lat[None, :]
        dlam = lon[block, None] - lon[None, :]
        a = np.sin(dphi / 2.0) ** 2 + cos_lat[block, None] * cos_lat[None, :] * np.sin(dlam / 2.0) ** 2
        yield block, 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(a)))


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
    n = len(ordered)
    lat = np.radians([m.latitude for m in ordered])
    lon = np.radians([m.longitude for m in ordered])
    pairs: set[tuple[int, int]] = set()
    for rows, d in _great_circle_blocks(lat, lon, np.arange(n)):
        # a stable sort breaks distance ties on ascending index; a node is never its own neighbor
        d[np.arange(rows.size), rows] = np.inf
        nearest = np.argsort(d, axis=1, kind="stable")[:, :min(k, n - 1)]
        pairs.update((i, j) for i, row in zip(rows.tolist(), nearest.tolist()) for j in row)
    return pairs


def build_adjacency(meta: list[SensorMeta], pairs: set[tuple[int, int]], provider,
                    thresh: float, sigma_mode: str | float = "auto",
                    threshold_on: str = "distance_sq",
                    self_loops: bool = False) -> SensorGraph:
    """Gaussian-kernel weights w = exp(-(d/sigma)^2) on pairs passing the threshold.

    threshold_on="distance_sq" keeps a pair when d^2 <= thresh;
    threshold_on="weight" keeps it when w >= thresh.
    sigma_mode is "auto" (population std of all queried distances) or a fixed float.
    """
    if threshold_on not in ("distance_sq", "weight"):
        raise ValueError(f"unknown threshold mode {threshold_on!r}")
    ordered = canonical_order(meta)
    n = len(ordered)
    queried = sorted(p for p in pairs if self_loops or p[0] != p[1])
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty metadata file")
        if [h.strip() for h in header] != METADATA_HEADER:
            raise DataError(f"{path}: expected header {','.join(METADATA_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(METADATA_HEADER):
                raise DataError(f"{path}: row {lineno}: expected {len(METADATA_HEADER)} fields")
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METADATA_HEADER)
        for m in meta:
            writer.writerow([m.sensor_id, repr(m.latitude), repr(m.longitude),
                             m.district, m.sensor_type, m.lane_type])
