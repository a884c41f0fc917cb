"""Time-series panels: ingestion, imputation, scaling, windowing, synthesis.

A panel is a [time x node x feature] float64 block on a strict 5-minute grid
with a boolean missing mask (True = missing). Masked entries hold NaN and are
excluded from every statistic. Node order always matches the canonical
(sensor_id-sorted) graph order.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, NumericalError
from .graph import SensorMeta
from .tables import LINE_END, field, read_blocks, write_lines

FEATURES = ("speed", "flow")
TIMESERIES_HEADER = ["timestamp", "sensor_id", "speed", "flow"]
TICK = np.timedelta64(300, "s")
TICKS_PER_DAY = 288

IMPUTE_METHODS = ("temporal_mean", "temporal_median", "linear_interpolation")


@dataclass
class TimeSeriesPanel:
    timestamps: np.ndarray  # datetime64[s], uniform 5-minute spacing
    node_ids: list[str]
    values: np.ndarray  # [T, N, F]
    mask: np.ndarray  # [T, N, F], True = missing
    feature_names: tuple[str, ...] = FEATURES

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        t, n, f = len(self.timestamps), len(self.node_ids), len(self.feature_names)
        if self.values.shape != (t, n, f) or self.mask.shape != (t, n, f):
            raise DataError("panel arrays do not match timestamps/nodes/features")
        if t > 1:
            gaps = np.diff(self.timestamps)
            if not (gaps == TICK).all():
                raise DataError("timestamps must be strictly increasing on a 5-minute grid")

    @property
    def n_ticks(self) -> int:
        return len(self.timestamps)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise DataError(f"unknown feature {name!r}") from None

    def tick_slice(self, start: int, stop: int) -> "TimeSeriesPanel":
        return replace(self, timestamps=self.timestamps[start:stop].copy(),
                       values=self.values[start:stop].copy(),
                       mask=self.mask[start:stop].copy())

    def weekday(self) -> np.ndarray:
        """0 = Monday .. 6 = Sunday per tick."""
        days = self.timestamps.astype("datetime64[D]").astype(np.int64)
        return (days + 3) % 7

    def time_of_day_slot(self) -> np.ndarray:
        """Index of the 5-minute slot within the day, 0..287."""
        secs = self.timestamps.astype(np.int64)
        return (secs % 86400) // 300


# ----------------------------------------------------------------------
# long-format CSV: timestamp,sensor_id,speed,flow (empty fields = missing)
# ----------------------------------------------------------------------


def read_timeseries_csv(path) -> TimeSeriesPanel:
    """The panel of a long-format CSV, in memory that grows with the panel.

    Each block of rows becomes stamp codes, node codes and values (NaN where
    missing); once every row has passed, they fill the preallocated panel.
    The earliest bad row is reported: within a row its timestamp, then speed,
    then flow, then whether its (instant, sensor) pair came before. Only then
    come an empty file and a timestamp off the 5-minute grid."""
    stamp_code: dict[str, int] = {}  # spelling, raw or stripped -> index in `spellings`
    spellings: list[str] = []  # stripped, in order of first appearance
    seconds: list[int] = []  # epoch seconds of each spelling
    node_code: dict[str, int] = {}  # sensor id, raw or stripped -> index in `sensors`
    sensors: list[str] = []

    def new_stamps(column) -> bool:
        """Code every unseen spelling in `column`; False at one that does not parse."""
        for raw in [r for r in dict.fromkeys(column) if r not in stamp_code]:
            ts = raw.strip()
            if ts not in stamp_code:
                sec = _epoch_seconds(ts)
                if sec is None:
                    return False
                stamp_code[ts] = len(spellings)
                spellings.append(ts)
                seconds.append(sec)
            stamp_code[raw] = stamp_code[ts]
        return True

    def parse(columns):
        """(stamp codes, node codes, values) of a block; ValueError at a bad row."""
        ts_col, sid_col, *value_cols = columns
        n = len(ts_col)
        if not new_stamps(ts_col):
            raise ValueError("bad timestamp")
        for raw in [r for r in dict.fromkeys(sid_col) if r not in node_code]:
            sid = raw.strip()
            node_code[raw] = node_code.setdefault(sid, len(sensors))
            if node_code[sid] == len(sensors):
                sensors.append(sid)
        values = np.full((n, len(value_cols)), math.nan)
        for j, column in enumerate(value_cols):
            present = slice(None)
            if "" in column or any(map(str.isspace, column)):  # some values missing
                column = list(map(str.strip, column))
                present = np.fromiter(map(bool, column), bool, n)
            parsed = np.fromiter(map(float, filter(None, column)), np.float64)
            if not np.isfinite(parsed).all():
                raise ValueError("bad value")
            values[present, j] = parsed
        return (np.fromiter(map(stamp_code.__getitem__, ts_col), np.int32, n),
                np.fromiter(map(node_code.__getitem__, sid_col), np.int32, n), values)

    def first_bad(rows, first) -> tuple[int, str]:
        """Index and message of the first bad row, checked field by field."""
        for i, row in enumerate(rows):
            if not new_stamps([row[0]]):
                return i, f"row {first + i}: bad timestamp {row[0].strip()!r}"
            for text in map(str.strip, row[2:]):
                try:
                    bad = text != "" and not math.isfinite(float(text))
                except ValueError:
                    bad = True
                if bad:
                    return i, f"row {first + i}: bad value {text!r}"
        raise AssertionError("parse rejected a block without a bad row")

    blocks, error = [], None
    try:
        for first, columns in read_blocks(path, TIMESERIES_HEADER):
            try:
                blocks.append(parse(columns))
            except ValueError:
                bad, problem = first_bad(list(zip(*columns)), first)
                if bad:
                    blocks.append(parse([c[:bad] for c in columns]))
                error = DataError(f"{path}: {problem}")
                break
    except DataError as exc:  # from the table: the header, a field count, the encoding
        error = exc
    secs = np.asarray(seconds, dtype=np.int64)
    row = _first_repeat(blocks, secs, len(sensors)) if blocks else None
    if row is not None:  # an index among the kept rows, which run in file order from row 2
        stamp, node = (np.concatenate([b[k] for b in blocks])[row] for k in (0, 1))
        raise DataError(f"{path}: row {row + 2}: duplicate observation for "
                        f"{sensors[node]} at {spellings[stamp]}")
    if error is not None:
        raise error
    if not blocks:
        raise DataError(f"{path}: no observations")
    tick = int(TICK / np.timedelta64(1, "s"))
    lo, hi = int(secs.min()), int(secs.max())
    off = (secs - lo) % tick != 0
    if off.any():
        raise DataError(f"{path}: timestamp {spellings[int(np.argmax(off))]} "
                        "is off the 5-minute grid")
    grid = np.arange(lo, hi + tick, tick).astype("datetime64[s]")
    node_ids = sorted(sensors)
    column = {s: i for i, s in enumerate(node_ids)}
    node_column = np.array([column[s] for s in sensors], dtype=np.int64)
    tick_row = (secs - lo) // tick
    values = np.full((len(grid), len(node_ids), len(FEATURES)), math.nan)
    cells = values.reshape(-1, len(FEATURES))
    blocks.reverse()
    while blocks:  # each block is freed once placed
        stamp, node, block_values = blocks.pop()
        cells[tick_row[stamp] * len(node_ids) + node_column[node]] = block_values
    return TimeSeriesPanel(grid, node_ids, values, np.isnan(values))


def _epoch_seconds(ts: str) -> int | None:
    """Seconds since the epoch of an ISO-8601 stamp; None if it names no instant."""
    try:
        stamp = np.datetime64(ts, "s")
    except ValueError:
        return None
    return None if np.isnat(stamp) else int(stamp.astype(np.int64))


def _first_repeat(blocks, seconds: np.ndarray, n_nodes: int) -> int | None:
    """Index of the first row of `blocks` whose (instant, sensor) pair an
    earlier row has, or None. Keyed by instant, so two spellings of one tick
    collide."""
    instant = np.unique(seconds, return_inverse=True)[1]

    def keys() -> np.ndarray:
        out, lo = np.empty(sum(b[0].size for b in blocks), dtype=np.int64), 0
        for stamp, node, _ in blocks:
            out[lo:lo + stamp.size] = instant[stamp] * n_nodes + node
            lo += stamp.size
        return out

    ordered = keys()
    ordered.sort()  # in place: a second array of keys only when a pair repeats
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    unordered = keys()
    order = np.argsort(unordered, kind="stable")
    return int(order[1:][unordered[order[1:]] == unordered[order[:-1]]].min())


_WRITE_ROWS = 1 << 14  # rows formatted per write, in whole ticks


def write_timeseries_csv(path, panel: TimeSeriesPanel) -> None:
    """One row per (tick, node) in panel order: each value as repr(float),
    a masked one as an empty field. A block of ticks at a time is formatted
    with one repr of its values."""
    t, n, f = panel.values.shape
    ticks = max(1, _WRITE_ROWS // max(n, 1))
    ids = np.array([field(sid) + "," for sid in panel.node_ids], dtype=object)
    ends = [","] * (f - 1) + [LINE_END]

    def blocks():
        for lo in range(0, t if n else 0, ticks):
            hi = min(lo + ticks, t)
            text = repr(panel.values[lo:hi].ravel().tolist())[1:-1].split(", ")
            text = np.array(text, dtype=object).reshape(hi - lo, n, f)
            text[panel.mask[lo:hi]] = ""
            row = np.empty((hi - lo, n, 2 + 2 * f), dtype=object)
            row[:, :, 0] = np.array([f"{ts}," for ts in panel.timestamps[lo:hi]],
                                    dtype=object)[:, None]
            row[:, :, 1] = ids
            row[:, :, 2::2] = text
            row[:, :, 3::2] = ends
            yield "".join(row.ravel().tolist())

    write_lines(path, TIMESERIES_HEADER, blocks())


# ----------------------------------------------------------------------
# binary container: magic, length-prefixed JSON header, raw payloads
# ----------------------------------------------------------------------

_MAGIC = b"FCBIN1\n"
_DTYPES = ("float64", "int64", "uint8")  # all that Checkpoint.save writes


def write_array_container(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    header = {
        "meta": meta,
        "arrays": [{"name": k, "dtype": str(v.dtype), "shape": list(v.shape)}
                   for k, v in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v).tobytes())


def read_array_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and meta of a container; any malformed file raises DataError."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise DataError(f"{path}: not a flowcast binary container")
        end = os.fstat(fh.fileno()).st_size

        def read_exactly(n: int, what: str) -> bytes:
            # checked before reading: a corrupt length must not size an allocation
            if n > end - fh.tell():
                raise DataError(f"{path}: {what} is truncated "
                                f"({end - fh.tell()} of {n} bytes)")
            return fh.read(n)

        (hlen,) = struct.unpack("<Q", read_exactly(8, "header length"))
        try:
            header = json.loads(read_exactly(hlen, "header").decode("utf-8"))
            meta, entries = dict(header["meta"]), header["arrays"]
            specs = [(str(e["name"]), str(e["dtype"]), [int(d) for d in e["shape"]])
                     for e in entries]
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: corrupt container header ({exc!r})") from exc
        arrays = {}
        for name, dtype, shape in specs:
            if dtype not in _DTYPES or min(shape, default=0) < 0:
                raise DataError(f"{path}: array {name!r} has unsupported {dtype} {shape}")
            buf = read_exactly(math.prod(shape) * np.dtype(dtype).itemsize, f"array {name!r}")
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    return arrays, meta


# ----------------------------------------------------------------------
# imputation
# ----------------------------------------------------------------------


def impute(panel: TimeSeriesPanel, method: str = "temporal_mean",
           stats_through: int | None = None) -> TimeSeriesPanel:
    """Fill every masked entry; returns a panel with an all-false mask.

    temporal_mean / temporal_median pool observed values in the same
    (time-of-day, weekday-vs-weekend) slot per node and feature; slots with no
    observations fall back to the node's feature mean, then the global feature
    mean. linear_interpolation works along time per node/feature, extending
    edge values outward. stats_through limits the pooling window to ticks
    [0, stats_through) so statistics can be restricted to the training slice.
    """
    if method not in IMPUTE_METHODS:
        raise DataError(f"unknown imputation method {method!r}")
    t, n, f = panel.values.shape
    observed_any = ~panel.mask
    for fi in range(f):
        if not observed_any[:, :, fi].any():
            raise DataError(f"feature entirely missing: {panel.feature_names[fi]}")
    if not panel.mask.any():
        return replace(panel, values=panel.values.copy(), mask=panel.mask.copy())
    stats_stop = t if stats_through is None else int(stats_through)
    pool = np.zeros(t, dtype=bool)
    pool[:stats_stop] = True
    obs = np.where(panel.mask, np.nan, panel.values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices hit the fallbacks
        node_mean = np.nanmean(np.where(pool[:, None, None], obs, np.nan), axis=0)  # [N, F]
        global_mean = np.nanmean(np.where(pool[:, None, None], obs, np.nan), axis=(0, 1))  # [F]
    # a pooling window with no observations falls back to the whole panel
    bad = ~np.isfinite(global_mean)
    if bad.any():
        global_mean[bad] = np.nanmean(obs, axis=(0, 1))[bad]
    fallback = np.where(np.isfinite(node_mean), node_mean, global_mean[None, :])

    filled = panel.values.copy()
    if method == "linear_interpolation":
        ticks = np.arange(t, dtype=np.float64)
        for ni in range(n):
            for fi in range(f):
                miss = panel.mask[:, ni, fi]
                if not miss.any():
                    continue
                known = np.flatnonzero(~miss)
                if known.size == 0:
                    filled[miss, ni, fi] = fallback[ni, fi]
                    continue
                filled[miss, ni, fi] = np.interp(ticks[miss], ticks[known],
                                                 panel.values[known, ni, fi])
    else:
        slot = panel.time_of_day_slot()
        weekend = panel.weekday() >= 5
        stat = np.nanmean if method == "temporal_mean" else np.nanmedian
        missing_tn = panel.mask.any(axis=(1, 2))
        for wknd in (False, True):
            cls = weekend == wknd
            for s in np.unique(slot[cls & missing_tn]):
                sel = cls & (slot == s)
                sample = obs[sel & pool]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    slot_stat = stat(sample, axis=0) if sample.shape[0] else np.full((n, f), np.nan)
                slot_stat = np.where(np.isfinite(slot_stat), slot_stat, fallback)
                block = filled[sel]
                block_mask = panel.mask[sel]
                block[block_mask] = np.broadcast_to(slot_stat, block.shape)[block_mask]
                filled[sel] = block
    if not np.isfinite(filled).all():
        raise DataError("imputation left non-finite values")
    return replace(panel, values=filled, mask=np.zeros_like(panel.mask))


# ----------------------------------------------------------------------
# chronological split and normalization
# ----------------------------------------------------------------------


def split(panel: TimeSeriesPanel, fractions=(0.7, 0.1, 0.2), min_length: int = 1):
    """Contiguous (train, valid, test) slices; floor rounding, test takes the rest."""
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError("fractions must be three values summing to 1")
    t = panel.n_ticks
    n_train = int(t * fractions[0])
    n_valid = int(t * fractions[1])
    n_test = t - n_train - n_valid
    for name, length in (("train", n_train), ("valid", n_valid), ("test", n_test)):
        if length < min_length:
            raise DataError(f"{name} slice has {length} ticks, fewer than {min_length}")
    return (panel.tick_slice(0, n_train),
            panel.tick_slice(n_train, n_train + n_valid),
            panel.tick_slice(n_train + n_valid, t))


@dataclass(frozen=True)
class FeatureScaler:
    means: np.ndarray
    stds: np.ndarray
    feature_names: tuple[str, ...]


def fit_scaler(panel: TimeSeriesPanel) -> FeatureScaler:
    """Per-feature population moments over the observed entries of this panel."""
    obs = np.where(panel.mask, np.nan, panel.values)
    means = np.nanmean(obs, axis=(0, 1))
    stds = np.sqrt(np.nanmean((obs - means) ** 2, axis=(0, 1)))
    for fi, s in enumerate(stds):
        if not np.isfinite(s) or s <= 0.0:
            raise NumericalError(f"degenerate feature scale: {panel.feature_names[fi]}")
    return FeatureScaler(means, stds, tuple(panel.feature_names))


def transform(panel: TimeSeriesPanel, scaler: FeatureScaler) -> TimeSeriesPanel:
    z = (panel.values - scaler.means) / scaler.stds
    return replace(panel, values=z, mask=panel.mask.copy())


def transform_values(values: np.ndarray, scaler: FeatureScaler, features=None) -> np.ndarray:
    idx = _feature_indices(scaler.feature_names, features)
    return (values - scaler.means[idx]) / scaler.stds[idx]


def inverse_transform(values: np.ndarray, scaler: FeatureScaler, features=None) -> np.ndarray:
    """Map normalized values (trailing feature axis) back to original units."""
    idx = _feature_indices(scaler.feature_names, features)
    return values * scaler.stds[idx] + scaler.means[idx]


def _feature_indices(names: tuple[str, ...], features) -> np.ndarray:
    if features is None:
        return np.arange(len(names))
    out = []
    for f in features:
        if f not in names:
            raise DataError(f"unknown feature {f!r}")
        out.append(names.index(f))
    return np.asarray(out, dtype=np.int64)


# ----------------------------------------------------------------------
# windowing
# ----------------------------------------------------------------------


@dataclass
class WindowedDataset:
    x: np.ndarray  # [samples, lookback, nodes, P], read-only
    y: np.ndarray  # [samples, horizon, nodes, Q], read-only
    starts: np.ndarray
    input_features: tuple[str, ...]
    output_features: tuple[str, ...]

    @property
    def n_samples(self) -> int:
        return int(self.x.shape[0])


def make_windows(panel: TimeSeriesPanel, lookback: int = 12, horizon: int = 12,
                 stride: int = 1, input_features=None, output_features=None) -> WindowedDataset:
    """Sliding (lookback, horizon) windows; sample i covers ticks [i, i+lookback+horizon).

    x and y are read-only views of the panel's values, not copies; features
    picked in other than ascending, evenly spaced order are copied once."""
    if panel.mask.any():
        raise DataError("panel still has missing entries; impute before windowing")
    span = lookback + horizon
    if panel.n_ticks < span:
        raise DataError(f"panel has {panel.n_ticks} ticks, need at least {span}")
    in_names = tuple(input_features) if input_features else tuple(panel.feature_names)
    out_names = tuple(output_features) if output_features else tuple(panel.feature_names)
    starts = np.arange(0, panel.n_ticks - span + 1, stride, dtype=np.int64)

    def windows(names, offset: int, length: int) -> np.ndarray:
        idx = _feature_indices(tuple(panel.feature_names), names)
        step = int(idx[1] - idx[0]) if idx.size > 1 else 1
        if step > 0 and np.array_equal(idx, idx[0] + step * np.arange(idx.size)):
            idx = slice(int(idx[0]), int(idx[-1]) + 1, step)  # a view, not a copy
        view = sliding_window_view(panel.values[offset:, :, idx], length, axis=0)
        return np.moveaxis(view, -1, 1)[::stride][:starts.size]

    return WindowedDataset(windows(in_names, 0, lookback), windows(out_names, lookback, horizon),
                           starts, in_names, out_names)


def slice_for_partition(panel: TimeSeriesPanel, bundle) -> TimeSeriesPanel:
    """Panel columns reordered to the bundle's local node order (halos included)."""
    index = {s: i for i, s in enumerate(panel.node_ids)}
    cols = []
    for sid in bundle.graph.sensor_ids:
        if sid not in index:
            raise DataError(f"panel is missing node {sid}")
        cols.append(index[sid])
    cols = np.asarray(cols, dtype=np.int64)
    # np.take gives one C-contiguous copy: on strided arrays training rounds differently
    return replace(panel, node_ids=list(bundle.graph.sensor_ids),
                   values=np.take(panel.values, cols, axis=1),
                   mask=np.take(panel.mask, cols, axis=1))


# ----------------------------------------------------------------------
# synthetic corridor traffic
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticScenario:
    """Clustered highway corridors driven by a triangular flow-density relation."""

    n_nodes: int = 24
    days: int = 14
    clusters: int = 1
    congestion_windows: tuple = ((7.0, 9.0), (16.0, 18.0))
    noise: float = 0.05
    seed: int = 0
    start: str = "2024-01-01"  # a Monday
    free_flow_mph: float = 65.0
    jam_density_vpm: float = 200.0
    wave_speed_mph: float = 15.0
    base_density_ratio: float = 0.35
    peak_density_ratio: float = 2.5
    ramp_minutes: int = 30
    node_spacing_deg: float = 0.006
    cluster_spacing_deg: float = 0.9
    lag_ticks_per_node: float = 0.5

    @property
    def critical_density(self) -> float:
        return self.wave_speed_mph * self.jam_density_vpm / (self.free_flow_mph + self.wave_speed_mph)

    @property
    def critical_flow_per_tick(self) -> float:
        return self.free_flow_mph * self.critical_density / 12.0

    def congested_flow_for_speed(self, speed) -> np.ndarray:
        """Flow (veh/5min) on the congested branch at the given speed (mph)."""
        speed = np.asarray(speed, dtype=np.float64)
        return self.wave_speed_mph * self.jam_density_vpm * speed / (speed + self.wave_speed_mph) / 12.0

    def node_lag_ticks(self) -> np.ndarray:
        per_cluster = _cluster_sizes(self.n_nodes, self.clusters)
        lags = []
        for size in per_cluster:
            lags.extend(int(round(i * self.lag_ticks_per_node)) for i in range(size))
        return np.asarray(lags, dtype=np.int64)


def _cluster_sizes(n_nodes: int, clusters: int) -> list[int]:
    base = n_nodes // clusters
    sizes = [base + (1 if c < n_nodes % clusters else 0) for c in range(clusters)]
    return sizes


_DISTRICTS = ("D7", "D4", "D3", "D8", "D10", "D11", "D12", "D5", "D6")
_SENSOR_TYPES = ("loop", "radar", "magnetometer")


def generate_synthetic(scenario: SyntheticScenario) -> tuple[list[SensorMeta], TimeSeriesPanel]:
    """Deterministic synthetic corridor: speed plateaus at free flow, dips in
    congestion windows (weekdays only), and flow follows the triangular
    relation, so congested ticks pair low speed with low-to-mid flow."""
    sc = scenario
    if sc.n_nodes < 1 or sc.days < 1 or sc.clusters < 1 or sc.clusters > sc.n_nodes:
        raise DataError("invalid synthetic scenario dimensions")
    rng = np.random.default_rng(sc.seed)
    sizes = _cluster_sizes(sc.n_nodes, sc.clusters)
    # Clusters stack northward from 37°N and wrap into a new column east of the
    # widest cluster before passing 90°N (59 per column at the default spacing).
    per_column = (int(53.0 // sc.cluster_spacing_deg) + 1 if sc.cluster_spacing_deg > 0
                  else sc.clusters)
    column_deg = sc.node_spacing_deg * max(sizes) + sc.cluster_spacing_deg
    meta = []
    node = 0
    for c, size in enumerate(sizes):
        lat0 = 37.0 + sc.cluster_spacing_deg * (c % per_column)
        lon0 = -122.0 + column_deg * (c // per_column)
        for i in range(size):
            meta.append(SensorMeta(
                sensor_id=f"S{node:04d}",
                latitude=lat0,
                longitude=lon0 + sc.node_spacing_deg * i,
                district=_DISTRICTS[c % len(_DISTRICTS)],
                sensor_type=_SENSOR_TYPES[node % len(_SENSOR_TYPES)],
                lane_type="hov" if node % 5 == 4 else "mainline",
            ))
            node += 1

    t_total = sc.days * TICKS_PER_DAY
    start = np.datetime64(sc.start, "s")
    timestamps = start + np.arange(t_total) * TICK
    days = timestamps.astype("datetime64[D]").astype(np.int64)
    weekday = (days + 3) % 7
    tod = (timestamps.astype(np.int64) % 86400) // 300

    k_c = sc.critical_density
    ramp_ticks = max(1, sc.ramp_minutes // 5)
    hours = tod / 12.0
    base = k_c * sc.base_density_ratio * (0.75 + 0.5 * np.sin(2.0 * math.pi * (hours - 15.0) / 24.0))
    lags = sc.node_lag_ticks()
    shape = np.zeros((t_total, sc.n_nodes))
    for ws_h, we_h in sc.congestion_windows:
        ws, we = int(round(ws_h * 12)), int(round(we_h * 12))
        for ni in range(sc.n_nodes):
            local = tod - lags[ni]
            s = _window_shape(local, ws, we, ramp_ticks)
            s[weekday >= 5] = 0.0
            shape[:, ni] = np.maximum(shape[:, ni], s)
    density = base[:, None] + (sc.peak_density_ratio * k_c - base[:, None]) * shape

    congested = density > k_c
    speed = np.where(congested, sc.wave_speed_mph * (sc.jam_density_vpm - density)
                     / np.maximum(density, 1e-9), sc.free_flow_mph)
    flow = np.where(congested, sc.wave_speed_mph * (sc.jam_density_vpm - density),
                    sc.free_flow_mph * density) / 12.0
    if sc.noise > 0:
        speed = speed + rng.normal(0.0, sc.noise * sc.free_flow_mph, speed.shape)
        flow = flow + rng.normal(0.0, sc.noise * sc.critical_flow_per_tick, flow.shape)
        speed = np.maximum(speed, 1.0)
        flow = np.maximum(flow, 0.0)

    values = np.stack([speed, flow], axis=-1)
    mask = np.zeros_like(values, dtype=bool)
    return meta, TimeSeriesPanel(timestamps, [m.sensor_id for m in meta], values, mask)


def _window_shape(local_tod: np.ndarray, ws: int, we: int, ramp: int) -> np.ndarray:
    x = local_tod.astype(np.float64)
    up = np.clip((x - ws) / ramp, 0.0, 1.0)
    down = np.clip((we - x) / ramp, 0.0, 1.0)
    inside = (x >= ws) & (x <= we)
    s = np.minimum(up, down)
    s = 0.5 - 0.5 * np.cos(math.pi * s)  # raised-cosine edges
    return np.where(inside, s, 0.0)


def congested_core_ticks(scenario: SyntheticScenario, panel: TimeSeriesPanel) -> np.ndarray:
    """Ticks where every node sits at full peak density (past ramps and lags)."""
    sc = scenario
    ramp_ticks = max(1, sc.ramp_minutes // 5)
    max_lag = int(sc.node_lag_ticks().max()) if sc.n_nodes else 0
    tod = panel.time_of_day_slot()
    weekday = panel.weekday()
    core = np.zeros(panel.n_ticks, dtype=bool)
    for ws_h, we_h in sc.congestion_windows:
        ws, we = int(round(ws_h * 12)), int(round(we_h * 12))
        core |= (tod >= ws + ramp_ticks + max_lag) & (tod <= we - ramp_ticks)
    core &= weekday < 5
    return core
