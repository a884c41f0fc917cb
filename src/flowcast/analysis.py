"""Forecast-error analysis: binning, dispersion, and CART sensitivity.

The error-factor study models per-node MAE classes as a function of four
factors (traffic dynamics measured by coefficient of variation, district,
sensor type, lane type) with a depth-limited Gini decision tree whose
normalized impurity decrease doubles as a factor importance score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeriesPanel
from .errors import DataError
from .tables import write_table

FACTORS = ("cov", "district", "sensor_type", "lane_type")
_FACTOR_KINDS = ("numeric", "categorical", "categorical", "categorical")

MAE_CLASS_EDGES = (1.0, 3.0, 5.0)  # [0,1) [1,3) [3,5) [5,inf)
_CART_TEST_FRACTION = 0.2  # share of records held out to score the tree


def coefficient_of_variation(panel: TimeSeriesPanel, feature: str = "speed"):
    """Population std over mean per node; zero-mean nodes come back as NaN
    together with their indices (reported, not fatal)."""
    fi = panel.feature_index(feature)
    obs = np.where(panel.mask[:, :, fi], np.nan, panel.values[:, :, fi])
    mean = np.nanmean(obs, axis=0)
    std = np.sqrt(np.nanmean((obs - mean) ** 2, axis=0))
    zero_mean = [i for i, m in enumerate(mean) if m == 0.0]
    cov = np.full(panel.n_nodes, np.nan)
    ok = np.array([m != 0.0 for m in mean])
    cov[ok] = std[ok] / mean[ok]
    return cov, zero_mean


def bin_mae(mae):
    """Half-open classes: 0 for [0,1), 1 for [1,3), 2 for [3,5), 3 for [5,inf)."""
    arr = np.asarray(mae, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("MAE must be nonnegative")
    classes = np.digitize(arr, MAE_CLASS_EDGES)
    return classes if arr.ndim else int(classes)


@dataclass(frozen=True)
class ErrorRecord:
    node_id: str
    mae: float
    mae_class: int
    cov: float
    district: str
    sensor_type: str
    lane_type: str

    @classmethod
    def make(cls, node_id: str, mae: float, cov: float, district: str,
             sensor_type: str, lane_type: str) -> "ErrorRecord":
        return cls(node_id, float(mae), bin_mae(float(mae)), float(cov),
                   district, sensor_type, lane_type)


def _design_matrix(records: list[ErrorRecord]):
    cols = [np.array([r.cov for r in records], dtype=np.float64),
            np.array([r.district for r in records], dtype=object),
            np.array([r.sensor_type for r in records], dtype=object),
            np.array([r.lane_type for r in records], dtype=object)]
    y = np.array([r.mae_class for r in records], dtype=np.int64)
    return cols, y


# ----------------------------------------------------------------------
# CART
# ----------------------------------------------------------------------


@dataclass
class CartNode:
    counts: np.ndarray
    prediction: int
    feature: int | None = None  # None for a leaf
    threshold: float | None = None  # numeric split: go left when value <= threshold
    category: object = None  # categorical split: go left when value == category
    left: "CartNode | None" = None
    right: "CartNode | None" = None


@dataclass
class CartTree:
    root: CartNode

    def predict_one(self, cov: float, district: str, sensor_type: str, lane_type: str) -> int:
        row = (cov, district, sensor_type, lane_type)
        node = self.root
        while node.feature is not None:
            if _FACTOR_KINDS[node.feature] == "numeric":
                go_left = row[node.feature] <= node.threshold
            else:
                go_left = row[node.feature] == node.category
            node = node.left if go_left else node.right
        return node.prediction

    def predict(self, records: list[ErrorRecord]) -> np.ndarray:
        return np.array([self.predict_one(r.cov, r.district, r.sensor_type, r.lane_type)
                         for r in records], dtype=np.int64)


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _best_split(cols, y, idx, n_classes):
    """(gain, feature, threshold, category, left_idx, right_idx) or None."""
    n = idx.size
    parent_counts = np.bincount(y[idx], minlength=n_classes)
    parent_gini = _gini(parent_counts)
    best = None
    for f, kind in enumerate(_FACTOR_KINDS):
        col = cols[f][idx]
        if kind == "numeric":
            order = np.argsort(col, kind="stable")
            svals, sy = col[order], y[idx][order]
            left_counts = np.zeros(n_classes)
            for pos in range(n - 1):
                left_counts[sy[pos]] += 1
                if svals[pos] == svals[pos + 1]:
                    continue
                right_counts = parent_counts - left_counts
                nl = pos + 1
                w = (nl * _gini(left_counts) + (n - nl) * _gini(right_counts)) / n
                gain = parent_gini - w
                if best is None or gain > best[0] + 1e-12:
                    thr = (svals[pos] + svals[pos + 1]) / 2.0
                    mask = col <= thr
                    best = (gain, f, thr, None, idx[mask], idx[~mask])
        else:
            for cat in sorted(set(col)):
                mask = col == cat
                nl = int(mask.sum())
                if nl == 0 or nl == n:
                    continue
                lc = np.bincount(y[idx][mask], minlength=n_classes)
                rc = parent_counts - lc
                w = (nl * _gini(lc) + (n - nl) * _gini(rc)) / n
                gain = parent_gini - w
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, f, None, cat, idx[mask], idx[~mask])
    if best is None or best[0] <= 1e-12:
        return None
    return best


def train_cart(records: list[ErrorRecord], depth: int = 8, seed: int = 0):
    """Greedy Gini CART over the four factors with an 80/20 shuffled split.

    Returns (tree, train_accuracy, test_accuracy, importances); importances are
    the normalized total impurity decrease per factor and sum to 1 whenever any
    split happened. Single-class data yields a trivial tree with zero importances.
    """
    if not records:
        raise DataError("no error records")
    cols, y = _design_matrix(records)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(records))
    n_train = max(1, int(len(records) * (1.0 - _CART_TEST_FRACTION)))
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    n_classes = len(MAE_CLASS_EDGES) + 1
    raw_importance = np.zeros(len(FACTORS))
    n_total = train_idx.size

    def build(idx: np.ndarray, level: int) -> CartNode:
        counts = np.bincount(y[idx], minlength=n_classes)
        node = CartNode(counts, int(np.argmax(counts)))
        if level >= depth or idx.size < 2 or _gini(counts) == 0.0:
            return node
        found = _best_split(cols, y, idx, n_classes)
        if found is None:
            return node
        gain, f, thr, cat, left_idx, right_idx = found
        raw_importance[f] += (idx.size / n_total) * gain
        node.feature, node.threshold, node.category = f, thr, cat
        node.left = build(left_idx, level + 1)
        node.right = build(right_idx, level + 1)
        return node

    root = build(train_idx, 0)
    total = raw_importance.sum()
    importances = {name: (float(v / total) if total > 0 else 0.0)
                   for name, v in zip(FACTORS, raw_importance)}
    tree = CartTree(root)
    pred = tree.predict(records)
    train_acc = float((pred[train_idx] == y[train_idx]).mean())
    test_acc = float((pred[test_idx] == y[test_idx]).mean()) if test_idx.size else train_acc
    return tree, train_acc, test_acc, importances


# ----------------------------------------------------------------------
# distribution summaries and the speed-flow table
# ----------------------------------------------------------------------


@dataclass
class BoxStats:
    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: list[float]


def mae_distribution_stats(values) -> BoxStats:
    """Tukey box statistics: quartiles by linear interpolation, 1.5*IQR whiskers."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DataError("no values to summarize")
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = sorted(float(v) for v in arr[(arr < lo_fence) | (arr > hi_fence)])
    return BoxStats(float(q1), float(med), float(q3),
                    float(inside.min()), float(inside.max()), outliers)


def emit_fundamental_diagram(pred: np.ndarray, node_ids: list[str],
                             output_features: tuple[str, ...]) -> list[tuple]:
    """(node_id, step, speed, flow) rows from a multioutput forecast, unchanged units."""
    if "speed" not in output_features or "flow" not in output_features:
        raise DataError("flow not forecast")
    si = output_features.index("speed")
    qi = output_features.index("flow")
    rows = []
    for ni, sid in enumerate(node_ids):
        for t in range(pred.shape[0]):
            rows.append((sid, t, float(pred[t, ni, si]), float(pred[t, ni, qi])))
    return rows


# ----------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------


def write_error_records_csv(path, records: list[ErrorRecord]) -> None:
    write_table(path, ["node_id", "mae", "mae_class", "cov", "district", "sensor_type",
                       "lane_type"],
                ([r.node_id, repr(r.mae), r.mae_class, repr(r.cov), r.district, r.sensor_type,
                  r.lane_type] for r in records))


def write_box_stats_csv(path, stats: BoxStats) -> None:
    write_table(path, ["q1", "median", "q3", "whisker_low", "whisker_high", "outliers"],
                [[repr(stats.q1), repr(stats.median), repr(stats.q3), repr(stats.whisker_low),
                  repr(stats.whisker_high), ";".join(repr(v) for v in stats.outliers)]])


def write_fundamental_csv(path, rows: list[tuple]) -> None:
    write_table(path, ["node_id", "step", "speed_mph", "flow_veh_per_5min"],
                ([sid, step, repr(speed), repr(flow)] for sid, step, speed, flow in rows))


def write_importances_csv(path, importances: dict[str, float],
                          train_acc: float, test_acc: float) -> None:
    write_table(path, ["factor", "importance"],
                [[name, repr(importances[name])] for name in FACTORS]
                + [["train_accuracy", repr(train_acc)], ["test_accuracy", repr(test_acc)]])
