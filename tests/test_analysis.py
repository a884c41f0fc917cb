"""Error binning, coefficient of variation, CART, box stats, speed-flow table."""

import numpy as np
import pytest

from flowcast.analysis import (ErrorRecord, bin_mae, coefficient_of_variation,
                               emit_fundamental_diagram, mae_distribution_stats,
                               train_cart)
from flowcast.data import TICK, TimeSeriesPanel
from flowcast.errors import DataError

from oracles import box_iqr


def panel_of(series, feature_names=("speed", "flow")):
    values = np.asarray(series, dtype=np.float64)
    stamps = np.datetime64("2024-01-01", "s") + np.arange(values.shape[0]) * TICK
    ids = [f"S{i:02d}" for i in range(values.shape[1])]
    return TimeSeriesPanel(stamps, ids, values, np.zeros_like(values, dtype=bool),
                           feature_names)


def test_cov_examples():
    series = np.zeros((2, 3, 2))
    series[:, 0, 0] = [5.0, 5.0]     # constant -> 0
    series[:, 1, 0] = [5.0, 15.0]    # mean 10, population std 5 -> 0.5
    series[:, 2, 0] = [-1.0, 1.0]    # zero mean -> reported
    cov, zero_mean = coefficient_of_variation(panel_of(series), "speed")
    assert cov[0] == 0.0
    assert cov[1] == pytest.approx(0.5)
    assert np.isnan(cov[2]) and zero_mean == [2]


def test_cov_scale_invariance_and_mask():
    rng = np.random.default_rng(0)
    series = np.abs(rng.normal(size=(40, 2, 2))) + 1.0
    base, _ = coefficient_of_variation(panel_of(series), "speed")
    scaled, _ = coefficient_of_variation(panel_of(series * 3.0), "speed")
    assert np.allclose(base, scaled)
    masked = panel_of(series)
    masked.mask[5:, 0, 0] = True
    got, _ = coefficient_of_variation(masked, "speed")
    head = series[:5, 0, 0]
    want = head.std() / head.mean()
    assert got[0] == pytest.approx(want)


def test_bin_mae_boundaries_and_monotonicity():
    assert bin_mae(0.99) == 0
    assert bin_mae(1.0) == 1
    assert bin_mae(2.999) == 1
    assert bin_mae(3.0) == 2
    assert bin_mae(5.0) == 3
    assert bin_mae(50.0) == 3
    grid = np.linspace(0.0, 10.0, 400)
    classes = bin_mae(grid)
    assert (np.diff(classes) >= 0).all()
    with pytest.raises(ValueError):
        bin_mae(-0.1)


def _records(covs, labels_from=None, district="D7", sensor="loop", lane="mainline"):
    recs = []
    for i, c in enumerate(covs):
        mae = labels_from(c) if labels_from else c
        recs.append(ErrorRecord.make(f"S{i:04d}", mae, c, district, sensor, lane))
    return recs


def test_cart_single_perfect_split():
    rng = np.random.default_rng(1)
    covs = rng.uniform(0.0, 1.0, size=200)
    # class 1 exactly when cov > 0.3 (mae 2 falls in class 1, 0.5 in class 0)
    recs = _records(covs, labels_from=lambda c: 2.0 if c > 0.3 else 0.5)
    tree, train_acc, test_acc, importances = train_cart(recs, depth=8, seed=0)
    assert train_acc == 1.0 and test_acc == 1.0
    assert importances["cov"] == pytest.approx(1.0)
    assert importances["district"] == 0.0  # constant factor never splits


def test_cart_single_class_is_trivial():
    recs = _records(np.linspace(0, 1, 50), labels_from=lambda c: 0.2)
    tree, train_acc, test_acc, importances = train_cart(recs, seed=1)
    assert train_acc == 1.0 and test_acc == 1.0
    assert all(v == 0.0 for v in importances.values())
    assert tree.root.feature is None


def test_cart_importances_are_normalized():
    rng = np.random.default_rng(2)
    covs = rng.uniform(0, 1, 300)
    districts = rng.choice(["D7", "D4", "D3"], size=300)

    def label(c, d):
        return (4.0 if d == "D7" else 0.5) + (2.0 if c > 0.5 else 0.0)

    recs = [ErrorRecord.make(f"S{i:04d}", label(c, d), c, d, "loop", "mainline")
            for i, (c, d) in enumerate(zip(covs, districts))]
    _, train_acc, test_acc, importances = train_cart(recs, seed=3)
    vals = np.array(list(importances.values()))
    assert (vals >= 0).all()
    assert vals.sum() == pytest.approx(1.0)
    assert importances["district"] > 0.2  # the dominant synthetic factor
    assert train_acc > 0.9


def test_cart_accuracy_monotone_in_depth():
    rng = np.random.default_rng(4)
    covs = rng.uniform(0, 1, 400)
    noise = rng.uniform(0, 1, 400)
    recs = _records(covs, labels_from=lambda c: c * 8.0)
    last = 0.0
    for depth in (1, 2, 4, 8):
        _, train_acc, _, _ = train_cart(recs, depth=depth, seed=5)
        assert train_acc >= last - 1e-12
        last = train_acc


def test_cart_recovers_cov_rule():
    rng = np.random.default_rng(6)
    n = 600
    covs = rng.uniform(0, 1, n)
    districts = rng.choice(["D7", "D4", "D3", "D8"], size=n)
    sensors = rng.choice(["loop", "radar", "magnetometer"], size=n)
    lanes = rng.choice(["mainline", "hov"], size=n)
    def label(c):
        return 0.5 if c < 0.25 else 2.0 if c < 0.5 else 4.0 if c < 0.75 else 6.0
    recs = [ErrorRecord.make(f"S{i:04d}", label(c), c, d, s, l)
            for i, (c, d, s, l) in enumerate(zip(covs, districts, sensors, lanes))]
    _, train_acc, test_acc, importances = train_cart(recs, depth=8, seed=7)
    assert test_acc >= 0.95
    assert importances["cov"] >= 0.8


def test_cart_deterministic_given_seed():
    rng = np.random.default_rng(8)
    recs = _records(rng.uniform(0, 1, 120), labels_from=lambda c: c * 6.0)
    a = train_cart(recs, seed=9)
    b = train_cart(recs, seed=9)
    assert a[1:3] == b[1:3]
    assert a[3] == b[3]


def test_box_stats_examples():
    s = mae_distribution_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
    assert s.whisker_low == 1.0 and s.whisker_high == 5.0
    assert s.outliers == []

    single = mae_distribution_stats([7.0])
    assert (single.q1, single.median, single.q3) == (7.0, 7.0, 7.0)
    assert single.whisker_low == single.whisker_high == 7.0

    with_outlier = mae_distribution_stats([1.0, 2.0, 3.0, 4.0, 5.0, 12.0])
    fence = with_outlier.q3 + 1.5 * box_iqr(with_outlier)
    assert 12.0 > fence
    assert with_outlier.outliers == [12.0]
    assert with_outlier.whisker_high == 5.0
    with pytest.raises(DataError):
        mae_distribution_stats([])


def test_emit_fundamental_diagram():
    pred = np.zeros((3, 2, 2))
    pred[:, :, 0] = [[60.0, 58.0]] * 3
    pred[:, :, 1] = [[100.0, 90.0]] * 3
    rows = emit_fundamental_diagram(pred, ["a", "b"], ("speed", "flow"))
    assert len(rows) == 6  # n ticks per node
    assert rows[0] == ("a", 0, 60.0, 100.0)
    with pytest.raises(DataError, match="flow not forecast"):
        emit_fundamental_diagram(pred[:, :, :1], ["a", "b"], ("speed",))
