"""Training loop, orchestration, checkpointing, and inference."""

import math
from dataclasses import replace

import numpy as np
import pytest

import flowcast.sparse as sparse_mod
import flowcast.training as training_mod
from flowcast.data import TICK, FeatureScaler, TimeSeriesPanel, slice_for_partition
from flowcast.errors import ConfigError, DataError
from flowcast.graph import SensorGraph
from flowcast.model import Seq2SeqConfig, init_params
from flowcast.optim import global_norm
from flowcast.partition import PartitionAssignment, SubgraphBundle, extract_subgraphs
from flowcast.training import (Checkpoint, TrainingConfig, evaluate, forecast,
                               mode_features, prepare_partition_windows,
                               scheduled_sampling_epsilon, train_all, train_partition)

from oracles import csr_from_dense, train_curve, valid_curve


def graph_of(dense) -> SensorGraph:
    dense = np.asarray(dense, dtype=np.float64)
    ids = [f"S{i:02d}" for i in range(dense.shape[0])]
    return SensorGraph(ids, csr_from_dense(dense))


def ring(n: int) -> np.ndarray:
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, (i + 1) % n] = 1.0
        dense[(i + 1) % n, i] = 1.0
    return dense


def whole_bundle(g: SensorGraph) -> SubgraphBundle:
    return extract_subgraphs(g, PartitionAssignment(np.zeros(g.n_nodes, int), 1))[0]


def identity_scaler(features=("speed",)) -> FeatureScaler:
    n = len(features)
    return FeatureScaler(np.zeros(n), np.ones(n), tuple(features))


def constant_windows(n_samples, lookback, horizon, n_nodes, value, q=1):
    x = np.full((n_samples, lookback, n_nodes, q), value)
    y = np.full((n_samples, horizon, n_nodes, q), value)
    from flowcast.data import WindowedDataset
    feats = ("speed",) if q == 1 else ("speed", "flow")
    return WindowedDataset(x, y, np.arange(n_samples), feats, feats)


# ----------------------------------------------------------------------
# schedule and config
# ----------------------------------------------------------------------


def test_scheduled_sampling_schedule():
    for tau in (5.0, 40.0, 200.0):
        eps0 = scheduled_sampling_epsilon(0, tau)
        assert eps0 == pytest.approx(tau / (tau + 1.0), abs=1e-15)
        values = [scheduled_sampling_epsilon(i, tau) for i in range(0, 5000, 7)]
        # strictly decreasing until float64 can no longer represent the tail
        assert all(b < a for a, b in zip(values, values[1:]) if a > 0.0)
        bound = int(tau * math.log(100.0 * tau)) + 1
        assert scheduled_sampling_epsilon(bound, tau) < 0.01
    assert scheduled_sampling_epsilon(10 ** 9, 40.0) == 0.0  # overflow guard


def test_training_config_validation():
    cfg = TrainingConfig(epochs=50)
    assert cfg.resolved_milestones() == (30, 40)
    assert TrainingConfig(epochs=50, lr_milestones=(5, 9)).resolved_milestones() == (5, 9)
    with pytest.raises(ConfigError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainingConfig(lr_milestones=(5, 5))
    with pytest.raises(ConfigError):
        TrainingConfig(learning_rate=-1.0)


# ----------------------------------------------------------------------
# single-partition training behavior
# ----------------------------------------------------------------------


def _fast_config(**overrides):
    base = dict(batch_size=16, diffusion_steps=2, layers=1, units=4, epochs=8,
                patience=10, learning_rate=0.05, sampling_tau=10.0, seed=3)
    base.update(overrides)
    return TrainingConfig(**base)


def test_constant_series_learns_to_near_zero_error():
    g = graph_of(ring(4))
    bundle = whole_bundle(g)
    train_w = constant_windows(128, 3, 3, 4, 0.7)
    valid_w = constant_windows(16, 3, 3, 4, 0.7)
    cfg = _fast_config(epochs=20)
    ckpt, report = train_partition(bundle, train_w, valid_w, identity_scaler(), cfg)
    assert report.best_valid < 0.05
    assert report.best_epoch == int(np.argmin(valid_curve(report)))


def test_zero_learning_rate_freezes_parameters():
    g = graph_of(ring(4))
    bundle = whole_bundle(g)
    scaler = identity_scaler()
    runs = []
    for epochs in (1, 4):
        cfg = _fast_config(learning_rate=0.0, epochs=epochs, patience=99)
        ckpt, _ = train_partition(bundle, constant_windows(32, 3, 3, 4, 0.5),
                                  constant_windows(8, 3, 3, 4, 0.5), scaler, cfg)
        runs.append(ckpt.param_values)
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_same_seed_is_bit_identical():
    g = graph_of(ring(5))
    bundle = whole_bundle(g)
    rng = np.random.default_rng(0)
    base = rng.normal(size=(60, 5, 1)).cumsum(axis=0) * 0.05 + 1.0
    x = np.stack([base[s:s + 3] for s in range(40)])
    y = np.stack([base[s + 3:s + 6] for s in range(40)])
    from flowcast.data import WindowedDataset
    train_w = WindowedDataset(x[:32], y[:32], np.arange(32), ("speed",), ("speed",))
    valid_w = WindowedDataset(x[32:], y[32:], np.arange(8), ("speed",), ("speed",))
    cfg = _fast_config(epochs=3)

    def run():
        return train_partition(bundle, train_w, valid_w, identity_scaler(), cfg)

    ck1, rep1 = run()
    ck2, rep2 = run()
    assert train_curve(rep1) == train_curve(rep2)
    assert valid_curve(rep1) == valid_curve(rep2)
    for a, b in zip(ck1.param_values, ck2.param_values):
        assert np.array_equal(a, b)


def test_post_clip_norm_respects_bound(monkeypatch):
    recorded = []
    original = training_mod.clip_by_global_norm

    def wrapper(grads, max_norm):
        out = original(grads, max_norm)
        recorded.append(global_norm(out))
        return out

    monkeypatch.setattr(training_mod, "clip_by_global_norm", wrapper)
    g = graph_of(ring(4))
    cfg = _fast_config(epochs=2, max_grad_norm=0.5)
    train_partition(whole_bundle(g), constant_windows(48, 3, 3, 4, 0.9),
                    constant_windows(8, 3, 3, 4, 0.9), identity_scaler(), cfg)
    assert recorded
    assert all(norm <= 0.5 + 1e-9 for norm in recorded)


def test_divergence_is_reported():
    g = graph_of(ring(4))
    bad = constant_windows(16, 3, 3, 4, np.nan)
    with pytest.raises(Exception, match="divergence|finite|non-finite"):
        train_partition(whole_bundle(g), bad, bad, identity_scaler(), _fast_config(epochs=1))


# ----------------------------------------------------------------------
# crafted-checkpoint inference arithmetic
# ----------------------------------------------------------------------


def constant_predictor_checkpoint(beta: float, n_nodes: int = 2, horizon: int = 12,
                                  halo_last: bool = True):
    """All-zero weights force zero hidden states, so every step predicts beta."""
    g = graph_of(ring(n_nodes))
    cfg = Seq2SeqConfig(input_dim=1, output_dim=1, lookback=4, horizon=horizon,
                        layers=2, units=3, max_diffusion_steps=2)
    params = init_params(cfg, seed=0)
    for _, tensor in params.named():
        tensor.value = np.zeros_like(tensor.value)
    params.proj_b.value = np.array([beta])
    assignment = PartitionAssignment(np.zeros(n_nodes, int), 1)
    bundle = extract_subgraphs(g, assignment)[0]
    if halo_last:
        bundle.halo_flags[-1] = True
    from flowcast.model import build_supports
    supports = build_supports(g, cfg.filter_type, cfg.max_diffusion_steps)
    ckpt = Checkpoint(config=cfg, param_names=[n for n, _ in params.named()],
                      param_values=[t.value.copy() for t in params.tensors()],
                      scaler=identity_scaler(), sensor_ids=list(g.sensor_ids),
                      halo_flags=bundle.halo_flags.copy(), supports=supports.matrices,
                      input_features=("speed",), output_features=("speed",))
    return ckpt, bundle


def test_forecast_constant_predictor():
    ckpt, _ = constant_predictor_checkpoint(5.0)
    window = np.random.default_rng(1).normal(size=(4, 2, 1))
    pred = forecast(ckpt, window)
    assert pred.shape == (12, 2, 1)
    assert np.allclose(pred, 5.0)
    assert np.array_equal(pred, forecast(ckpt, window))
    with pytest.raises(DataError, match="window shape"):
        forecast(ckpt, window[:3])


def test_forecast_applies_inverse_transform():
    ckpt, _ = constant_predictor_checkpoint(2.0)
    ckpt.scaler = FeatureScaler(np.array([30.0]), np.array([4.0]), ("speed",))
    window = np.full((4, 2, 1), 30.0)
    pred = forecast(ckpt, window)
    assert np.allclose(pred, 30.0 + 2.0 * 4.0)  # beta in normalized space


def _random_checkpoint(adjacency, units):
    """Random weights and two scaled features on one whole graph."""
    g = graph_of(adjacency)
    n = g.n_nodes
    cfg = Seq2SeqConfig(input_dim=2, output_dim=2, lookback=3, horizon=2, layers=2, units=units)
    params = init_params(cfg, seed=5)
    from flowcast.model import build_supports
    features = ("speed", "flow")
    return Checkpoint(cfg, [name for name, _ in params.named()], params.values(),
                      FeatureScaler(np.array([55.0, 80.0]), np.array([6.0, 9.0]), features),
                      list(g.sensor_ids), np.zeros(n, bool),
                      build_supports(g, "random_walk", 2).matrices, features, features)


def _path_graph(n):
    path = np.zeros((n, n))
    path[np.arange(n - 1), np.arange(1, n)] = path[np.arange(1, n), np.arange(n - 1)] = 1.0
    return path


def _unbanded_graph(n):
    rng = np.random.default_rng(n)
    return np.where(rng.uniform(size=(n, n)) < 0.1, rng.uniform(size=(n, n)), 0.0)


@pytest.mark.parametrize("adjacency, units, product", [
    (_path_graph(70), 4, "band blocks"),
    (_unbanded_graph(60), 4, "broadcast dense product"),
    (_unbanded_graph(300), 16, "folded dense product"),
], ids=["band", "broadcast", "fold"])
def test_forecast_of_a_batch_equals_its_windows_forecast_one_by_one(monkeypatch, adjacency,
                                                                    units, product):
    """A batch split into several blocks, on each product path a block can
    take, equals each window's forecast alone bit for bit, whether the blocks
    run on one thread or two."""
    ckpt = _random_checkpoint(adjacency, units)
    n = len(ckpt.sensor_ids)
    s = ckpt.supports[0]
    assert (s._band(False) is not None) == (product == "band blocks")
    assert (n * n > sparse_mod.BROADCAST_MAX_CELLS) == (product == "folded dense product")
    windows = np.random.default_rng(4).normal(60.0, 8.0, size=(5, 3, n, 2))
    monkeypatch.setattr(training_mod, "_BLOCK_ROWS", 2 * n)  # blocks of 1 or 2 windows
    alone = np.stack([forecast(ckpt, w) for w in windows])
    for cpus in (1, 2):
        monkeypatch.setattr(training_mod, "_usable_cpus", lambda: cpus)
        batch = forecast(ckpt, windows)
        assert batch.shape == (5, 2, n, 2)
        assert batch.tobytes() == alone.tobytes()
    for wrong_rank in (windows[None], windows[0, 0]):
        with pytest.raises(DataError, match="window shape"):
            forecast(ckpt, wrong_rank)


def test_forecast_splits_by_rows_not_by_cpus(monkeypatch):
    """Blocks of whole windows, about _BLOCK_ROWS window-node rows each, one
    predict call per block: on the caller with one CPU, else on a pool of at
    most one thread per CPU."""
    import threading

    ckpt = _random_checkpoint(_path_graph(70), 4)
    windows = np.random.default_rng(6).normal(60.0, 8.0, size=(21, 3, 70, 2))
    sizes, threads, counts = [], set(), []

    def recording_predict(params, supports, z):
        sizes.append(len(z))
        threads.add(threading.get_ident())
        counts.append(threading.active_count())
        return predict(params, supports, z)

    from flowcast.model import predict
    monkeypatch.setattr(training_mod, "predict", recording_predict)
    monkeypatch.setattr(training_mod, "_BLOCK_ROWS", 300)  # 1470 rows: 5 blocks
    before = threading.active_count()
    for cpus in (1, 2, 64):
        monkeypatch.setattr(training_mod, "_usable_cpus", lambda: cpus)
        sizes.clear()
        threads.clear()
        counts.clear()
        forecast(ckpt, windows)
        assert sorted(sizes) == [4, 4, 4, 4, 5]
        assert (threading.get_ident() in threads) == (cpus == 1)
        assert (max(counts) > before) == (cpus > 1)
        assert len(threads) <= min(cpus, 5) and max(counts) <= before + min(cpus, 5)
    sizes.clear()
    threads.clear()
    forecast(ckpt, windows[:4])  # 280 rows: one block, on the caller's thread
    assert sizes == [4] and threads == {threading.get_ident()}


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_block_raises_unchanged_and_leaves_no_thread(monkeypatch, cpus):
    import threading

    from flowcast.errors import NumericalError

    ckpt = _random_checkpoint(_path_graph(70), 4)
    windows = np.random.default_rng(7).normal(60.0, 8.0, size=(6, 3, 70, 2))
    windows[4, 1, 10, 0] = np.nan  # the last of three blocks diverges
    monkeypatch.setattr(training_mod, "_BLOCK_ROWS", 140)
    monkeypatch.setattr(training_mod, "_usable_cpus", lambda: cpus)
    before = threading.active_count()
    assert forecast(ckpt, windows[:4]).shape == (4, 2, 70, 2)
    assert threading.active_count() == before
    with pytest.raises(NumericalError, match="numerical divergence"):
        forecast(ckpt, windows)
    assert threading.active_count() == before


def test_usable_cpus_follow_the_affinity_set(monkeypatch):
    monkeypatch.setattr(training_mod.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert training_mod._usable_cpus() == 3
    monkeypatch.delattr(training_mod.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(training_mod.os, "cpu_count", lambda: 6)
    assert training_mod._usable_cpus() == 6


def test_many_threads_first_use_of_fresh_supports_stress(monkeypatch):
    """More pool threads than cores and a short switch interval; each round
    forecasts on a fresh checkpoint, so its blocks race to fill the supports'
    dense caches, and must still equal the one-thread forecast bit for bit."""
    import sys

    windows = np.random.default_rng(8).normal(60.0, 8.0, size=(8, 3, 70, 2))
    monkeypatch.setattr(training_mod, "_BLOCK_ROWS", 70)  # one window per block
    monkeypatch.setattr(training_mod, "_usable_cpus", lambda: 1)
    want = forecast(_random_checkpoint(_path_graph(70), 4), windows).tobytes()
    monkeypatch.setattr(training_mod, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            assert forecast(_random_checkpoint(_path_graph(70), 4), windows).tobytes() == want
    finally:
        sys.setswitchinterval(interval)


def test_evaluate_exact_mae_and_halo_exclusion():
    ckpt, bundle = constant_predictor_checkpoint(5.0, n_nodes=2, horizon=12)
    from flowcast.data import WindowedDataset
    x = np.zeros((2, 4, 2, 1))
    y = np.empty((2, 12, 2, 1))
    y[0] = 5.0 - 1.0  # absolute error 1 in sample 0
    y[1] = 5.0 + 3.0  # absolute error 3 in sample 1
    windows = WindowedDataset(x, y, np.arange(2), ("speed",), ("speed",))
    result = evaluate(ckpt, windows, bundle)
    assert result.node_ids == ["S00"]  # S01 is a halo
    assert result.mae.shape == (1, 1)
    assert result.mae[0, 0] == pytest.approx(2.0)  # mean of 1 and 3
    for minutes in (15, 30, 60):
        assert result.horizon_mae[minutes][0, 0] == pytest.approx(2.0)


def test_evaluate_perfect_and_offset_predictors():
    ckpt, bundle = constant_predictor_checkpoint(4.0, n_nodes=2, horizon=6)
    from flowcast.data import WindowedDataset
    x = np.zeros((3, 4, 2, 1))
    perfect = WindowedDataset(x, np.full((3, 6, 2, 1), 4.0), np.arange(3),
                              ("speed",), ("speed",))
    assert evaluate(ckpt, perfect, bundle).mae[0, 0] == 0.0
    off = WindowedDataset(x, np.full((3, 6, 2, 1), 3.0), np.arange(3),
                          ("speed",), ("speed",))
    assert evaluate(ckpt, off, bundle).mae[0, 0] == pytest.approx(1.0)
    assert 15 in evaluate(ckpt, off, bundle).horizon_mae
    assert 60 not in evaluate(ckpt, off, bundle).horizon_mae  # horizon is 30 minutes
    short = WindowedDataset(x, np.full((3, 5, 2, 1), 3.0), np.arange(3), ("speed",), ("speed",))
    with pytest.raises(DataError, match="target shape"):
        evaluate(ckpt, short, bundle)


def test_checkpoint_load_rejects_other_containers(tmp_path):
    from flowcast.data import write_array_container
    import numpy as _np

    path = tmp_path / "other.fcbin"
    write_array_container(path, {"x": _np.zeros(3)}, {"format": "something-else"})
    with pytest.raises(DataError, match="checkpoint"):
        Checkpoint.load(path)


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    ckpt, _ = constant_predictor_checkpoint(1.25)
    path = tmp_path / "ck.fcbin"
    ckpt.save(path)
    first = path.read_bytes()
    back = Checkpoint.load(path)
    window = np.random.default_rng(2).normal(size=(4, 2, 1))
    assert np.array_equal(forecast(back, window), forecast(ckpt, window))
    back.save(path)
    assert path.read_bytes() == first
    assert back.config == ckpt.config
    assert back.sensor_ids == ckpt.sensor_ids


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------


def _two_cluster_panel_and_bundles(constant_second=False):
    """Six nodes in two triangles; values vary smoothly per node."""
    dense = np.zeros((6, 6))
    for tri in ((0, 1, 2), (3, 4, 5)):
        for a in tri:
            for b in tri:
                if a != b:
                    dense[a, b] = 1.0
    g = graph_of(dense)
    assignment = PartitionAssignment(np.array([0, 0, 0, 1, 1, 1]), 2)
    bundles = extract_subgraphs(g, assignment)
    t = 160
    ticks = np.arange(t)
    values = np.empty((t, 6, 2))
    for node in range(6):
        values[:, node, 0] = 55.0 + 5.0 * np.sin(2 * np.pi * (ticks / 48.0 + node / 6.0))
        values[:, node, 1] = 80.0 + 10.0 * np.cos(2 * np.pi * (ticks / 48.0 + node / 3.0))
    if constant_second:
        values[:, 3:, :] = 42.0  # degenerate scale for partition 1
    stamps = np.datetime64("2024-01-01", "s") + np.arange(t) * TICK
    panel = TimeSeriesPanel(stamps, list(g.sensor_ids), values,
                            np.zeros_like(values, dtype=bool))
    return panel, bundles


def _split_panel(panel, n_train=120):
    return panel.tick_slice(0, n_train), panel.tick_slice(n_train, panel.n_ticks)


def test_train_all_parallel_matches_sequential_and_is_independent():
    panel, bundles = _two_cluster_panel_and_bundles()
    train_panel, valid_panel = _split_panel(panel)
    cfg = _fast_config(epochs=2, batch_size=32)
    seq = train_all(bundles, train_panel, valid_panel, cfg, mode="speed_only",
                    lookback=3, horizon=2, workers=1)
    par = train_all(bundles, train_panel, valid_panel, cfg, mode="speed_only",
                    lookback=3, horizon=2, workers=4)
    assert all(r.ok for r in seq) and all(r.ok for r in par)
    for a, b in zip(seq, par):
        assert train_curve(a.report) == train_curve(b.report)
        for pa, pb in zip(a.checkpoint.param_values, b.checkpoint.param_values):
            assert np.array_equal(pa, pb)

    # retraining partition 0 with a different seed leaves partition 1 untouched
    reseeded = train_all([bundles[0]], train_panel, valid_panel,
                         TrainingConfig(**{**cfg.__dict__, "seed": 999}),
                         mode="speed_only", lookback=3, horizon=2)
    assert reseeded[0].ok
    assert not np.array_equal(reseeded[0].checkpoint.param_values[-1],
                              seq[0].checkpoint.param_values[-1])
    again = train_all(bundles, train_panel, valid_panel, cfg, mode="speed_only",
                      lookback=3, horizon=2, workers=1)
    for pa, pb in zip(again[1].checkpoint.param_values, seq[1].checkpoint.param_values):
        assert np.array_equal(pa, pb)


def test_train_all_isolates_partition_failures():
    panel, bundles = _two_cluster_panel_and_bundles(constant_second=True)
    train_panel, valid_panel = _split_panel(panel)
    cfg = _fast_config(epochs=1, batch_size=32)
    results = train_all(bundles, train_panel, valid_panel, cfg, mode="speed_only",
                        lookback=3, horizon=2)
    assert results[0].ok
    assert not results[1].ok and "degenerate" in results[1].error
    summary = training_mod.aggregate_training_summary(results)
    assert summary["trained"] == 1 and len(summary["failed"]) == 1


def test_train_all_sends_each_task_only_its_bundle_columns(monkeypatch):
    panel, bundles = _two_cluster_panel_and_bundles()
    train_panel, valid_panel = _split_panel(panel)
    alone = SensorGraph(["S_not_in_panel"], csr_from_dense(np.zeros((1, 1))))
    stray = replace(extract_subgraphs(alone, PartitionAssignment(np.zeros(1, int), 1))[0],
                    part_id=2)
    sent = []

    def spy(task, run=training_mod._train_task):
        sent.append(task[:3])
        return run(task)

    monkeypatch.setattr(training_mod, "_train_task", spy)
    results = train_all([stray, *bundles], train_panel, valid_panel,
                        _fast_config(epochs=1, batch_size=32), lookback=3, horizon=2)
    assert [r.part_id for r in results] == [stray.part_id, 0, 1]
    assert "missing node S_not_in_panel" in results[0].error
    assert all(r.ok for r in results[1:])
    assert [b.part_id for b, _, _ in sent] == [0, 1]
    for bundle, local_train, local_valid in sent:
        assert local_train.node_ids == local_valid.node_ids == list(bundle.graph.sensor_ids)
        assert local_train.values.shape == (120, bundle.n_local, 2)
        assert local_valid.values.shape == (40, bundle.n_local, 2)


def test_train_all_empty_is_empty():
    panel, _ = _two_cluster_panel_and_bundles()
    train_panel, valid_panel = _split_panel(panel)
    assert train_all([], train_panel, valid_panel, _fast_config()) == []


def test_prepare_partition_windows_normalizes_with_local_scaler():
    panel, bundles = _two_cluster_panel_and_bundles()
    train_panel, valid_panel = _split_panel(panel)
    train_w, valid_w, scaler = prepare_partition_windows(
        slice_for_partition(train_panel, bundles[0]), slice_for_partition(valid_panel, bundles[0]),
        "multioutput", 3, 2)
    assert train_w.x.shape[-1] == 2 and train_w.y.shape[-1] == 2
    local = panel.values[:120, :3, :]
    assert scaler.means[0] == pytest.approx(local[..., 0].mean())
    assert abs(train_w.x.mean()) < 0.2  # roughly centered after the transform


def test_mode_features():
    assert mode_features("speed_only") == (("speed",), ("speed",))
    assert mode_features("flow_only") == (("flow",), ("flow",))
    assert mode_features("multioutput") == (("speed", "flow"), ("speed", "flow"))
    with pytest.raises(ConfigError):
        mode_features("both")
