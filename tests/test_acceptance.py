"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines stream;
without -s they appear in captured output. The end-to-end criteria train real
models and take a few minutes on a laptop-class CPU.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flowcast.analysis import ErrorRecord, train_cart
from flowcast.autodiff import Tape, grads_for
from flowcast.data import (TICK, SyntheticScenario, TimeSeriesPanel,
                           congested_core_ticks, fit_scaler, generate_synthetic,
                           impute, make_windows, slice_for_partition, split, transform)
from flowcast.graph import (HaversineDistances, SensorGraph, TableDistances,
                            build_adjacency, canonical_order, knn_candidates)
from flowcast.model import (Seq2SeqConfig, build_supports, diffusion_conv,
                            init_params, loss_multi, seq2seq_loss)
from flowcast.autodiff import Tensor
from flowcast.partition import (PartitionAssignment, add_overlap_nodes,
                                extract_subgraphs, edge_cut, partition_graph)
from flowcast.training import (TrainingConfig, evaluate, forecast,
                               scheduled_sampling_epsilon, train_all)

from oracles import (assert_grads_close, brute_force_min_bisection, csr_from_dense,
                     dense_diffusion, finite_difference, train_curve)


def _emit(line: str) -> None:
    # visible with -s or --capture=tee-sys; still lands in captured output otherwise
    print(line, flush=True)


class _Verdict:
    detail = ""


@contextmanager
def criterion(number: int, title: str):
    verdict = _Verdict()
    try:
        yield verdict
    except BaseException as exc:
        _emit(f"ACCEPTANCE {number:02d} FAIL  {title}  ({exc})")
        raise
    suffix = f"  [{verdict.detail}]" if verdict.detail else ""
    _emit(f"ACCEPTANCE {number:02d} PASS  {title}{suffix}")


def graph_of(dense) -> SensorGraph:
    dense = np.asarray(dense, dtype=np.float64)
    ids = [f"S{i:02d}" for i in range(dense.shape[0])]
    return SensorGraph(ids, csr_from_dense(dense))


def random_graph(rng, n, density=0.5) -> np.ndarray:
    dense = np.where(rng.uniform(size=(n, n)) < density, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    return dense


# ----------------------------------------------------------------------
# 1. gradient fidelity
# ----------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    with criterion(1, "seq2seq gradients match central finite differences") as verdict:
        started = time.perf_counter()
        rng = np.random.default_rng(1001)
        g = graph_of(random_graph(rng, 5, density=0.6))
        cfg = Seq2SeqConfig(input_dim=1, output_dim=1, lookback=3, horizon=3,
                            layers=2, units=4, max_diffusion_steps=2,
                            filter_type="dual_random_walk")
        supports = build_supports(g, cfg.filter_type, cfg.max_diffusion_steps)
        params = init_params(cfg, seed=7)
        window = rng.normal(size=(2, 3, 5, 1))
        targets = rng.normal(size=(2, 3, 5, 1))
        leaves = params.tensors()

        tape = Tape()
        loss, _ = seq2seq_loss(tape, params, supports, window, targets, epsilon=0.0)
        analytic = grads_for(tape.backward(loss), leaves)

        def f():
            t = Tape()
            l, _ = seq2seq_loss(t, params, supports, window, targets, epsilon=0.0)
            return float(l.value)

        numeric = finite_difference(f, [t.value for t in leaves], step=1e-5)
        assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-7)
        elapsed = time.perf_counter() - started
        n_params = sum(t.value.size for t in leaves)
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        verdict.detail = f"{n_params} parameters in {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 2. diffusion oracle
# ----------------------------------------------------------------------


def test_criterion_2_diffusion_oracle():
    with criterion(2, "diffusion_conv equals dense brute-force summation") as verdict:
        rng = np.random.default_rng(2002)
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, 4))
            c_in, units = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            g = graph_of(random_graph(rng, n))
            dual = trial % 2 == 0
            sup = build_supports(g, "dual_random_walk" if dual else "random_walk",
                                 max_steps=k)
            blocks = [[rng.normal(size=(c_in, units)) for _ in range(k)]
                      for _ in range(sup.n_supports)]
            bias = rng.normal(size=units)
            gates = np.concatenate([b for per in blocks for b in per], axis=1)
            z = rng.normal(size=(n, c_in))
            got = diffusion_conv(sup, z[None], gates)[0] + bias
            want = dense_diffusion([m.to_dense() for m in sup.matrices], z, blocks, bias)
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 1e-10, f"worst deviation {worst:.2e}"
        verdict.detail = f"50 instances, worst |diff| {worst:.2e}"


# ----------------------------------------------------------------------
# 3. partition oracle
# ----------------------------------------------------------------------


def _planted(rng, n):
    half = n // 2
    dense = np.zeros((n, n))
    for lo, hi in ((0, half), (half, n)):
        idx = np.arange(lo, hi)
        for a, b in zip(idx, idx[1:]):
            dense[a, b] = dense[b, a] = rng.uniform(10.0, 20.0)
        for _ in range(n):
            a, b = rng.choice(idx, size=2, replace=False)
            dense[a, b] = dense[b, a] = max(dense[a, b], rng.uniform(10.0, 20.0))
    for _ in range(int(rng.integers(1, 3))):
        a, b = int(rng.integers(0, half)), int(rng.integers(half, n))
        dense[a, b] = dense[b, a] = rng.uniform(0.2, 1.0)
    return dense


def test_criterion_3_partition_oracle():
    with criterion(3, "k=2 recovers planted minimum balanced cuts") as verdict:
        rng = np.random.default_rng(3003)
        optimal = 0
        for trial in range(20):
            n = int(rng.integers(8, 17)) & ~1  # even, 8..16
            dense = _planted(rng, n)
            g = graph_of(dense)
            oracle_cut, _ = brute_force_min_bisection(dense)
            log = []
            got = partition_graph(g, 2, seed=trial, pass_log=log)
            got_cut = edge_cut(g, got)
            assert got_cut <= 2.0 * oracle_cut + 1e-9, \
                f"trial {trial}: cut {got_cut:.3f} vs oracle {oracle_cut:.3f}"
            assert log, "refinement must log its passes"
            assert all(after <= before + 1e-12 for _, before, after in log), \
                "a KL pass increased the cut"
            if abs(got_cut - oracle_cut) <= 1e-9:
                optimal += 1
        assert optimal >= 18, f"optimal on only {optimal}/20"
        verdict.detail = f"optimal on {optimal}/20, all passes cut-non-increasing"


# ----------------------------------------------------------------------
# 4. halo invariant
# ----------------------------------------------------------------------


def test_criterion_4_halo_invariant():
    with criterion(4, "halo thinning: spacing and greedy maximality") as verdict:
        rng = np.random.default_rng(4004)
        for _ in range(100):
            n = int(rng.integers(5, 16))
            coords = rng.uniform(0.0, 10.0, size=(n, 2))
            table = {(i, j): float(np.hypot(*(coords[i] - coords[j])))
                     for i in range(n) for j in range(n) if i != j}
            provider = TableDistances(n, table)
            g = graph_of(np.zeros((n, n)))
            k = int(rng.integers(2, 4))
            part_of = rng.integers(0, k, size=n)
            part_of[:k] = np.arange(k)  # every part nonempty
            assignment = PartitionAssignment(part_of, k)
            part = int(rng.integers(0, k))
            d_prime = float(rng.uniform(0.2, 4.0))
            horizon = int(rng.integers(1, n))
            kept = add_overlap_nodes(g, assignment, part, horizon, d_prime, provider)
            for a in kept:
                for b in kept:
                    if a != b:
                        assert provider.dist(a, b) > d_prime
            owned = set(np.flatnonzero(part_of == part).tolist())
            candidates = set()
            for v in owned:
                ranked = sorted((provider.dist(v, u), u) for u in range(n) if u != v)
                candidates.update(u for _, u in ranked[:horizon] if u not in owned)
            for dropped in candidates - set(kept):
                assert any(provider.dist(dropped, h) <= d_prime for h in kept), \
                    "a dropped candidate is not covered by any kept halo"
        verdict.detail = "100 randomized configurations"


# ----------------------------------------------------------------------
# 5 & 6. end-to-end training
# ----------------------------------------------------------------------


def _build_network(scenario):
    meta, panel = generate_synthetic(scenario)
    provider = HaversineDistances(canonical_order(meta))
    pairs = knn_candidates(meta, min(30, scenario.n_nodes - 1))
    graph = build_adjacency(meta, pairs, provider, thresh=100.0)
    return meta, panel, provider, graph


def _mean_test_mae(results, bundles, test_panel, feature=("speed",)):
    per_node = []
    for r, b in zip(results, bundles):
        local = slice_for_partition(test_panel, b)
        windows = make_windows(local, 12, 12, input_features=feature,
                               output_features=feature)
        per_node.append(evaluate(r.checkpoint, windows, b).mae[:, 0])
    return np.concatenate(per_node)


@pytest.fixture(scope="module")
def end_to_end():
    """Criterion 5 workload: whole-graph vs k=2 partitioned training."""
    started = time.perf_counter()
    scenario = SyntheticScenario(n_nodes=24, days=14, clusters=2, noise=0.05, seed=11)
    meta, panel, provider, graph = _build_network(scenario)
    whole = extract_subgraphs(graph, PartitionAssignment(np.zeros(24, int), 1))
    assignment = partition_graph(graph, 2, seed=7)
    halos = [add_overlap_nodes(graph, assignment, p, horizon_k=23, d_prime=1.0,
                               provider=provider) for p in range(2)]
    parts = extract_subgraphs(graph, assignment, halos)
    train_p, valid_p, test_p = split(panel)
    config = TrainingConfig(epochs=12, patience=5, seed=5)
    whole_res = train_all(whole, train_p, valid_p, config, mode="speed_only", workers=1)
    part_res = train_all(parts, train_p, valid_p, config, mode="speed_only", workers=2)
    elapsed = time.perf_counter() - started
    return dict(scenario=scenario, graph=graph, assignment=assignment, halos=halos,
                whole=whole, parts=parts, whole_res=whole_res, part_res=part_res,
                test_panel=test_p, elapsed=elapsed)


def test_criterion_5_partitioned_vs_whole(end_to_end):
    with criterion(5, "partitioned training matches whole-graph accuracy") as verdict:
        e = end_to_end
        assert all(r.ok for r in e["whole_res"] + e["part_res"])
        sizes = np.bincount(e["assignment"].part_of)
        assert sorted(sizes.tolist()) == [12, 12]  # the two planted clusters
        assert all(len(h) >= 1 for h in e["halos"])

        whole_mae = _mean_test_mae(e["whole_res"], e["whole"], e["test_panel"])
        part_mae = _mean_test_mae(e["part_res"], e["parts"], e["test_panel"])
        assert whole_mae.size == 24 and part_mae.size == 24  # halos excluded, tiling exact
        rel = abs(part_mae.mean() - whole_mae.mean()) / whole_mae.mean()
        assert rel <= 0.15, f"partitioned vs whole differs by {rel:.1%}"

        for r in e["whole_res"] + e["part_res"]:
            ratio = r.report.best_valid / r.report.initial_valid
            assert ratio <= 0.5, f"part {r.part_id}: only {1 - ratio:.0%} reduction"
        assert e["elapsed"] < 600.0, f"took {e['elapsed']:.0f}s"
        verdict.detail = (f"whole {whole_mae.mean():.3f} vs partitioned "
                          f"{part_mae.mean():.3f} mph ({rel:.1%} apart) in {e['elapsed']:.0f}s")


def test_criterion_6_multioutput(end_to_end):
    with criterion(6, "joint loss arithmetic and fundamental-diagram envelope") as verdict:
        # exact arithmetic on constructed predictions
        tape = Tape()
        pred = Tensor(np.array([[[1.0, 10.0], [2.0, 30.0]]]))
        target = Tensor(np.array([[[0.0, 12.0], [2.5, 29.0]]]))
        sp = np.abs(pred.value[..., 0] - target.value[..., 0]).mean()
        fl = np.abs(pred.value[..., 1] - target.value[..., 1]).mean()
        assert loss_multi(tape, pred, target).value == sp + fl

        scenario = SyntheticScenario(n_nodes=24, days=14, clusters=2, noise=0.02, seed=21)
        meta, panel, provider, graph = _build_network(scenario)
        whole = extract_subgraphs(graph, PartitionAssignment(np.zeros(24, int), 1))
        train_p, valid_p, test_p = split(panel)
        config = TrainingConfig(epochs=12, patience=6, seed=9)
        results = train_all(whole, train_p, valid_p, config, mode="multioutput")
        assert results[0].ok, results[0].error  # trains without divergence
        ckpt = results[0].checkpoint

        core = congested_core_ticks(scenario, test_p)
        windows = make_windows(test_p, 12, 12, stride=12,
                               input_features=("speed", "flow"),
                               output_features=("speed", "flow"))
        inside = total = 0
        for i, start in enumerate(windows.starts):
            pred_block = forecast(ckpt, windows.x[i])
            for step in range(12):
                if not core[start + 12 + step]:
                    continue
                v, q = pred_block[step, :, 0], pred_block[step, :, 1]
                envelope = scenario.congested_flow_for_speed(v)
                hits = np.abs(q - envelope) <= 0.2 * envelope
                inside += int(hits.sum())
                total += hits.size
        assert total >= 200, "not enough congested-core forecast ticks"
        share = inside / total
        assert share >= 0.9, f"only {share:.1%} of congested ticks inside the envelope"
        verdict.detail = f"envelope hit rate {share:.1%} over {total} node-ticks"


# ----------------------------------------------------------------------
# 7. data pipeline
# ----------------------------------------------------------------------


def test_criterion_7_data_pipeline():
    with criterion(7, "scaler round trip, slot imputation, window counts") as verdict:
        rng = np.random.default_rng(7007)
        # scaler round trip
        stamps = np.datetime64("2024-01-01", "s") + np.arange(500) * TICK
        values = rng.uniform(5.0, 90.0, size=(500, 4, 2))
        panel = TimeSeriesPanel(stamps, [f"S{i:04d}" for i in range(4)], values,
                                np.zeros_like(values, dtype=bool))
        scaler = fit_scaler(panel)
        z = transform(panel, scaler)
        from flowcast.data import inverse_transform
        assert np.abs(inverse_transform(z.values, scaler) - values).max() <= 1e-9

        # hand-computed slot statistic on a three-week panel
        t = 21 * 288
        vals = np.full((t, 1, 2), 50.0)
        panel3 = TimeSeriesPanel(np.datetime64("2024-01-01", "s") + np.arange(t) * TICK,
                                 ["S0000"], vals, np.zeros_like(vals, dtype=bool))
        slot = panel3.time_of_day_slot()
        weekday = panel3.weekday()
        eight_weekday = np.flatnonzero((slot == 96) & (weekday < 5))
        vals[eight_weekday[:8], 0, 0] = 60.0
        vals[eight_weekday[8:], 0, 0] = 70.0
        target = int(eight_weekday[4])
        panel3.mask[target, 0, 0] = True
        panel3.values[target, 0, 0] = np.nan
        filled = impute(panel3, "temporal_mean")
        assert not filled.mask.any()
        assert np.isfinite(filled.values).all()
        assert filled.values[target, 0, 0] == pytest.approx(65.0)  # (7*60 + 7*70)/14

        # window counts match the closed form
        for ticks, lookback, horizon in ((48, 12, 12), (24, 12, 12), (300, 12, 12),
                                         (50, 7, 5), (26, 13, 13)):
            vv = rng.normal(size=(ticks, 2, 2))
            p = TimeSeriesPanel(np.datetime64("2024-01-01", "s") + np.arange(ticks) * TICK,
                                ["a", "b"], vv, np.zeros_like(vv, dtype=bool))
            ds = make_windows(p, lookback, horizon)
            assert ds.n_samples == ticks - (lookback + horizon) + 1
        verdict.detail = "round trip 1e-9, slot mean 65.0, counts exact"


# ----------------------------------------------------------------------
# 8. error-analysis recovery
# ----------------------------------------------------------------------


def test_criterion_8_cart_recovery():
    with criterion(8, "CART recovers the dispersion-driven error rule") as verdict:
        rng = np.random.default_rng(8008)
        n = 800
        covs = rng.uniform(0.0, 1.0, size=n)
        districts = rng.choice(["D3", "D4", "D7", "D8"], size=n)
        sensors = rng.choice(["loop", "radar", "magnetometer"], size=n)
        lanes = rng.choice(["mainline", "hov"], size=n)

        def mae_for(cov):  # class depends on cov alone
            return 0.4 if cov < 0.25 else 1.8 if cov < 0.5 else 4.2 if cov < 0.75 else 7.0

        records = [ErrorRecord.make(f"S{i:04d}", mae_for(c), c, d, s, l)
                   for i, (c, d, s, l) in enumerate(zip(covs, districts, sensors, lanes))]
        _, train_acc, test_acc, importances = train_cart(records, depth=8, seed=42)
        assert test_acc >= 0.95, f"test accuracy {test_acc:.3f}"
        assert importances["cov"] >= 0.8, f"cov importance {importances['cov']:.3f}"
        verdict.detail = (f"test accuracy {test_acc:.3f}, "
                          f"cov importance {importances['cov']:.2f}")


# ----------------------------------------------------------------------
# 9. determinism and independence
# ----------------------------------------------------------------------


def _small_setup():
    dense = np.zeros((6, 6))
    for tri in ((0, 1, 2), (3, 4, 5)):
        for a in tri:
            for b in tri:
                if a != b:
                    dense[a, b] = 1.0
    g = graph_of(dense)
    bundles = extract_subgraphs(g, PartitionAssignment(np.array([0, 0, 0, 1, 1, 1]), 2))
    t = 200
    ticks = np.arange(t)
    values = np.empty((t, 6, 2))
    for node in range(6):
        values[:, node, 0] = 55.0 + 5.0 * np.sin(2 * np.pi * (ticks / 48.0 + node / 6.0))
        values[:, node, 1] = 80.0 + 8.0 * np.cos(2 * np.pi * (ticks / 48.0 + node / 3.0))
    stamps = np.datetime64("2024-01-01", "s") + np.arange(t) * TICK
    panel = TimeSeriesPanel(stamps, list(g.sensor_ids), values,
                            np.zeros_like(values, dtype=bool))
    return bundles, panel.tick_slice(0, 150), panel.tick_slice(150, 200)


def _checkpoint_bytes(result, tmp_path, tag):
    path = tmp_path / f"{tag}_{result.part_id}.fcbin"
    result.checkpoint.save(path)
    return path.read_bytes()


def test_criterion_9_determinism_and_independence(tmp_path):
    with criterion(9, "bit-identical reruns, partition independence, worker counts") as verdict:
        bundles, train_p, valid_p = _small_setup()
        config = TrainingConfig(batch_size=32, layers=1, units=4, epochs=3,
                                patience=9, seed=77)
        kw = dict(mode="speed_only", lookback=3, horizon=2)

        run_a = train_all(bundles, train_p, valid_p, config, workers=1, **kw)
        run_b = train_all(bundles, train_p, valid_p, config, workers=1, **kw)
        bytes_a = [_checkpoint_bytes(r, tmp_path, "a") for r in run_a]
        bytes_b = [_checkpoint_bytes(r, tmp_path, "b") for r in run_b]
        assert bytes_a == bytes_b  # identical seeds -> bit-identical checkpoints

        run_par = train_all(bundles, train_p, valid_p, config, workers=4, **kw)
        assert [_checkpoint_bytes(r, tmp_path, "p") for r in run_par] == bytes_a
        assert [train_curve(r.report) for r in run_par] == [train_curve(r.report)
                                                            for r in run_a]

        reseeded_cfg = TrainingConfig(**{**config.__dict__, "seed": 12345})
        run_c = train_all([bundles[0]], train_p, valid_p, reseeded_cfg, workers=1, **kw)
        assert _checkpoint_bytes(run_c[0], tmp_path, "c") != bytes_a[0]
        rerun = train_all(bundles, train_p, valid_p, config, workers=1, **kw)
        assert _checkpoint_bytes(rerun[1], tmp_path, "r") == bytes_a[1]
        verdict.detail = "checkpoints byte-identical; partition 1 untouched by reseeding 0"


# ----------------------------------------------------------------------
# 10. scheduled sampling schedule
# ----------------------------------------------------------------------


def test_criterion_10_schedule():
    with criterion(10, "inverse-sigmoid sampling schedule") as verdict:
        for tau in (5.0, 40.0, 77.0, 300.0):
            assert scheduled_sampling_epsilon(0, tau) == pytest.approx(tau / (tau + 1.0),
                                                                       abs=1e-15)
            values = [scheduled_sampling_epsilon(i, tau) for i in range(3000)]
            assert all(b < a for a, b in zip(values, values[1:]) if a > 0.0)
            bound = tau * math.log(100.0 * tau)
            for i in (int(bound) + 1, int(bound) + 7, int(2 * bound)):
                assert scheduled_sampling_epsilon(i, tau) < 0.01
        verdict.detail = "eps_0 = tau/(tau+1); strictly decreasing; tail bound holds"
