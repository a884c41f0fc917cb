"""The benchmark's workloads: inputs from the seed, closed-loop operations,
output checks, and the metrics each run reports.

Every workload is a closed loop: one client starts an operation, waits for it
to finish, then starts the next, until the run's seconds are spent. The
program only ever sees the files and objects made here from the seed: the
seed picks one of SCENARIOS scenarios, whose accuracy is recorded in
reference.json (partition_metro1000 uses one fixed network; see PartitionMetro).

End-to-end metrics share one set of names across workloads (see README.md
for what each means on each workload); `measure` also returns them under the
workload's own names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import tracer as tr

clock = time.perf_counter

MIN_FORECASTS = 100  # >= 10 samples beyond the 90th percentile
SCENARIOS = 16  # a seed picks scenario seed % SCENARIOS
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Reordering float operations moved an MAE by <= 2e-16 relative; changed
# numerics move it by far more than this.
REFERENCE_RTOL = 1e-6


class CheckFailed(Exception):
    """An output check failed; the run reports failure instead of numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(samples: list[float], q: float) -> float:
    """q-th percentile; a failed operation is a sample at +inf."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def closed_loop(op, seconds: float, min_ops: int = 1) -> list:
    """Run op() back to back; start another only if it should end in time."""
    records, walls = [], []
    start = clock()
    while True:
        t0 = clock()
        records.append(op())
        walls.append(clock() - t0)
        if len(records) >= min_ops and clock() - start + statistics.median(walls) > seconds:
            return records


def run_cli(fc, argv: list[str]) -> tuple[int, dict | None]:
    """flowcast.cli.main in-process; returns (exit code, its JSON summary line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fc.cli.main(argv)
    lines = [ln for ln in out.getvalue().splitlines() if ln.strip()]
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    return code, summary


def write_config(path: Path, sections: dict[str, dict[str, object]]) -> None:
    text = []
    for section, values in sections.items():
        text.append(f"[{section}]")
        text.extend(f"{k} = {v}" for k, v in values.items())
    path.write_text("\n".join(text) + "\n", encoding="utf-8")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Base: subclasses define setup(), measure(), trace() and the checks, and
    reference_value(), the accuracy that reference.json records per scenario."""

    name = ""

    def __init__(self, fc, workdir: Path, seed: int):
        self.fc = fc
        self.workdir = workdir
        self.scenario = seed % SCENARIOS
        self.attempted = 0
        self.failed = 0

    def check_reference(self, value: float) -> float:
        """Checks value against the one recorded for this scenario; returns
        their ratio."""
        recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        expected = recorded.get(self.name, {}).get(str(self.scenario))
        check(expected is not None, f"no reference value for scenario {self.scenario}")
        check(math.isclose(value, expected, rel_tol=REFERENCE_RTOL),
              f"accuracy {value!r} differs from the recorded {expected!r} "
              f"(scenario {self.scenario})")
        return value / expected

    def attempt(self, fn, *args):
        """Call fn; count the attempt, and a failure when it raises or
        returns a nonzero CLI exit code. Returns (ok, result, seconds)."""
        self.attempted += 1
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            return False, exc, clock() - t0
        seconds = clock() - t0
        if isinstance(result, tuple) and result and result[0] != 0:
            self.failed += 1
            return False, result, seconds
        return True, result, seconds


# ----------------------------------------------------------------------
# train_corridor24
# ----------------------------------------------------------------------


class TrainCorridor(Workload):
    """`flowcast train --workers 2` on the acceptance-05 corridor network."""

    name = "train_corridor24"
    WORKERS = 2
    EPOCHS = 1

    def __init__(self, fc, workdir: Path, seed: int):
        super().__init__(fc, workdir, seed)
        self.captured = []
        tr.replace_function([fc.training], "train_all", self._capture)

    def setup(self) -> None:
        wd = self.workdir
        self.config = wd / "config.ini"
        write_config(self.config, {
            "paths": {"metadata": wd / "data" / "sensors.csv",
                      "timeseries": wd / "data" / "timeseries.csv",
                      "output_dir": wd / "out"},
            "graph": {"k_nn": 23},
            "partition": {"k": 2, "horizon_k": 23},
            "training": {"epochs": self.EPOCHS, "patience": self.EPOCHS,
                         "seed": self.scenario},
            "synth": {"nodes": 24, "days": 14, "clusters": 2, "noise": 0.05,
                      "seed": self.scenario},
        })
        for command in ("synth", "build-graph", "partition"):
            code, summary = run_cli(self.fc, [command, "--config", str(self.config)])
            check(code == 0, f"set-up {command} exited {code}: {summary}")
            if command == "synth":
                ticks = summary["ticks"]
        train_ticks = int(ticks * 0.7)  # data.train_fraction default
        self.train_windows = train_ticks - 24 + 1  # lookback 12 + horizon 12

    def _capture(self, train_all):
        def wrapper(*args, **kwargs):
            results = train_all(*args, **kwargs)
            self.captured.append(results)
            return results
        return wrapper

    def train_op(self, workers: int) -> dict:
        self.captured.clear()
        ok, result, wall = self.attempt(run_cli, self.fc, [
            "train", "--config", str(self.config), "--workers", str(workers)])
        out = self.workdir / "out"
        record = {"ok": ok, "wall": wall, "result": result}
        if ok:
            results = self.captured[-1]
            record["results"] = results
            record["digests"] = [digest(p) for p in
                                 sorted((out / "checkpoints").glob("part*.fcbin"))]
            summary = json.loads((out / "training_summary.json").read_text(encoding="utf-8"))
            record["best_valid"] = [summary["best_valid_mae"][str(r.part_id)]
                                    for r in results]
            record["samples"] = sum(self.train_windows * len(r.report.epochs)
                                    for r in results if r.ok)
        return record

    def check_op(self, record: dict) -> None:
        check(record["ok"], f"train failed: {record['result']}")
        results = record["results"]
        check(len(results) == 2 and all(r.ok for r in results),
              f"not every partition trained: {[r.error for r in results]}")
        for r, best in zip(results, record["best_valid"]):
            check(best == r.report.best_valid, "training summary disagrees with the reports")
            check(r.report.best_valid < r.report.initial_valid,
                  f"part {r.part_id}: best validation {r.report.best_valid} is not below "
                  f"the untrained {r.report.initial_valid}")
        check(len(record["digests"]) == 2, "expected two checkpoints")

    def reference_value(self) -> float:
        """Mean best validation MAE over partitions of one `train`."""
        record = self.train_op(self.WORKERS)
        self.check_op(record)
        return statistics.mean(record["best_valid"])

    def measure(self, seconds: float) -> tuple[dict, dict]:
        ops = closed_loop(lambda: self.train_op(self.WORKERS), seconds)
        for record in ops:
            self.check_op(record)
        check(all(r["digests"] == ops[0]["digests"] for r in ops),
              "checkpoints differ between identical reruns")
        walls = [r["wall"] for r in ops]
        rates = [r["samples"] / r["wall"] for r in ops]
        valid_mae = statistics.mean(ops[0]["best_valid"])
        e2e = {
            "throughput_per_s": statistics.median(rates),
            "latency_p50_ms": 1000 * statistics.median(walls),
            "latency_p90_ms": 1000 * percentile(walls, 90),
            "error": self.check_reference(valid_mae),
        }
        named = {
            "train_samples_per_s": (e2e["throughput_per_s"], "1/s"),
            "train_valid_mae": (valid_mae, "std"),
            "train_ops": (len(ops), "count"),
        }
        return e2e, named

    def trace(self, tracer: tr.Tracer, seconds: float) -> dict:
        parallel = self.train_op(self.WORKERS)
        serial = self.train_op(1)
        tr.install_probes(tracer, self.fc)
        with tracer.operation():
            traced = self.train_op(1)
        for record in (parallel, serial, traced):
            self.check_op(record)
        check(traced["digests"] == parallel["digests"] == serial["digests"],
              "checkpoints of the traced --workers 1 run differ from --workers 2")
        self.check_reference(statistics.mean(parallel["best_valid"]))
        partition_walls = [r.report.wall_seconds for r in parallel["results"]]
        layers = tr.layer_metrics(tracer)
        layers.update({
            "training.max_partition_s": max(partition_walls),
            "training.straggler_ratio": max(partition_walls) / statistics.mean(partition_walls),
            "training.parallel_efficiency": sum(partition_walls)
            / (self.WORKERS * parallel["wall"]),
            "training.pool_overhead_s": parallel["wall"] - max(partition_walls),
            "training.single_worker_s": serial["wall"],
            "training.parallel_speedup": serial["wall"] / parallel["wall"],
            "trace.op_s": traced["wall"],
            "trace.overhead_s": traced["wall"] - serial["wall"],
        })
        return layers


# ----------------------------------------------------------------------
# forecast_bay300
# ----------------------------------------------------------------------


class ForecastBay(Workload):
    """Batched evaluate plus single-window forecasts on one 300-sensor partition."""

    name = "forecast_bay300"
    NODES = 300
    FRACTIONS = (0.75, 0.1, 0.15)  # one day: 21 test windows
    ROUND_FORECASTS = 50

    def setup(self) -> None:
        fc = self.fc
        scenario = fc.data.SyntheticScenario(n_nodes=self.NODES, days=1, clusters=1,
                                             noise=0.05, seed=self.scenario)
        meta, panel = fc.data.generate_synthetic(scenario)
        provider = fc.graph.HaversineDistances(fc.graph.canonical_order(meta))
        pairs = fc.graph.knn_candidates(meta, 30)
        graph = fc.graph.build_adjacency(meta, pairs, provider, thresh=100.0)
        whole = fc.partition.PartitionAssignment(np.zeros(graph.n_nodes, dtype=np.int64), 1)
        self.bundle = fc.partition.extract_subgraphs(graph, whole)[0]
        train_p, _, test_p = fc.data.split(panel, self.FRACTIONS, min_length=24)
        scaler = fc.data.fit_scaler(fc.data.slice_for_partition(train_p, self.bundle))
        config = fc.model.Seq2SeqConfig(input_dim=1, output_dim=1)
        # Fixed weights stand in for one trained model; the traffic varies with
        # the seed. Inference cost does not depend on the weight values.
        params = fc.model.init_params(config, seed=0)
        supports = fc.model.build_supports(self.bundle.graph, "random_walk", 2)
        self.checkpoint = fc.training.Checkpoint(
            config, [n for n, _ in params.named()], params.values(), scaler,
            list(self.bundle.graph.sensor_ids), self.bundle.halo_flags.copy(),
            supports.matrices, ("speed",), ("speed",))
        self.windows = fc.data.make_windows(
            fc.data.slice_for_partition(test_p, self.bundle), 12, 12,
            input_features=("speed",), output_features=("speed",))
        self.next_window = 0

    def forecast_round(self) -> dict:
        """One batched evaluate over the test split, then ROUND_FORECASTS
        single-window forecasts that cycle over its windows."""
        training = self.fc.training
        start = clock()
        ok, evaluation, eval_wall = self.attempt(training.evaluate, self.checkpoint,
                                                 self.windows, self.bundle)
        latencies, forecasts = [], {}
        for _ in range(self.ROUND_FORECASTS):
            w = self.next_window % self.windows.n_samples
            self.next_window += 1
            f_ok, pred, wall = self.attempt(training.forecast, self.checkpoint,
                                            self.windows.x[w])
            latencies.append(wall if f_ok else math.inf)
            if f_ok:
                forecasts.setdefault(w, []).append(pred)
        return {"ok": ok, "evaluation": evaluation, "eval_wall": eval_wall,
                "latencies": latencies, "forecasts": forecasts, "wall": clock() - start}

    def rounds(self, seconds: float) -> list[dict]:
        return closed_loop(self.forecast_round, seconds,
                           min_ops=math.ceil(MIN_FORECASTS / self.ROUND_FORECASTS))

    def check_rounds(self, rounds: list[dict]) -> None:
        fc, ckpt, windows = self.fc, self.checkpoint, self.windows
        forecasts: dict[int, list[np.ndarray]] = {}
        for r in rounds:
            check(r["ok"], f"evaluate raised {r['evaluation']!r}")
            check(all(math.isfinite(x) for x in r["latencies"]), "a forecast call raised")
            for w, preds in r["forecasts"].items():
                forecasts.setdefault(w, []).extend(preds)
        check(sorted(forecasts) == list(range(windows.n_samples)),
              "not every test window was forecast")
        for preds in forecasts.values():
            check(all(np.isfinite(p).all() for p in preds), "non-finite forecast")
            check(all(np.array_equal(p, preds[0]) for p in preds),
                  "repeated forecasts of one window differ")
        # single-window forecasts against the batched inference path
        head = list(range(min(4, windows.n_samples)))
        params, supports = ckpt.build_model()
        z = fc.data.transform_values(windows.x[head], ckpt.scaler, ckpt.input_features)
        batched = fc.data.inverse_transform(fc.model.predict(params, supports, z),
                                            ckpt.scaler, ckpt.output_features)
        for j in head:
            check(np.allclose(forecasts[j][0], batched[j], rtol=1e-9, atol=1e-9),
                  f"window {j}: single-window forecast differs from the batched path")
        # evaluate's MAE against the recorded one and the single-window forecasts'
        keep = ~self.bundle.halo_flags
        single = float(np.mean([np.abs(forecasts[w][0] - windows.y[w])[:, keep]
                                for w in range(windows.n_samples)]))
        for r in rounds:
            evaluated = float(r["evaluation"].overall()[0])
            check(math.isclose(evaluated, single, rel_tol=1e-9),
                  f"evaluate MAE {evaluated} != {single} from the single-window forecasts")
        self.check_reference(float(rounds[0]["evaluation"].overall()[0]))
        # the sparse products behind both paths, against dense products
        rng = np.random.default_rng(self.scenario)
        for s in ckpt.supports:
            x = rng.standard_normal((2, s.cols, 8))
            for m in (s, s.transpose()):
                check(np.allclose(m.matmul(x), np.einsum("ij,bjc->bic", m.to_dense(), x),
                                  rtol=1e-9, atol=1e-12),
                      "sparse product differs from the dense product")

    def reference_value(self) -> float:
        """evaluate's MAE over the test split."""
        ok, evaluation, _ = self.attempt(self.fc.training.evaluate, self.checkpoint,
                                         self.windows, self.bundle)
        check(ok, f"evaluate raised {evaluation!r}")
        return float(evaluation.overall()[0])

    def measure(self, seconds: float) -> tuple[dict, dict]:
        rounds = self.rounds(seconds)
        self.check_rounds(rounds)
        latencies = [x for r in rounds for x in r["latencies"]]
        mae = float(rounds[0]["evaluation"].overall()[0])
        e2e = {
            "throughput_per_s": statistics.median(self.windows.n_samples / r["eval_wall"]
                                                  for r in rounds),
            "latency_p50_ms": 1000 * percentile(latencies, 50),
            "latency_p90_ms": 1000 * percentile(latencies, 90),
            "error": self.check_reference(mae),
        }
        named = {
            "eval_windows_per_s": (e2e["throughput_per_s"], "1/s"),
            "forecast_p50_ms": (e2e["latency_p50_ms"], "ms"),
            "forecast_p90_ms": (e2e["latency_p90_ms"], "ms"),
            "forecast_calls": (len(latencies), "count"),
            "eval_mae": (mae, "mph"),
        }
        return e2e, named

    def trace(self, tracer: tr.Tracer, seconds: float) -> dict:
        plain = self.rounds(0)
        tr.install_probes(tracer, self.fc)
        with tracer.operation():
            traced = self.rounds(0)
        self.check_rounds(plain)
        self.check_rounds(traced)
        layers = tr.layer_metrics(tracer)
        layers["trace.op_s"] = sum(r["wall"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.op_s"] - sum(r["wall"] for r in plain)
        return layers


# ----------------------------------------------------------------------
# partition_metro1000
# ----------------------------------------------------------------------


class PartitionMetro(Workload):
    """`flowcast build-graph` then `flowcast partition` (k=8) on a metro network."""

    name = "partition_metro1000"
    SENSORS = 1000
    K, IMBALANCE, D_PRIME = 8, 0.05, 1.0
    # The network ignores the workload seed. How many FM passes the finest
    # level takes jumps between networks (30 s or 40 s here), so networks drawn
    # per seed spread 0.34 (IQR/median) over ten seeds, beyond any allowed bound.
    NETWORK_SEED = 0

    def setup(self) -> None:
        fc = self.fc
        wd = self.workdir
        rng = np.random.default_rng(self.NETWORK_SEED)
        lat = 37.0 + rng.uniform(size=self.SENSORS)  # uniform over a 1x1 degree box
        lon = -122.0 + rng.uniform(size=self.SENSORS)
        self.meta = [fc.graph.SensorMeta(f"M{i:04d}", float(a), float(b))
                     for i, (a, b) in enumerate(zip(lat, lon))]
        fc.graph.write_metadata_csv(wd / "sensors.csv", self.meta)
        self.config = wd / "config.ini"
        write_config(self.config, {
            "paths": {"metadata": wd / "sensors.csv", "output_dir": wd / "out"},
            "partition": {"k": self.K, "imbalance": self.IMBALANCE,
                          "d_prime": self.D_PRIME},
            "training": {"seed": self.NETWORK_SEED},
        })

    def pipeline(self) -> tuple[int, dict | None]:
        argv = ["--config", str(self.config)]
        code, summary = run_cli(self.fc, ["build-graph"] + argv)
        return (code, summary) if code else run_cli(self.fc, ["partition"] + argv)

    def partition_op(self) -> dict:
        ok, result, wall = self.attempt(self.pipeline)
        return {"ok": ok, "wall": wall, "result": result}

    def check_op(self, record: dict) -> float:
        """Checks the written outputs; returns the edge-cut ratio."""
        check(record["ok"], f"pipeline failed: {record['result']}")
        out = self.workdir / "out"
        n = len(self.meta)
        graph = self.fc.graph.SensorGraph.load(out / "graph.json")
        ids = sorted(m.sensor_id for m in self.meta)
        check(list(graph.sensor_ids) == ids, "graph.json does not hold the network's sensors")
        index = {sid: i for i, sid in enumerate(ids)}
        part = np.full(n, -1)
        for line in (out / "assignment.csv").read_text(encoding="utf-8").splitlines()[1:]:
            sid, p = line.split(",")
            part[index[sid]] = int(p)
        check((part >= 0).all(), "assignment misses sensors")
        cap = math.ceil(n / self.K) * (1 + self.IMBALANCE)
        sizes = np.bincount(part, minlength=self.K)
        check(sizes.max() <= cap, f"part sizes {sizes.tolist()} exceed {cap}")

        coords = {m.sensor_id: (m.latitude, m.longitude) for m in self.meta}
        owned_all = []
        for d in sorted((out / "bundles").glob("part*")):
            rows = [line.split(",") for line in
                    (d / "nodes.csv").read_text(encoding="utf-8").splitlines()[1:]]
            owned = {r[1] for r in rows if r[3] == "0"}
            halos = [r[1] for r in rows if r[3] == "1"]
            check(not owned & set(halos), f"{d.name}: a halo node is also owned")
            check({index[s] for s in owned} == set(np.flatnonzero(part == int(d.name[4:]))),
                  f"{d.name}: owned nodes differ from the assignment")
            owned_all.extend(owned)
            check(_min_pair_miles([coords[h] for h in halos]) > self.D_PRIME,
                  f"{d.name}: two halos are within d_prime")
        check(sorted(owned_all) == ids, "owned nodes do not tile the network")

        # each undirected edge once, weighted w(i,j)+w(j,i), as edge_cut counts it
        r, c, w = self.fc.partition.symmetrize(graph).adjacency.triples()
        upper = r < c
        r, c, w = r[upper], c[upper], w[upper]
        cut = float(w[part[r] != part[c]].sum())
        reported = record["result"][1]["edge_cut"]
        check(math.isclose(cut, reported, rel_tol=1e-9, abs_tol=1e-9),
              f"edge cut {reported} != {cut} recomputed from the outputs")
        return cut / float(w.sum())

    def measure(self, seconds: float) -> tuple[dict, dict]:
        ops = closed_loop(self.partition_op, seconds)
        ratios = [self.check_op(r) for r in ops]
        walls = [r["wall"] for r in ops]
        pipeline_s = statistics.median(walls)
        e2e = {
            "throughput_per_s": len(self.meta) / pipeline_s,
            "latency_p50_ms": 1000 * pipeline_s,
            "latency_p90_ms": 1000 * percentile(walls, 90),
            "error": ratios[0],
        }
        named = {
            "partition_pipeline_s": (pipeline_s, "s"),
            "edge_cut_ratio": (ratios[0], "1"),
            "partition_ops": (len(ops), "count"),
        }
        return e2e, named

    def trace(self, tracer: tr.Tracer, seconds: float) -> dict:
        plain = self.partition_op()
        self.check_op(plain)
        tr.install_probes(tracer, self.fc)
        with tracer.operation():
            traced = self.partition_op()
        self.check_op(traced)
        layers = tr.layer_metrics(tracer)
        layers["trace.op_s"] = traced["wall"]
        layers["trace.overhead_s"] = traced["wall"] - plain["wall"]
        return layers


def _min_pair_miles(points: list[tuple[float, float]]) -> float:
    """Smallest great-circle distance between any two points (inf if < 2)."""
    if len(points) < 2:
        return math.inf
    p = np.radians(np.asarray(points))
    lat, lon = p[:, 0], p[:, 1]
    a = (np.sin((lat[:, None] - lat[None, :]) / 2) ** 2
         + np.cos(lat)[:, None] * np.cos(lat)[None, :]
         * np.sin((lon[:, None] - lon[None, :]) / 2) ** 2)
    d = 2 * 3958.7613 * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    np.fill_diagonal(d, np.inf)
    return float(d.min())


WORKLOADS = {w.name: w for w in (TrainCorridor, ForecastBay, PartitionMetro)}
