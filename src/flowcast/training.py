"""Per-partition training, multi-partition orchestration, and inference.

Each partition trains an independent encoder-decoder on its own normalized
windows: shuffled minibatches, scheduled-sampling decoding, MAE (joint MAE
when two outputs are present), global-norm clipping, Adam, stepwise learning
rate decay, and early stopping on validation MAE. Partitions share nothing,
so parallel and sequential orchestration produce identical results.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tape, Workspace, grads_for
from .data import (FeatureScaler, TimeSeriesPanel, WindowedDataset, fit_scaler,
                   inverse_transform, make_windows, read_array_container,
                   slice_for_partition, transform, transform_values,
                   write_array_container)
from .errors import ConfigError, DataError, FlowcastError, NumericalError
from .model import (DcgruParams, DiffusionSupports, Seq2SeqConfig, build_supports,
                    init_params, predict, seq2seq_loss)
from .optim import AdamState, adam_step, clip_by_global_norm
from .partition import SubgraphBundle
from .sparse import CsrMatrix
from .tables import write_table

# Window-node rows per predict() call in forecast(): a block's [rows, channels]
# arrays then stay near L2 size. On the 300-node forecast_bay300 set-up (2-vCPU
# VM, one BLAS thread) blocks alone made 256 windows 1.4-1.8x faster.
_BLOCK_ROWS = 4096
# Windows per forecast() call and per partial error sum in evaluate(); the MAE's
# bits depend on it, as the sums are added in this grouping.
_EVAL_BATCH = 256
MODE_FEATURES = {"speed_only": ("speed",), "flow_only": ("flow",),
                 "multioutput": ("speed", "flow")}  # each mode's input = output features


def mode_features(mode: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if mode not in MODE_FEATURES:
        raise ConfigError(f"unknown mode {mode!r}")
    return MODE_FEATURES[mode], MODE_FEATURES[mode]


def scheduled_sampling_epsilon(iteration: int, tau: float) -> float:
    """Inverse-sigmoid decay tau / (tau + exp(i / tau)); starts at tau/(tau+1)."""
    x = iteration / tau
    if x > 300.0:
        # exp(x) would swamp tau (or overflow); identical value in float64
        try:
            return tau * math.exp(-x)
        except OverflowError:
            return 0.0
    return tau / (tau + math.exp(x))


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 64
    diffusion_steps: int = 2
    layers: int = 2
    units: int = 16
    max_grad_norm: float = 5.0
    learning_rate: float = 0.01
    lr_decay: float = 0.1
    lr_milestones: tuple[int, ...] | None = None
    epochs: int = 30
    patience: int = 10
    sampling_tau: float = 40.0
    seed: int = 0
    filter_type: str = "random_walk"

    def __post_init__(self):
        positives = {"batch_size": self.batch_size, "diffusion_steps": self.diffusion_steps,
                     "layers": self.layers, "units": self.units,
                     "max_grad_norm": self.max_grad_norm,
                     "lr_decay": self.lr_decay, "epochs": self.epochs,
                     "patience": self.patience, "sampling_tau": self.sampling_tau}
        for name, value in positives.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be nonnegative")
        if self.lr_milestones is not None:
            ms = tuple(self.lr_milestones)
            if any(b <= a for a, b in zip(ms, ms[1:])):
                raise ConfigError("lr_milestones must be strictly increasing")

    def resolved_milestones(self) -> tuple[int, ...]:
        if self.lr_milestones is not None:
            return tuple(self.lr_milestones)
        ms = sorted({int(self.epochs * 0.6), int(self.epochs * 0.8)})
        return tuple(m for m in ms if m > 0)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_loss: float
    lr: float
    epsilon: float
    seconds: float


@dataclass
class TrainReport:
    part_id: int
    epochs: list[EpochStats] = field(default_factory=list)
    initial_valid: float = math.inf  # untrained-model validation MAE (epoch-0 baseline)
    best_epoch: int = -1
    best_valid: float = math.inf
    wall_seconds: float = 0.0


@dataclass
class Checkpoint:
    """Everything needed for standalone inference on one partition."""

    config: Seq2SeqConfig
    param_names: list[str]
    param_values: list[np.ndarray]
    scaler: FeatureScaler
    sensor_ids: list[str]
    halo_flags: np.ndarray
    supports: list[CsrMatrix]
    input_features: tuple[str, ...]
    output_features: tuple[str, ...]
    part_id: int = 0
    trained_iterations: int = 0

    def build_model(self) -> tuple[DcgruParams, DiffusionSupports]:
        params = init_params(self.config, seed=0)
        names = [n for n, _ in params.named()]
        if names != list(self.param_names):
            raise DataError("checkpoint parameter names do not match configuration")
        params.load_values(self.param_values)
        return params, DiffusionSupports(self.supports, self.config.max_diffusion_steps)

    # ------------------------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "format": "flowcast-checkpoint-v1",
            "config": self.config.__dict__,
            "param_names": self.param_names,
            "scaler": {"means": list(self.scaler.means), "stds": list(self.scaler.stds),
                       "feature_names": list(self.scaler.feature_names)},
            "sensor_ids": self.sensor_ids,
            "input_features": list(self.input_features),
            "output_features": list(self.output_features),
            "part_id": self.part_id,
            "trained_iterations": self.trained_iterations,
            "n_supports": len(self.supports),
        }
        arrays = {"halo_flags": self.halo_flags.astype(np.uint8)}
        for i, p in enumerate(self.param_values):
            arrays[f"p{i:04d}"] = p
        for i, s in enumerate(self.supports):
            arrays[f"s{i}_indptr"] = s.indptr
            arrays[f"s{i}_indices"] = s.indices
            arrays[f"s{i}_data"] = s.data
            arrays[f"s{i}_shape"] = np.array([s.rows, s.cols], dtype=np.int64)
        write_array_container(path, arrays, meta)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        arrays, meta = read_array_container(path)
        if meta.get("format") != "flowcast-checkpoint-v1":
            raise DataError(f"{path}: not a flowcast checkpoint")
        try:
            config = Seq2SeqConfig(**meta["config"])
            params = [arrays[f"p{i:04d}"] for i in range(len(meta["param_names"]))]
            expected = [(n, t.value.shape) for n, t in init_params(config, seed=0).named()]
            if [(n, p.shape) for n, p in zip(meta["param_names"], params)] != expected:
                raise DataError(f"{path}: parameter names or shapes do not match the config")
            # training and fit_scaler never write these, so each marks a corrupt file
            for name, p in zip(meta["param_names"], params):
                if not np.isfinite(p).all():
                    raise DataError(f"{path}: parameter {name} is not finite")
            if meta["n_supports"] != config.n_supports:
                raise DataError(f"{path}: {meta['n_supports']} supports, the config's filter "
                                f"takes {config.n_supports}")
            sensor_ids = list(meta["sensor_ids"])
            supports = []
            for i in range(meta["n_supports"]):
                rows, cols = arrays[f"s{i}_shape"]
                if not rows == cols == len(sensor_ids):
                    raise DataError(f"{path}: support {i} is {rows}x{cols}, "
                                    f"not sized to {len(sensor_ids)} sensors")
                if not np.isfinite(arrays[f"s{i}_data"]).all():
                    raise DataError(f"{path}: support {i} data is not finite")
                supports.append(CsrMatrix(int(rows), int(cols), arrays[f"s{i}_indptr"],
                                          arrays[f"s{i}_indices"], arrays[f"s{i}_data"]))
            halo = arrays["halo_flags"].astype(bool)
            if halo.shape != (len(sensor_ids),):
                raise DataError(f"{path}: {halo.size} halo flags for {len(sensor_ids)} sensors")
            scaler = FeatureScaler(np.asarray(meta["scaler"]["means"]),
                                   np.asarray(meta["scaler"]["stds"]),
                                   tuple(meta["scaler"]["feature_names"]))
            if not scaler.means.shape == scaler.stds.shape == (len(scaler.feature_names),):
                raise DataError(f"{path}: scaler means and stds are not one per feature")
            if not np.isfinite(scaler.means).all():
                raise DataError(f"{path}: scaler means are not finite")
            if not (np.isfinite(scaler.stds).all() and (scaler.stds > 0).all()):
                raise DataError(f"{path}: scaler stds are not finite and positive")
            return cls(config, list(meta["param_names"]), params,
                       scaler, sensor_ids, halo, supports,
                       tuple(meta["input_features"]), tuple(meta["output_features"]),
                       int(meta["part_id"]), int(meta["trained_iterations"]))
        except KeyError as exc:
            raise DataError(f"{path}: corrupt checkpoint, missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: corrupt checkpoint, {exc}") from exc


# ----------------------------------------------------------------------
# single-partition training
# ----------------------------------------------------------------------


def _batched_loss(params, supports, windows: WindowedDataset, batch_size: int) -> float:
    """Dataset MAE under inference-style decoding (epsilon = 0)."""
    total, count = 0.0, 0
    for lo in range(0, windows.n_samples, batch_size):
        hi = min(lo + batch_size, windows.n_samples)
        loss, _ = seq2seq_loss(Tape(record=False), params, supports, windows.x[lo:hi],
                               windows.y[lo:hi], epsilon=0.0)
        total += float(loss.value) * (hi - lo)
        count += hi - lo
    return total / count


def train_partition(bundle: SubgraphBundle, train_windows: WindowedDataset,
                    valid_windows: WindowedDataset, scaler: FeatureScaler,
                    config: TrainingConfig) -> tuple[Checkpoint, TrainReport]:
    """Train one partition on pre-normalized windows; returns the best-validation
    checkpoint and the per-epoch report."""
    x, y = train_windows.x, train_windows.y
    if x.shape[2] != bundle.n_local or valid_windows.x.shape[2] != bundle.n_local:
        raise DataError("windows do not match the bundle's node count")
    model_cfg = Seq2SeqConfig(
        input_dim=x.shape[3], output_dim=y.shape[3], lookback=x.shape[1],
        horizon=y.shape[1], layers=config.layers, units=config.units,
        max_diffusion_steps=config.diffusion_steps, filter_type=config.filter_type,
    )
    supports = build_supports(bundle.graph, config.filter_type, config.diffusion_steps)
    seq = np.random.SeedSequence(config.seed)
    init_rng, loop_rng = (np.random.default_rng(child) for child in seq.spawn(2))
    params = init_params(model_cfg, init_rng)
    state = AdamState.for_params(params.values())
    milestones = config.resolved_milestones()

    report = TrainReport(part_id=bundle.part_id)
    best_values: list[np.ndarray] | None = None
    best_iteration = 0
    since_best = 0
    lr = config.learning_rate
    iteration = 0
    workspace = Workspace()
    start_wall = time.perf_counter()
    report.initial_valid = _batched_loss(params, supports, valid_windows, config.batch_size)
    for epoch in range(config.epochs):
        if epoch in milestones:
            lr *= config.lr_decay
        t0 = time.perf_counter()
        epsilon_epoch = scheduled_sampling_epsilon(iteration, config.sampling_tau)
        perm = loop_rng.permutation(train_windows.n_samples)
        losses = []
        for lo in range(0, perm.size, config.batch_size):
            idx = perm[lo:lo + config.batch_size]
            epsilon = scheduled_sampling_epsilon(iteration, config.sampling_tau)
            tape = Tape(workspace=workspace)
            loss, _ = seq2seq_loss(tape, params, supports, x[idx], y[idx],
                                   epsilon=epsilon, rng=loop_rng)
            if not np.isfinite(loss.value):
                raise NumericalError(
                    f"partition {bundle.part_id}: non-finite loss at epoch {epoch}, "
                    f"iteration {iteration}")
            grads = grads_for(tape.backward(loss), params.tensors())
            grads = clip_by_global_norm(grads, config.max_grad_norm)
            adam_step(params.values(), grads, state, lr)
            iteration += 1
            losses.append(float(loss.value))
        valid_loss = _batched_loss(params, supports, valid_windows, config.batch_size)
        report.epochs.append(EpochStats(epoch, float(np.mean(losses)), valid_loss,
                                        lr, epsilon_epoch, time.perf_counter() - t0))
        if valid_loss < report.best_valid:
            report.best_valid = valid_loss
            report.best_epoch = epoch
            best_values = [v.copy() for v in params.values()]
            best_iteration = iteration
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    report.wall_seconds = time.perf_counter() - start_wall
    if best_values is None:  # zero epochs requested
        best_values = [v.copy() for v in params.values()]
    checkpoint = Checkpoint(
        config=model_cfg,
        param_names=[n for n, _ in params.named()],
        param_values=best_values,
        scaler=scaler,
        sensor_ids=list(bundle.graph.sensor_ids),
        halo_flags=bundle.halo_flags.copy(),
        supports=supports.matrices,
        input_features=train_windows.input_features,
        output_features=train_windows.output_features,
        part_id=bundle.part_id,
        trained_iterations=best_iteration,
    )
    return checkpoint, report


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------


@dataclass
class PartitionResult:
    part_id: int
    checkpoint: Checkpoint | None = None
    report: TrainReport | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def prepare_partition_windows(train_panel: TimeSeriesPanel, valid_panel: TimeSeriesPanel,
                              mode: str, lookback: int, horizon: int):
    """Fit the scaler on a partition's local training panel only, normalize, window."""
    in_f, out_f = mode_features(mode)
    scaler = fit_scaler(train_panel)
    train_w = make_windows(transform(train_panel, scaler), lookback, horizon,
                           input_features=in_f, output_features=out_f)
    valid_w = make_windows(transform(valid_panel, scaler), lookback, horizon,
                           input_features=in_f, output_features=out_f)
    return train_w, valid_w, scaler


def _train_task(args) -> PartitionResult:
    bundle, train_panel, valid_panel, config, mode, lookback, horizon = args
    try:
        part_config = replace(config, seed=config.seed + bundle.part_id)
        train_w, valid_w, scaler = prepare_partition_windows(
            train_panel, valid_panel, mode, lookback, horizon)
        checkpoint, report = train_partition(bundle, train_w, valid_w, scaler, part_config)
        return PartitionResult(bundle.part_id, checkpoint, report)
    except FlowcastError as exc:
        return PartitionResult(bundle.part_id, error=str(exc))


def train_all(bundles: list[SubgraphBundle], train_panel: TimeSeriesPanel,
              valid_panel: TimeSeriesPanel, config: TrainingConfig,
              mode: str = "speed_only", lookback: int = 12, horizon: int = 12,
              workers: int = 1) -> list[PartitionResult]:
    """Train every partition independently; workers > 1 runs them in processes.

    Results are deterministic and identical across worker counts because each
    partition's work is a pure function of its own inputs and derived seed.
    Each task carries only its bundle's columns of the two panels.
    """
    tasks, results = [], []
    for b in bundles:
        try:
            local = (slice_for_partition(train_panel, b), slice_for_partition(valid_panel, b))
        except DataError as exc:  # a failure of this partition alone, as in training
            results.append(PartitionResult(b.part_id, error=str(exc)))
            continue
        tasks.append((b, *local, config, mode, lookback, horizon))
        results.append(None)
    if workers <= 1 or len(tasks) <= 1:
        trained = [_train_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trained = list(pool.map(_train_task, tasks))
    trained = iter(trained)
    return [r or next(trained) for r in results]


def aggregate_training_summary(results: list[PartitionResult]) -> dict:
    """Max wall time across partitions is the headline training-time metric."""
    ok = [r for r in results if r.ok]
    return {
        "partitions": len(results),
        "trained": len(ok),
        "failed": [{"part": r.part_id, "error": r.error} for r in results if not r.ok],
        "max_wall_seconds": max((r.report.wall_seconds for r in ok), default=0.0),
        "best_valid_mae": {r.part_id: r.report.best_valid for r in ok},
    }


def write_report_csv(path, results: list[PartitionResult]) -> None:
    write_table(path, ["partition", "epoch", "train_loss", "valid_loss", "lr", "epsilon",
                       "seconds"],
                ([r.part_id, e.epoch, repr(e.train_loss), repr(e.valid_loss), repr(e.lr),
                  repr(e.epsilon), repr(e.seconds)]
                 for r in results if r.ok for e in r.report.epochs))


def write_training_summary(path, results: list[PartitionResult]) -> None:
    Path(path).write_text(json.dumps(aggregate_training_summary(results), sort_keys=True,
                                     indent=2), encoding="utf-8")


# ----------------------------------------------------------------------
# inference
# ----------------------------------------------------------------------


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forecast(checkpoint: Checkpoint, windows: np.ndarray) -> np.ndarray:
    """One window [lookback, nodes, P] or a batch [b, lookback, nodes, P] in
    original units -> [horizon, nodes, Q] or [b, horizon, nodes, Q] in original
    units.

    A batch is predicted in contiguous blocks of whole windows, each of about
    _BLOCK_ROWS window-node rows or one window. The split depends only on the
    batch's window and node counts. When there is more than one block, the
    blocks run on a thread pool sized to the CPUs this process may use (numpy
    releases the GIL in its loops and products) while the caller waits, and
    the pool is shut down before forecast returns or raises. An exception
    from any block reaches the caller unchanged.

    A window's forecast is bit-identical whatever batch it came in, on band
    blocks and on the broadcast dense product. The folded dense product of an
    unbanded support above BROADCAST_MAX_CELLS cells (sparse) keeps this only
    at channel widths that are a multiple of 8, such as every width the
    default 16-unit model diffuses; at other widths its last bits can depend
    on the batch.
    """
    cfg = checkpoint.config
    windows = np.asarray(windows, dtype=np.float64)
    expected = (cfg.lookback, len(checkpoint.sensor_ids), cfg.input_dim)
    if windows.ndim not in (3, 4) or windows.shape[-3:] != expected or not windows.size:
        raise DataError(f"window shape {windows.shape} does not match checkpoint {expected}")
    params, supports = checkpoint.build_model()
    batch = windows.reshape(-1, *expected)
    b, nodes = len(batch), expected[1]
    n_blocks = min(b, -(-b * nodes // _BLOCK_ROWS))
    bounds = [b * i // n_blocks for i in range(n_blocks + 1)]
    pred = np.empty((b, cfg.horizon, nodes, cfg.output_dim))

    def predict_block(i: int) -> None:
        lo, hi = bounds[i], bounds[i + 1]
        z = transform_values(batch[lo:hi], checkpoint.scaler, checkpoint.input_features)
        pred[lo:hi] = inverse_transform(predict(params, supports, z), checkpoint.scaler,
                                        checkpoint.output_features)

    threads = min(n_blocks, _usable_cpus())
    if threads == 1:
        for i in range(n_blocks):
            predict_block(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(predict_block, range(n_blocks)))
    return pred.reshape(windows.shape[:-3] + pred.shape[1:])


@dataclass
class EvalResult:
    node_ids: list[str]  # non-halo nodes only
    mae: np.ndarray  # [nodes, Q], original units, averaged over samples and steps
    horizon_mae: dict[int, np.ndarray]  # minutes -> [nodes, Q]

    def overall(self) -> np.ndarray:
        return self.mae.mean(axis=0)


def evaluate(checkpoint: Checkpoint, test_windows: WindowedDataset,
             bundle: SubgraphBundle) -> EvalResult:
    """Per-node MAE on held-out windows (original units), halo nodes excluded."""
    if list(bundle.graph.sensor_ids) != list(checkpoint.sensor_ids):
        raise DataError("bundle nodes do not match checkpoint nodes")
    cfg = checkpoint.config
    x, y = test_windows.x, test_windows.y
    expected = (cfg.horizon, len(checkpoint.sensor_ids), cfg.output_dim)
    if y.shape[1:] != expected:
        raise DataError(f"target shape {y.shape[1:]} does not match checkpoint {expected}")
    abs_err_sum = np.zeros(expected)
    for lo in range(0, x.shape[0], _EVAL_BATCH):
        abs_err_sum += np.abs(forecast(checkpoint, x[lo:lo + _EVAL_BATCH])
                              - y[lo:lo + _EVAL_BATCH]).sum(axis=0)
    n_samples = x.shape[0]
    keep = ~bundle.halo_flags
    horizon_mae = {}
    for minutes in (15, 30, 60):
        steps = minutes // 5
        if steps <= y.shape[1]:
            horizon_mae[minutes] = (abs_err_sum[:steps].sum(axis=0)
                                    / (n_samples * steps))[keep]
    mae = (abs_err_sum.sum(axis=0) / (n_samples * y.shape[1]))[keep]
    node_ids = [sid for sid, h in zip(checkpoint.sensor_ids, bundle.halo_flags) if not h]
    return EvalResult(node_ids, mae, horizon_mae)
