"""Diffusion-convolutional GRU encoder-decoder.

The recurrent cell replaces dense input/state products with a graph filter
that sums powers of random-walk transition matrices,

    out = sum_d [ S_fwd^d Z W_{d,fwd} + S_rev^d Z W_{d,rev} ] + b,

where the d=0 transition is the identity for both directions and S^d Z is
applied as repeated sparse products, never materialized. All tensors are
batched as [batch, nodes, channels].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor
from .errors import NumericalError
from .graph import SensorGraph
from .sparse import CsrMatrix

FILTER_TYPES = ("random_walk", "dual_random_walk")


@dataclass
class DiffusionSupports:
    matrices: list[CsrMatrix]  # forward walk, then reverse walk when dual
    max_steps: int

    @property
    def n_supports(self) -> int:
        return len(self.matrices)


def build_supports(graph: SensorGraph, filter_type: str = "random_walk",
                   max_steps: int = 2) -> DiffusionSupports:
    """Row-stochastic walk matrices; nodes with no outgoing mass keep zero rows.

    The dual filter adds the in-degree-normalized transpose (a true reverse
    walk).
    """
    if filter_type not in FILTER_TYPES:
        raise ValueError(f"unknown filter type {filter_type!r}")
    if graph.n_nodes == 0:
        raise ValueError("empty graph")
    matrices = [graph.adjacency.row_normalized()]
    if filter_type == "dual_random_walk":
        matrices.append(graph.adjacency.transpose().row_normalized())
    return DiffusionSupports(matrices, max_steps)


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------


@dataclass
class GateParams:
    blocks: list[list[Tensor]]  # [support][step] each (in_dim + units) x units
    bias: Tensor


@dataclass
class CellParams:
    reset: GateParams
    update: GateParams
    candidate: GateParams


@dataclass
class Seq2SeqConfig:
    input_dim: int = 1
    output_dim: int = 1
    lookback: int = 12
    horizon: int = 12
    layers: int = 2
    units: int = 16
    max_diffusion_steps: int = 2
    filter_type: str = "random_walk"

    def __post_init__(self):
        if self.lookback < 1 or self.horizon < 1:
            raise ValueError("lookback and horizon must be at least 1")
        if self.input_dim not in (1, 2) or self.output_dim not in (1, 2):
            raise ValueError("input and output dims are speed, flow, or both")
        if self.filter_type not in FILTER_TYPES:
            raise ValueError(f"unknown filter type {self.filter_type!r}")

    @property
    def n_supports(self) -> int:
        return 2 if self.filter_type == "dual_random_walk" else 1


@dataclass
class DcgruParams:
    config: Seq2SeqConfig
    encoder: list[CellParams] = field(default_factory=list)
    decoder: list[CellParams] = field(default_factory=list)
    proj_w: Tensor | None = None
    proj_b: Tensor | None = None

    def named(self) -> list[tuple[str, Tensor]]:
        out = []
        for stack_name, stack in (("enc", self.encoder), ("dec", self.decoder)):
            for layer, cell in enumerate(stack):
                for gate_name, gate in (("r", cell.reset), ("u", cell.update),
                                        ("c", cell.candidate)):
                    for s, per_support in enumerate(gate.blocks):
                        for d, block in enumerate(per_support):
                            out.append((f"{stack_name}/l{layer}/{gate_name}/w_s{s}_d{d}", block))
                    out.append((f"{stack_name}/l{layer}/{gate_name}/b", gate.bias))
        out.append(("proj/w", self.proj_w))
        out.append(("proj/b", self.proj_b))
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]

    def values(self) -> list[np.ndarray]:
        return [t.value for t in self.tensors()]

    def load_values(self, values: list[np.ndarray]) -> None:
        tensors = self.tensors()
        if len(values) != len(tensors):
            raise ValueError("parameter count mismatch")
        for t, v in zip(tensors, values):
            if t.value.shape != v.shape:
                raise ValueError("parameter shape mismatch")
            t.value = v.astype(np.float64, copy=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    r = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=(fan_in, fan_out))


def _init_gate(rng, in_dim: int, units: int, n_supports: int, steps: int,
               bias_value: float) -> GateParams:
    blocks = [[Tensor(_glorot(rng, in_dim + units, units)) for _ in range(steps)]
              for _ in range(n_supports)]
    return GateParams(blocks, Tensor(np.full(units, bias_value)))


def init_params(config: Seq2SeqConfig, seed: int) -> DcgruParams:
    """Glorot-uniform filters; reset/update biases 1, candidate bias 0."""
    rng = np.random.default_rng(seed)
    params = DcgruParams(config)
    for stack, first_dim in (("enc", config.input_dim), ("dec", config.output_dim)):
        cells = []
        for layer in range(config.layers):
            in_dim = first_dim if layer == 0 else config.units
            cells.append(CellParams(
                reset=_init_gate(rng, in_dim, config.units, config.n_supports,
                                 config.max_diffusion_steps, 1.0),
                update=_init_gate(rng, in_dim, config.units, config.n_supports,
                                  config.max_diffusion_steps, 1.0),
                candidate=_init_gate(rng, in_dim, config.units, config.n_supports,
                                     config.max_diffusion_steps, 0.0),
            ))
        if stack == "enc":
            params.encoder = cells
        else:
            params.decoder = cells
    params.proj_w = Tensor(_glorot(rng, config.units, config.output_dim))
    params.proj_b = Tensor(np.zeros(config.output_dim))
    return params


# ----------------------------------------------------------------------
# forward graph
# ----------------------------------------------------------------------


def _diffused_stack(tape: Tape, supports: DiffusionSupports, z: Tensor) -> Tensor:
    """[z, S z, S^2 z, ...] per support, concatenated on the channel axis.

    Shared across the gates that read the same input, so each S^d z is
    computed once per cell step (powers still applied by repeated spmm).
    """
    parts = []
    for s in supports.matrices:
        cur = z
        parts.append(cur)  # the d=0 transition is the identity
        for _ in range(1, supports.max_steps):
            cur = tape.spmm(s, cur)
            parts.append(cur)
    return parts[0] if len(parts) == 1 else tape.concat(parts)


def _gate_from_stack(tape: Tape, stack: Tensor, gate: GateParams) -> Tensor:
    """The filter on a diffused stack: the per-step blocks are stacked
    row-wise so the whole sum is a single product."""
    blocks = [block for per_support in gate.blocks for block in per_support]
    w = blocks[0] if len(blocks) == 1 else tape.concat(blocks, axis=0)
    return tape.add_bias(tape.matmul(stack, w), gate.bias)


def diffusion_conv(tape: Tape, supports: DiffusionSupports, z: Tensor,
                   gate: GateParams) -> Tensor:
    """Graph filter over z [batch, nodes, in_dim + units] -> [batch, nodes, units]."""
    return _gate_from_stack(tape, _diffused_stack(tape, supports, z), gate)


def dcgru_cell(tape: Tape, x_t: Tensor, h_prev: Tensor, supports: DiffusionSupports,
               cell: CellParams) -> Tensor:
    """One recurrent step: reset/update gates, candidate state, convex blend."""
    xh = tape.concat([x_t, h_prev])
    xh_stack = _diffused_stack(tape, supports, xh)
    r = tape.sigmoid(_gate_from_stack(tape, xh_stack, cell.reset))
    u = tape.sigmoid(_gate_from_stack(tape, xh_stack, cell.update))
    # An inference tape holds no other reference, so this frees the stack early.
    # Freeing xh here too moved training's frees so that glibc trimmed and
    # re-faulted the heap on every step (7x the minor page faults).
    del xh_stack
    xrh = tape.concat([x_t, tape.hadamard(r, h_prev)])
    c = tape.tanh(diffusion_conv(tape, supports, xrh, cell.candidate))
    h = tape.add(tape.hadamard(u, h_prev), tape.hadamard(tape.sub_from_one(u), c))
    if not np.isfinite(h.value).all():
        raise NumericalError("numerical divergence")
    return h


def _zero_states(tape: Tape, batch: int, nodes: int, layers: int, units: int) -> list[Tensor]:
    return [tape.constant(np.zeros((batch, nodes, units))) for _ in range(layers)]


def encode(tape: Tape, window: np.ndarray, supports: DiffusionSupports,
           params: DcgruParams) -> list[Tensor]:
    """Run the encoder stack over window [batch, lookback, nodes, input_dim].

    Returns the final hidden state of every layer.
    """
    cfg = params.config
    if window.ndim != 4 or window.shape[1] != cfg.lookback or window.shape[3] != cfg.input_dim:
        raise ValueError(f"bad encoder window shape {window.shape}")
    batch, _, nodes, _ = window.shape
    states = _zero_states(tape, batch, nodes, cfg.layers, cfg.units)
    for t in range(cfg.lookback):
        x = tape.constant(window[:, t])
        for layer, cell in enumerate(params.encoder):
            states[layer] = dcgru_cell(tape, x, states[layer], supports, cell)
            x = states[layer]
    return states


def decode(tape: Tape, init_states: list[Tensor], supports: DiffusionSupports,
           params: DcgruParams, targets: np.ndarray | None = None,
           epsilon: float = 0.0, rng: np.random.Generator | None = None) -> list[Tensor]:
    """Autoregressive decoding from a zero GO frame; one output Tensor per step.

    At each step past the first, the input is the previous ground-truth frame
    with probability epsilon (one draw per step), else the model's previous
    projection. Inference is epsilon=0 and needs no targets.
    """
    cfg = params.config
    if epsilon > 0.0 and targets is None:
        raise ValueError("targets required when epsilon > 0")
    if epsilon > 0.0 and rng is None:
        raise ValueError("rng required when epsilon > 0")
    batch, nodes = init_states[0].value.shape[:2]
    if targets is not None and targets.shape != (batch, cfg.horizon, nodes, cfg.output_dim):
        raise ValueError(f"bad target shape {targets.shape}")
    states = list(init_states)
    del init_states  # on a tape that records nothing, each state is freed once replaced
    current = tape.constant(np.zeros((batch, nodes, cfg.output_dim)))
    outputs: list[Tensor] = []
    for t in range(cfg.horizon):
        if t > 0:
            if epsilon > 0.0 and rng.uniform() < epsilon:
                current = tape.constant(targets[:, t - 1])
            else:
                current = outputs[-1]
        x = current
        for layer, cell in enumerate(params.decoder):
            states[layer] = dcgru_cell(tape, x, states[layer], supports, cell)
            x = states[layer]
        pred = tape.add_bias(tape.matmul(x, params.proj_w), params.proj_b)
        outputs.append(pred)
    return outputs


def loss_multi(tape: Tape, pred: Tensor, target: Tensor) -> Tensor:
    """Sum of per-feature MAEs over (speed, flow) channels interleaved on the
    trailing axis: [..., 2] for one step, [..., horizon*2] for a whole decode."""
    if pred.value.shape != target.value.shape:
        raise ValueError("prediction and target shapes differ")
    if pred.value.shape[-1] % 2:
        raise ValueError("multioutput loss expects interleaved (speed, flow) channels")
    # both features have as many entries, so their two means sum to twice the overall mean
    return tape.hadamard(tape.mean_abs(pred, target), tape.constant(2.0))


def seq2seq_loss(tape: Tape, params: DcgruParams, supports: DiffusionSupports,
                 window: np.ndarray, targets: np.ndarray, epsilon: float = 0.0,
                 rng: np.random.Generator | None = None) -> tuple[Tensor, list[Tensor]]:
    """Encode, decode, and score one minibatch; returns (loss, per-step outputs).

    Two output features are scored with the joint loss, one with plain MAE.
    """
    states = encode(tape, window, supports, params)
    outputs = decode(tape, states, supports, params, targets, epsilon, rng)
    pred = tape.concat(outputs)
    flat_target = tape.constant(np.concatenate(list(targets.transpose(1, 0, 2, 3)), axis=-1))
    if params.config.output_dim == 2:
        loss = loss_multi(tape, pred, flat_target)
    else:
        loss = tape.mean_abs(pred, flat_target)
    return loss, outputs


def predict(params: DcgruParams, supports: DiffusionSupports,
            window: np.ndarray) -> np.ndarray:
    """Pure inference: [batch, lookback, nodes, P] -> [batch, horizon, nodes, Q]."""
    tape = Tape(record=False)
    outputs = decode(tape, encode(tape, window, supports, params), supports, params,
                     targets=None, epsilon=0.0)
    return np.stack([o.value for o in outputs], axis=1)
