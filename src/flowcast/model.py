"""Diffusion-convolutional GRU encoder-decoder.

The recurrent cell replaces dense input/state products with a graph filter
that sums powers of random-walk transition matrices,

    out = sum_d [ S_fwd^d Z W_{d,fwd} + S_rev^d Z W_{d,rev} ] + b,

where the d=0 transition is the identity for both directions. Since
S^d Z W_d = S^d (Z W_d), each filter multiplies Z by all its weight blocks in
one product and applies the powers to the gate outputs by Horner's
rule, so no stack [Z, S Z, S^2 Z, ...] is built. One cell step is one tape
record whose backward is derived by hand. All tensors are batched as
[batch, nodes, channels].

A cell stores each filter as that joined matrix (`CellParams`): blocks
W_{s,d} side by side in (support, step) order, each reset/update block itself
[W_r | W_u], so a step joins no parameters and returns one gradient per array.

What a cell step keeps for backward (its gates ru, candidate c and new
state) lives in slots of the recording tape's workspace (`autodiff.Workspace`),
and its backward's largest temporaries in the workspace's scratch buffers.
Training lends one workspace to every step of a run, so these arrays are
allocated once per run. Inference records nothing and takes fresh arrays,
each freed when the next step replaces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, Workspace
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
class CellParams:
    """A cell's two filters as the joined matrices diffusion_conv takes, for
    blocks b = s * max_steps + d in (support, step) order. w_ru [in_dim + units,
    2 * units * B] holds block b's [W_r | W_u] in columns 2b*units to
    (2b+2)*units, and b_ru is [b_r | b_u]; w_c holds block b's W_c in columns
    b*units to (b+1)*units, and b_c is the candidate's bias."""

    w_ru: Tensor
    b_ru: Tensor
    w_c: Tensor
    b_c: Tensor


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
        if min(self.lookback, self.horizon, self.layers, self.units, self.max_diffusion_steps) < 1:
            raise ValueError("lookback, horizon, layers, units and max_diffusion_steps "
                             "must be at least 1")
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
                out += [(f"{stack_name}/l{layer}/{name}", t) for name, t in vars(cell).items()]
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


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform draws for blocks of shape [..., fan_in, fan_out]."""
    r = math.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-r, r, size=shape)


def _init_cell(rng: np.random.Generator, in_dim: int, units: int,
               blocks: int) -> CellParams:
    """One Glorot block per (gate, support, step), drawn in that order
    (reset, update, candidate), then placed into the joined columns."""
    rows = in_dim + units
    w = _glorot(rng, (3, blocks, rows, units)).transpose(2, 1, 0, 3)  # rows, block, gate, unit
    return CellParams(w_ru=Tensor(w[:, :, :2].reshape(rows, -1)), b_ru=Tensor(np.ones(2 * units)),
                      w_c=Tensor(w[:, :, 2].reshape(rows, -1)), b_c=Tensor(np.zeros(units)))


def init_params(config: Seq2SeqConfig, seed: int) -> DcgruParams:
    """Glorot-uniform filters; reset/update biases 1, candidate bias 0."""
    rng = np.random.default_rng(seed)
    blocks = config.n_supports * config.max_diffusion_steps
    params = DcgruParams(config)
    params.encoder, params.decoder = (  # the encoder's cells are drawn first
        [_init_cell(rng, first_dim if layer == 0 else config.units, config.units, blocks)
         for layer in range(config.layers)]
        for first_dim in (config.input_dim, config.output_dim))
    params.proj_w = Tensor(_glorot(rng, (config.units, config.output_dim)))
    params.proj_b = Tensor(np.zeros(config.output_dim))
    return params


# ----------------------------------------------------------------------
# forward graph
# ----------------------------------------------------------------------


def _sigmoid(out: np.ndarray) -> None:
    """out <- 1 / (1 + exp(-out)), in place."""
    # exp may overflow for very negative inputs; 1/(1+inf) == 0 is the right limit
    with np.errstate(over="ignore"):
        np.exp(np.negative(out, out=out), out=out)
    np.divide(1.0, np.add(1.0, out, out=out), out=out)


def _columns(a: np.ndarray, width: int) -> list[np.ndarray]:
    """Views of a's trailing axis cut into consecutive blocks of width."""
    return [a[..., i:i + width] for i in range(0, a.shape[-1], width)]


def diffusion_conv(supports: DiffusionSupports, z: np.ndarray,
                   gates: np.ndarray) -> np.ndarray:
    """Graph filter sum_{s,d} S_s^d z W_{s,d} without bias: z [batch, nodes, c]
    -> [batch, nodes, units].

    gates [c, n_supports * max_steps * units] holds the blocks W_{s,d} side by
    side in (support, step) order; a block may itself join several gates. All
    blocks are applied in one product, and each support's powers by Horner's
    rule on the gate outputs, Y_0 + S (Y_1 + S (...)), never on z.
    """
    steps = supports.max_steps
    ys = _columns(z @ gates, gates.shape[1] // (supports.n_supports * steps))
    out = None
    for s, mat in enumerate(supports.matrices):
        acc = ys[(s + 1) * steps - 1]
        for y in reversed(ys[s * steps:(s + 1) * steps - 1]):
            acc = y + mat.matmul(acc)
        out = acc if out is None else out + acc
    return out


def _diffusion_conv_backward(supports: DiffusionSupports, z: np.ndarray, gates: np.ndarray,
                             g: np.ndarray, workspace: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """(dz, dgates) of diffusion_conv for the output gradient g: with
    G_{s,d} = (S_s^T)^d g side by side, dz = G gates^T and dgates = z^T G.
    G and the per-window products z^T G are scratch buffers of `workspace`."""
    steps = supports.max_steps
    back = workspace.scratch("back", g.shape[:-1] + (gates.shape[1],))
    blocks = _columns(back, g.shape[-1])
    for s, mat in enumerate(supports.matrices):
        for d, block in enumerate(blocks[s * steps:(s + 1) * steps]):
            cur = mat.matmul(cur, transpose=True) if d else g
            block[...] = cur
    # one product per window, summed: as one [c, b*n] @ [b*n, k] product it is
    # big enough for OpenBLAS to thread, and the threads of two training
    # workers then fight over the cores (epochs 3.5x slower on 2 vCPUs)
    per_window = workspace.scratch("dgates", (z.shape[0], z.shape[-1], back.shape[-1]))
    dgates = np.matmul(z.swapaxes(-1, -2), back, out=per_window).sum(axis=0)
    return back @ gates.T, dgates


def dcgru_cell(tape: Tape, x_t: Tensor, h_prev: Tensor, supports: DiffusionSupports,
               cell: CellParams) -> Tensor:
    """One recurrent step, recorded as one tape op with a hand-derived backward.

    Reset and update gates share one filter over [x, h], `cell.w_ru`, whose
    blocks are [W_r | W_u]; the candidate filters [x, r*h]; the state is the
    convex blend u*h + (1-u)*c. Backward keeps only ru and c beside the
    inputs, and rebuilds [x, h] and [x, r*h] from them. ru, c and the new
    state are written into `tape.buffer`s, which on a recording tape are
    slots of the tape's workspace.
    """
    x, h = x_t.value, h_prev.value
    in_dim, units = x.shape[-1], h.shape[-1]
    w_ru, w_c = cell.w_ru.value, cell.w_c.value
    lead = h.shape[:-1]
    ru = np.add(diffusion_conv(supports, np.concatenate([x, h], axis=-1), w_ru),
                cell.b_ru.value, out=tape.buffer(lead + (2 * units,)))
    _sigmoid(ru)
    r, u = ru[..., :units], ru[..., units:]
    c = np.add(diffusion_conv(supports, np.concatenate([x, r * h], axis=-1), w_c),
               cell.b_c.value, out=tape.buffer(lead + (units,)))
    np.tanh(c, out=c)
    blend = 1.0 - u
    blend *= c
    out = np.multiply(u, h, out=tape.buffer(lead + (units,)))
    out += blend
    if not np.isfinite(out).all():
        raise NumericalError("numerical divergence")

    def backward(g):
        dc = g * (1.0 - u) * (1.0 - c * c)
        d_xrh, dw_c = _diffusion_conv_backward(supports, np.concatenate([x, r * h], axis=-1),
                                               w_c, dc, tape.workspace)
        d_rh = d_xrh[..., in_dim:]
        d_ru = np.concatenate([d_rh * h, g * (h - c)], axis=-1) * ru * (1.0 - ru)
        d_xh, dw_ru = _diffusion_conv_backward(supports, np.concatenate([x, h], axis=-1),
                                               w_ru, d_ru, tape.workspace)
        return (d_xh[..., :in_dim] + d_xrh[..., :in_dim],
                d_xh[..., in_dim:] + d_rh * r + g * u,
                dw_ru, d_ru.reshape(-1, 2 * units).sum(axis=0),
                dw_c, dc.reshape(-1, units).sum(axis=0))

    return tape.op(out, (x_t, h_prev, cell.w_ru, cell.b_ru, cell.w_c, cell.b_c), backward)


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
