"""Diffusion filter, DCGRU cell, encoder-decoder, and losses."""

import tracemalloc

import numpy as np
import pytest

from flowcast.autodiff import Tape, Tensor, Workspace, grads_for
from flowcast.errors import NumericalError
from flowcast.graph import SensorGraph
from flowcast.model import (CellParams, Seq2SeqConfig, build_supports, dcgru_cell, decode,
                            diffusion_conv, encode, init_params, loss_multi, predict,
                            seq2seq_loss)
from flowcast.optim import AdamState, adam_step, clip_by_global_norm
from oracles import (ComposedTape, assert_backward_matches_oracle, assert_grads_close,
                     composed_cell, csr_from_dense, dense_diffusion, finite_difference,
                     joined, per_block_init, per_gate)


def graph_of(dense) -> SensorGraph:
    dense = np.asarray(dense, dtype=np.float64)
    ids = [f"S{i:02d}" for i in range(dense.shape[0])]
    return SensorGraph(ids, csr_from_dense(dense))


# ----------------------------------------------------------------------
# supports
# ----------------------------------------------------------------------


def test_build_supports_hand_example():
    g = graph_of([[0.0, 1.0], [0.0, 0.0]])
    sup = build_supports(g, "dual_random_walk")
    assert sup.matrices[0].to_dense().tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert sup.matrices[1].to_dense().tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_build_supports_row_stochastic_star():
    star = np.zeros((4, 4))
    star[0, 1:] = 1.0
    star[1:, 0] = 1.0
    sup = build_supports(graph_of(star), "random_walk")
    assert np.allclose(sup.matrices[0].to_dense().sum(axis=1), 1.0)


def test_build_supports_isolated_node():
    g = graph_of([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sup = build_supports(g, "dual_random_walk")
    for m in sup.matrices:
        assert np.array_equal(m.to_dense()[2], np.zeros(3))


# ----------------------------------------------------------------------
# diffusion convolution
# ----------------------------------------------------------------------


def _joined(blocks) -> np.ndarray:
    """Per-support, per-step blocks side by side, as diffusion_conv takes them."""
    return np.concatenate([b for per in blocks for b in per], axis=1)


def test_diffusion_conv_identity_blocks():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    sup = build_supports(g, "dual_random_walk", max_steps=1)
    z = np.array([[[1.0, -2.0], [0.5, 3.0]]])
    out = diffusion_conv(sup, z, _joined([[np.eye(2)], [np.zeros((2, 2))]]))
    assert np.array_equal(out, z)  # d=0 transition is the identity


def test_diffusion_conv_zero_input_broadcasts_bias():
    # the filter carries no bias; the cell adds it to the filter's output
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    sup = build_supports(g, "random_walk", max_steps=2)
    bias = np.array([0.5, -1.0, 2.0])
    out = diffusion_conv(sup, np.zeros((1, 2, 1)),
                         _joined([[np.ones((1, 3)), np.ones((1, 3))]])) + bias
    assert np.array_equal(out, np.broadcast_to(bias, (1, 2, 3)))


def test_diffusion_conv_matches_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 4))
        c_in, units = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        dense = np.where(rng.uniform(size=(n, n)) < 0.5, rng.uniform(0.1, 1.0, (n, n)), 0.0)
        np.fill_diagonal(dense, 0.0)
        g = graph_of(dense)
        dual = bool(rng.integers(0, 2))
        sup = build_supports(g, "dual_random_walk" if dual else "random_walk", max_steps=k)
        blocks = [[rng.normal(size=(c_in, units)) for _ in range(k)]
                  for _ in range(sup.n_supports)]
        bias = rng.normal(size=units)
        z = rng.normal(size=(n, c_in))
        got = diffusion_conv(sup, z[None], _joined(blocks))[0] + bias
        want = dense_diffusion([m.to_dense() for m in sup.matrices], z, blocks, bias)
        assert np.abs(got - want).max() <= 1e-10


# ----------------------------------------------------------------------
# DCGRU cell
# ----------------------------------------------------------------------


def _cell(gates) -> CellParams:
    """A cell from (reset, update, candidate), each ([one block per (support,
    step)], bias), joined into columns."""
    return CellParams(*(Tensor(a) for a in joined(gates)))


def _manual_cell(units, in_dim, n_supports, steps, fill=0.0, bias_r=0.0, bias_u=0.0,
                 bias_c=0.0, rng=None):
    def blocks():
        if rng is None:
            return [np.full((in_dim + units, units), fill) for _ in range(n_supports * steps)]
        return [rng.normal(size=(in_dim + units, units)) * 0.5
                for _ in range(n_supports * steps)]

    return _cell([(blocks(), np.full(units, bias)) for bias in (bias_r, bias_u, bias_c)])


def test_cell_saturated_update_gate_keeps_state():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    sup = build_supports(g, "random_walk", max_steps=1)
    cell = _manual_cell(3, 1, 1, 1, bias_u=1e9)  # u == 1 exactly
    h_prev = np.array([[[0.3, -0.7, 2.0], [1.0, 0.0, -1.0]]])
    x = np.array([[[0.5], [-0.5]]])
    h = dcgru_cell(Tape(), Tensor(x), Tensor(h_prev), sup, cell)
    assert np.abs(h.value - h_prev).max() <= 1e-9


def test_cell_open_update_gate_returns_candidate():
    # u == 0, r == 1: h_t = tanh(conv([x, h_prev])) with hand-set candidate weights
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    sup = build_supports(g, "random_walk", max_steps=2)
    units, in_dim = 1, 1
    w_d0 = np.array([[2.0], [0.5]])   # acts on [x, h_prev]
    w_d1 = np.array([[-1.0], [0.25]])
    zero = [np.zeros((2, 1)), np.zeros((2, 1))]
    cell = _cell([(zero, np.array([1e9])), (zero, np.array([-1e9])),
                  ([w_d0, w_d1], np.array([0.3]))])
    x = np.array([[[0.7], [-0.2]]])
    h_prev = np.array([[[0.1], [0.4]]])
    h = dcgru_cell(Tape(), Tensor(x), Tensor(h_prev), sup, cell)
    # walk matrix swaps the two nodes; scalar hand computation per node
    z = np.array([[0.7, 0.1], [-0.2, 0.4]])         # [x, h] rows per node
    sz = z[::-1]                                     # S @ z
    pre = z @ w_d0 + sz @ w_d1 + 0.3
    want = np.tanh(pre)[None]
    assert np.abs(h.value - want).max() <= 1e-12


def test_cell_zeros_fixed_point():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    sup = build_supports(g, "random_walk", max_steps=1)
    cell = _manual_cell(2, 1, 1, 1)  # all weights and biases zero
    h = dcgru_cell(Tape(), Tensor(np.zeros((1, 2, 1))), Tensor(np.zeros((1, 2, 2))), sup, cell)
    assert np.array_equal(h.value, np.zeros((1, 2, 2)))


def test_cell_step_is_one_record_over_its_inputs_and_four_arrays():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    sup = build_supports(g, "dual_random_walk", max_steps=2)
    cell = _manual_cell(2, 1, 2, 2, fill=0.1)
    assert [a.value.shape for a in vars(cell).values()] == [(3, 16), (4,), (3, 8), (2,)]
    tape, x, h = Tape(), Tensor(np.ones((1, 2, 1))), Tensor(np.zeros((1, 2, 2)))
    dcgru_cell(tape, x, h, sup, cell)
    [(_, inputs, _)] = tape._records
    assert inputs == (x.uid, h.uid, cell.w_ru.uid, cell.b_ru.uid, cell.w_c.uid, cell.b_c.uid)


def test_cell_flags_numerical_divergence():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    sup = build_supports(g, "random_walk", max_steps=1)
    cell = _manual_cell(1, 1, 1, 1)
    bad = np.full((1, 2, 1), np.nan)
    with pytest.raises(NumericalError, match="numerical divergence"):
        dcgru_cell(Tape(), Tensor(bad), Tensor(np.zeros((1, 2, 1))), sup, cell)


def _assert_close_relative(got, want, tol=1e-12):
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= tol * scale


@pytest.mark.parametrize("filter_type", ["random_walk", "dual_random_walk"])
@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("in_dim", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 3])
def test_cell_matches_composed_oracle(filter_type, steps, in_dim, batch):
    # two steps on one tape: the input is recorded (as a decoder's previous
    # projection is), is read by both steps, and the second step's state is
    # the first step's output; value and every leaf gradient at 1e-12 relative.
    # At in_dim 3, [x, h] has as many channels as the graph has nodes, so the
    # backward's two scratch buffers have the same shape
    rng = np.random.default_rng(100 * steps + 10 * in_dim + batch)
    n, units = 6, 3
    dense = np.where(rng.uniform(size=(n, n)) < 0.5, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    sup = build_supports(graph_of(dense), filter_type, max_steps=steps)
    cell = _manual_cell(units, in_dim, sup.n_supports, steps, rng=rng)
    cell.b_ru.value = rng.normal(size=2 * units) * 0.3
    cell.b_c.value = rng.normal(size=units) * 0.3
    # the oracle's gates: per-gate, per-(support, step) column views of the cell's arrays
    gates = [([Tensor(b) for b in blocks], Tensor(bias))
             for blocks, bias in per_gate(*(t.value for t in vars(cell).values()))]
    x_leaf = Tensor(rng.normal(size=(batch, n, in_dim)))
    scale = Tensor(rng.normal(size=(batch, n, in_dim)))
    h0 = Tensor(rng.normal(size=(batch, n, units)) * 0.5)
    weight = rng.normal(size=(batch, n, units))

    def flat(gates):
        return [a for blocks, bias in gates for a in (*blocks, bias)]

    def run(tape, step, params, leaves):
        x = tape.hadamard(x_leaf, scale)
        h = step(tape, x, step(tape, x, h0, sup, params), sup, params)
        # the target lies below every output, so d loss / d h = weight / size
        loss = tape.mean_abs(tape.hadamard(h, tape.constant(weight)),
                             tape.constant(np.full(h.value.shape, -1e3)))
        return h.value, grads_for(tape.backward(loss), [x_leaf, scale, h0, *leaves])

    got_h, got = run(Tape(), dcgru_cell, cell, vars(cell).values())
    want_h, want = run(ComposedTape(), composed_cell, gates, flat(gates))
    _assert_close_relative(got_h, want_h)
    got = got[:3] + flat(per_gate(*got[3:]))  # each leaf of the oracle, in its columns
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        _assert_close_relative(g, w)


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------


@pytest.mark.parametrize("filter_type", ["random_walk", "dual_random_walk"])
@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("input_dim", [1, 2])
@pytest.mark.parametrize("output_dim", [1, 2])
def test_init_params_equals_the_per_block_draw_in_columns(filter_type, steps, input_dim,
                                                          output_dim):
    # a seed keeps its weights: the joined draw equals the previous one array
    # per (gate, support, step), placed into the joined columns
    cfg = Seq2SeqConfig(input_dim=input_dim, output_dim=output_dim, layers=2, units=3,
                        max_diffusion_steps=steps, filter_type=filter_type)
    got, want = init_params(cfg, seed=11).values(), per_block_init(cfg, seed=11)
    assert len(got) == len(want) == 18
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_named_parameters_are_four_arrays_per_cell():
    names = [name for name, _ in init_params(Seq2SeqConfig(), seed=0).named()]
    assert names == [f"{stack}/l{layer}/{array}" for stack in ("enc", "dec")
                     for layer in range(2) for array in ("w_ru", "b_ru", "w_c", "b_c")
                     ] + ["proj/w", "proj/b"]


# ----------------------------------------------------------------------
# encoder / decoder
# ----------------------------------------------------------------------


def _tiny_setup(seed=0, layers=2, units=3, lookback=3, horizon=3, p=1, q=1,
                filter_type="random_walk"):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.uniform(size=(4, 4)) < 0.6, rng.uniform(0.2, 1.0, (4, 4)), 0.0)
    np.fill_diagonal(dense, 0.0)
    g = graph_of(dense)
    cfg = Seq2SeqConfig(input_dim=p, output_dim=q, lookback=lookback, horizon=horizon,
                        layers=layers, units=units, max_diffusion_steps=2,
                        filter_type=filter_type)
    sup = build_supports(g, filter_type, 2)
    params = init_params(cfg, seed=seed)
    return g, cfg, sup, params, rng


def test_encode_single_step_matches_cell():
    g, cfg, sup, params, rng = _tiny_setup(lookback=1, layers=1)
    window = rng.normal(size=(2, 1, 4, 1))
    states = encode(Tape(), window, sup, params)
    tape = Tape()
    h0 = tape.constant(np.zeros((2, 4, cfg.units)))
    want = dcgru_cell(tape, Tensor(window[:, 0]), h0, sup, params.encoder[0])
    assert np.array_equal(states[0].value, want.value)


def test_encode_matches_manual_unroll():
    g, cfg, sup, params, rng = _tiny_setup(lookback=3, layers=2)
    window = rng.normal(size=(2, 3, 4, 1))
    got = encode(Tape(), window, sup, params)
    tape = Tape()
    h = [tape.constant(np.zeros((2, 4, cfg.units))) for _ in range(2)]
    for t in range(3):
        x = tape.constant(window[:, t])
        for layer, cell in enumerate(params.encoder):
            h[layer] = dcgru_cell(tape, x, h[layer], sup, cell)
            x = h[layer]
    for a, b in zip(got, h):
        assert np.array_equal(a.value, b.value)
    with pytest.raises(ValueError):
        encode(Tape(), window[:, :2], sup, params)


def test_encode_zero_input_zero_bias_gives_zero_states():
    g, cfg, sup, params, _ = _tiny_setup(layers=2)
    for stack in (params.encoder, params.decoder):
        for cell in stack:
            for bias in (cell.b_ru, cell.b_c):
                bias.value = np.zeros_like(bias.value)
    states = encode(Tape(), np.zeros((1, 3, 4, 1)), sup, params)
    for s in states:
        assert np.array_equal(s.value, np.zeros_like(s.value))


def test_decode_teacher_forcing_and_autoregression():
    g, cfg, sup, params, rng = _tiny_setup()
    window = rng.normal(size=(2, 3, 4, 1))
    targets_a = rng.normal(size=(2, 3, 4, 1))
    targets_b = rng.normal(size=(2, 3, 4, 1))

    def run(eps, targets, seed=7):
        tape = Tape()
        states = encode(tape, window, sup, params)
        outs = decode(tape, states, sup, params, targets, eps,
                      np.random.default_rng(seed) if eps > 0 else None)
        return np.stack([o.value for o in outs], axis=1)

    # epsilon=0: targets are ignored entirely
    assert np.array_equal(run(0.0, targets_a), run(0.0, targets_b))
    assert np.array_equal(run(0.0, None), run(0.0, targets_a))
    # epsilon=1: inputs are the ground truth, so different targets diverge
    assert not np.array_equal(run(1.0, targets_a), run(1.0, targets_b))
    # fixed seed, mixed sampling: bit-reproducible
    assert np.array_equal(run(0.5, targets_a, seed=3), run(0.5, targets_a, seed=3))
    with pytest.raises(ValueError, match="targets required"):
        run(0.5, None)


def test_loss_examples():
    tape = Tape()
    a = Tensor([0.0, 2.0])
    b = Tensor([1.0, 4.0])
    assert tape.mean_abs(a, a).value == 0.0
    assert tape.mean_abs(a, b).value == 1.5
    pred = Tensor(np.array([[0.5, 2.0], [0.5, 0.0]]))
    target = Tensor(np.array([[0.0, 1.0], [1.5, 0.0]]))
    # per-feature MAEs are 0.5 and 0.5 here; build the exact sum oracle
    sp = np.abs(pred.value[:, 0] - target.value[:, 0]).mean()
    fl = np.abs(pred.value[:, 1] - target.value[:, 1]).mean()
    assert loss_multi(tape, pred, target).value == sp + fl
    with pytest.raises(ValueError):
        loss_multi(tape, Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 1))))


def test_loss_multi_gradient_is_sign_over_feature_count():
    rng = np.random.default_rng(4)
    pred = Tensor(rng.normal(size=(3, 5, 6)))
    target = rng.normal(size=(3, 5, 6))
    target[0, 0, :2] = pred.value[0, 0, :2]  # ties: zero gradient
    tape = Tape()
    grad = tape.backward(loss_multi(tape, pred, tape.constant(target)))[pred.uid]
    assert np.array_equal(grad, np.sign(pred.value - target) / (pred.value.size // 2))


def test_seq2seq_loss_equals_elementwise_mae():
    g, cfg, sup, params, rng = _tiny_setup()
    window = rng.normal(size=(2, 3, 4, 1))
    targets = rng.normal(size=(2, 3, 4, 1))
    tape = Tape()
    loss, outputs = seq2seq_loss(tape, params, sup, window, targets, epsilon=0.0)
    preds = np.stack([o.value for o in outputs], axis=1)
    assert loss.value == pytest.approx(np.abs(preds - targets).mean(), abs=1e-15)


def test_seq2seq_multioutput_loss_is_sum_of_feature_maes():
    g, cfg, sup, params, rng = _tiny_setup(p=2, q=2)
    window = rng.normal(size=(2, 3, 4, 2))
    targets = rng.normal(size=(2, 3, 4, 2))
    tape = Tape()
    loss, outputs = seq2seq_loss(tape, params, sup, window, targets, epsilon=0.0)
    preds = np.stack([o.value for o in outputs], axis=1)
    want = (np.abs(preds[..., 0] - targets[..., 0]).mean()
            + np.abs(preds[..., 1] - targets[..., 1]).mean())
    assert loss.value == pytest.approx(want, abs=1e-15)


def test_seq2seq_gradients_match_finite_differences_small():
    g, cfg, sup, params, rng = _tiny_setup(layers=1, units=2, lookback=2, horizon=2)
    window = rng.normal(size=(1, 2, 4, 1))
    targets = rng.normal(size=(1, 2, 4, 1))
    leaves = params.tensors()
    tape = Tape()
    loss, _ = seq2seq_loss(tape, params, sup, window, targets, epsilon=0.0)
    analytic = grads_for(tape.backward(loss), leaves)

    def f():
        t = Tape()
        l, _ = seq2seq_loss(t, params, sup, window, targets, epsilon=0.0)
        return float(l.value)

    numeric = finite_difference(f, [t.value for t in leaves])
    assert_grads_close(analytic, numeric)


@pytest.mark.parametrize("filter_type", ["random_walk", "dual_random_walk"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_seq2seq_backward_matches_previous_walk(filter_type, dim, epsilon):
    g, cfg, sup, params, rng = _tiny_setup(p=dim, q=dim, filter_type=filter_type)
    window = rng.normal(size=(2, 3, 4, dim))
    targets = rng.normal(size=(2, 3, 4, dim))
    tape = Tape()
    loss, _ = seq2seq_loss(tape, params, sup, window, targets, epsilon=epsilon,
                           rng=np.random.default_rng(3))
    grads = assert_backward_matches_oracle(tape, loss)
    assert {p.uid for p in params.tensors()} <= set(grads)


@pytest.mark.parametrize("filter_type", ["random_walk", "dual_random_walk"])
@pytest.mark.parametrize("dim", [1, 2])
def test_record_off_forward_matches_recorded(filter_type, dim):
    g, cfg, sup, params, rng = _tiny_setup(p=dim, q=dim, filter_type=filter_type)
    window = rng.normal(size=(2, 3, 4, dim))
    targets = rng.normal(size=(2, 3, 4, dim))
    tape = Tape()
    outputs = decode(tape, encode(tape, window, sup, params), sup, params)
    assert np.array_equal(predict(params, sup, window),
                          np.stack([o.value for o in outputs], axis=1))
    loss, _ = seq2seq_loss(Tape(), params, sup, window, targets)
    loss_off, _ = seq2seq_loss(Tape(record=False), params, sup, window, targets)
    assert loss_off.value == loss.value


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_does_not_retain_activations():
    # a recording tape keeps every cell step's activations until the forward
    # returns; inference must free each one when the next step replaces it
    rng = np.random.default_rng(0)
    n = 10
    dense = np.where(rng.uniform(size=(n, n)) < 0.3, rng.uniform(0.2, 1.0, (n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    cfg = Seq2SeqConfig(lookback=12, horizon=12, layers=2, units=4,
                        filter_type="dual_random_walk")
    sup = build_supports(graph_of(dense), cfg.filter_type, 2)
    params = init_params(cfg, seed=1)
    window = rng.normal(size=(2, 12, n, 1))

    def recorded():
        tape = Tape()
        decode(tape, encode(tape, window, sup, params), sup, params)

    predict(params, sup, window)  # build the supports' cached dense copies first
    ratio = _traced_peak(lambda: predict(params, sup, window)) / _traced_peak(recorded)
    assert ratio < 0.25, f"predict peaks at {ratio:.2f} of a recording forward"


def _step_setup(seed=5, n=10, units=8, lookback=6, horizon=6, samples=21):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.uniform(size=(n, n)) < 0.3, rng.uniform(0.2, 1.0, (n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    cfg = Seq2SeqConfig(lookback=lookback, horizon=horizon, layers=2, units=units,
                        filter_type="dual_random_walk")
    sup = build_supports(graph_of(dense), cfg.filter_type, 2)
    x = rng.normal(size=(samples, lookback, n, 1))
    y = rng.normal(size=(samples, horizon, n, 1))
    return cfg, sup, x, y


def _train_step(tape, params, sup, state, x, y, rng) -> list[np.ndarray]:
    """One step as train_partition takes it: forward, backward, clip, Adam."""
    loss, _ = seq2seq_loss(tape, params, sup, x, y, epsilon=0.5, rng=rng)
    grads = clip_by_global_norm(grads_for(tape.backward(loss), params.tensors()), 5.0)
    adam_step(params.values(), grads, state, 0.01)
    return grads


def test_steps_through_one_workspace_match_fresh_tapes():
    # full, partial, then full batch through one workspace: every step's
    # gradients equal those of a tape with its own workspace, bit for bit, and
    # the partial batch reuses the full batch's buffers as leading-axis views
    cfg, sup, x, y = _step_setup()
    runs = []
    for workspace in (None, Workspace()):
        params = init_params(cfg, seed=2)
        state, rng = AdamState.for_params(params.values()), np.random.default_rng(9)
        grads, buffers = [], []
        for lo, hi in ((0, 8), (8, 13), (13, 21)):
            grads.append(_train_step(Tape(workspace=workspace), params, sup, state,
                                     x[lo:hi], y[lo:hi], rng))
            if workspace is not None:
                buffers.append(dict(workspace._buffers))
        runs.append(grads)
        if workspace is not None:
            for later in buffers[1:]:  # the same arrays, none added
                assert later.keys() == buffers[0].keys()
                assert all(later[k] is a for k, a in buffers[0].items())
    for fresh, shared in zip(*runs):
        for g, h in zip(fresh, shared):
            assert np.array_equal(g, h)


def test_workspace_is_lent_to_one_tape_until_its_backward():
    cfg, sup, x, y = _step_setup()
    params = init_params(cfg, seed=2)
    workspace = Workspace()
    tape = Tape(workspace=workspace)
    loss, _ = seq2seq_loss(tape, params, sup, x[:4], y[:4])
    with pytest.raises(RuntimeError, match="not run backward"):
        Tape(workspace=workspace)
    tape.backward(loss)
    Tape(workspace=workspace)  # free again
    Tape(record=False, workspace=workspace)  # a tape that records nothing borrows nothing


def test_training_step_allocates_less_than_its_saved_activations():
    # after a warm-up step, the arrays each cell step keeps for backward live
    # in the workspace, so a step's peak allocation stays below their bytes
    cfg, sup, x, y = _step_setup(samples=16)
    params = init_params(cfg, seed=2)
    state, rng = AdamState.for_params(params.values()), np.random.default_rng(9)
    workspace = Workspace()
    _train_step(Tape(workspace=workspace), params, sup, state, x, y, rng)
    # ru, c and the new state: 4 * units channels per window and node, per cell step
    saved = cfg.layers * (cfg.lookback + cfg.horizon) * len(x) * x.shape[2] * 4 * cfg.units * 8
    peak = _traced_peak(lambda: _train_step(Tape(workspace=workspace), params, sup, state,
                                            x, y, rng))
    assert peak < saved, f"a step peaks at {peak} bytes, its saved activations take {saved}"


def test_permutation_equivariance():
    rng = np.random.default_rng(77)
    n = 5
    dense = np.where(rng.uniform(size=(n, n)) < 0.6, rng.uniform(0.2, 1.0, (n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    perm = rng.permutation(n)
    cfg = Seq2SeqConfig(input_dim=1, output_dim=1, lookback=3, horizon=3, layers=2,
                        units=4, max_diffusion_steps=2, filter_type="dual_random_walk")
    params = init_params(cfg, seed=5)
    window = rng.normal(size=(2, 3, n, 1))

    sup = build_supports(graph_of(dense), cfg.filter_type, 2)
    base = predict(params, sup, window)

    permuted_dense = dense[np.ix_(perm, perm)]
    sup_p = build_supports(graph_of(permuted_dense), cfg.filter_type, 2)
    permuted = predict(params, sup_p, window[:, :, perm])
    assert np.abs(permuted - base[:, :, perm]).max() <= 1e-12


def test_decode_is_deterministic_at_epsilon_zero():
    g, cfg, sup, params, rng = _tiny_setup()
    window = rng.normal(size=(3, 3, 4, 1))
    assert np.array_equal(predict(params, sup, window), predict(params, sup, window))
