"""Sparse kernels, tape differentiation, clipping, and Adam."""

import math

import numpy as np
import pytest

from flowcast.autodiff import Tape, Tensor, grads_for
from flowcast.optim import AdamState, adam_step, clip_by_global_norm, global_norm
from flowcast.sparse import BROADCAST_MAX_CELLS, DENSE_MAX_CELLS, CsrMatrix

from oracles import (ComposedTape, assert_backward_matches_oracle, assert_grads_close,
                     csr_from_dense, csr_identity, finite_difference)


# ----------------------------------------------------------------------
# CSR
# ----------------------------------------------------------------------


def test_from_triples_merges_duplicates_and_drops_zeros():
    m = CsrMatrix.from_triples(2, 2, [0, 0, 1, 1], [1, 1, 0, 0], [2.0, 3.0, 1.0, -1.0])
    assert m.nnz == 1
    assert m.to_dense().tolist() == [[0.0, 5.0], [0.0, 0.0]]


def test_dense_round_trip():
    rng = np.random.default_rng(7)
    a = np.where(rng.uniform(size=(6, 4)) < 0.4, rng.normal(size=(6, 4)), 0.0)
    assert np.array_equal(csr_from_dense(a).to_dense(), a)


def test_matmul_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        r, c, k = rng.integers(1, 9, size=3)
        dense = np.where(rng.uniform(size=(r, c)) < 0.5, rng.normal(size=(r, c)), 0.0)
        x = rng.normal(size=(c, k))
        got = csr_from_dense(dense).matmul(x)
        assert np.abs(got - dense @ x).max() <= 1e-12


def test_matmul_sparse_kernel_matches_dense_oracle():
    # the gather/segment-sum kernel, called directly: matmul only takes it
    # for matrices above DENSE_MAX_CELLS
    rng = np.random.default_rng(19)
    for _ in range(5):
        dense = np.where(rng.uniform(size=(120, 90)) < 0.05, rng.normal(size=(120, 90)), 0.0)
        m = csr_from_dense(dense)
        x = rng.normal(size=(90, 7))
        assert np.abs(m._gather_matmul(x) - dense @ x).max() <= 1e-12
        with_empty_rows = dense.copy()
        with_empty_rows[::3] = 0.0
        m2 = csr_from_dense(with_empty_rows)
        assert np.abs(m2._gather_matmul(x) - with_empty_rows @ x).max() <= 1e-12


def test_matmul_above_dense_cap_uses_gather_kernel():
    # one row past the cap: no dense copy is made, batched and transposed
    # products are checked entry by entry against the triples
    rows, cols = 2049, 2048
    assert rows * cols > DENSE_MAX_CELLS >= cols * cols
    rng = np.random.default_rng(23)
    r, c = rng.integers(0, rows, size=3000), rng.integers(0, cols, size=3000)
    m = CsrMatrix.from_triples(rows, cols, r, c, rng.normal(size=3000))
    assert not m._use_dense_kernel()
    assert csr_identity(cols)._use_dense_kernel()
    tr, tc, tv = m.triples()
    x = rng.normal(size=(2, cols, 3))
    want = np.zeros((2, rows, 3))
    np.add.at(want, (slice(None), tr), tv[None, :, None] * x[:, tc])
    assert np.abs(m.matmul(x) - want).max() <= 1e-12
    g = rng.normal(size=(2, rows, 3))
    want_t = np.zeros((2, cols, 3))
    np.add.at(want_t, (slice(None), tc), tv[None, :, None] * g[:, tr])
    assert np.abs(m.matmul(g, transpose=True) - want_t).max() <= 1e-12
    assert m._dense is None


def test_matmul_partition_sized_support_forward_and_backward():
    # a partition-sized support (300 nodes, density ~0.1) on the dense path,
    # batched, with the backward product of tape.spmm against dense S^T g
    rng = np.random.default_rng(29)
    dense = np.where(rng.uniform(size=(300, 300)) < 0.1, rng.uniform(size=(300, 300)), 0.0)
    s = csr_from_dense(dense)
    assert s._use_dense_kernel()
    x = rng.normal(size=(4, 300, 17))
    assert np.abs(s.matmul(x) - np.einsum("ij,bjc->bic", dense, x)).max() <= 1e-12
    tape = ComposedTape()
    leaf = Tensor(x)
    weight = tape.constant(rng.normal(size=x.shape))
    out = tape.hadamard(tape.spmm(s, leaf), weight)
    # the target lies below every output, so d loss / d out = weight / size
    loss = tape.mean_abs(out, tape.constant(np.full(x.shape, -1e3)))
    (grad,) = grads_for(tape.backward(loss), [leaf])
    want = np.einsum("ji,bjc->bic", dense, weight.value / x.size)
    assert np.abs(grad - want).max() <= 1e-12


def _banded(rng, n, width=30, density=0.3):
    """n x n with nonzeros only where |row - col| <= width, as corridor supports are."""
    i, j = np.indices((n, n))
    keep = (np.abs(i - j) <= width) & (rng.uniform(size=(n, n)) < density)
    return np.where(keep, rng.uniform(size=(n, n)), 0.0)


def _assert_products_match_dense(dense, rng):
    # 2-d, batched and transposed products against plain dense products
    m = csr_from_dense(dense)
    n = dense.shape[0]
    for x in (rng.normal(size=(n, 32)), rng.normal(size=(n, 672))):
        assert np.abs(m.matmul(x) - dense @ x).max() <= 1e-12
        assert np.abs(m.matmul(x, transpose=True) - dense.T @ x).max() <= 1e-12
    x = rng.normal(size=(3, n, 5))
    assert np.abs(m.matmul(x) - np.einsum("ij,bjc->bic", dense, x)).max() <= 1e-12
    assert np.abs(m.matmul(x, transpose=True)
                  - np.einsum("ji,bjc->bic", dense, x)).max() <= 1e-12
    return m


def test_banded_support_multiplies_in_band_blocks():
    rng = np.random.default_rng(31)
    dense = _banded(rng, 300)
    m = _assert_products_match_dense(dense, rng)
    for blocks, a in zip(m._dense[1:], (dense, dense.T)):
        assert blocks is not None
        for lo, hi, col_lo, col_hi, view in blocks:
            assert np.shares_memory(view, m._dense[0])
            rest = np.delete(a[lo:hi], np.s_[col_lo:col_hi], axis=1)
            assert not rest.any()  # only exact zeros are skipped
        assert sum((hi - lo) * (c1 - c0) for lo, hi, c0, c1, _ in blocks) * 2 <= dense.size


def _halo_tailed(rng):
    """Owned nodes banded, the last 12 columns (halos, as extract_subgraphs
    appends them) linked to scattered rows in three row blocks, and one row
    block with no nonzeros at all."""
    dense = _banded(rng, 300)
    scattered = [5, 17, 40, 70, 200, 220, 231]
    dense[scattered, 288:] = rng.uniform(size=(len(scattered), 12))
    dense[96:128] = 0.0
    return dense


def test_band_with_halo_tail_and_empty_block():
    rng = np.random.default_rng(37)
    dense = _halo_tailed(rng)
    m = _assert_products_match_dense(dense, rng)
    assert m._dense[1] is not None and m._dense[2] is not None
    assert (96, 128, 0, 0) in [b[:4] for b in m._dense[1]]
    assert not m.matmul(rng.normal(size=(300, 4)))[96:128].any()


def test_batched_band_product_is_in_place_and_per_window():
    # a batched operand multiplies block by block, broadcast over the batch,
    # into a C-contiguous [b, rows, c] result whose every window is the 2-d
    # band product of that window, bit for bit
    rng = np.random.default_rng(43)
    for dense in (_banded(rng, 300), _halo_tailed(rng)):
        m = csr_from_dense(dense)
        for transpose, a in ((False, dense), (True, dense.T)):
            assert m._band(transpose) is not None
            for b in (1, 2, 21):
                for c in (1, 17):
                    x = rng.normal(size=(b, 300, c))
                    got = m.matmul(x, transpose=transpose)
                    assert got.shape == (b, 300, c) and got.flags.c_contiguous
                    for i in range(b):
                        assert np.array_equal(got[i], m.matmul(x[i], transpose=transpose))
                    assert np.abs(got - np.einsum("ij,bjc->bic", a, x)).max() <= 1e-12


def test_unbanded_order_and_small_matrix_take_one_dense_product():
    rng = np.random.default_rng(41)
    order = rng.permutation(300)
    dense = _banded(rng, 300)[np.ix_(order, order)]
    small = _banded(rng, 32, width=4, density=0.8)
    for a in (dense, small):
        m = _assert_products_match_dense(a, rng)
        assert m._dense[1:] == (None, None)
        n = a.shape[0]
        x = rng.normal(size=(n, 7))
        assert np.array_equal(m.matmul(x), a @ x)
        assert np.array_equal(m.matmul(x, transpose=True), a.T @ x)
        if a.size <= BROADCAST_MAX_CELLS:
            continue  # a batched operand broadcasts the copy (next test)
        # a batched operand is still folded into one wide product
        for b, c in ((1, 1), (2, 17), (21, 17)):
            x = rng.normal(size=(b, n, c))
            flat = x.transpose(1, 0, 2).reshape(n, -1)
            for transpose, op in ((False, a), (True, a.T)):
                want = (op @ flat).reshape(n, b, c).transpose(1, 0, 2)
                assert np.array_equal(m.matmul(x, transpose=transpose), want)


@pytest.mark.parametrize("n", [15, 200, 300])
def test_batched_dense_product_broadcasts_up_to_the_cap(n):
    # up to BROADCAST_MAX_CELLS a batched operand multiplies the dense copy in
    # place, broadcast over the batch into a C-contiguous [b, n, c] result
    # whose every window is the 2-d product of that window, bit for bit; a
    # larger copy (300 rows) folds it into one wide product as before
    rng = np.random.default_rng(47 + n)
    a = np.where(rng.uniform(size=(n, n)) < 0.1, rng.uniform(size=(n, n)), 0.0)
    m = csr_from_dense(a)
    assert (n * n <= BROADCAST_MAX_CELLS) == (n < 256)
    for transpose in (False, True):
        for b in (1, 21, 64):
            for c in (1, 16, 17):
                # a column block of a wider array, as the Horner step's operands are
                x = rng.normal(size=(b, n, 3 * c))[..., c:2 * c]
                got = m.matmul(x, transpose=transpose)
                assert m._band(transpose) is None and got.shape == (b, n, c)
                if n * n <= BROADCAST_MAX_CELLS:
                    assert got.flags.c_contiguous
                    for i in range(b):
                        assert np.array_equal(got[i], m.matmul(x[i], transpose=transpose))
                else:
                    flat = x.transpose(1, 0, 2).reshape(n, -1)
                    op = a.T if transpose else a
                    assert np.array_equal(got, (op @ flat).reshape(n, b, c).transpose(1, 0, 2))
                assert np.abs(got - np.einsum("ij,bjc->bic", a.T if transpose else a, x)
                              ).max() <= 1e-12


@pytest.mark.parametrize("banded", [True, False])
def test_first_products_from_two_threads_share_the_dense_cache(monkeypatch, banded):
    # the first thread to multiply stops inside the block search, between
    # building the dense copy and caching the block lists; a second thread
    # that multiplies meanwhile must not find a half-built cache
    import threading
    import time

    from flowcast import sparse

    rng = np.random.default_rng(53)
    dense = _banded(rng, 300)
    if not banded:
        order = rng.permutation(300)
        dense = dense[np.ix_(order, order)]
    m = csr_from_dense(dense)
    x = rng.normal(size=(2, 300, 8))
    entered, release = [], threading.Event()
    original = sparse._band_blocks

    def slow_band_blocks(a):
        entered.append(a.shape)
        release.wait(timeout=10)
        return original(a)

    monkeypatch.setattr(sparse, "_band_blocks", slow_band_blocks)
    results, errors = {}, []

    def multiply(name):
        try:
            results[name] = m.matmul(x)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    first = threading.Thread(target=multiply, args=("first",))
    second = threading.Thread(target=multiply, args=("second",))
    first.start()
    deadline = time.monotonic() + 10
    while not entered and time.monotonic() < deadline:
        time.sleep(0.001)
    second.start()
    while second.is_alive() and len(entered) < 2 and time.monotonic() < deadline:
        time.sleep(0.001)  # until the second thread fails or waits in the block search too
    release.set()
    for t in (first, second):
        t.join(timeout=10)
        assert not t.is_alive()
    assert errors == []
    want = np.einsum("ij,bjc->bic", dense, x)
    for got in results.values():
        assert np.abs(got - want).max() <= 1e-12
    assert (m._dense[1] is not None) == banded and sorted(results) == ["first", "second"]


def test_csr_rejects_corrupt_index_arrays():
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [0, 1, 2], [-1, 1], [1.0, 1.0])  # negative column
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [0, 1, 2], [0, 2], [1.0, 1.0])  # column == cols
    with pytest.raises(ValueError):
        CsrMatrix(3, 2, [0, 2, 1, 2], [0, 1], [1.0, 1.0])  # indptr decreases
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [1, 1, 2], [0, 1], [1.0, 1.0])  # indptr[0] != 0
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [0, 1, 1], [0, 1], [1.0, 1.0])  # indptr[-1] != nnz
    CsrMatrix(2, 2, [0, 1, 2], [1, 0], [1.0, 1.0])  # well-formed


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(3)
    dense = np.where(rng.uniform(size=(5, 5)) < 0.5, rng.normal(size=(5, 5)), 0.0)
    m = csr_from_dense(dense)
    x = rng.normal(size=(4, 5, 3))
    got = m.matmul(x)
    for b in range(4):
        assert np.abs(got[b] - dense @ x[b]).max() <= 1e-12


def test_row_normalized_and_transpose():
    m = csr_from_dense([[0.0, 2.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    rn = m.row_normalized().to_dense()
    assert rn[0].tolist() == [0.0, 0.5, 0.5]
    assert rn[1].tolist() == [0.0, 0.0, 0.0]  # empty row stays empty
    assert np.array_equal(m.transpose().to_dense(), m.to_dense().T)


def test_restrict_reorders_by_position():
    dense = np.arange(16, dtype=float).reshape(4, 4)
    dense[dense % 3 == 0] = 0.0
    m = csr_from_dense(dense)
    keep = [2, 0]
    assert np.array_equal(m.restrict(keep).to_dense(), dense[np.ix_(keep, keep)])


# ----------------------------------------------------------------------
# tape primitives (ComposedTape adds those only the previous cell used)
# ----------------------------------------------------------------------


def test_spmm_identity_and_hand_example():
    tape = ComposedTape()
    x = Tensor([[1.0], [2.0]])
    assert np.array_equal(tape.spmm(csr_identity(2), x).value, x.value)
    s = csr_from_dense([[0.0, 1.0], [0.0, 0.0]])
    assert tape.spmm(s, x).value.tolist() == [[2.0], [0.0]]
    zero = CsrMatrix.from_triples(2, 2, [], [], [])
    assert tape.spmm(zero, x).value.tolist() == [[0.0], [0.0]]


def test_pointwise_primitive_examples():
    tape = ComposedTape()
    assert tape.sigmoid(Tensor(0.0)).value == 0.5
    assert tape.tanh(Tensor(0.0)).value == 0.0
    out = tape.hadamard(Tensor([2.0, 3.0]), Tensor([4.0, 5.0]))
    assert out.value.tolist() == [8.0, 15.0]
    assert tape.sub_from_one(Tensor([0.25])).value.tolist() == [0.75]
    assert tape.add(Tensor([1.0]), Tensor([2.0])).value.tolist() == [3.0]
    with pytest.raises(ValueError):
        tape.hadamard(Tensor([1.0, 2.0]), Tensor([1.0]))


def test_sigmoid_saturates_without_nan():
    tape = ComposedTape()
    out = tape.sigmoid(Tensor([-1e9, 0.0, 1e9]))
    assert out.value.tolist() == [0.0, 0.5, 1.0]


def test_backward_square_and_sigmoid():
    tape = Tape()
    p = Tensor(3.0)
    loss = tape.mean_abs(tape.hadamard(p, p), tape.constant(0.0))
    grads = tape.backward(loss)
    assert grads[p.uid] == pytest.approx(6.0)

    tape = ComposedTape()
    p = Tensor(0.0)
    loss = tape.mean_abs(tape.sigmoid(p), tape.constant(0.0))
    assert tape.backward(loss)[p.uid] == pytest.approx(0.25)


def test_backward_rejects_foreign_or_nonscalar_loss():
    tape = ComposedTape()
    stray = Tensor(1.0)
    with pytest.raises(ValueError, match="not recorded"):
        tape.backward(stray)
    vec = tape.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(vec)


def test_gradient_accumulates_over_reused_tensor():
    tape = ComposedTape()
    p = Tensor([1.0, 2.0])
    loss = tape.mean_abs(tape.add(p, p), tape.constant(np.zeros(2)))
    # d/dp mean(|2p|) = 2 * sign(p) / 2
    assert np.allclose(tape.backward(loss)[p.uid], [1.0, 1.0])


def test_record_off_tape_keeps_nothing():
    tape = ComposedTape(record=False)
    p = Tensor([1.0, -2.0])
    loss = tape.mean_abs(tape.tanh(tape.add(p, p)), tape.constant(np.zeros(2)))
    assert loss.value == np.abs(np.tanh(2.0 * p.value)).mean()
    assert not tape._records and not tape._known
    with pytest.raises(ValueError, match="not recorded"):
        tape.backward(loss)


def test_backward_consumes_its_tape():
    tape = ComposedTape()
    p, zero = Tensor([1.0, 2.0]), tape.constant(np.zeros(2))
    loss = tape.mean_abs(tape.add(p, p), zero)
    assert set(tape.backward(loss)) == {p.uid, zero.uid}  # leaves only
    with pytest.raises(ValueError, match="not recorded"):
        tape.backward(loss)


def _composite_loss(params, s):
    """Exercises every primitive of the library tape and of ComposedTape."""
    w1, w2, b = params
    tape = ComposedTape()
    x = tape.constant(np.linspace(-1.0, 1.0, 12).reshape(2, 3, 2))
    z = tape.concat([x, tape.spmm(s, x)])
    h = tape.tanh(tape.add_bias(tape.matmul(z, Tensor(w1)), Tensor(b)))
    g = tape.sigmoid(tape.matmul(z, Tensor(w1)))
    mixed = tape.hadamard(g, tape.sub_from_one(h))
    out = tape.matmul(mixed, Tensor(w2))
    picked = tape.concat([out, out])
    target = tape.constant(np.full(picked.value.shape, 0.3))
    scaled = tape.hadamard(picked, tape.constant(np.full(picked.value.shape, 1.5)))
    return tape, tape.mean_abs(scaled, target)


def test_composite_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    s = csr_from_dense(np.where(rng.uniform(size=(3, 3)) < 0.7,
                                rng.uniform(size=(3, 3)), 0.0))
    w1 = rng.normal(size=(4, 5)) * 0.5
    w2 = rng.normal(size=(5, 1)) * 0.5
    b = rng.normal(size=5) * 0.1
    arrays = [w1, w2, b]

    # analytic pass through persistent leaf tensors
    leaves = [Tensor(a) for a in arrays]

    def run_tape():
        tape = ComposedTape()
        x = tape.constant(np.linspace(-1.0, 1.0, 12).reshape(2, 3, 2))
        z = tape.concat([x, tape.spmm(s, x)])
        h = tape.tanh(tape.add_bias(tape.matmul(z, leaves[0]), leaves[2]))
        g = tape.sigmoid(tape.matmul(z, leaves[0]))
        mixed = tape.hadamard(g, tape.sub_from_one(h))
        out = tape.matmul(mixed, leaves[1])
        picked = tape.concat([out, out])
        target = tape.constant(np.full(picked.value.shape, 0.3))
        scaled = tape.hadamard(picked, tape.constant(np.full(picked.value.shape, 1.5)))
        return tape, tape.mean_abs(scaled, target)

    tape, loss = run_tape()
    analytic = grads_for(tape.backward(loss), leaves)

    def f():
        _, l = run_tape()
        return float(l.value)

    numeric = finite_difference(f, [t.value for t in leaves])
    assert_grads_close(analytic, numeric)


def test_spmm_gradients_match_finite_differences_on_large_support():
    # 70 x 70 = 4900 cells at density ~0.1: over 4096 cells and under
    # density 0.15, where a density rule would pick the gather kernel
    rng = np.random.default_rng(31)
    s = csr_from_dense(np.where(rng.uniform(size=(70, 70)) < 0.1,
                                rng.uniform(size=(70, 70)), 0.0))
    leaves = [Tensor(rng.normal(size=(2, 70, 2))), Tensor(rng.normal(size=(6, 3)) * 0.5)]

    def run_tape():
        tape = ComposedTape()
        x = leaves[0]
        sx = tape.spmm(s, x)
        z = tape.concat([x, sx, tape.spmm(s, sx)])
        h = tape.tanh(tape.matmul(z, leaves[1]))
        return tape, tape.mean_abs(h, tape.constant(np.full(h.value.shape, 5.0)))

    tape, loss = run_tape()
    analytic = grads_for(tape.backward(loss), leaves)

    def f():
        _, l = run_tape()
        return float(l.value)

    assert_grads_close(analytic, finite_difference(f, [t.value for t in leaves]))


def test_tape_is_deterministic():
    def once():
        rng = np.random.default_rng(42)
        s = csr_from_dense(np.where(rng.uniform(size=(3, 3)) < 0.7,
                                    rng.uniform(size=(3, 3)), 0.0))
        params = [rng.normal(size=(4, 5)), rng.normal(size=(5, 1)), rng.normal(size=5)]
        _, loss = _composite_loss(params, s)
        return float(loss.value)

    assert once() == once()


def test_backward_matches_previous_walk_bit_for_bit():
    rng = np.random.default_rng(5)
    s = csr_from_dense(np.where(rng.uniform(size=(3, 3)) < 0.7,
                                rng.uniform(size=(3, 3)), 0.0))
    params = [rng.normal(size=(4, 5)), rng.normal(size=(5, 1)), rng.normal(size=5)]
    tape, loss = _composite_loss(params, s)
    assert_backward_matches_oracle(tape, loss)


# ----------------------------------------------------------------------
# clipping and Adam
# ----------------------------------------------------------------------


def test_clip_by_global_norm():
    kept = clip_by_global_norm([np.array([3.0]), np.array([4.0])], 5.0)
    assert [g.tolist() for g in kept] == [[3.0], [4.0]]  # norm exactly 5: untouched
    clipped = clip_by_global_norm([np.array([6.0]), np.array([8.0])], 5.0)
    assert np.allclose(clipped[0], 3.0) and np.allclose(clipped[1], 4.0)
    zeros = clip_by_global_norm([np.zeros(3)], 5.0)
    assert np.array_equal(zeros[0], np.zeros(3))
    grads = [np.full((2, 2), 7.0), np.full(5, -3.0)]
    assert global_norm(clip_by_global_norm(grads, 1.5)) <= 1.5 + 1e-9
    with pytest.raises(ValueError):
        clip_by_global_norm(grads, 0.0)


def test_adam_first_step_magnitude():
    p = np.array([1.0])
    state = AdamState.for_params([p])
    adam_step([p], [np.array([1.0])], state, lr=0.01)
    # bias-corrected first step is lr / (1 + eps') with eps' ~ 1e-8
    assert abs((1.0 - p[0]) - 0.01) < 1e-9


def test_adam_zero_gradient_is_identity():
    p = np.array([0.5, -0.5])
    state = AdamState.for_params([p])
    for _ in range(3):
        adam_step([p], [np.zeros(2)], state, lr=0.1)
    assert np.array_equal(p, [0.5, -0.5])


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(5)
        p = rng.normal(size=4)
        state = AdamState.for_params([p])
        for _ in range(10):
            adam_step([p], [rng.normal(size=4)], state, lr=0.02)
        return p

    assert np.array_equal(run(), run())


def test_adam_matches_reference_update():
    # independent scalar recurrence oracle
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    gs = [0.3, -1.2, 0.7, 0.0, 2.0]
    p_ref, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    p = np.array([1.0])
    state = AdamState.for_params([p])
    for g in gs:
        adam_step([p], [np.array([g])], state, lr=lr, beta1=b1, beta2=b2, eps=eps)
    assert p[0] == pytest.approx(p_ref, abs=1e-12)
