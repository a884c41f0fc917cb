"""Reverse-mode differentiation on a tape of op records.

Tensors are thin wrappers around float64 numpy arrays with a stable uid.
A Tape owns the op records: executing an op through the tape computes the
value eagerly and stores a closure that maps the output gradient to input
gradients. An op is a primitive (matmul, hadamard, add_bias, concat,
mean_abs) or, through `Tape.op`, a whole function the caller computes and
differentiates itself, as the DCGRU cell does once per step. `backward`
walks the records once, in reverse execution order (which is a reverse
topological order), accumulating gradients additively and releasing each
record and output gradient as it goes, so a tape serves one backward.
Inference uses `Tape(record=False)`, which keeps no records at all.

Leaf tensors (parameters, constants) are not bound to any tape, so the same
parameter objects can be reused across many training-step tapes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

_uid_counter = itertools.count()


class Tensor:
    __slots__ = ("value", "uid")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.uid = next(_uid_counter)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(uid={self.uid}, shape={self.value.shape})"


class Tape:
    """Records ops (record=False: none); provides backward(). One tape per step."""

    def __init__(self, record: bool = True):
        self._record = record
        self._records: list[tuple[int, tuple[int, ...], object]] = []
        self._known: set[int] = set()

    def _emit(self, value, inputs: Sequence[Tensor], backward) -> Tensor:
        out = Tensor(value)
        if self._record:
            self._records.append((out.uid, tuple(t.uid for t in inputs), backward))
            self._known.add(out.uid)
        return out

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def constant(self, value) -> Tensor:
        return Tensor(value)

    def op(self, value, inputs: Sequence[Tensor], backward) -> Tensor:
        """An op the caller computed: backward maps its output gradient to one
        gradient per input, in order (the DCGRU cell is one such op)."""
        return self._emit(value, inputs, backward)

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """Dense product over the last two axes; b must be 2-d (a weight block)."""
        av, bv = a.value, b.value
        if bv.ndim != 2 or av.shape[-1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = av @ bv

        def backward(g):
            ga = g @ bv.T
            if av.ndim == 2:
                gb = av.T @ g
            else:  # fold all leading axes into one before contracting
                gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, gb

        return self._emit(out, (a, b), backward)

    def hadamard(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.value, b.value
        if av.shape != bv.shape:
            raise ValueError(f"hadamard shape mismatch: {av.shape} vs {bv.shape}")
        return self._emit(av * bv, (a, b), lambda g: (g * bv, g * av))

    def add_bias(self, x: Tensor, b: Tensor) -> Tensor:
        """Broadcast a [c] bias over the trailing axis of x."""
        if b.value.ndim != 1 or x.value.shape[-1] != b.value.shape[0]:
            raise ValueError(f"bias shape mismatch: {x.value.shape} + {b.value.shape}")
        axes = tuple(range(x.value.ndim - 1))

        def backward(g):
            return g, g.sum(axis=axes)

        return self._emit(x.value + b.value, (x, b), backward)

    def concat(self, parts: Sequence[Tensor], axis: int = -1) -> Tensor:
        sizes = [p.value.shape[axis] for p in parts]
        out = np.concatenate([p.value for p in parts], axis=axis)
        cuts = np.cumsum(sizes[:-1])

        def backward(g):
            return tuple(np.split(g, cuts, axis=axis))

        return self._emit(out, tuple(parts), backward)

    def mean_abs(self, a: Tensor, b: Tensor) -> Tensor:
        """Mean absolute deviation over all elements; scalar output."""
        if a.value.shape != b.value.shape:
            raise ValueError(f"mean_abs shape mismatch: {a.value.shape} vs {b.value.shape}")
        diff = a.value - b.value
        n = diff.size

        def backward(g):
            s = g * np.sign(diff) / n
            return s, -s

        return self._emit(np.abs(diff).mean(), (a, b), backward)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradients of a recorded scalar w.r.t. every leaf on its paths.

        Returns a dict keyed by Tensor.uid; leaves not reached by any path
        are simply absent (their gradients are zero). Consumes the tape: a
        second call raises.
        """
        if loss.uid not in self._known:
            raise ValueError("loss is not recorded on this tape")
        if loss.value.shape != ():
            raise ValueError("loss must be a scalar")
        grads: dict[int, np.ndarray] = {loss.uid: np.ones(())}
        while self._records:  # an output's gradient is complete at its record
            out_uid, in_uids, backward = self._records.pop()
            g = grads.pop(out_uid, None)
            if g is None:
                continue
            for uid, gi in zip(in_uids, backward(g)):
                acc = grads.get(uid)
                grads[uid] = gi if acc is None else acc + gi
        self._known.clear()
        return grads


def grads_for(grads: dict[int, np.ndarray], params: Iterable[Tensor]) -> list[np.ndarray]:
    """Gradient per parameter, zeros where a parameter is off the loss path."""
    return [grads.get(p.uid, np.zeros_like(p.value)) for p in params]
