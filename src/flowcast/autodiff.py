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

The large arrays a recorded op keeps for backward, and the largest
temporaries of its backward, live in the tape's `Workspace`. A training run
lends one workspace to every step's tape, so after its first step no step
allocates or frees them; a recording tape made without one gets its own.

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


class Workspace:
    """Buffers for the arrays that recorded ops keep until backward, and for
    the largest temporaries of their backward, reused by one tape after
    another.

    The k-th `take` of a tape returns the buffer of the k-th slot;
    `scratch` returns the one buffer of its name and shape, for temporaries
    that no op keeps. A buffer is allocated on first use and handed out as a
    leading-axis (batch) view, so a smaller batch reuses the same memory; it
    is reallocated only for a larger batch. A training run's first batch is
    its largest.
    """

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}
        self._next = 0
        self._lent = False

    def lend(self) -> None:
        """Start a tape's use; raises while the previous tape has not run backward."""
        if self._lent:
            raise RuntimeError("workspace still holds a tape that has not run backward")
        self._lent, self._next = True, 0

    def release(self) -> None:
        self._lent = False

    def _get(self, key: tuple, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape[1:] != shape[1:] or buf.shape[0] < shape[0]:
            buf = self._buffers[key] = np.empty(shape)
        return buf[:shape[0]]

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next slot's buffer."""
        self._next += 1
        return self._get((self._next,), shape)

    def scratch(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The shared buffer of this name and shape, valid until the next request."""
        return self._get((name,) + shape[1:], shape)


class Tape:
    """Records ops (record=False: none); provides backward(). One tape per step.

    A recording tape borrows `workspace` (a fresh one when None) until its
    backward has run; a tape that records nothing has none.
    """

    def __init__(self, record: bool = True, workspace: Workspace | None = None):
        self._record = record
        self._records: list[tuple[int, tuple[int, ...], object]] = []
        self._known: set[int] = set()
        self.workspace = None
        if record:
            self.workspace = workspace if workspace is not None else Workspace()
            self.workspace.lend()

    def _emit(self, value, inputs: Sequence[Tensor], backward) -> Tensor:
        out = Tensor(value)
        if self._record:
            self._records.append((out.uid, tuple(t.uid for t in inputs), backward))
            self._known.add(out.uid)
        return out

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """An array for an op to fill and keep for its backward: the next slot
        of the workspace, or a fresh array when nothing records."""
        if self.workspace is None:
            return np.empty(shape)
        return self.workspace.take(shape)

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
        self.workspace.release()
        return grads


def grads_for(grads: dict[int, np.ndarray], params: Iterable[Tensor]) -> list[np.ndarray]:
    """Gradient per parameter, zeros where a parameter is off the loss path."""
    return [grads.get(p.uid, np.zeros_like(p.value)) for p in params]
