"""Spans and counters recorded around flowcast's public functions, from outside.

`install_probes` replaces module attributes and class methods of the imported
flowcast package with thin wrappers; nothing under src/ is edited. A wrapper
opens a span (name, start, end, parent span, operation id) and may bump
counters on the innermost open span. Spans stay in memory until `dump`.

Span names are "<module>.<what>"; a module's self time is the time its spans
cover minus the time covered by their child spans. The root span of each
operation is named "op"; its self time is CLI glue plus anything unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter

NAME, START, END, PARENT, OP, COUNTS = range(6)

MODULES = ("graph", "partition", "sparse", "autodiff", "model", "optim", "data", "training")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.values: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, clock(), 0.0, self.stack[-1] if self.stack else -1, self.op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = clock()
        self.stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        """Add n to a counter on the innermost open span."""
        if not self.stack:
            return
        span = self.spans[self.stack[-1]]
        if span[COUNTS] is None:
            span[COUNTS] = {}
        span[COUNTS][key] = span[COUNTS].get(key, 0) + n

    @contextlib.contextmanager
    def operation(self):
        """One root "op" span with a fresh operation id. Wrapped calls made
        outside an operation record nothing."""
        self.op_id += 1
        span = self.open("op")
        try:
            yield span
        finally:
            self.close(span)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "op": s[OP],
                                     "counts": s[COUNTS] or {}}) + "\n")

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def span_wrapper(self, fn, name, before=None, after=None):
        """fn inside a span; before(args, kwargs) may rewrite kwargs,
        after(args, kwargs, result, state) runs inside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:  # outside any operation: not part of the trace
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                state = before(args, kwargs) if before else None
                result = fn(*args, **kwargs)
                if after:
                    after(args, kwargs, result, state)
                return result
            finally:
                tracer.close(span)

        return wrapper

    def count_wrapper(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return wrapper


def replace_function(modules, attr: str, make):
    """Wrap one function everywhere it was imported: every module in `modules`
    whose `attr` is the same object gets the same wrapper."""
    original = getattr(modules[0], attr)
    wrapper = make(original)
    for m in modules:
        if getattr(m, attr, None) is original:
            setattr(m, attr, wrapper)


def replace_method(cls, attr: str, make):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install_probes(tracer: Tracer, fc) -> None:
    """Wrap the public functions of every measured flowcast module.

    `fc` is a namespace holding the imported flowcast modules.
    """
    t = tracer
    span = t.span_wrapper
    graph, part, sparse, autodiff = fc.graph, fc.partition, fc.sparse, fc.autodiff
    model, optim, data, training = fc.model, fc.optim, fc.data, fc.training

    # graph
    replace_function([graph], "knn_candidates", lambda f: span(f, "graph.knn"))
    replace_function([graph], "build_adjacency", lambda f: span(
        f, "graph.adjacency", after=lambda a, k, g, s: t.count("edges", g.n_edges)))
    replace_method(graph.HaversineDistances, "dist",
                   lambda f: t.count_wrapper(f, "provider_calls"))

    # partition
    replace_function([part], "partition_graph", lambda f: span(
        f, "partition.partition_graph", after=_imbalance_recorder(t)))
    replace_function([part], "coarsen", lambda f: span(f, "partition.coarsen"))
    replace_function([part], "initial_partition", lambda f: span(f, "partition.initial"))

    def with_pass_log(args, kwargs):
        if len(args) > 3:  # passed positionally: the caller's own log
            log = args[3]
        else:
            if kwargs.get("pass_log") is None:
                kwargs["pass_log"] = []
            log = kwargs["pass_log"]
        return log, len(log) if log is not None else 0

    replace_function([part], "refine_uncoarsen", lambda f: span(
        f, "partition.refine", before=with_pass_log,
        after=lambda a, k, r, s: t.count("fm_passes", len(s[0]) - s[1] if s[0] is not None else 0)))
    replace_function([part], "add_overlap_nodes", lambda f: span(
        f, "partition.halo", after=lambda a, k, halo, s: t.count("halo_nodes", len(halo))))
    replace_function([part], "extract_subgraphs", lambda f: span(f, "partition.extract"))

    # sparse
    def spmm_work(args, kwargs, out, state):
        s, x = args[0], args[1]
        cols = x.shape[-1] * (x.shape[0] if x.ndim == 3 else 1)
        t.count("flop", 2.0 * s.nnz * cols)

    replace_method(sparse.CsrMatrix, "matmul", lambda f: span(f, "sparse.spmm", after=spmm_work))

    # autodiff: every public Tape primitive is counted, backward is a span
    for name, member in list(vars(autodiff.Tape).items()):
        if callable(member) and not name.startswith("_") and name != "backward":
            replace_method(autodiff.Tape, name, lambda f: t.count_wrapper(f, "primitives"))
    replace_method(autodiff.Tape, "backward", lambda f: span(f, "autodiff.backward"))

    # model
    replace_function([model], "dcgru_cell", lambda f: t.count_wrapper(f, "cells"))
    replace_function([training, model], "seq2seq_loss", lambda f: span(f, "model.forward"))
    replace_function([training, model], "predict", lambda f: span(f, "model.predict"))

    # optim
    replace_function([optim], "global_norm", lambda f: span(
        f, "optim.global_norm", after=lambda a, k, norm, s: t.values["grad_norm"].append(norm)))

    def clip_record(args, kwargs, out, state):
        max_norm = kwargs.get("max_norm", args[1] if len(args) > 1 else None)
        norms = t.values["grad_norm"]
        if norms and max_norm is not None:
            t.values["clipped"].append(float(norms[-1] > max_norm))

    replace_function([training, optim], "clip_by_global_norm",
                     lambda f: span(f, "optim.clip", after=clip_record))
    replace_function([training, optim], "adam_step", lambda f: span(f, "optim.adam"))

    # data
    replace_function([data], "read_timeseries_csv", lambda f: span(f, "data.csv_read"))
    replace_function([data], "impute", lambda f: span(f, "data.impute"))
    replace_function([training, data], "make_windows", lambda f: span(
        f, "data.windows", after=lambda a, k, w, s: t.count("window_bytes",
                                                            w.x.nbytes + w.y.nbytes)))

    # training
    replace_function([training], "train_all", lambda f: span(f, "training.train_all"))
    replace_function([training], "train_partition", lambda f: span(f, "training.partition"))
    replace_function([training], "evaluate", lambda f: span(f, "training.evaluate"))
    replace_function([training], "forecast", lambda f: span(f, "training.forecast"))
    replace_method(training.Checkpoint, "build_model",
                   lambda f: span(f, "training.model_build"))
    replace_method(training.Checkpoint, "save", lambda f: span(f, "training.checkpoint_io"))
    replace_method(training.Checkpoint, "load", lambda f: span(f, "training.checkpoint_io"))


def _imbalance_recorder(t: Tracer):
    def after(args, kwargs, assignment, state):
        sizes = np.bincount(assignment.part_of, minlength=assignment.k)
        t.values["imbalance"].append(sizes.max() * assignment.k / assignment.part_of.size)
    return after


# ----------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ----------------------------------------------------------------------


class SpanIndex:
    """Inclusive and self times and counter totals over recorded spans."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(i)

    def duration(self, i: int) -> float:
        s = self.spans[i]
        return s[END] - s[START]

    def self_time(self, i: int) -> float:
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.named(name))

    def subtree_count(self, root: int, key: str) -> float:
        total, todo = 0.0, [root]
        while todo:
            i = todo.pop()
            counts = self.spans[i][COUNTS]
            if counts:
                total += counts.get(key, 0)
            todo.extend(self.children[i])
        return total

    def counter(self, key: str, under: str | None = None) -> float:
        """Counter total; with `under`, only counts inside spans of that name."""
        roots = self.named(under) if under else [i for i, s in enumerate(self.spans)
                                                 if s[PARENT] < 0]
        return sum(self.subtree_count(i, key) for i in roots)

    def module_self_times(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES + ("other",)}
        for i, s in enumerate(self.spans):
            module = s[NAME].split(".", 1)[0]
            out[module if module in out else "other"] += self.self_time(i)
        return out

    def training_steps(self) -> tuple[list[tuple[int, float]], float]:
        """([(forward span, step seconds)], validation seconds).

        A training step is a model.forward span that is followed by an
        autodiff.backward span before the next forward; it runs until the end of
        the next optim.adam span. Other forwards are validation passes.
        """
        order = sorted((i for i, s in enumerate(self.spans)
                        if s[NAME] in ("model.forward", "autodiff.backward", "optim.adam")),
                       key=lambda i: self.spans[i][START])
        steps, validation = [], 0.0
        for pos, i in enumerate(order):
            if self.spans[i][NAME] != "model.forward":
                continue
            rest = [self.spans[j][NAME] for j in order[pos + 1:pos + 3]]
            if rest == ["autodiff.backward", "optim.adam"]:
                adam = order[pos + 2]
                steps.append((i, self.spans[adam][END] - self.spans[i][START]))
            else:
                validation += self.duration(i)
        return steps, validation


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-module metrics of everything recorded (zero where a module never ran)."""
    ix = SpanIndex(tracer)
    steps, validation = ix.training_steps()
    step_seconds = [sec for _, sec in steps]
    op_s = ix.total("op")
    spmm_s = ix.total("sparse.spmm")
    mflop = ix.counter("flop") / 1e6
    backward_s = ix.total("autodiff.backward")
    step_prims = sum(ix.subtree_count(i, "primitives") for i, _ in steps)
    norms = tracer.values["grad_norm"]
    clipped = tracer.values["clipped"]
    m = {
        "graph.knn_s": ix.total("graph.knn"),
        "graph.adjacency_s": ix.total("graph.adjacency"),
        "graph.provider_calls": ix.counter("provider_calls", "graph.adjacency"),
        "graph.edges": ix.counter("edges"),
        "partition.coarsen_s": ix.total("partition.coarsen"),
        "partition.initial_s": ix.total("partition.initial"),
        "partition.refine_s": ix.total("partition.refine"),
        "partition.refine_share": ix.total("partition.refine") / op_s if op_s > 0 else 0.0,
        "partition.fm_passes": ix.counter("fm_passes"),
        "partition.halo_s": ix.total("partition.halo"),
        "partition.halo_provider_calls": ix.counter("provider_calls", "partition.halo"),
        "partition.halo_nodes": ix.counter("halo_nodes"),
        "partition.extract_s": ix.total("partition.extract"),
        "partition.max_imbalance": max(tracer.values["imbalance"], default=0.0),
        "sparse.spmm_calls": float(len(ix.named("sparse.spmm"))),
        "sparse.spmm_s": spmm_s,
        "sparse.spmm_share": spmm_s / op_s if op_s > 0 else 0.0,
        "sparse.spmm_mflop": mflop,
        "sparse.spmm_mflop_per_s": mflop / spmm_s if spmm_s > 0 else 0.0,
        "autodiff.primitive_calls_per_step": step_prims / len(steps) if steps else 0.0,
        "autodiff.backward_s": backward_s,
        "autodiff.backward_share": backward_s / sum(step_seconds) if steps else 0.0,
        "model.forward_s": ix.total("model.forward"),
        "model.cell_calls": ix.counter("cells"),
        "model.predict_s": ix.total("model.predict"),
        "optim.clip_s": ix.total("optim.clip"),
        "optim.adam_s": ix.total("optim.adam"),
        "optim.grad_norm_p50": statistics.median(norms) if norms else 0.0,
        "optim.clipped_share": sum(clipped) / len(clipped) if clipped else 0.0,
        "data.csv_read_s": ix.total("data.csv_read"),
        "data.impute_s": ix.total("data.impute"),
        "data.windows_s": ix.total("data.windows"),
        "data.window_mb": ix.counter("window_bytes") / 1e6,
        "training.step_s_p50": statistics.median(step_seconds) if steps else 0.0,
        "training.validation_s": validation,
        "training.model_build_s": ix.total("training.model_build"),
        "training.checkpoint_io_s": ix.total("training.checkpoint_io"),
    }
    for module, seconds in ix.module_self_times().items():
        m[f"{module}.self_s"] = seconds
    m["trace.spans"] = float(len(tracer.spans))
    return m
