"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's own computation paths:
finite differences for gradients, dense matrix algebra for sparse products
and diffusion filters, and exhaustive enumeration for partition cuts. The
previous scalar FM refinement and kNN search are kept here too, as oracles
for their vectorized replacements, and so is the previous halo selection,
which ranks every node by one provider call per pair, the previous tape
walk, which keeps every record and every intermediate gradient, the
previous DCGRU cell, composed of per-primitive tape records over a stack of
diffused inputs, the previous graph file encoding, which converts each
edge field on its own, and the previous time-series CSV reader and writer,
which go row by row.
The last section holds small readers that only tests need: one edge weight,
a CSR matrix from a dense array, an identity support, a box's interquartile
range, a run report's per-epoch loss curves, a bundle's owned nodes and the
assignment.csv reader.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from flowcast.autodiff import Tape, Tensor
from flowcast.errors import DataError, NumericalError
from flowcast.graph import EARTH_RADIUS_MILES, SensorMeta, canonical_order
from flowcast.partition import _MAX_FM_PASSES, CoarseLevel, PartitionAssignment
from flowcast.sparse import CsrMatrix


def finite_difference(f, arrays, step: float = 1e-5):
    """Central finite-difference gradient of scalar-valued f() w.r.t. each array.

    f must recompute the loss from the arrays' current (mutated) contents.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel_tol: float = 1e-4, abs_floor: float = 1e-7):
    """Relative-error check with an absolute floor for near-zero entries."""
    assert len(analytic) == len(numeric)
    for ga, gn in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), abs_floor)
        rel = np.abs(ga - gn) / denom
        worst = float(rel.max()) if rel.size else 0.0
        assert worst <= rel_tol, f"gradient mismatch: relative error {worst:.3e}"


def dense_diffusion(supports_dense, z, blocks, bias):
    """Brute-force graph filter with materialized transition powers."""
    out = np.zeros(z.shape[:-1] + (blocks[0][0].shape[1],))
    for s, mat in enumerate(supports_dense):
        for d, w in enumerate(blocks[s]):
            powered = np.linalg.matrix_power(mat, d)
            out = out + (powered @ z) @ w
    return out + bias


def undirected_weights(adjacency_dense):
    """Combined per-pair weights: w_ij + w_ji off-diagonal, upper triangle only."""
    a = np.asarray(adjacency_dense, dtype=np.float64)
    if np.array_equal(a, a.T):
        combined = a
    else:
        combined = a + a.T
    iu, ju = np.triu_indices(a.shape[0], k=1)
    keep = combined[iu, ju] != 0.0
    return iu[keep], ju[keep], combined[iu, ju][keep]


def brute_force_min_bisection(adjacency_dense, imbalance: float = 0.05):
    """Exhaustive minimum balanced 2-cut; returns (cut, frozenset part0).

    Node 0 is pinned to part 0, which halves the enumeration without loss.
    """
    n = np.asarray(adjacency_dense).shape[0]
    if n > 20:
        raise ValueError("exhaustive search capped at 20 nodes")
    iu, ju, w = undirected_weights(adjacency_dense)
    max_size = math.ceil(n / 2) * (1.0 + imbalance)
    masks = np.arange(2 ** (n - 1), dtype=np.int64) * 2  # node 0 always in part 0
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)  # True = part 1
    sizes1 = bits.sum(axis=1)
    valid = (sizes1 >= 1) & (sizes1 <= max_size) & ((n - sizes1) <= max_size)
    cuts = np.where(bits[:, iu] != bits[:, ju], w, 0.0).sum(axis=1)
    cuts[~valid] = np.inf
    best = int(np.argmin(cuts))
    part1 = frozenset(int(i) for i in np.flatnonzero(bits[best]))
    return float(cuts[best]), frozenset(range(n)) - part1


def cut_of_assignment(adjacency_dense, part_of):
    """Undirected cut weight of an arbitrary assignment, pairs counted once."""
    iu, ju, w = undirected_weights(adjacency_dense)
    part_of = np.asarray(part_of)
    return float(np.where(part_of[iu] != part_of[ju], w, 0.0).sum())


# ----------------------------------------------------------------------
# the previous scalar partition refinement and kNN search
# ----------------------------------------------------------------------
# Kept verbatim (bar names, and fm_pass's optional idle cut-off) as oracles: the
# library's table-driven FM pass, rebalancing and argsort kNN must reproduce them
# bit for bit.


def adjacency_lists(graph):
    adj = graph.adjacency
    return [
        (adj.indices[adj.indptr[i]:adj.indptr[i + 1]],
         adj.data[adj.indptr[i]:adj.indptr[i + 1]])
        for i in range(graph.n_nodes)
    ]


def cut_value(adj, part) -> float:
    cut = 0.0
    for v in range(len(part)):
        nbrs, ws = adj[v]
        for u, w in zip(nbrs, ws):
            if u > v and part[u] != part[v]:
                cut += w
    return cut


def rebalance(adj, node_w, part, k, maxw) -> np.ndarray:
    """Move nodes out of overweight parts until every part fits under maxw.

    Parts that cannot be repaired at this level (a single oversized coarse
    node, or no admissible destination) are left for the finer levels.
    """
    part = part.copy()
    part_w = np.bincount(part, weights=node_w, minlength=k)
    stuck: set[int] = set()
    for _ in range(len(part)):
        over = [int(p) for p in np.flatnonzero(part_w > maxw) if int(p) not in stuck]
        if not over:
            break
        p = max(over, key=lambda q: part_w[q])
        members = np.flatnonzero(part == p)
        if members.size <= 1:
            stuck.add(p)
            continue
        best = None  # (-gain, v, q)
        for v in members:
            nbrs, ws = adj[v]
            gain_to = np.zeros(k)
            internal = 0.0
            for u, w in zip(nbrs, ws):
                if part[u] == p:
                    internal += w
                else:
                    gain_to[part[u]] += w
            for q in range(k):
                if q == p or part_w[q] + node_w[v] > maxw:
                    continue
                key = (-(gain_to[q] - internal), int(v), q)
                if best is None or key < best:
                    best = key
        if best is None:
            stuck.add(p)
            continue
        _, v, q = best
        part_w[p] -= node_w[v]
        part_w[q] += node_w[v]
        part[v] = q
    return part


def fm_pass(adj, node_w, part_in, k, maxw, idle_limit=None):
    """One FM pass: greedy best-gain single-node moves, each node at most once,
    then rollback to the best prefix whose part weights satisfy the bound.

    idle_limit=None runs the pass until no move is left; an integer m ends it
    once m moves in a row have set no new best prefix.

    Returns (assignment, gain_applied); gain_applied >= 0 by construction.
    """
    n = len(part_in)
    part = part_in.copy()
    part_w = np.bincount(part, weights=node_w, minlength=k)
    counts = np.bincount(part, minlength=k)
    slack = maxw + (node_w.max() if n else 0.0)
    locked = np.zeros(n, dtype=bool)
    moves: list[tuple[int, int, int]] = []
    cum = 0.0
    best_cum, best_len = 0.0, 0
    feasible_in = bool((part_w <= maxw).all())
    while True:
        best = None  # (-gain, v, q)
        for v in range(n):
            if locked[v]:
                continue
            p = part[v]
            if counts[p] <= 1:
                continue
            nbrs, ws = adj[v]
            if nbrs.size == 0:
                continue
            internal = 0.0
            external = np.zeros(k)
            for u, w in zip(nbrs, ws):
                if part[u] == p:
                    internal += w
                else:
                    external[part[u]] += w
            for q in np.flatnonzero(external):
                if part_w[q] + node_w[v] > slack:
                    continue
                key = (-(external[q] - internal), v, int(q))
                if best is None or key < best:
                    best = key
        if best is None:
            break
        neg_gain, v, q = best
        p = part[v]
        part[v] = q
        part_w[p] -= node_w[v]
        part_w[q] += node_w[v]
        counts[p] -= 1
        counts[q] += 1
        locked[v] = True
        cum += -neg_gain
        moves.append((v, p, q))
        prefix_ok = bool((part_w <= maxw).all()) or not feasible_in
        if prefix_ok and cum > best_cum:
            best_cum, best_len = cum, len(moves)
        elif idle_limit is not None and len(moves) - best_len >= idle_limit:
            break
    out = part_in.copy()
    for v, _, q in moves[:best_len]:
        out[v] = q
    return out, best_cum


def refine_uncoarsen(levels: list[CoarseLevel], assignment: PartitionAssignment,
                     imbalance: float = 0.05,
                     pass_log: list | None = None) -> PartitionAssignment:
    """Project the coarsest assignment down to level 0, FM-refining at each level.

    pass_log, when given, collects (level, cut_before, cut_after) per FM pass.
    """
    k = assignment.k
    total = float(levels[0].node_weights.sum())
    maxw = math.ceil(total / k) * (1.0 + imbalance)
    part = assignment.part_of.copy()
    for idx in range(len(levels) - 1, -1, -1):
        lvl = levels[idx]
        adj = adjacency_lists(lvl.graph)
        part = rebalance(adj, lvl.node_weights, part, k, maxw)
        for _ in range(_MAX_FM_PASSES):
            before = cut_value(adj, part)
            part, gain = fm_pass(adj, lvl.node_weights, part, k, maxw)
            if pass_log is not None:
                pass_log.append((lvl.level, before, cut_value(adj, part)))
            if gain <= 0.0:
                break
        if idx > 0:
            part = part[lvl.match_map]
    return PartitionAssignment(part, k)


def knn_candidates(meta: list[SensorMeta], k: int) -> set[tuple[int, int]]:
    """Directed (i, j) pairs: each node's k nearest others by great-circle miles.

    Indices refer to the canonical (sensor_id-sorted) order. Ties break on
    ascending node index, so the result is a pure function of the metadata set.
    """
    if not meta:
        raise DataError("empty graph")
    if k < 1:
        raise ValueError("k must be at least 1")
    ordered = canonical_order(meta)
    n = len(ordered)
    lat = np.radians([m.latitude for m in ordered])
    lon = np.radians([m.longitude for m in ordered])
    # pairwise haversine, vectorized over the full candidate matrix
    dphi = lat[:, None] - lat[None, :]
    dlam = lon[:, None] - lon[None, :]
    a = np.sin(dphi / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlam / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    pairs: set[tuple[int, int]] = set()
    take = min(k, n - 1)
    for i in range(n):
        order = sorted((d[i, j], j) for j in range(n) if j != i)
        pairs.update((i, j) for _, j in order[:take])
    return pairs


# ----------------------------------------------------------------------
# point layouts for the great-circle oracles
# ----------------------------------------------------------------------


def degenerate_layouts(rng) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(name, lat, lon) sets in degrees that defeat a naive lat/lon or cell screen."""
    n = 60
    scatter = (np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 40))), rng.uniform(-180.0, 180.0, 40))
    return [
        ("all coincident", np.full(25, 37.5), np.full(25, -122.25)),
        ("one parallel", np.full(n, 40.0), rng.uniform(-180.0, 180.0, n)),
        ("one meridian", np.concatenate([[90.0, -90.0], rng.uniform(-90.0, 90.0, n)]),
         np.full(n + 2, -100.0)),
        ("cluster straddling lon +-180", rng.uniform(59.9, 60.1, n),
         np.where(rng.uniform(size=n) < 0.5, rng.uniform(179.9, 180.0, n),
                  rng.uniform(-180.0, -179.9, n))),
        ("within 0.01 deg of the south pole", rng.uniform(-90.0, -89.99, 30),
         rng.uniform(-180.0, 180.0, 30)),
        # the cluster's rows must grow their ring to the far scatter once count >= 500
        ("globe scatter plus a 0.01 deg cluster",
         np.concatenate([scatter[0], 10.0 + rng.uniform(0.0, 0.01, 500)]),
         np.concatenate([scatter[1], 20.0 + rng.uniform(0.0, 0.01, 500)])),
        ("fewer points than count", np.array([0.0, 45.0, -30.0]), np.array([0.0, 90.0, 170.0])),
    ]


# ----------------------------------------------------------------------
# the previous halo selection: one provider call per (owned, node) pair
# ----------------------------------------------------------------------
# Kept verbatim as the oracle for add_overlap_nodes on every provider.


def add_overlap_nodes(graph, assignment: PartitionAssignment, part: int,
                      horizon_k: int, d_prime: float, provider) -> list[int]:
    """Pick out-of-partition context nodes, greedily thinned by pair distance.

    Candidates are the union over owned nodes v of v's horizon_k nearest other
    nodes (provider distance from v), minus the partition itself. They are
    scanned by ascending distance to the partition (ties on index) and kept
    only when farther than d_prime from every halo kept so far, using the
    smaller of the two query directions as the pair distance.
    """
    if d_prime <= 0:
        raise ValueError("d_prime must be positive")
    if horizon_k < 1:
        raise ValueError("horizon_k must be at least 1")
    owned = assignment.nodes_of(part)
    in_part = np.zeros(graph.n_nodes, dtype=bool)
    in_part[owned] = True
    candidates: set[int] = set()
    dist_to_part: dict[int, float] = {}
    for v in owned:
        ranked = sorted((provider.dist(int(v), u), u) for u in range(graph.n_nodes) if u != v)
        for d, u in ranked[:horizon_k]:
            if in_part[u]:
                continue
            candidates.add(u)
            if u not in dist_to_part or d < dist_to_part[u]:
                dist_to_part[u] = d
    ordered = sorted(candidates, key=lambda u: (dist_to_part[u], u))
    kept: list[int] = []
    for c in ordered:
        near = False
        for h in kept:
            pair = min(provider.dist(c, h), provider.dist(h, c))
            if pair <= d_prime:
                near = True
                break
        if not near:
            kept.append(c)
    return kept


# ----------------------------------------------------------------------
# the previous tape walk: nothing released
# ----------------------------------------------------------------------
# Kept as the oracle for Tape.backward, which frees records as it walks.


def tape_backward(tape, loss) -> dict[int, np.ndarray]:
    """Gradients of loss w.r.t. every tensor on its paths, leaves and
    intermediates alike. Reads the tape's records without consuming them."""
    grads: dict[int, np.ndarray] = {loss.uid: np.ones(())}
    for out_uid, in_uids, backward in reversed(tape._records):
        g = grads.get(out_uid)
        if g is None:
            continue
        for uid, gi in zip(in_uids, backward(g)):
            acc = grads.get(uid)
            grads[uid] = gi if acc is None else acc + gi
    return grads


def assert_backward_matches_oracle(tape, loss) -> dict[int, np.ndarray]:
    """Tape.backward returns the oracle's gradient for every leaf, bit for bit,
    and nothing else; the tape is empty afterwards. Returns the gradients."""
    recorded = {out_uid for out_uid, _, _ in tape._records}
    expected = tape_backward(tape, loss)
    got = tape.backward(loss)
    assert set(got) == set(expected) - recorded
    assert got, "no leaf on the loss path"
    for uid, g in got.items():
        assert np.array_equal(g, expected[uid]), f"gradient of tensor {uid} differs"
    assert not tape._records
    return got


# ----------------------------------------------------------------------
# the previous DCGRU cell: one tape record per primitive
# ----------------------------------------------------------------------
# Kept as the oracle for model.dcgru_cell, which records one op per step and
# applies each gate's weights before diffusing. ComposedTape adds back the
# primitives that only this cell used.


class ComposedTape(Tape):
    def spmm(self, s: CsrMatrix, x: Tensor) -> Tensor:
        """Sparse @ dense over the node axis ([n, c] or [b, n, c])."""
        return self._emit(s.matmul(x.value), (x,),
                          lambda g: (s.matmul(g, transpose=True),))

    def sigmoid(self, x: Tensor) -> Tensor:
        # exp may overflow for very negative inputs; 1/(1+inf) == 0 is the right limit
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-x.value))
        return self._emit(out, (x,), lambda g: (g * out * (1.0 - out),))

    def tanh(self, x: Tensor) -> Tensor:
        out = np.tanh(x.value)
        return self._emit(out, (x,), lambda g: (g * (1.0 - out * out),))

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape != b.value.shape:
            raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
        return self._emit(a.value + b.value, (a, b), lambda g: (g, g))

    def sub_from_one(self, x: Tensor) -> Tensor:
        return self._emit(1.0 - x.value, (x,), lambda g: (-g,))


def diffused_stack(tape: ComposedTape, supports, z: Tensor) -> Tensor:
    """[z, S z, S^2 z, ...] per support, concatenated on the channel axis."""
    parts = []
    for s in supports.matrices:
        cur = z
        parts.append(cur)  # the d=0 transition is the identity
        for _ in range(1, supports.max_steps):
            cur = tape.spmm(s, cur)
            parts.append(cur)
    return parts[0] if len(parts) == 1 else tape.concat(parts)


def gate_from_stack(tape: ComposedTape, stack: Tensor, gate) -> Tensor:
    """The filter on a diffused stack, with the per-step blocks stacked row-wise."""
    blocks = [block for per_support in gate.blocks for block in per_support]
    w = blocks[0] if len(blocks) == 1 else tape.concat(blocks, axis=0)
    return tape.add_bias(tape.matmul(stack, w), gate.bias)


def composed_cell(tape: ComposedTape, x_t: Tensor, h_prev: Tensor, supports,
                  cell) -> Tensor:
    """One recurrent step: reset/update gates, candidate state, convex blend."""
    xh = tape.concat([x_t, h_prev])
    xh_stack = diffused_stack(tape, supports, xh)
    r = tape.sigmoid(gate_from_stack(tape, xh_stack, cell.reset))
    u = tape.sigmoid(gate_from_stack(tape, xh_stack, cell.update))
    xrh = tape.concat([x_t, tape.hadamard(r, h_prev)])
    c = tape.tanh(gate_from_stack(tape, diffused_stack(tape, supports, xrh), cell.candidate))
    h = tape.add(tape.hadamard(u, h_prev), tape.hadamard(tape.sub_from_one(u), c))
    if not np.isfinite(h.value).all():
        raise NumericalError("numerical divergence")
    return h


# ----------------------------------------------------------------------
# the previous graph file encoding: one int() or float() per edge field
# ----------------------------------------------------------------------
# Kept as the oracle for SensorGraph.save, which converts whole arrays.


def graph_json(graph) -> str:
    r, c, v = graph.adjacency.triples()
    doc = {
        "format": "flowcast-graph-v1",
        "n_nodes": graph.n_nodes,
        "sensor_ids": graph.sensor_ids,
        "kernel_sigma": graph.kernel_sigma,
        "kernel_thresh": graph.kernel_thresh,
        "threshold_on": graph.threshold_on,
        "edges": [[int(ri), int(ci), float(vi)] for ri, ci, vi in zip(r, c, v)],
    }
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# the previous time-series CSV reader and writer
# ----------------------------------------------------------------------
# Kept as the oracle for data.read_timeseries_csv and write_timeseries_csv,
# which parse and format a block of rows at a time. Row by row, the reader
# keeps a dict entry per cell and the writer formats each cell through
# csv.writer. They read and write the table through csv directly, as the
# table module did when they were current.

TIMESERIES_HEADER = ["timestamp", "sensor_id", "speed", "flow"]


def read_timeseries_csv(path):
    from flowcast.data import TICK, TimeSeriesPanel

    cells: dict[tuple[int, str], tuple[float, float, bool, bool]] = {}
    seconds: dict[str, int] = {}  # raw timestamp -> epoch seconds, each spelling parsed once
    nodes: set[str] = set()
    for lineno, row in _read_table(path, TIMESERIES_HEADER):
        ts, sid = row[0].strip(), row[1].strip()
        sec = seconds.get(ts)
        if sec is None:
            try:
                stamp = np.datetime64(ts, "s")
            except ValueError:
                stamp = np.datetime64("NaT")
            if np.isnat(stamp):
                raise DataError(f"{path}: row {lineno}: bad timestamp {ts!r}")
            sec = seconds[ts] = int(stamp.astype(np.int64))
        vals, missing = [], []
        for text in (row[2].strip(), row[3].strip()):
            if text == "":
                vals.append(math.nan)
                missing.append(True)
                continue
            try:
                value = float(text)
            except ValueError:
                value = math.nan  # reported below, like nan and inf spelled out
            if not math.isfinite(value):
                raise DataError(f"{path}: row {lineno}: bad value {text!r}")
            vals.append(value)
            missing.append(False)
        if (sec, sid) in cells:  # keyed by instant, so two spellings of one tick collide
            raise DataError(f"{path}: row {lineno}: duplicate observation for {sid} at {ts}")
        cells[(sec, sid)] = (vals[0], vals[1], missing[0], missing[1])
        nodes.add(sid)
    if not cells:
        raise DataError(f"{path}: no observations")
    tick = int(TICK / np.timedelta64(1, "s"))
    lo, hi = min(seconds.values()), max(seconds.values())
    for ts, sec in seconds.items():
        if (sec - lo) % tick:
            raise DataError(f"{path}: timestamp {ts} is off the 5-minute grid")
    grid = np.arange(lo, hi + tick, tick).astype("datetime64[s]")
    node_ids = sorted(nodes)
    node_index = {s: i for i, s in enumerate(node_ids)}
    t, n = len(grid), len(node_ids)
    values = np.full((t, n, 2), math.nan)
    mask = np.ones((t, n, 2), dtype=bool)
    for (sec, sid), (speed, flow, m_sp, m_fl) in cells.items():
        ti = (sec - lo) // tick
        ni = node_index[sid]
        values[ti, ni, 0], values[ti, ni, 1] = speed, flow
        mask[ti, ni, 0], mask[ti, ni, 1] = m_sp, m_fl
    values[mask] = math.nan
    return TimeSeriesPanel(grid, node_ids, values, mask)


def write_timeseries_csv(path, panel) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_HEADER)
        writer.writerows(
            [str(ts), sid] + ["" if panel.mask[ti, ni, fi]
                              else repr(float(panel.values[ti, ni, fi]))
                              for fi in range(len(panel.feature_names))]
            for ti, ts in enumerate(panel.timestamps) for ni, sid in enumerate(panel.node_ids))


def _read_table(path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])] != header:
            raise DataError(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {lineno}: expected {len(header)} fields")
            yield lineno, row


# ----------------------------------------------------------------------
# readers that only tests need
# ----------------------------------------------------------------------


def edge_weight(graph, i: int, j: int) -> float:
    """Weight of edge i -> j of a SensorGraph; 0.0 when there is no edge."""
    lo, hi = graph.adjacency.indptr[i], graph.adjacency.indptr[i + 1]
    cols = graph.adjacency.indices[lo:hi]
    pos = np.searchsorted(cols, j)
    if pos < cols.size and cols[pos] == j:
        return float(graph.adjacency.data[lo + pos])
    return 0.0


def csr_from_dense(a) -> CsrMatrix:
    """The CSR form of a dense 2-d array, the counterpart of to_dense."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    r, c = np.nonzero(a)
    return CsrMatrix.from_triples(a.shape[0], a.shape[1], r, c, a[r, c])


def csr_identity(n: int) -> CsrMatrix:
    """The n x n identity in CSR form."""
    idx = np.arange(n, dtype=np.int64)
    return CsrMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))


def box_iqr(stats) -> float:
    """Interquartile range of a BoxStats."""
    return stats.q3 - stats.q1


def train_curve(report) -> list[float]:
    """Per-epoch training loss of a TrainReport."""
    return [e.train_loss for e in report.epochs]


def valid_curve(report) -> list[float]:
    """Per-epoch validation loss of a TrainReport."""
    return [e.valid_loss for e in report.epochs]


def owned_global(bundle) -> np.ndarray:
    """Global indices of the nodes a bundle owns (its non-halo nodes)."""
    return bundle.local_to_global[~bundle.halo_flags]


def read_assignment_csv(path, graph) -> PartitionAssignment:
    """Read back the assignment.csv that partition.write_assignment_csv writes."""
    part = -np.ones(graph.n_nodes, dtype=np.int64)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sensor_id", "part"]:
            raise DataError(f"{path}: expected header sensor_id,part")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2 or row[0] not in graph.id_to_index:
                raise DataError(f"{path}: row {lineno}: bad assignment row")
            if not (row[1].isascii() and row[1].isdigit()):
                raise DataError(f"{path}: row {lineno}: part must be a non-negative integer")
            part[graph.id_to_index[row[0]]] = int(row[1])
    if (part < 0).any():
        raise DataError(f"{path}: some sensors have no part assigned")
    return PartitionAssignment(part, int(part.max()) + 1)
