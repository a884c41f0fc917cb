"""Multilevel k-way partitioning with overlap (halo) augmentation.

The pipeline is the classic three-phase scheme: symmetrize the directed
weights, coarsen by heavy-edge matching, partition the coarsest graph by
greedy recursive bisection, then uncoarsen while refining with single-node
FM moves (best-prefix rollback, so a pass never increases the edge cut).
Refinement reads an n x k connectivity table (weight from each node into
each part) that one bincount builds per pass; a move recomputes only the
rows of the moved node's neighbors, as in Fiduccia-Mattheyses.

Halo selection adds, per partition, nearby out-of-partition nodes and
greedily thins them so no two kept halos are within the distance threshold.
The provider ranks and thins in one call each. The great-circle provider
screens pairs with numpy (a cell grid, then a band around d_prime) and asks
its exact distance only inside the screens, giving a scan's halos; table and
routing providers still query every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import SensorGraph
from .sparse import CsrMatrix
from .tables import read_table, write_table

_MAX_FM_PASSES = 12
_FM_IDLE_MOVES = 128  # moves in a row with no new best prefix that end a pass

NODES_HEADER = ["local_index", "sensor_id", "global_index", "is_halo"]


@dataclass(frozen=True)
class PartitionAssignment:
    part_of: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "part_of", np.asarray(self.part_of, dtype=np.int64))
        if self.part_of.size and (self.part_of.min() < 0 or self.part_of.max() >= self.k):
            raise ValueError("part ids out of range")

    def nodes_of(self, part: int) -> np.ndarray:
        return np.flatnonzero(self.part_of == part)


@dataclass
class CoarseLevel:
    graph: SensorGraph
    match_map: np.ndarray  # finer-level node -> this level's node (identity at level 0)
    level: int
    node_weights: np.ndarray  # aggregated original-node counts


@dataclass
class SubgraphBundle:
    part_id: int
    graph: SensorGraph  # directed weights restricted to owned + halo nodes
    local_to_global: np.ndarray
    halo_flags: np.ndarray  # True where the local node is owned by another part

    @property
    def n_local(self) -> int:
        return int(self.local_to_global.size)


# ----------------------------------------------------------------------
# phase 0: symmetrization
# ----------------------------------------------------------------------


def symmetrize(graph: SensorGraph) -> SensorGraph:
    """Undirected view: combined weight w(i,j)+w(j,i) per direction pair.

    A graph whose adjacency is already exactly symmetric is returned as-is.
    """
    adj = graph.adjacency
    t = adj.transpose()
    if (np.array_equal(adj.indptr, t.indptr) and np.array_equal(adj.indices, t.indices)
            and np.array_equal(adj.data, t.data)):
        return graph
    r, c, v = adj.triples()
    combined = CsrMatrix.from_triples(
        adj.rows, adj.cols,
        np.concatenate([r, c]), np.concatenate([c, r]), np.concatenate([v, v]),
    )
    return SensorGraph(graph.sensor_ids, combined)


# ----------------------------------------------------------------------
# phase 1: coarsening by heavy-edge matching
# ----------------------------------------------------------------------


def heavy_edge_matching(graph: SensorGraph, order) -> np.ndarray:
    """Match each visited unmatched node to its heaviest unmatched neighbor.

    Returns fine -> coarse index map; coarse ids are numbered by the smallest
    fine member so the labeling does not depend on the visit order.
    """
    n = graph.n_nodes
    indptr, indices, data = graph.adjacency.indptr, graph.adjacency.indices, graph.adjacency.data
    mate = -np.ones(n, dtype=np.int64)
    for v in order:
        if mate[v] >= 0:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        best, best_w = -1, 0.0
        for u, w in zip(indices[lo:hi], data[lo:hi]):
            if u == v or mate[u] >= 0:
                continue
            if w > best_w or (w == best_w and (best == -1 or u < best)):
                best, best_w = int(u), float(w)
        mate[v] = best if best >= 0 else v
        if best >= 0:
            mate[best] = v
    group_key = np.minimum(mate, np.arange(n))
    coarse_ids = {key: i for i, key in enumerate(sorted(set(int(g) for g in group_key)))}
    return np.array([coarse_ids[int(g)] for g in group_key], dtype=np.int64)


def _coarse_graph(graph: SensorGraph, match_map: np.ndarray, node_weights: np.ndarray):
    n_coarse = int(match_map.max()) + 1 if match_map.size else 0
    r, c, v = graph.adjacency.triples()
    cr, cc = match_map[r], match_map[c]
    keep = cr != cc  # edges inside a merged pair disappear
    adj = CsrMatrix.from_triples(n_coarse, n_coarse, cr[keep], cc[keep], v[keep])
    weights = np.zeros(n_coarse)
    np.add.at(weights, match_map, node_weights)
    ids = [f"c{i}" for i in range(n_coarse)]
    return SensorGraph(ids, adj), weights


def coarsen(graph: SensorGraph, min_size: int, seed: int = 0) -> list[CoarseLevel]:
    """Successive heavy-edge coarsenings; level 0 is the (symmetric) input.

    Stops once the node count is at or below min_size, or a matching shrinks
    the graph by less than 10%.
    """
    base = symmetrize(graph)
    levels = [CoarseLevel(base, np.arange(base.n_nodes, dtype=np.int64), 0,
                          np.ones(base.n_nodes))]
    rng = np.random.default_rng(seed)
    while levels[-1].graph.n_nodes > min_size:
        cur = levels[-1]
        order = rng.permutation(cur.graph.n_nodes)
        match_map = heavy_edge_matching(cur.graph, order)
        n_coarse = int(match_map.max()) + 1
        if n_coarse > 0.9 * cur.graph.n_nodes:
            break
        cgraph, cweights = _coarse_graph(cur.graph, match_map, cur.node_weights)
        levels.append(CoarseLevel(cgraph, match_map, cur.level + 1, cweights))
    return levels


# ----------------------------------------------------------------------
# phase 2: initial partitioning by greedy recursive bisection
# ----------------------------------------------------------------------


def initial_partition(graph: SensorGraph, k: int, seed: int = 0,
                      node_weights: np.ndarray | None = None) -> PartitionAssignment:
    if k < 1:
        raise ValueError("k must be at least 1")
    n = graph.n_nodes
    if k > n:
        raise DataError("k exceeds nodes")
    if node_weights is None:
        node_weights = np.ones(n)
    indptr, indices, data = graph.adjacency.indptr, graph.adjacency.indices, graph.adjacency.data
    rng = np.random.default_rng(seed)
    part = np.zeros(n, dtype=np.int64)

    def grow(nodes: np.ndarray, k1: int, k2: int) -> np.ndarray:
        """Best of a few seeded greedy growings toward the proportional target."""
        member = np.zeros(n, dtype=bool)
        member[nodes] = True
        total = float(node_weights[nodes].sum())
        target = total * k1 / (k1 + k2)
        best_region, best_score = None, None
        attempts = min(4, nodes.size)
        starts = rng.choice(nodes, size=attempts, replace=False)
        for start in starts:
            region = np.zeros(n, dtype=bool)
            region[start] = True
            weight = float(node_weights[start])
            count = 1
            conn = np.zeros(n)
            lo, hi = indptr[start], indptr[start + 1]
            for u, w in zip(indices[lo:hi], data[lo:hi]):
                if member[u]:
                    conn[u] += w
            while count < nodes.size - k2:
                cand = np.flatnonzero(member & ~region & (conn > 0))
                if cand.size:
                    pick = int(cand[np.argmax(conn[cand])])
                else:
                    pick = int(nodes[~region[nodes]].min())  # disconnected jump
                if count >= k1:
                    if abs(weight + node_weights[pick] - target) > abs(weight - target):
                        break
                region[pick] = True
                weight += float(node_weights[pick])
                count += 1
                lo, hi = indptr[pick], indptr[pick + 1]
                for u, w in zip(indices[lo:hi], data[lo:hi]):
                    if member[u]:
                        conn[u] += w
            cut = 0.0
            for v in np.flatnonzero(region):
                lo, hi = indptr[v], indptr[v + 1]
                for u, w in zip(indices[lo:hi], data[lo:hi]):
                    if member[u] and not region[u]:
                        cut += w
            score = (cut, abs(weight - target))
            if best_score is None or score < best_score:
                best_region, best_score = region.copy(), score
        return np.flatnonzero(best_region)

    def bisect(nodes: np.ndarray, kk: int, base: int) -> None:
        if kk == 1:
            part[nodes] = base
            return
        k1, k2 = kk // 2, kk - kk // 2
        left = grow(nodes, k1, k2)
        left_mask = np.zeros(n, dtype=bool)
        left_mask[left] = True
        right = nodes[~left_mask[nodes]]
        bisect(left, k1, base)
        bisect(right, k2, base + k1)

    bisect(np.arange(n, dtype=np.int64), k, 0)
    return PartitionAssignment(part, k)


# ----------------------------------------------------------------------
# phase 3: uncoarsening with FM refinement
# ----------------------------------------------------------------------


def _cut_value(adj: CsrMatrix, part) -> float:
    """Weight of the crossing entries (v, u > v), added one at a time in CSR order."""
    r, c, w = adj.triples()
    crossing = w[(c > r) & (part[r] != part[c])]
    return float(np.cumsum(crossing)[-1]) if crossing.size else 0.0


def _connectivity(adj: CsrMatrix, part, k, rows) -> np.ndarray:
    """conn[i, q]: the weight from node rows[i] into part q.

    One bincount over the rows' CSR slices. bincount adds in input order, so
    every cell is summed from 0.0 in CSR order, bit for bit as a scalar loop.
    """
    lens = adj.indptr[rows + 1] - adj.indptr[rows]
    pos = np.repeat(adj.indptr[rows] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    slot = np.repeat(np.arange(rows.size) * k, lens) + part[adj.indices[pos]]
    return np.bincount(slot, weights=adj.data[pos], minlength=rows.size * k).reshape(-1, k)


def _rebalance(adj: CsrMatrix, node_w, part, k, maxw) -> np.ndarray:
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
        fits = part_w + node_w[members, None] <= maxw
        fits[:, p] = False
        if members.size <= 1 or not fits.any():
            stuck.add(p)
            continue
        conn = _connectivity(adj, part, k, members)
        best = int(np.argmax(np.where(fits, conn - conn[:, p:p + 1], -np.inf)))
        v, q = int(members[best // k]), best % k
        part_w[p] -= node_w[v]
        part_w[q] += node_w[v]
        part[v] = q
    return part


def _fm_pass(adj: CsrMatrix, node_w, part_in, k, maxw):
    """One FM pass: greedy best-gain single-node moves, each node at most once,
    then rollback to the best prefix whose part weights satisfy the bound.

    conn[v, q], the weight from v into part q, and the gains conn[v, q] -
    conn[v, part[v]] are built once; moving v recomputes only the rows that
    hold v. Each move is an argmax over the admissible (v, q) of the
    row-major gain table, whose first maximum is the (-gain, v, q) tie-break.

    The pass ends once _FM_IDLE_MOVES moves in a row have set no new best
    prefix (the Fiduccia-Mattheyses cut-off), so a pass that keeps best_len
    moves costs O((best_len + _FM_IDLE_MOVES) * n * k), not O(n^2 * k).

    Returns (assignment, gain_applied); gain_applied >= 0 by construction.
    """
    n = len(part_in)
    part = part_in.copy()
    part_w = np.bincount(part, weights=node_w, minlength=k)
    counts = np.bincount(part, minlength=k)
    slack = maxw + (node_w.max() if n else 0.0)
    into = adj.transpose()  # row v lists the nodes whose rows hold v
    conn = np.zeros((n, k))
    gain = np.zeros((n, k))
    linked = np.zeros((n, k), dtype=bool)  # some weight from v into another part q

    def refresh(rows):
        conn[rows] = _connectivity(adj, part, k, rows)
        gain[rows] = conn[rows] - conn[rows, part[rows]][:, None]
        linked[rows] = conn[rows] != 0.0
        linked[rows, part[rows]] = False

    refresh(np.arange(n))
    unlocked = np.ones(n, dtype=bool)
    moves: list[tuple[int, int]] = []
    cum = 0.0
    best_cum, best_len = 0.0, 0
    feasible_in = bool((part_w <= maxw).all())
    while True:
        movable = (unlocked & (counts[part] > 1))[:, None] & linked
        admissible = movable & (part_w + node_w[:, None] <= slack)
        if not admissible.any():
            break
        v, q = divmod(int(np.argmax(np.where(admissible, gain, -np.inf))), k)
        p = part[v]
        part[v] = q
        part_w[p] -= node_w[v]
        part_w[q] += node_w[v]
        counts[p] -= 1
        counts[q] += 1
        unlocked[v] = False
        cum += gain[v, q]
        moves.append((v, q))
        refresh(into.indices[into.indptr[v]:into.indptr[v + 1]])
        prefix_ok = bool((part_w <= maxw).all()) or not feasible_in
        if prefix_ok and cum > best_cum:
            best_cum, best_len = cum, len(moves)
        elif len(moves) - best_len >= _FM_IDLE_MOVES:
            break
    out = part_in.copy()
    for v, q in moves[:best_len]:
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
        adj = lvl.graph.adjacency
        part = _rebalance(adj, lvl.node_weights, part, k, maxw)
        cut = _cut_value(adj, part) if pass_log is not None else None
        for _ in range(_MAX_FM_PASSES):
            part, gain = _fm_pass(adj, lvl.node_weights, part, k, maxw)
            if pass_log is not None:
                before, cut = cut, _cut_value(adj, part)
                pass_log.append((lvl.level, before, cut))
            if gain <= 0.0:
                break
        if idx > 0:
            part = part[lvl.match_map]
    return PartitionAssignment(part, k)


def partition_graph(graph: SensorGraph, k: int, imbalance: float = 0.05,
                    seed: int = 0, pass_log: list | None = None) -> PartitionAssignment:
    """symmetrize -> coarsen -> initial partition -> refine; pure in (graph, k, imbalance, seed)."""
    n = graph.n_nodes
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise DataError("k exceeds nodes")
    if k == 1:
        return PartitionAssignment(np.zeros(n, dtype=np.int64), 1)
    levels = coarsen(graph, min_size=max(16, 4 * k), seed=seed)
    # initial partition wants the coarsest level that still has at least k nodes
    coarsest = max(i for i, lvl in enumerate(levels) if lvl.graph.n_nodes >= k)
    levels = levels[:coarsest + 1]
    init = initial_partition(levels[-1].graph, k, seed=seed,
                             node_weights=levels[-1].node_weights)
    return refine_uncoarsen(levels, init, imbalance=imbalance, pass_log=pass_log)


def edge_cut(graph: SensorGraph, assignment: PartitionAssignment) -> float:
    """Total symmetrized weight of edges crossing parts, each undirected edge once."""
    if assignment.part_of.size != graph.n_nodes:
        raise ValueError("assignment length does not match graph")
    sym = symmetrize(graph)
    r, c, v = sym.adjacency.triples()
    upper = r < c
    crossing = assignment.part_of[r[upper]] != assignment.part_of[c[upper]]
    return float(v[upper][crossing].sum())


# ----------------------------------------------------------------------
# overlap (halo) nodes
# ----------------------------------------------------------------------


def add_overlap_nodes(graph: SensorGraph, assignment: PartitionAssignment, part: int,
                      horizon_k: int, d_prime: float, provider) -> list[int]:
    """Pick out-of-partition context nodes, greedily thinned by pair distance.

    Candidates are the union over owned nodes v of v's horizon_k nearest other
    nodes (provider distance from v, ties on index), minus the partition
    itself; `provider.nearest` ranks them for all owned nodes in one call.
    `provider.thin` scans them by ascending distance to the partition (ties on
    index) and keeps one only when farther than d_prime from every halo kept
    so far, using the smaller of the two query directions as the pair distance.
    """
    if not d_prime > 0:  # NaN would keep every candidate
        raise ValueError("d_prime must be positive")
    if horizon_k < 1:
        raise ValueError("horizon_k must be at least 1")
    owned = assignment.nodes_of(part)
    in_part = np.zeros(graph.n_nodes, dtype=bool)
    in_part[owned] = True
    candidates: set[int] = set()
    dist_to_part: dict[int, float] = {}
    for ranked in provider.nearest(owned, horizon_k, graph.n_nodes):
        for d, u in ranked:
            if in_part[u]:
                continue
            candidates.add(u)
            if u not in dist_to_part or d < dist_to_part[u]:
                dist_to_part[u] = d
    ordered = sorted(candidates, key=lambda u: (dist_to_part[u], u))
    return provider.thin(ordered, d_prime)


def extract_subgraphs(graph: SensorGraph, assignment: PartitionAssignment,
                      halos: list[list[int]] | None = None) -> list[SubgraphBundle]:
    """One bundle per part: owned nodes first (ascending), then halos in kept order."""
    if halos is None:
        halos = [[] for _ in range(assignment.k)]
    if len(halos) != assignment.k:
        raise ValueError("need one halo list per part")
    bundles = []
    for p in range(assignment.k):
        owned = assignment.nodes_of(p)
        owned_set = set(int(v) for v in owned)
        halo = [int(h) for h in halos[p]]
        for h in halo:
            if h in owned_set:
                raise ValueError(f"halo node {h} is owned by part {p}")
        local = np.concatenate([owned, np.asarray(halo, dtype=np.int64)]) if halo else owned.copy()
        sub_adj = graph.adjacency.restrict(local)
        sub_ids = [graph.sensor_ids[int(g)] for g in local]
        sub = SensorGraph(sub_ids, sub_adj, graph.kernel_sigma, graph.kernel_thresh,
                          graph.threshold_on)
        flags = np.zeros(local.size, dtype=bool)
        flags[owned.size:] = True
        bundles.append(SubgraphBundle(p, sub, local, flags))
    return bundles


# ----------------------------------------------------------------------
# on-disk layout
# ----------------------------------------------------------------------


def write_assignment_csv(path, graph: SensorGraph, assignment: PartitionAssignment) -> None:
    write_table(path, ["sensor_id", "part"],
                ([sid, int(assignment.part_of[i])] for i, sid in enumerate(graph.sensor_ids)))


def write_bundles(out_dir, bundles: list[SubgraphBundle]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for b in bundles:
        d = out / f"part{b.part_id:03d}"
        d.mkdir(exist_ok=True)
        b.graph.save(d / "graph.json")
        write_table(d / "nodes.csv", NODES_HEADER,
                    ([i, b.graph.sensor_ids[i], int(b.local_to_global[i]), int(b.halo_flags[i])]
                     for i in range(b.n_local)))
        write_table(d / "halos.csv", ["sensor_id", "global_index"],
                    ([b.graph.sensor_ids[int(i)], int(b.local_to_global[i])]
                     for i in np.flatnonzero(b.halo_flags)))


def _read_nodes_csv(path, n_local: int) -> tuple[list[int], list[bool]]:
    """(local_to_global, halo_flags) of a bundle's nodes.csv; malformed rows raise DataError."""
    l2g, flags = [], []
    for lineno, row in read_table(path, NODES_HEADER):
        if row[3] not in ("0", "1"):
            raise DataError(f"{path}: row {lineno}: expected is_halo 0 or 1")
        try:
            local, global_index = int(row[0]), int(row[2])
        except ValueError:
            raise DataError(f"{path}: row {lineno}: non-integer index") from None
        if local != lineno - 2 or global_index < 0:
            raise DataError(f"{path}: row {lineno}: bad local or global index")
        l2g.append(global_index)
        flags.append(row[3] == "1")
    if len(l2g) != n_local:
        raise DataError(f"{path}: {len(l2g)} rows for a bundle graph of {n_local} nodes")
    return l2g, flags


def read_bundles(bundle_dir) -> list[SubgraphBundle]:
    root = Path(bundle_dir)
    bundles = []
    for d in sorted(root.glob("part*")):
        part_id = d.name[4:]
        if not (d.is_dir() and part_id.isascii() and part_id.isdigit()):
            raise DataError(f"{d}: not a partNNN bundle directory")
        for name in ("graph.json", "nodes.csv"):
            if not (d / name).is_file():
                raise DataError(f"{d / name}: missing bundle file")
        graph = SensorGraph.load(d / "graph.json")
        l2g, flags = _read_nodes_csv(d / "nodes.csv", graph.n_nodes)
        bundles.append(SubgraphBundle(int(part_id), graph,
                                      np.asarray(l2g, dtype=np.int64),
                                      np.asarray(flags, dtype=bool)))
    if not bundles:
        raise DataError(f"{bundle_dir}: no part directories found")
    return bundles
