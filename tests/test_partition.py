"""Multilevel partitioning: phases, refinement monotonicity, halos, bundles."""

import numpy as np
import pytest

import flowcast.partition as partition_module
from flowcast.errors import DataError
from flowcast.graph import (DistanceProvider, HaversineDistances, SensorGraph, SensorMeta,
                            TableDistances, build_adjacency, canonical_order, knn_candidates)
from flowcast.partition import (_MAX_FM_PASSES, CoarseLevel, PartitionAssignment, _fm_pass,
                                _rebalance, add_overlap_nodes, coarsen, edge_cut, extract_subgraphs,
                                heavy_edge_matching, initial_partition, partition_graph,
                                read_bundles, refine_uncoarsen,
                                symmetrize, write_assignment_csv, write_bundles)

import oracles
from oracles import (brute_force_min_bisection, csr_from_dense, cut_of_assignment,
                     owned_global, read_assignment_csv)


def graph_of(dense) -> SensorGraph:
    dense = np.asarray(dense, dtype=np.float64)
    ids = [f"S{i:02d}" for i in range(dense.shape[0])]
    return SensorGraph(ids, csr_from_dense(dense))


def planted_two_cluster(n: int, rng) -> tuple[SensorGraph, int]:
    """Two dense clusters with weak bridges; intra weights >= 10x inter."""
    half = n // 2
    dense = np.zeros((n, n))
    for lo, hi in ((0, half), (half, n)):
        idx = np.arange(lo, hi)
        for a, b in zip(idx, idx[1:]):  # path keeps the cluster connected
            dense[a, b] = dense[b, a] = rng.uniform(10.0, 20.0)
        for _ in range(n):
            a, b = rng.choice(idx, size=2, replace=False)
            w = rng.uniform(10.0, 20.0)
            dense[a, b] = dense[b, a] = max(dense[a, b], w)
    for _ in range(rng.integers(1, 3)):
        a = rng.integers(0, half)
        b = rng.integers(half, n)
        dense[a, b] = dense[b, a] = rng.uniform(0.2, 1.0)
    return graph_of(dense), half


# ----------------------------------------------------------------------
# symmetrize
# ----------------------------------------------------------------------


def test_symmetrize_fixed_point_on_symmetric_graph():
    g = graph_of([[0, 2, 0], [2, 0, 1], [0, 1, 0]])
    assert symmetrize(g) is g


def test_symmetrize_one_sided_and_two_sided():
    one = symmetrize(graph_of([[0.0, 0.5], [0.0, 0.0]]))
    assert oracles.edge_weight(one, 0, 1) == 0.5 and oracles.edge_weight(one, 1, 0) == 0.5
    two = symmetrize(graph_of([[0.0, 0.3], [0.2, 0.0]]))
    assert oracles.edge_weight(two, 0, 1) == 0.5 and oracles.edge_weight(two, 1, 0) == 0.5


# ----------------------------------------------------------------------
# coarsening
# ----------------------------------------------------------------------


def test_heavy_edge_matching_prefers_heavier_neighbor():
    g = symmetrize(graph_of([[0, 5, 0], [5, 0, 1], [0, 1, 0]]))
    match = heavy_edge_matching(g, order=[0, 1, 2])
    assert match.tolist() == [0, 0, 1]  # {0,1} merged, 2 alone


def test_coarsen_two_node_edge():
    g = graph_of([[0, 1], [1, 0]])
    levels = coarsen(g, min_size=1)
    assert [lvl.graph.n_nodes for lvl in levels] == [2, 1]
    assert levels[1].node_weights.tolist() == [2.0]


def test_coarsen_edgeless_graph_terminates():
    levels = coarsen(graph_of(np.zeros((4, 4))), min_size=1)
    assert len(levels) == 1  # nothing to merge, recursion stops


def test_coarsen_sums_constituent_weights():
    # square 0-1-2-3-0; force matching along 0-1 and 2-3 via heavy edges
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 9.0
    dense[2, 3] = dense[3, 2] = 9.0
    dense[1, 2] = dense[2, 1] = 1.0
    dense[3, 0] = dense[0, 3] = 2.0
    levels = coarsen(graph_of(dense), min_size=2, seed=0)
    top = levels[-1].graph
    assert top.n_nodes == 2
    # both weak edges now connect the two coarse nodes
    assert oracles.edge_weight(top, 0, 1) == 3.0 and oracles.edge_weight(top, 1, 0) == 3.0


# ----------------------------------------------------------------------
# initial partition
# ----------------------------------------------------------------------


def test_initial_partition_edge_counts():
    g = symmetrize(graph_of(np.triu(np.ones((5, 5)), 1)))
    single = initial_partition(g, 1)
    assert single.part_of.tolist() == [0] * 5 and edge_cut(g, single) == 0.0
    singletons = initial_partition(g, 5)
    assert sorted(singletons.part_of.tolist()) == [0, 1, 2, 3, 4]
    with pytest.raises(DataError, match="k exceeds nodes"):
        initial_partition(g, 6)


def test_initial_partition_two_triangles():
    dense = np.zeros((6, 6))
    for tri in ((0, 1, 2), (3, 4, 5)):
        for a in tri:
            for b in tri:
                if a != b:
                    dense[a, b] = 1.0
    dense[2, 3] = dense[3, 2] = 1.0
    g = graph_of(dense)
    oracle_cut, oracle_part = brute_force_min_bisection(dense)
    assert oracle_cut == 1.0 and oracle_part in ({0, 1, 2}, {3, 4, 5})
    got = initial_partition(g, 2, seed=1)
    sides = {frozenset(np.flatnonzero(got.part_of == p).tolist()) for p in (0, 1)}
    assert sides == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------


def _base_level(g: SensorGraph) -> list[CoarseLevel]:
    sym = symmetrize(g)
    return [CoarseLevel(sym, np.arange(sym.n_nodes), 0, np.ones(sym.n_nodes))]


def test_refine_four_path_example():
    g = graph_of(np.diag([1.0, 1.0, 1.0], k=1))  # path 0-1-2-3, unit weights
    levels = _base_level(g)
    start = PartitionAssignment(np.array([0, 1, 0, 1]), 2)
    assert edge_cut(g, start) == 3.0
    log = []
    refined = refine_uncoarsen(levels, start, pass_log=log)
    sides = {frozenset(np.flatnonzero(refined.part_of == p).tolist()) for p in (0, 1)}
    assert sides == {frozenset({0, 1}), frozenset({2, 3})}
    assert edge_cut(g, refined) == 1.0
    assert all(after <= before for _, before, after in log)


def test_refine_leaves_optimum_unchanged():
    g = graph_of(np.diag([1.0, 1.0, 1.0], k=1))
    best = PartitionAssignment(np.array([0, 0, 1, 1]), 2)
    refined = refine_uncoarsen(_base_level(g), best)
    assert refined.part_of.tolist() == [0, 0, 1, 1]


def test_refine_never_increases_cut_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(6, 14))
        dense = np.where(rng.uniform(size=(n, n)) < 0.35, rng.uniform(0.1, 2.0, (n, n)), 0.0)
        np.fill_diagonal(dense, 0.0)
        g = graph_of(dense)
        k = int(rng.integers(2, 4))
        start = np.arange(n) % k
        rng.shuffle(start)
        log = []
        refined = refine_uncoarsen(_base_level(g), PartitionAssignment(start, k),
                                   pass_log=log)
        assert all(after <= before + 1e-12 for _, before, after in log)
        assert edge_cut(g, refined) <= cut_of_assignment(dense, start) + 1e-12


def _random_refine_case(rng):
    """A random graph, node weights, start assignment and a maxw for one pass."""
    n = int(rng.integers(5, 40))
    k = int(rng.integers(2, 7))
    dense = np.where(rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.4),
                     rng.uniform(0.1, 2.0, (n, n)), 0.0)
    if rng.uniform() < 0.5:
        dense = np.round(dense * 4.0)  # integer weights make gain ties common
    isolated = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
    dense[isolated, :] = dense[:, isolated] = 0.0
    np.fill_diagonal(dense, 0.0)
    # a one-sided graph checks that a move refreshes the rows that hold the moved node
    g = symmetrize(graph_of(dense)) if rng.uniform() < 0.75 else graph_of(dense)
    node_w = np.ones(n) if rng.uniform() < 0.5 else rng.integers(1, 5, n).astype(float)
    part = rng.integers(0, k, n)
    part_w = np.bincount(part, weights=node_w, minlength=k)
    # feasible: every part fits; infeasible: the heaviest part does not
    maxw = part_w.max() if rng.uniform() < 0.5 else max(part_w.max() - 1.0, 0.5)
    return g, node_w, part, k, maxw


def test_fm_pass_and_rebalance_match_previous_implementation():
    rng = np.random.default_rng(23)
    for _ in range(150):
        g, node_w, part, k, maxw = _random_refine_case(rng)
        adj = g.adjacency
        lists = oracles.adjacency_lists(g)
        balanced = _rebalance(adj, node_w, part, k, maxw)
        assert np.array_equal(balanced, oracles.rebalance(lists, node_w, part, k, maxw))
        for start in (part, balanced):
            for _ in range(_MAX_FM_PASSES):
                got, gain = _fm_pass(adj, node_w, start, k, maxw)
                want, want_gain = oracles.fm_pass(lists, node_w, start, k, maxw)
                assert np.array_equal(got, want) and gain == want_gain
                if gain <= 0.0:
                    break
                start = got


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_fm_pass_idle_cutoff_matches_oracle(m, monkeypatch):
    monkeypatch.setattr(partition_module, "_FM_IDLE_MOVES", m)
    rng = np.random.default_rng(23)
    changed = 0
    for _ in range(150):
        g, node_w, part, k, maxw = _random_refine_case(rng)
        lists = oracles.adjacency_lists(g)
        got, gain = _fm_pass(g.adjacency, node_w, part, k, maxw)
        want, want_gain = oracles.fm_pass(lists, node_w, part, k, maxw, idle_limit=m)
        assert np.array_equal(got, want) and gain == want_gain
        full, full_gain = oracles.fm_pass(lists, node_w, part, k, maxw)
        changed += full_gain != want_gain or not np.array_equal(full, want)
    assert changed > 0  # the limit binds on some cases, so the match above is not vacuous


def _random_geometric_graph(n, seed):
    rng = np.random.default_rng(seed)
    meta = [SensorMeta(f"G{i:04d}", float(37.0 + a), float(-122.0 + b))
            for i, (a, b) in enumerate(rng.uniform(size=(n, 2)))]
    provider = HaversineDistances(canonical_order(meta))
    return build_adjacency(meta, knn_candidates(meta, 30), provider, thresh=100.0)


@pytest.mark.parametrize("n", [250, 500])
def test_partition_graph_matches_previous_refinement(n, monkeypatch):
    g = _random_geometric_graph(n, seed=n)
    log = []
    got = partition_graph(g, 8, seed=3, pass_log=log)
    monkeypatch.setattr(partition_module, "refine_uncoarsen", oracles.refine_uncoarsen)
    want_log = []
    want = partition_graph(g, 8, seed=3, pass_log=want_log)
    assert np.array_equal(got.part_of, want.part_of)
    assert log == want_log and len(log) > 1


# ----------------------------------------------------------------------
# full driver
# ----------------------------------------------------------------------


def test_partition_graph_trivial_and_determinism():
    rng = np.random.default_rng(5)
    dense = np.where(rng.uniform(size=(10, 10)) < 0.4, rng.uniform(0.5, 2.0, (10, 10)), 0.0)
    np.fill_diagonal(dense, 0.0)
    g = graph_of(dense)
    assert partition_graph(g, 1).part_of.tolist() == [0] * 10
    a = partition_graph(g, 3, seed=11)
    b = partition_graph(g, 3, seed=11)
    assert np.array_equal(a.part_of, b.part_of)
    with pytest.raises(DataError):
        partition_graph(g, 11)


def test_partition_graph_two_cliques():
    dense = np.zeros((8, 8))
    for clique in (range(4), range(4, 8)):
        for a in clique:
            for b in clique:
                if a != b:
                    dense[a, b] = 1.0
    dense[0, 4] = dense[4, 0] = 0.1
    g = graph_of(dense)
    oracle_cut, _ = brute_force_min_bisection(dense)
    got = partition_graph(g, 2, seed=0)
    sides = {frozenset(np.flatnonzero(got.part_of == p).tolist()) for p in (0, 1)}
    assert sides == {frozenset(range(4)), frozenset(range(4, 8))}
    assert edge_cut(g, got) == pytest.approx(oracle_cut)


def test_partition_graph_respects_balance_bound():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(8, 30))
        dense = np.where(rng.uniform(size=(n, n)) < 0.3, rng.uniform(0.2, 3.0, (n, n)), 0.0)
        np.fill_diagonal(dense, 0.0)
        k = int(rng.integers(2, 5))
        if k > n:
            continue
        got = partition_graph(graph_of(dense), k, imbalance=0.05, seed=int(rng.integers(1e6)))
        sizes = np.bincount(got.part_of, minlength=k)
        assert (sizes >= 1).all()
        assert sizes.max() <= np.ceil(n / k) * 1.05


def test_partition_graph_recovers_planted_clusters():
    rng = np.random.default_rng(101)
    hits = 0
    for trial in range(8):
        n = int(rng.integers(8, 17))
        if n % 2:
            n += 1
        g, half = planted_two_cluster(n, rng)
        oracle_cut, oracle_part = brute_force_min_bisection(g.adjacency.to_dense())
        got = partition_graph(g, 2, seed=trial)
        got_cut = edge_cut(g, got)
        assert got_cut <= 2.0 * oracle_cut + 1e-9
        if abs(got_cut - oracle_cut) < 1e-9:
            hits += 1
    assert hits >= 7


def test_edge_cut_examples():
    tri = graph_of([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert edge_cut(tri, PartitionAssignment(np.zeros(3, dtype=int), 1)) == 0.0
    assert edge_cut(tri, PartitionAssignment(np.array([0, 1, 1]), 2)) == 2.0
    assert edge_cut(tri, PartitionAssignment(np.array([0, 1, 2]), 3)) == 3.0  # total weight


# ----------------------------------------------------------------------
# halos
# ----------------------------------------------------------------------


def _halo_setup():
    """Part {0} with outside nodes 1..3 (b, c, d in the walkthrough)."""
    g = graph_of(np.zeros((4, 4)))
    assignment = PartitionAssignment(np.array([0, 1, 1, 1]), 2)
    table = {}
    def put(i, j, d):
        table[(i, j)] = d
        table[(j, i)] = d
    put(0, 1, 1.0)   # a-b
    put(0, 2, 1.2)   # a-c
    put(0, 3, 2.5)   # a-d
    put(1, 2, 0.5)   # b-c violates the 1-mile threshold
    put(1, 3, 2.0)   # b-d is fine
    put(2, 3, 2.0)
    return g, assignment, TableDistances(4, table)


def test_overlap_downsampling_example():
    g, assignment, provider = _halo_setup()
    kept = add_overlap_nodes(g, assignment, part=0, horizon_k=3, d_prime=1.0,
                             provider=provider)
    assert kept == [1, 3]  # c dropped: within one mile of b


def test_overlap_tiny_threshold_keeps_all():
    g, assignment, provider = _halo_setup()
    kept = add_overlap_nodes(g, assignment, part=0, horizon_k=3, d_prime=0.01,
                             provider=provider)
    assert kept == [1, 2, 3]


def test_overlap_huge_threshold_keeps_at_most_one():
    g, assignment, provider = _halo_setup()
    kept = add_overlap_nodes(g, assignment, part=0, horizon_k=3, d_prime=1e9,
                             provider=provider)
    assert kept == [1]  # greedy keeps only the closest candidate


@pytest.mark.parametrize("d_prime", [0.0, -1.0, float("nan")])
def test_overlap_rejects_threshold_that_is_not_positive(d_prime):
    g, assignment, provider = _halo_setup()
    with pytest.raises(ValueError, match="d_prime"):
        add_overlap_nodes(g, assignment, part=0, horizon_k=3, d_prime=d_prime,
                          provider=provider)


def test_overlap_no_candidates():
    g, assignment, provider = _halo_setup()
    kept = add_overlap_nodes(g, assignment, part=1, horizon_k=1, d_prime=1.0,
                             provider=provider)
    # nearest neighbor of each of 1,2,3 is another member of part 1
    assert kept == []


def test_overlap_invariants_randomized():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(5, 14))
        coords = rng.uniform(0.0, 10.0, size=n)
        table = {(i, j): abs(coords[i] - coords[j]) for i in range(n) for j in range(n) if i != j}
        provider = TableDistances(n, table)
        g = graph_of(np.zeros((n, n)))
        part_of = rng.integers(0, 2, size=n)
        part_of[0], part_of[1] = 0, 1  # both parts nonempty
        assignment = PartitionAssignment(part_of, 2)
        d_prime = float(rng.uniform(0.3, 3.0))
        horizon = int(rng.integers(1, n))
        kept = add_overlap_nodes(g, assignment, 0, horizon, d_prime, provider)
        for a in kept:
            for b in kept:
                if a != b:
                    assert provider.dist(a, b) > d_prime
        # maximality: every dropped candidate is within d_prime of something kept
        owned = set(np.flatnonzero(part_of == 0).tolist())
        candidates = set()
        for v in owned:
            ranked = sorted((provider.dist(v, u), u) for u in range(n) if u != v)
            candidates.update(u for _, u in ranked[:horizon] if u not in owned)
        for c in candidates - set(kept):
            assert any(provider.dist(c, h) <= d_prime for h in kept)


def _haversine_point_sets(rng):
    """(name, lat, lon) sets that stress the great-circle candidate screen."""
    sets = []
    for _ in range(4):
        n = int(rng.integers(2, 40))
        lat = 37.0 + rng.uniform(size=n)
        lon = -122.0 + rng.uniform(size=n)
        dup = rng.integers(0, n, size=n // 3)  # duplicate coordinates
        lat[:dup.size], lon[:dup.size] = lat[dup], lon[dup]
        sets.append(("uniform with duplicates", lat, lon))
    # one latitude, dyadic offsets: d(center, lon0 - x) == d(center, lon0 + x) exactly
    offsets = np.array([0.0, 0.125, -0.125, 0.25, -0.25, 0.375, -0.375, 0.5, -0.5, 0.75, -0.75])
    sets.append(("ties on one latitude", np.full(offsets.size, 40.0), -122.0 + offsets))
    grid = np.arange(-3, 4) * 0.25
    glat, glon = np.meshgrid(40.0 + grid, -100.0 + grid)
    sets.append(("dyadic grid", glat.ravel(), glon.ravel()))
    n = 30
    sets.append(("near the north pole", rng.uniform(89.9, 90.0, n), rng.uniform(-180.0, 180.0, n)))
    sets.append(("across +-180 degrees", rng.uniform(-0.5, 0.5, n),
                 np.where(rng.uniform(size=n) < 0.5, rng.uniform(179.8, 180.0, n),
                          rng.uniform(-180.0, -179.8, n))))
    # Two clusters at antipodes. At 1e-6 deg some pairs have a within an ulp
    # of 1, where asin turns numpy's difference from `math` into 1.2e-4 mi; the
    # draws of seeds 168 and 362 need the relative term of the candidate screen.
    for seed, jitter in ((0, 1e-3), (1, 1e-5), (168, 1e-6), (362, 1e-6)):
        draw = np.random.default_rng(seed)
        lat0, lon0 = draw.uniform(-60.0, 60.0), draw.uniform(-180.0, 0.0)
        lat = np.concatenate([lat0 + draw.uniform(-jitter, jitter, 10),
                              -lat0 + draw.uniform(-jitter, jitter, 10)])
        lon = np.concatenate([lon0 + draw.uniform(-jitter, jitter, 10),
                              lon0 + 180.0 + draw.uniform(-jitter, jitter, 10)])
        sets.append((f"near-antipodal clusters ({jitter} deg)", lat, lon))
    sets.append(("exact antipodes", np.array([0.0, 0.0, 45.0, -45.0, 90.0, -90.0]),
                 np.array([0.0, 180.0, 10.0, -170.0, 0.0, 0.0])))
    return sets + oracles.degenerate_layouts(np.random.default_rng(58))


def test_haversine_halos_match_previous_implementation():
    rng = np.random.default_rng(57)
    for name, lat, lon in _haversine_point_sets(rng):
        n = lat.size
        meta = [SensorMeta(f"P{i:03d}", float(a), float(b)) for i, (a, b) in enumerate(zip(lat, lon))]
        provider = HaversineDistances(meta)
        g = graph_of(np.zeros((n, n)))
        k = int(rng.integers(1, min(4, n) + 1))
        part_of = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        assignment = PartitionAssignment(rng.permutation(part_of), k)
        small = n <= 60  # the large set: some sources, and horizons around its cluster's size
        sources = np.arange(n) if small else np.arange(0, n, 9)
        for horizon in range(1, n + 2) if small else (1, 2, 9, 40, 499, 500, n - 1, n, n + 1):
            assert (provider.nearest(sources, horizon, n)
                    == DistanceProvider.nearest(provider, sources, horizon, n)), (name, horizon)
        halo_horizons = {1, 2, int(rng.integers(1, n + 1)), 9, n - 1, n + 5} if small else {1, 9, 40}
        for horizon in sorted(halo_horizons - {0}):
            d_prime = float(rng.choice([1e-3, 0.05, 5.0, 500.0]))
            for p in range(k):
                kept = add_overlap_nodes(g, assignment, p, horizon, d_prime, provider)
                assert kept == oracles.add_overlap_nodes(g, assignment, p, horizon, d_prime,
                                                         provider), (name, horizon, p)
                # a pair at exactly d_prime sits inside the screen's band: `dist` decides it
                exact = provider.dist(kept[0], kept[1]) if len(kept) > 1 else 0.0
                if exact > 0.0:
                    assert (add_overlap_nodes(g, assignment, p, horizon, exact, provider)
                            == oracles.add_overlap_nodes(g, assignment, p, horizon, exact,
                                                         provider)), (name, horizon, p, exact)


# ----------------------------------------------------------------------
# subgraph extraction and on-disk layout
# ----------------------------------------------------------------------


def test_extract_whole_graph_identity():
    dense = np.array([[0, 1.0], [2.0, 0]])
    g = graph_of(dense)
    (bundle,) = extract_subgraphs(g, PartitionAssignment(np.zeros(2, dtype=int), 1))
    assert np.array_equal(bundle.graph.adjacency.to_dense(), dense)
    assert bundle.halo_flags.tolist() == [False, False]


def test_extract_four_path_with_halo():
    g = graph_of(np.diag([1.0, 1.0, 1.0], k=1))
    assignment = PartitionAssignment(np.array([0, 0, 1, 1]), 2)
    bundles = extract_subgraphs(g, assignment, halos=[[2], []])
    part0 = bundles[0]
    assert part0.local_to_global.tolist() == [0, 1, 2]
    assert part0.halo_flags.tolist() == [False, False, True]
    assert np.array_equal(part0.graph.adjacency.to_dense(),
                          np.diag([1.0, 1.0], k=1))  # edges among {0,1,2}
    # non-halo sets tile the node set
    owned = [set(owned_global(b).tolist()) for b in bundles]
    assert owned[0] | owned[1] == {0, 1, 2, 3} and owned[0] & owned[1] == set()
    with pytest.raises(ValueError):
        extract_subgraphs(g, assignment, halos=[[0], []])


def test_read_bundles_requires_part_directories(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError, match="no part directories"):
        read_bundles(tmp_path / "empty")


def test_assignment_and_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    dense = np.where(rng.uniform(size=(6, 6)) < 0.5, rng.uniform(0.1, 1.0, (6, 6)), 0.0)
    np.fill_diagonal(dense, 0.0)
    g = graph_of(dense)
    assignment = partition_graph(g, 2, seed=9)
    write_assignment_csv(tmp_path / "assignment.csv", g, assignment)
    back = read_assignment_csv(tmp_path / "assignment.csv", g)
    assert np.array_equal(back.part_of, assignment.part_of)
    rows = (tmp_path / "assignment.csv").read_text().splitlines()
    sensor = rows[3].split(",")[0]
    for bad in ("x", "-1", "1.0", ""):
        (tmp_path / "bad.csv").write_text("\n".join(rows[:3] + [f"{sensor},{bad}"] + rows[4:]))
        with pytest.raises(DataError, match="row 4: part must be a non-negative integer"):
            read_assignment_csv(tmp_path / "bad.csv", g)

    halos = [[int(v) for v in np.flatnonzero(assignment.part_of != p)[:1]]
             for p in range(2)]
    bundles = extract_subgraphs(g, assignment, halos)
    write_bundles(tmp_path / "bundles", bundles)
    loaded = read_bundles(tmp_path / "bundles")
    for a, b in zip(bundles, loaded):
        assert a.part_id == b.part_id
        assert np.array_equal(a.local_to_global, b.local_to_global)
        assert np.array_equal(a.halo_flags, b.halo_flags)
        assert np.array_equal(a.graph.adjacency.to_dense(), b.graph.adjacency.to_dense())
