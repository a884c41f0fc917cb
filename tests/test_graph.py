"""Sensor graph construction: kNN candidates, kernel weights, providers, I/O."""

import http.server
import json
import math
import threading

import numpy as np
import pytest

from flowcast.errors import DataError, NumericalError
from flowcast.graph import (HaversineDistances, ProviderError, RoutingServiceClient,
                            SensorGraph, SensorMeta, TableDistances, build_adjacency,
                            canonical_order, haversine_miles, knn_candidates,
                            read_metadata_csv, write_metadata_csv)
from flowcast.sparse import CsrMatrix

import oracles

MILE_LAT = 1.0 / 69.17  # about one mile of latitude in degrees


def _line_meta(miles, lon=0.0):
    return [SensorMeta(f"S{i:02d}", m * MILE_LAT, lon) for i, m in enumerate(miles)]


def test_meta_validation():
    with pytest.raises(DataError):
        SensorMeta("a", 91.0, 0.0)
    with pytest.raises(DataError):
        SensorMeta("a", 0.0, -181.0)
    with pytest.raises(DataError):
        canonical_order([SensorMeta("a", 0, 0), SensorMeta("a", 1, 1)])


def test_knn_collinear_example():
    # nodes at miles 0, 1, 3: nearest of 0 is 1, of 1 is 0, of 2 is 1
    meta = _line_meta([0.0, 1.0, 3.0])
    assert knn_candidates(meta, 1) == {(0, 1), (1, 0), (2, 1)}


def test_knn_large_k_gives_all_ordered_pairs():
    meta = _line_meta([0.0, 2.0, 5.0, 9.0])
    expected = {(i, j) for i in range(4) for j in range(4) if i != j}
    assert knn_candidates(meta, 3) == expected
    assert knn_candidates(meta, 99) == expected


def test_knn_single_node_and_empty():
    assert knn_candidates(_line_meta([0.0]), 1) == set()
    with pytest.raises(DataError, match="empty graph"):
        knn_candidates([], 1)
    with pytest.raises(ValueError):
        knn_candidates(_line_meta([0.0, 1.0]), 0)


def test_knn_is_independent_of_row_order():
    rng = np.random.default_rng(2)
    meta = [SensorMeta(f"S{i:02d}", float(rng.uniform(30, 31)), float(rng.uniform(-120, -119)))
            for i in range(12)]
    base = knn_candidates(meta, 3)
    shuffled = [meta[i] for i in rng.permutation(12)]
    assert knn_candidates(shuffled, 3) == base


def test_knn_matches_previous_implementation():
    rng = np.random.default_rng(31)
    for n in [int(x) for x in rng.integers(1, 60, size=40)] + [700]:  # 700 spans many grid cells
        coords = rng.uniform(size=(n, 2))
        dup = rng.integers(0, n, size=n // 3)
        coords[rng.integers(0, n, size=dup.size)] = coords[dup]  # zero-distance ties
        meta = [SensorMeta(f"S{i:03d}", float(30 + a), float(-120 + b))
                for i, (a, b) in enumerate(coords)]
        for k in (1, 3, int(rng.integers(1, n + 2))):
            assert knn_candidates(meta, k) == oracles.knn_candidates(meta, k)
    for name, lat, lon in oracles.degenerate_layouts(np.random.default_rng(32)):
        n = lat.size
        meta = [SensorMeta(f"D{i:03d}", float(a), float(b)) for i, (a, b) in enumerate(zip(lat, lon))]
        for k in sorted({1, 3, 30, n - 1, n + 1} - {0}):
            assert knn_candidates(meta, k) == oracles.knn_candidates(meta, k), (name, k)


def test_kernel_weight_values():
    meta = _line_meta([0.0, 1.0, 2.0])
    provider = HaversineDistances(meta)
    pairs = {(0, 1), (1, 0), (0, 2), (1, 2)}
    dists = [provider.dist(i, j) for i, j in sorted(pairs)]
    sigma = float(np.std(dists))  # population std oracle
    g = build_adjacency(meta, pairs, provider, thresh=1e9, sigma_mode="auto")
    assert g.kernel_sigma == pytest.approx(sigma)
    for i, j in pairs:
        d = provider.dist(i, j)
        assert oracles.edge_weight(g, i, j) == math.exp(-((d / g.kernel_sigma) ** 2))  # bit-for-bit


def test_kernel_examples_zero_and_e_inverse():
    meta = [SensorMeta("a", 0.0, 0.0), SensorMeta("b", 0.0, 0.0), SensorMeta("c", 1.0, 0.0)]
    provider = HaversineDistances(canonical_order(meta))
    pairs = {(0, 1), (0, 2)}
    g = build_adjacency(meta, pairs, provider, thresh=1e9,
                        sigma_mode=provider.dist(0, 2))  # sigma equals the long distance
    assert oracles.edge_weight(g, 0, 1) == 1.0  # dist 0 -> exp(0)
    assert oracles.edge_weight(g, 0, 2) == pytest.approx(0.36787944117144233, abs=1e-15)


def test_threshold_modes():
    meta = _line_meta([0.0, 1.0, 4.0])
    provider = HaversineDistances(meta)
    pairs = {(0, 1), (0, 2)}
    d_short, d_long = provider.dist(0, 1), provider.dist(0, 2)
    g = build_adjacency(meta, pairs, provider, thresh=(d_short ** 2) * 1.01,
                        sigma_mode=2.0, threshold_on="distance_sq")
    assert oracles.edge_weight(g, 0, 1) > 0.0 and oracles.edge_weight(g, 0, 2) == 0.0
    w_long = math.exp(-((d_long / 2.0) ** 2))
    g2 = build_adjacency(meta, pairs, provider, thresh=w_long * 1.01,
                         sigma_mode=2.0, threshold_on="weight")
    assert oracles.edge_weight(g2, 0, 1) > 0.0 and oracles.edge_weight(g2, 0, 2) == 0.0
    with pytest.raises(ValueError):
        build_adjacency(meta, pairs, provider, thresh=1.0, threshold_on="nonsense")


def test_self_loop_handling():
    meta = _line_meta([0.0, 1.0])
    provider = HaversineDistances(meta)
    pairs = {(0, 0), (0, 1)}
    g = build_adjacency(meta, pairs, provider, thresh=1e9, sigma_mode=1.0)
    assert oracles.edge_weight(g, 0, 0) == 0.0  # dropped by default


def test_degenerate_sigma_and_negative_distance():
    meta = _line_meta([0.0, 1.0])
    provider = HaversineDistances(meta)
    with pytest.raises(NumericalError, match="degenerate kernel width"):
        build_adjacency(meta, {(0, 1), (1, 0)}, provider, thresh=1e9, sigma_mode="auto")

    class Negative:
        def dist(self, i, j):
            return -1.0

    with pytest.raises(ProviderError):
        build_adjacency(meta, {(0, 1)}, Negative(), thresh=1e9, sigma_mode=1.0)


def test_restriction_commutes_with_fixed_sigma():
    rng = np.random.default_rng(9)
    meta = [SensorMeta(f"S{i:02d}", float(rng.uniform(35, 35.2)), float(rng.uniform(-120, -119.8)))
            for i in range(9)]
    meta = canonical_order(meta)
    provider = HaversineDistances(meta)
    all_pairs = {(i, j) for i in range(9) for j in range(9) if i != j}
    knn = knn_candidates(meta, 3)
    full = build_adjacency(meta, all_pairs, provider, thresh=1e9, sigma_mode=5.0)
    sub = build_adjacency(meta, knn, provider, thresh=1e9, sigma_mode=5.0)
    for i, j in knn:
        assert oracles.edge_weight(sub, i, j) == oracles.edge_weight(full, i, j)


def test_graph_serialization_round_trip(tmp_path):
    meta = _line_meta([0.0, 1.0, 3.0])
    provider = HaversineDistances(meta)
    g = build_adjacency(meta, knn_candidates(meta, 2), provider, thresh=1e9, sigma_mode="auto")
    path = tmp_path / "graph.json"
    g.save(path)
    first = path.read_bytes()
    g2 = SensorGraph.load(path)
    assert g2.sensor_ids == g.sensor_ids
    assert g2.kernel_sigma == g.kernel_sigma
    assert np.array_equal(g2.adjacency.to_dense(), g.adjacency.to_dense())
    g2.save(path)
    assert path.read_bytes() == first  # byte-identical rewrite
    awkward = [0.1, 1.0 / 3.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -2.5, 1e16 + 2.0, 1e-7, 123456.789, 0.30000000000000004]
    n = len(awkward)
    g3 = SensorGraph([f"A{i}" for i in range(n)],
                     CsrMatrix.from_triples(n, n, np.arange(n), (np.arange(n) * 7 + 1) % n, awkward),
                     kernel_sigma=math.pi, kernel_thresh=1e-300, threshold_on="weight")
    for graph in (g, g3):
        graph.save(path)
        assert path.read_text(encoding="utf-8") == oracles.graph_json(graph)
    (tmp_path / "junk.json").write_text("{}")
    with pytest.raises(DataError):
        SensorGraph.load(tmp_path / "junk.json")


def test_table_distances(tmp_path):
    meta = _line_meta([0.0, 1.0])
    path = tmp_path / "d.csv"
    path.write_text("from_id,to_id,miles\nS00,S01,2.5\nS01,S00,3.5\n")
    table = TableDistances.from_csv(path, meta)
    assert table.dist(0, 1) == 2.5
    assert table.dist(1, 0) == 3.5  # asymmetric is allowed
    assert table.dist(0, 0) == 0.0
    with pytest.raises(ProviderError):
        TableDistances(2, {}).dist(0, 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("from_id,to_id,miles\nS00,S01,-2\n")
    with pytest.raises(DataError):
        TableDistances.from_csv(bad, meta)
    unknown = tmp_path / "unknown.csv"
    unknown.write_text("from_id,to_id,miles\nS00,NOPE,1\n")
    with pytest.raises(DataError, match="row 2"):
        TableDistances.from_csv(unknown, meta)


def test_metadata_csv_round_trip_and_errors(tmp_path):
    meta = [SensorMeta("S01", 35.0, -120.0, "D7", "loop", "mainline"),
            SensorMeta("S00", 35.1, -120.1, "D4", "radar", "hov")]
    path = tmp_path / "meta.csv"
    write_metadata_csv(path, meta)
    back = read_metadata_csv(path)
    assert {m.sensor_id for m in back} == {"S00", "S01"}
    assert back[0].district in ("D7", "D4")

    bad = tmp_path / "bad.csv"
    bad.write_text("sensor_id,latitude,longitude,district,sensor_type,lane_type\nX,notanumber,0,,,\n")
    with pytest.raises(DataError, match="row 2"):
        read_metadata_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("sensor_id,latitude,longitude,district,sensor_type,lane_type\n")
    with pytest.raises(DataError):
        read_metadata_csv(empty)


class _RoutingHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path.startswith("/ok/route"):
            body = json.dumps({"miles": 4.25}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.startswith("/bad/route"):
            body = b"not json"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.startswith("/neg/route"):
            body = json.dumps({"miles": -1.0}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


@pytest.fixture()
def routing_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _RoutingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


def test_routing_client(routing_server):
    meta = _line_meta([0.0, 1.0])
    ok = RoutingServiceClient(f"{routing_server}/ok", meta)
    assert ok.dist(0, 1) == 4.25
    assert ok.dist(1, 1) == 0.0
    for suffix in ("/bad", "/neg", "/missing"):
        client = RoutingServiceClient(f"{routing_server}{suffix}", meta)
        with pytest.raises(ProviderError):
            client.dist(0, 1)


def test_routing_client_connection_failure():
    meta = _line_meta([0.0, 1.0])
    client = RoutingServiceClient("http://127.0.0.1:1", meta, timeout=0.5)
    with pytest.raises(ProviderError):
        client.dist(0, 1)


def test_haversine_known_value():
    # one degree of latitude is about 69.1 miles
    assert haversine_miles(0.0, 0.0, 1.0, 0.0) == pytest.approx(69.09, abs=0.1)
