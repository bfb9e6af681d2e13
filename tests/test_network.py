"""Graph validation, closure masks, and shortest-path travel times."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from surgeaccess import access, hazard, network, simulate
from surgeaccess.errors import InvalidInputError, ValidationError


def mk_nodes(coords):
    return [network.Node(f"n{i:02d}", float(x), float(y)) for i, (x, y) in enumerate(coords)]


def road(eid, u, v, length, speed=1.0, h_r=0.0):
    return network.Edge(eid, u, v, length_m=length, speed_mps=speed, kind=network.ROAD, h_r=h_r)


def line_graph(n=4, spacing=60.0):
    """Chain n00 - n01 - ... with 1-minute hops."""
    nodes = mk_nodes([(i * spacing, 0.0) for i in range(n)])
    edges = [road(f"e{i:02d}", f"n{i:02d}", f"n{i + 1:02d}", spacing) for i in range(n - 1)]
    return network.build_graph(nodes, edges, [])


def same_table(a, b):
    """Two travel-time tables hold the same ids, catchment and minutes matrix, bit for bit."""
    return (
        a.demand_ids == b.demand_ids
        and a.supply_ids == b.supply_ids
        and a.d0_minutes == b.d0_minutes
        and a.minutes.shape == b.minutes.shape
        and a.minutes.tobytes() == b.minutes.tobytes()
    )


def floyd_warshall_minutes(graph, closed=frozenset()):
    """Dense all-pairs oracle over the same collapsed multigraph."""
    n = len(graph.node_ids)
    pos = {nid: i for i, nid in enumerate(graph.node_ids)}
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for eid in graph.edge_ids:
        if eid in closed:
            continue
        e = graph.edges[eid]
        i, j, minutes = pos[e.u], pos[e.v], e.length_m / e.speed_mps / 60.0
        if minutes < dist[i, j]:
            dist[i, j] = dist[j, i] = minutes
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def node_records(graph):
    """graph's nodes as Node records, in node_ids order."""
    return [network.Node(*row) for row in zip(graph.node_ids, graph.node_x.tolist(), graph.node_y.tolist())]


def scipy_adjacency(graph, closed):
    """The open edges as scipy's sparse graph, parallel edges collapsed to the fastest one by hand."""
    fastest = {}
    for u, v, minutes in zip(graph._edge_u[~closed], graph._edge_v[~closed], graph._edge_minutes[~closed]):
        key = (min(u, v), max(u, v))
        fastest[key] = min(minutes, fastest.get(key, np.inf))
    rows, cols = zip(*fastest) if fastest else ((), ())
    n = len(graph.node_ids)
    return csr_matrix((list(fastest.values()), (rows, cols)), shape=(n, n))


def random_sited_graph(rng, max_nodes=20):
    """Connected-ish random graph with integer-minute edges and sites on nodes."""
    n = int(rng.integers(4, max_nodes + 1))
    coords = rng.uniform(0, 10_000, size=(n, 2))
    coords = np.unique(np.round(coords, 1), axis=0)
    n = coords.shape[0]
    nodes = mk_nodes(coords)
    edges = []
    for i in range(1, n):  # random spanning tree keeps most pairs reachable
        j = int(rng.integers(0, i))
        edges.append(road(f"t{i:03d}", nodes[i].node_id, nodes[j].node_id, 60.0 * int(rng.integers(1, 30))))
    for k in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        edges.append(road(f"x{k:03d}", nodes[i].node_id, nodes[j].node_id, 60.0 * int(rng.integers(1, 30))))
    graph = network.build_graph(nodes, edges, [])
    pos = {nid: k for k, nid in enumerate(graph.node_ids)}
    d_nodes = rng.choice(n, size=int(rng.integers(1, max(2, n // 2))), replace=False)
    s_nodes = rng.choice(n, size=int(rng.integers(1, max(2, n // 2))), replace=False)
    demands = [
        access.DemandSite(f"d{k}", float(graph.node_x[i]), float(graph.node_y[i]), 1.0)
        for k, i in enumerate(pos[nodes[i].node_id] for i in d_nodes)
    ]
    supplies = [
        access.SupplySite(f"s{k}", float(graph.node_x[i]), float(graph.node_y[i]), 1.0)
        for k, i in enumerate(pos[nodes[i].node_id] for i in s_nodes)
    ]
    d_idx = [pos[nodes[i].node_id] for i in d_nodes]
    s_idx = [pos[nodes[i].node_id] for i in s_nodes]
    return graph, demands, supplies, d_idx, s_idx


def test_build_graph_reports_every_problem_at_once():
    nodes = mk_nodes([(0, 0), (60, 0)]) + [network.Node("n00", 5.0, 5.0)]
    edges = [
        road("dup", "n00", "n01", 60.0),
        road("dup", "n00", "n01", 60.0),
        road("loop", "n00", "n00", 60.0),
        road("ghost", "n00", "zz", 60.0),
        road("short", "n00", "n01", 0.0),
        road("slow", "n00", "n01", 60.0, speed=0.0),
        network.Edge("kind", "n00", "n01", 60.0, 1.0, kind="tunnel"),
        network.Edge("nobr", "n00", "n01", 60.0, 1.0, kind=network.BRIDGE),
        network.Edge("unkbr", "n00", "n01", 60.0, 1.0, kind=network.BRIDGE, bridge_id="nope"),
        network.Edge("roadbr", "n00", "n01", 60.0, 1.0, kind=network.ROAD, bridge_id="b1", h_r=0.0),
        network.Edge("dry", "n00", "n01", 60.0, 1.0, kind=network.ROAD),
    ]
    bridges = [
        network.BridgeRecord("b1", 5.0, 12.0, 0, 0),
        network.BridgeRecord("b1", 5.0, 12.0, 0, 0),
        network.BridgeRecord("heavy", 5.0, 99.0, 0, 0),
        network.BridgeRecord("orphan", 5.0, 12.0, 0, 0),
    ]
    with pytest.raises(ValidationError) as err:
        network.build_graph(nodes, edges, bridges)
    text = "\n".join(err.value.errors)
    for fragment in (
        "duplicate node id n00",
        "duplicate edge id dup",
        "self-loop",
        "unknown endpoint node zz",
        "length must be finite and > 0",
        "speed must be finite and > 0",
        "unknown kind 'tunnel'",
        "bridge edge without bridge_id",
        "unknown bridge nope",
        "road edge carries bridge_id b1",
        "needs a finite lowest elevation",
        "duplicate bridge id b1",
        "mass 99.0 ton/m outside supported range",
        "orphan: no edge references it",
    ):
        assert fragment in text, fragment
    assert len(err.value.errors) >= 14


def test_mass_domain_boundaries():
    nodes = mk_nodes([(0, 0), (60, 0)])
    mk = lambda mass: network.build_graph(
        nodes,
        [network.Edge("e", "n00", "n01", 60.0, 1.0, kind=network.BRIDGE, bridge_id="b")],
        [network.BridgeRecord("b", 5.0, mass, 30.0, 0.0)],
    )
    assert mk(35.0).bridges["b"].mass_ton_per_m == 35.0
    for mass in (0.0, -3.0, 35.1):
        with pytest.raises(ValidationError):
            mk(mass)


def test_road_graph_takes_plain_list_columns():
    columns = (["b", "a"], [0.0, 1.0], [0.0, 0.0], ["e"], [0], [1], [60.0], [1.0], [0.0], ["road"], [None], [])
    graph = network.RoadGraph(*columns)
    assert graph.node_ids == ("a", "b") and graph.node_x.tolist() == [1.0, 0.0]
    assert graph.edges["e"] == network.Edge("e", "b", "a", 60.0, 1.0, network.ROAD, h_r=0.0)
    lone = network.RoadGraph(["a"], [0.0], [0.0], [], [], [], [], [], [], [], [], [])
    assert lone.component_count == 1 and lone.edge_ids == ()


def random_multigraph(rng):
    """A RoadGraph on up to 30 nodes with isolated nodes, parallel edges (some
    reversed) and many tied or near-tied minutes."""
    n = int(rng.integers(1, 31))
    u, v = rng.integers(0, n, size=(2, int(rng.integers(0, 3 * n + 1))))
    u, v = u[u != v], v[u != v]
    twins = rng.integers(0, u.size, size=int(rng.integers(0, 4))) if u.size else np.zeros(0, dtype=np.int64)
    u, v = np.r_[u, v[twins]], np.r_[v, u[twins]]
    tied = rng.random(u.size) < 0.7
    length = np.where(tied, rng.choice([70.0, 100.0, 200.0, 300.0], u.size), rng.uniform(1.0, 900.0, u.size))
    speed = rng.choice([3.0, 7.0, 10.0], u.size)
    ids = [f"n{i:02d}" for i in range(n)]
    return network.RoadGraph(ids, rng.uniform(0, 1e4, n), rng.uniform(0, 1e4, n), [f"e{k:03d}" for k in range(u.size)],
                             u, v, length, speed, np.zeros(u.size), [network.ROAD] * u.size, [None] * u.size, [])


def test_dijkstra_and_components_match_scipy_bit_for_bit():
    rng = np.random.default_rng(2024)
    at_limit = 0
    for trial in range(300):
        graph = random_multigraph(rng)
        n = len(graph.node_ids)
        want = connected_components(scipy_adjacency(graph, np.zeros(len(graph.edge_ids), dtype=bool)), directed=False)
        labels = network._components(n, graph._edge_u, graph._edge_v)
        assert labels.tolist() == want[1].tolist() and graph.component_count == want[0]
        closed = rng.random(len(graph.edge_ids)) < rng.choice([0.0, 0.3])
        sources = rng.permutation(n)[: int(rng.integers(1, n + 1))]  # distinct and unsorted
        unlimited = scipy_dijkstra(scipy_adjacency(graph, closed), directed=False, indices=sources)
        reached = unlimited[np.isfinite(unlimited)]
        for limit in (np.inf, float(rng.uniform(0.0, 5.0)), float(rng.choice(reached))):
            at_limit += int(np.sum(unlimited == limit))
            for min_only in (False, True):
                got = network.dijkstra(graph._adjacency(closed), indices=sources, limit=limit, min_only=min_only)
                oracle = scipy_dijkstra(scipy_adjacency(graph, closed), directed=False, indices=sources,
                                        limit=limit, min_only=min_only)
                assert got.shape == oracle.shape and got.tobytes() == oracle.tobytes()
    assert at_limit > 300


def test_component_count():
    nodes = mk_nodes([(0, 0), (60, 0), (500, 500), (560, 500)])
    edges = [road("e0", "n00", "n01", 60.0), road("e1", "n02", "n03", 60.0)]
    graph = network.build_graph(nodes, edges, [])
    assert graph.component_count == 2
    assert line_graph(5).component_count == 1


def test_nearest_nodes_tie_breaks_to_lowest_id():
    graph = line_graph(3)  # nodes at x = 0, 60, 120
    idx = network.snap_sites(graph, [access.SupplySite("s", 30.0, 0.0, 1.0)])  # equidistant n00 / n01
    assert graph.node_ids[idx[0]] == "n00"
    assert network.snap_sites(graph, []).dtype == np.int64 and network.snap_sites(graph, []).shape == (0,)


def test_road_and_bridge_sites():
    nodes = mk_nodes([(0, 0), (60, 0), (120, 0)])
    edges = [
        network.Edge("br", "n01", "n02", 60.0, 1.0, kind=network.BRIDGE, bridge_id="b"),
        network.Edge("ar", "n00", "n01", 60.0, 1.0, kind=network.BRIDGE, bridge_id="a"),
        road("rd", "n00", "n01", 60.0, h_r=1.25),
        road("rc", "n01", "n02", 60.0, h_r=-0.5),
    ]
    bridges = [network.BridgeRecord("b", 7.0, 12.0, 90.0, 0.0), network.BridgeRecord("a", 6.0, 12.0, 30.0, 0.0)]
    graph = network.build_graph(nodes, edges, bridges)
    assert graph.bridge_ids == ("a", "b")
    assert graph.road_ids == ("rc", "rd")
    assert graph.bridge_sites.tolist() == [[6.0, 30.0, 0.0], [7.0, 90.0, 0.0]]
    assert graph.road_sites.tolist() == [[-0.5, 90.0, 0.0], [1.25, 30.0, 0.0]]
    for sites in (graph.bridge_sites, graph.road_sites):
        assert not sites.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sites[0, 0] = 99.0
    assert graph.bridge_sites[0, 0] == 6.0 and graph.road_sites[0, 0] == -0.5
    assert graph.edge_ids == ("ar", "br", "rc", "rd") and graph.bridge_rows.tolist() == [0, 1, -1, -1]
    bare = line_graph(2)
    assert bare.bridge_ids == () and bare.bridge_sites.shape == (0, 3) and not bare.bridge_sites.flags.writeable


def spanned_graph():
    """Two-span bridge crossing plus a dry detour road."""
    nodes = mk_nodes([(0, 0), (60, 0), (120, 0), (0, 60), (120, 60)])
    edges = [
        network.Edge("s1", "n00", "n01", 60.0, 1.0, kind=network.BRIDGE, bridge_id="b"),
        network.Edge("s2", "n01", "n02", 60.0, 1.0, kind=network.BRIDGE, bridge_id="b"),
        road("r1", "n00", "n03", 60.0, h_r=2.0),
        road("r2", "n03", "n04", 120.0, h_r=0.2),
        road("r3", "n04", "n02", 60.0, h_r=2.0),
    ]
    graph = network.build_graph(nodes, edges, [network.BridgeRecord("b", 5.0, 12.0, 60.0, 0.0)])
    field = hazard.SurgeField([0.0], [0.0], [1.0], [0.5])  # uniform modest surge
    exposures = hazard.evaluate_exposures(field, graph.bridge_sites, graph.road_sites)
    return graph, exposures


def test_closure_mask_horizons_and_provenance():
    graph, exposures = spanned_graph()
    thresholds = hazard.ExposureThresholds()
    # surge 1.0 over r2 (h_r 0.2) floods it; bridge deck at 5.0 stays clear
    assert graph.road_ids == ("r1", "r2", "r3")
    assert exposures.road_depth.tolist() == pytest.approx([-1.0, 0.8, -1.0])
    assert exposures.z_c.tolist() == pytest.approx([4.0])

    intact = {"b": False}
    failed = {"b": True}
    assert network.closure_mask(graph, exposures, thresholds, intact, "long").provenance == {}
    short = network.closure_mask(graph, exposures, thresholds, intact, "short")
    assert short.provenance == {"r2": network.INUNDATION}
    long_failed = network.closure_mask(graph, exposures, thresholds, failed, "long")
    assert long_failed.provenance == {"s1": network.STRUCTURAL, "s2": network.STRUCTURAL}
    short_failed = network.closure_mask(graph, exposures, thresholds, failed, "short")
    assert list(short_failed.provenance.items()) == [
        ("s1", network.STRUCTURAL),
        ("s2", network.STRUCTURAL),
        ("r2", network.INUNDATION),
    ]


def test_structural_label_wins_over_inundation():
    graph, _ = spanned_graph()
    # drown the bridge deck so inundation would also close it
    field = hazard.SurgeField([0.0], [0.0], [6.0], [0.5])
    exposures = hazard.evaluate_exposures(field, graph.bridge_sites, graph.road_sites)
    thresholds = hazard.ExposureThresholds()
    mask = network.closure_mask(graph, exposures, thresholds, {"b": True}, "short")
    assert mask.provenance["s1"] == network.STRUCTURAL
    mask = network.closure_mask(graph, exposures, thresholds, {"b": False}, "short")
    assert mask.provenance["s1"] == network.INUNDATION


def test_short_mask_is_union_of_structural_and_inundation():
    graph, exposures = spanned_graph()
    thresholds = hazard.ExposureThresholds()
    for draw in ({"b": False}, {"b": True}):
        short = network.closure_mask(graph, exposures, thresholds, draw, "short")
        long = network.closure_mask(graph, exposures, thresholds, draw, "long")
        flood_only = network.closure_mask(graph, exposures, thresholds, {"b": False}, "short")
        assert set(short.provenance) == set(long.provenance) | set(flood_only.provenance)


def test_closure_mask_input_errors():
    graph, exposures = spanned_graph()
    thresholds = hazard.ExposureThresholds()
    with pytest.raises(InvalidInputError, match="unknown horizon"):
        network.closure_mask(graph, exposures, thresholds, {"b": False}, "decade")
    with pytest.raises(InvalidInputError, match="missing bridge"):
        network.closure_mask(graph, exposures, thresholds, {}, "short")
    with pytest.raises(InvalidInputError, match="unknown bridge"):
        network.closure_mask(graph, exposures, thresholds, {"b": False, "zz": True}, "short")
    short_bridges = hazard.ExposureSet(exposures.z_c[:0], exposures.h_max[:0], exposures.road_depth)
    long_roads = hazard.ExposureSet(exposures.z_c, exposures.h_max, np.append(exposures.road_depth, 0.0))
    for wrong, shapes in ((short_bridges, "((0,), (3,))"), (long_roads, "((1,), (4,))")):
        with pytest.raises(InvalidInputError, match="one z_c per bridge and one depth per road") as err:
            network.closure_mask(graph, wrong, thresholds, {"b": False}, "long")
        assert str(err.value).endswith(f"got shapes {shapes}")


def random_bridged_graph(rng):
    """Random multigraph with roads and bridges of one to three edges each, exposures for its sites, and
    the bridge id each input edge names (None on a road).

    Edge ids are a shuffled numbering, so a bridge's edges sort apart from each other and in another
    order than the bridge ids do."""
    n = int(rng.integers(3, 10))
    nodes = mk_nodes(rng.uniform(0.0, 1000.0, size=(n, 2)))
    spans = rng.integers(1, 4, size=int(rng.integers(0, 6)))
    owners = [f"b{k}" for k in rng.permutation(spans.size)]  # bridge ids in shuffled order too
    kinds = [owners[k] for k in range(spans.size) for _ in range(spans[k])] + [None] * int(rng.integers(1, 8))
    edges = []
    for name, bridge_id in zip(rng.permutation(len(kinds)).tolist(), kinds):
        u, v = (nodes[i].node_id for i in rng.choice(n, size=2, replace=False))
        if bridge_id is None:
            edges.append(road(f"e{name:02d}", u, v, 60.0, h_r=float(rng.uniform(0.0, 2.0))))
        else:
            edges.append(network.Edge(f"e{name:02d}", u, v, 60.0, 1.0, kind=network.BRIDGE, bridge_id=bridge_id))
    bridges = [network.BridgeRecord(bid, 5.0, 10.0, 0.0, 0.0) for bid in owners]
    graph = network.build_graph(nodes, edges, bridges)
    z_c = rng.choice([-2.0, -0.6, -0.5, 1.0], size=len(graph.bridge_ids))
    depth = rng.choice([-1.0, 0.5, 0.6, 2.0], size=len(graph.road_ids))
    return graph, hazard.ExposureSet(z_c, np.zeros_like(z_c), depth), {e.edge_id: e.bridge_id for e in edges}


def scalar_closure_reference(graph, bridge_of, exposures, thresholds, draw, horizon):
    """closure_mask's provenance from each bridge's and each road's own scalar rule, with a bridge's edges
    found in the input edges' bridge ids (bridge_of): structural, then inundated bridge, then flooded road
    edges, each in edge id order."""
    structural, inundated, flooded = [], [], []
    for row, bid in enumerate(graph.bridge_ids):
        spans = [eid for eid, owner in bridge_of.items() if owner == bid]
        if draw[bid]:
            structural += spans
        elif horizon == network.SHORT_TERM and exposures.z_c[row] <= thresholds.bridge_close_zc:
            inundated += spans
    for row, eid in enumerate(graph.road_ids):
        if horizon == network.SHORT_TERM and exposures.road_depth[row] >= thresholds.road_close_din:
            flooded.append(eid)
    return [*((eid, network.STRUCTURAL) for eid in sorted(structural)),
            *((eid, network.INUNDATION) for eid in sorted(inundated) + sorted(flooded))]


def test_closure_mask_matches_per_bridge_scalar_rules_on_random_graphs():
    rng = np.random.default_rng(2024)
    thresholds = hazard.ExposureThresholds()
    orders_differ = multi_edge = 0
    for _ in range(150):
        graph, exposures, bridge_of = random_bridged_graph(rng)
        first_edge = [min(eid for eid, owner in bridge_of.items() if owner == bid) for bid in graph.bridge_ids]
        orders_differ += first_edge != sorted(first_edge)
        multi_edge += any(graph.bridge_rows.tolist().count(row) > 1 for row in range(len(graph.bridge_ids)))
        for horizon in network.HORIZONS:
            draw = {bid: bool(rng.random() < 0.4) for bid in graph.bridge_ids}
            got = network.closure_mask(graph, exposures, thresholds, draw, horizon).provenance
            assert list(got.items()) == scalar_closure_reference(graph, bridge_of, exposures, thresholds, draw, horizon)
    assert orders_differ > 30 and multi_edge > 30  # the cases the edge arrays must get right do occur


def test_edge_flags_finds_known_ids_and_skips_unknown_ones():
    rng = np.random.default_rng(5)
    for _ in range(50):
        graph, _, _ = random_bridged_graph(rng)
        known = [graph.edge_ids[i] for i in rng.integers(0, len(graph.edge_ids), size=int(rng.integers(0, 8)))]
        # Unknown ids that sort before, between and after the graph's ids, and known ids named twice.
        names = known + known[:2] + ["a", "e", "e00x", f"{graph.edge_ids[-1]}x", "z", ""]
        rng.shuffle(names)
        want = np.isin(np.array(graph.edge_ids), known)
        for given in (names, tuple(names), (name for name in names)):
            assert np.array_equal(graph.edge_flags(given), want)
    assert not line_graph(2).edge_flags(["e00x", "a"]).any()
    assert network.build_graph(mk_nodes([(0, 0)]), [], []).edge_flags(["e00"]).shape == (0,)


def _nearest_surge(field, x, y):
    """h_st of the field's nearest sample to (x, y), by a scan of every sample; no surge outside coverage."""
    d2 = (field.x - x) ** 2 + (field.y - y) ** 2
    i = int(np.argmin(d2))
    if field.coverage_radius_m is not None and d2[i] > field.coverage_radius_m**2:
        return hazard.NO_SURGE[0]
    return float(field.h_st[i])


def test_storm2_short_provenance_matches_scalar_rules_per_site(storm2_bundle):
    graph, config = storm2_bundle.graph, storm2_bundle.config
    exposures = hazard.evaluate_exposures(config.surge, graph.bridge_sites, graph.road_sites)
    bridge_ids = sorted(graph.bridges)
    nodes = {node.node_id: node for node in node_records(graph)}
    spans: dict[str, list[str]] = {}  # a bridge's edges, from the Edge records
    for eid, edge in graph.edges.items():
        spans.setdefault(edge.bridge_id, []).append(eid)
    draws = ({bid: False for bid in bridge_ids}, {bid: i % 3 == 0 for i, bid in enumerate(bridge_ids)})
    for draw in draws:
        want: dict[str, str] = {}
        for bid in bridge_ids:
            if draw[bid]:
                want.update((eid, network.STRUCTURAL) for eid in spans[bid])
        for bid in bridge_ids:
            rec = graph.bridges[bid]
            z_c = hazard.relative_surge_elevation(rec.deck_elevation_m, _nearest_surge(config.surge, rec.x, rec.y))
            if hazard.bridge_inundation_closed(z_c, config.thresholds):
                for eid in spans[bid]:
                    want.setdefault(eid, network.INUNDATION)
        for eid in sorted(graph.edges):
            edge = graph.edges[eid]
            if edge.kind != network.ROAD:
                continue
            u, v = nodes[edge.u], nodes[edge.v]
            h_st = _nearest_surge(config.surge, (u.x + v.x) / 2.0, (u.y + v.y) / 2.0)
            if hazard.road_inundation_closed(hazard.inundation_depth(edge.h_r, h_st), config.thresholds):
                want.setdefault(eid, network.INUNDATION)
        got = network.closure_mask(graph, exposures, config.thresholds, draw, network.SHORT_TERM).provenance
        assert list(got.items()) == list(want.items())
    assert list(want.values()).count(network.INUNDATION) > 1000  # storm 2 floods many roads


def test_parallel_edges_use_the_fastest_open_one():
    nodes = mk_nodes([(0, 0), (600, 0)])
    edges = [
        road("fast", "n00", "n01", 600.0, speed=10.0),  # 1 minute
        road("slow", "n00", "n01", 600.0, speed=1.0),   # 10 minutes
    ]
    graph = network.build_graph(nodes, edges, [])
    demands = [access.DemandSite("d", 0.0, 0.0, 1.0)]
    supplies = [access.SupplySite("s", 600.0, 0.0, 1.0)]
    open_table = network.travel_time_table(graph, None, demands, supplies, 50.0)
    assert open_table.get("d", "s") == 1.0
    masked = network.travel_time_table(
        graph, network.ClosureMask({"fast": network.INUNDATION}), demands, supplies, 50.0
    )
    assert masked.get("d", "s") == 10.0
    both = network.ClosureMask({"fast": network.INUNDATION, "slow": network.INUNDATION})
    assert network.travel_time_table(graph, both, demands, supplies, 50.0).get("d", "s") is None


def test_catchment_boundary_inclusive():
    graph = line_graph(3)  # two 1-minute hops
    demands = [access.DemandSite("d", 0.0, 0.0, 1.0)]
    supplies = [access.SupplySite("s", 120.0, 0.0, 1.0)]
    at_limit = network.travel_time_table(graph, None, demands, supplies, d0_minutes=2.0)
    assert at_limit.get("d", "s") == 2.0
    below = network.travel_time_table(graph, None, demands, supplies, d0_minutes=1.999)
    assert below.get("d", "s") is None
    assert below.minutes.tolist() == [[np.inf]]


def test_matches_floyd_warshall_oracle():
    rng = np.random.default_rng(99)
    for trial in range(25):
        graph, demands, supplies, d_idx, s_idx = random_sited_graph(rng)
        closed = frozenset(
            eid for eid in graph.edge_ids if rng.random() < (0.0 if trial % 3 == 0 else 0.25)
        )
        mask = network.ClosureMask({eid: network.STRUCTURAL for eid in closed})
        d0 = float(rng.integers(5, 80))
        table = network.travel_time_table(graph, mask, demands, supplies, d0)
        oracle = floyd_warshall_minutes(graph, closed)
        for k, d in enumerate(demands):
            for m, s in enumerate(supplies):
                want = oracle[d_idx[k], s_idx[m]]
                got = table.get(d.demand_id, s.supply_id)
                if want <= d0:
                    assert got == want  # integer minutes, exact equality
                else:
                    assert got is None


def test_travel_table_deterministic_under_input_order():
    rng = np.random.default_rng(7)
    graph, demands, supplies, _, _ = random_sited_graph(rng)
    nodes = node_records(graph)
    edges = list(graph.edges.values())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    shuffled = network.build_graph(nodes, edges, [])
    a = network.travel_time_table(graph, None, demands, supplies, 30.0)
    b = network.travel_time_table(shuffled, None, demands, supplies, 30.0)
    assert same_table(a, b)


def test_travel_table_validation():
    graph = line_graph(3)
    demands = [access.DemandSite("d", 0.0, 0.0, 1.0)]
    supplies = [access.SupplySite("s", 120.0, 0.0, 1.0)]
    with pytest.raises(InvalidInputError, match="d0"):
        network.travel_time_table(graph, None, demands, supplies, 0.0)
    with pytest.raises(InvalidInputError, match="duplicate demand"):
        network.travel_time_table(graph, None, demands * 2, supplies, 10.0)
    empty = network.travel_time_table(graph, None, [], supplies, 10.0)
    assert empty.minutes.shape == (0, 1) and empty.demand_ids == ()


def test_table_rejects_out_of_range_minutes():
    for bad in (51.0, -0.1, np.nan, -np.inf):
        with pytest.raises(InvalidInputError, match="lie in"):
            network.TravelTimeTable(("d",), ("s", "t"), np.array([[1.0, bad]]), 50.0)
    for shape in ((1,), (2, 1), (1, 2, 1)):
        with pytest.raises(InvalidInputError, match="one row per demand"):
            network.TravelTimeTable(("d",), ("s",), np.ones(shape), 50.0)
    with pytest.raises(InvalidInputError, match="d0"):
        network.TravelTimeTable(("d",), ("s",), np.ones((1, 1)), np.inf)
    table = network.TravelTimeTable(("d",), ("s", "t"), np.array([[50.0, np.inf]]), 50.0)
    assert table.get("d", "s") == 50.0 and table.get("d", "t") is None
    assert table.get("e", "s") is None and table.get("d", "u") is None


def chained_sited_graph(rng):
    """random_sited_graph with series chains added: through, looped back and
    dangling, with a demand or supply site on some chain interiors."""
    graph, demands, supplies, _, _ = random_sited_graph(rng)
    nodes = node_records(graph)
    edges = list(graph.edges.values())
    demands, supplies = list(demands), list(supplies)
    for c in range(int(rng.integers(1, 6))):
        start = graph.node_ids[int(rng.integers(0, len(graph.node_ids)))]
        shape = rng.choice(["through", "loop", "dangling"])
        prev = start
        for j in range(int(rng.integers(1, 5))):
            node = network.Node(f"c{c}p{j}", 20_000.0 + 100.0 * c, 100.0 * j)
            nodes.append(node)
            edges.append(road(f"c{c}e{j}", prev, node.node_id, float(rng.uniform(30.0, 900.0))))
            prev = node.node_id
            if rng.random() < 0.25:
                demands.append(access.DemandSite(f"cd{c}{j}", node.x, node.y, float(rng.uniform(1, 9))))
            elif rng.random() < 0.2:
                supplies.append(access.SupplySite(f"cs{c}{j}", node.x, node.y, float(rng.uniform(1, 9))))
        end = {"through": graph.node_ids[int(rng.integers(0, len(graph.node_ids)))], "loop": start}.get(shape)
        if end is not None and end != prev:
            edges.append(road(f"c{c}end", prev, end, float(rng.uniform(30.0, 900.0))))
    return network.build_graph(nodes, edges, []), demands, supplies


def test_closure_units_are_maximal_series_chains():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        graph, demands, supplies = chained_sited_graph(rng)
        sited = np.concatenate([network.snap_sites(graph, demands), network.snap_sites(graph, supplies)])
        units = dict(zip(graph.edge_ids, network.closure_units(graph, sited).tolist()))
        incident: dict[str, list[str]] = {nid: [] for nid in graph.node_ids}
        for eid in graph.edge_ids:
            incident[graph.edges[eid].u].append(eid)
            incident[graph.edges[eid].v].append(eid)
        sited_ids = {graph.node_ids[i] for i in sited}
        interior = {nid for nid, eids in incident.items() if len(eids) == 2 and nid not in sited_ids}
        for nid in interior:  # a unit never stops at an interior node
            assert units[incident[nid][0]] == units[incident[nid][1]]
        ends: dict[int, int] = {}
        for nid, eids in incident.items():
            if nid not in interior:
                for eid in eids:
                    ends[units[eid]] = ends.get(units[eid], 0) + 1
        # nor crosses a sited or junction node: at most its two ends touch one
        assert max(ends.values()) <= 2
        # every interior node merges exactly two units into one, so none is merged past it
        assert len(set(units.values())) == len(graph.edge_ids) - len(interior)


def test_canonical_unit_closure_scores_like_raw_closure():
    rng = np.random.default_rng(77)
    for _ in range(40):
        graph, demands, supplies = chained_sited_graph(rng)
        sited = np.concatenate([network.snap_sites(graph, demands), network.snap_sites(graph, supplies)])
        units = dict(zip(graph.edge_ids, network.closure_units(graph, sited).tolist()))
        d0 = float(rng.integers(5, 80))
        for rate in (0.05, 0.2, 0.5):
            raw = {eid for eid in graph.edge_ids if rng.random() < rate}
            touched = {units[eid] for eid in raw}
            canonical = {eid for eid in graph.edge_ids if units[eid] in touched}
            tables = [
                network.travel_time_table(
                    graph, network.ClosureMask({eid: network.STRUCTURAL for eid in closed}), demands, supplies, d0
                )
                for closed in (raw, canonical)
            ]
            assert same_table(*tables)
            raw_scores, canonical_scores = (access.score_vector(t, supplies, demands) for t in tables)
            assert np.array_equal(raw_scores, canonical_scores)


def test_reachable_matches_table_support_and_floyd_warshall(monkeypatch):
    rng = np.random.default_rng(5150)
    transposed = at_limit = 0
    for trial in range(60):
        graph, demands, supplies, d_idx, s_idx = random_sited_graph(rng)
        if trial % 2:  # swap roles so both search sides are covered
            demands, supplies = (
                [access.DemandSite(f"d{k}", s.x, s.y, 1.0) for k, s in enumerate(supplies)],
                [access.SupplySite(f"s{k}", d.x, d.y, 1.0) for k, d in enumerate(demands)],
            )
            d_idx, s_idx = s_idx, d_idx
        closed_ids = {eid for eid in graph.edge_ids if rng.random() < (0.0 if trial % 3 == 0 else 0.25)}
        d0 = float(rng.integers(5, 80))
        sites = np.array(d_idx), np.array(s_idx)
        reach = network.reachable(graph, graph.edge_flags(closed_ids), *sites, d0)
        table = network.travel_time_table(
            graph, network.ClosureMask({eid: network.STRUCTURAL for eid in closed_ids}), demands, supplies, d0
        )
        support = table.minutes <= d0
        oracle = floyd_warshall_minutes(graph, frozenset(closed_ids))[np.ix_(d_idx, s_idx)]
        assert reach.dtype == bool and reach.shape == (len(demands), len(supplies))
        assert np.array_equal(reach, support)
        # Searching a few sources at a time gives the same minutes.
        monkeypatch.setattr(network, "_SOURCE_BLOCK", 3)
        assert np.array_equal(network.reachable(graph, graph.edge_flags(closed_ids), *sites, d0), reach)
        blocked = network.travel_time_table(
            graph, network.ClosureMask({eid: network.STRUCTURAL for eid in closed_ids}), demands, supplies, d0
        )
        assert blocked.minutes.tobytes() == table.minutes.tobytes()
        monkeypatch.undo()
        assert np.array_equal(reach, oracle <= d0)
        transposed += len(demands) > len(supplies)
        at_limit += int(np.sum(oracle == d0))
    assert transposed > 0 and at_limit > 0


def test_storm2_searches_at_most_a_block_of_sources(storm2_bundle, monkeypatch):
    # Only the min_only searches take every source at once; the others hold a block of all-node minutes.
    sizes, search = [], network.dijkstra

    def recording(arcs, *, indices, limit, min_only=False):
        if not min_only:
            sizes.append(len(indices))
        return search(arcs, indices=indices, limit=limit, min_only=min_only)

    monkeypatch.setattr(network, "dijkstra", recording)
    bundle = storm2_bundle
    simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    assert max(sizes) == network._SOURCE_BLOCK == 64


def test_reachable_boundary_and_empty_sides(monkeypatch):
    graph = line_graph(3)  # two 1-minute hops
    ends = np.array([0]), np.array([2])
    assert network.reachable(graph, None, *ends, 2.0).tolist() == [[True]]
    assert network.reachable(graph, None, *ends, 1.999).tolist() == [[False]]
    closed = graph.edge_flags(["e01"])
    assert network.reachable(graph, closed, *ends, 50.0).tolist() == [[False]]

    def no_search(*args, **kwargs):
        raise AssertionError("no Dijkstra without sites on both sides")

    monkeypatch.setattr(network, "dijkstra", no_search)
    none = np.array([], dtype=np.int64)
    assert network.reachable(graph, None, np.array([0, 1]), none, 5.0).shape == (2, 0)
    assert network.reachable(graph, None, none, np.array([1]), 5.0).shape == (0, 1)


def test_closing_dead_edges_leaves_reachability_unchanged():
    rng = np.random.default_rng(8080)
    dead_seen = 0
    for trial in range(60):
        graph, demands, supplies, d_idx, s_idx = random_sited_graph(rng)
        d_nodes, s_nodes = np.array(d_idx), np.array(s_idx)
        base = rng.random(len(graph.edge_ids)) < rng.choice([0.0, 0.1, 0.3])
        d0 = float(rng.integers(3, 60))
        live = network.live_edges(graph, base, d_nodes, s_nodes, d0)
        dead = ~live & ~base
        dead_seen += int(dead.sum())
        want = network.reachable(graph, base, d_nodes, s_nodes, d0)
        for _ in range(4):
            closed = base | (dead & (rng.random(dead.size) < rng.choice([0.3, 1.0])))
            assert np.array_equal(network.reachable(graph, closed, d_nodes, s_nodes, d0), want)
        # any live edge whose closure changes reachability really is live
        for e in np.flatnonzero(~base):
            closed = base.copy()
            closed[e] = True
            if not np.array_equal(network.reachable(graph, closed, d_nodes, s_nodes, d0), want):
                assert live[e]
        # the multi-source search is the row minimum of scipy's per-source one
        sources = np.unique(np.concatenate([d_nodes, s_nodes]))
        per_source = scipy_dijkstra(scipy_adjacency(graph, base), directed=False, indices=sources, limit=d0)
        multi = network.dijkstra(graph._adjacency(base), indices=sources, limit=d0, min_only=True)
        assert np.array_equal(multi, per_source.min(axis=0))
    assert dead_seen > 0


def portal_graph(rng):
    """chained_sited_graph plus parallel copies of a few edges, as
    (graph, snapped demand nodes, snapped supply nodes, closure units)."""
    graph, demands, supplies = chained_sited_graph(rng)
    edges = list(graph.edges.values())
    for k in range(int(rng.integers(1, 4))):
        twin = edges[int(rng.integers(0, len(edges)))]
        edges.append(road(f"p{k}", twin.u, twin.v, float(rng.uniform(30.0, 900.0))))
    graph = network.build_graph(node_records(graph), edges, [])
    d_nodes, s_nodes = network.snap_sites(graph, demands), network.snap_sites(graph, supplies)
    return graph, d_nodes, s_nodes, network.closure_units(graph, np.concatenate([d_nodes, s_nodes]))


def unit_kind(graph, units, unit):
    """loop (no end nodes), dangling (an end node of degree 1), parallel (a
    single edge with a twin between the same nodes) or chain."""
    eids = [eid for eid, u in zip(graph.edge_ids, units) if u == unit]
    touches: dict[str, int] = {}
    degree: dict[str, int] = {}
    for eid in graph.edge_ids:
        for nid in (graph.edges[eid].u, graph.edges[eid].v):
            degree[nid] = degree.get(nid, 0) + 1
            touches[nid] = touches.get(nid, 0) + (eid in eids)
    ends = [nid for nid, k in touches.items() if k % 2]
    if not ends:
        return "loop"
    if any(degree[nid] == 1 for nid in ends):
        return "dangling"
    pair = {graph.edges[eids[0]].u, graph.edges[eids[0]].v}
    twins = [eid for eid in graph.edge_ids if {graph.edges[eid].u, graph.edges[eid].v} == pair]
    return "parallel" if len(eids) == 1 and len(twins) > 1 else "chain"


def test_portals_matches_reachable_for_every_toggled_subset():
    rng = np.random.default_rng(31337)
    kinds = {"loop": 0, "dangling": 0, "parallel": 0, "chain": 0}
    transposed = changed = 0
    for trial in range(100):
        graph, d_nodes, s_nodes, units = portal_graph(rng)
        base = rng.random(len(graph.edge_ids)) < rng.choice([0.0, 0.1, 0.3])
        by_kind: dict[str, list[int]] = {}
        for unit in np.unique(units).tolist():
            by_kind.setdefault(unit_kind(graph, units, unit), []).append(unit)
        toggled = set()
        for _ in range(int(rng.integers(1, 5))):  # favour the rare kinds
            pool = by_kind[rng.choice(sorted(by_kind))]
            toggled.add(pool[int(rng.integers(0, len(pool)))])
        for unit in toggled:
            kinds[unit_kind(graph, units, unit)] += 1
        long_units = np.flatnonzero(np.bincount(units) >= 3)
        if long_units.size and rng.random() < 0.5:  # an edge closed in the base keeps its unit closed
            unit = int(rng.choice(long_units))
            toggled.add(unit)
            base[np.flatnonzero(units == unit)[1]] = True
        d0 = float(rng.uniform(3.0, 60.0))
        portals = network.PortalDistances(graph, base, units, toggled, d_nodes, s_nodes, d0)
        on_h = network.reachable(graph, base | np.isin(units, sorted(toggled)), d_nodes, s_nodes, d0)
        for size in range(len(toggled) + 1):
            for subset in itertools.combinations(sorted(toggled), size):
                want = network.reachable(graph, base | np.isin(units, subset), d_nodes, s_nodes, d0)
                got = portals.reachable(set(subset))
                assert got.dtype == bool and np.array_equal(got, want)
                changed += not np.array_equal(want, on_h)
        transposed += d_nodes.size > s_nodes.size
    assert min(kinds.values()) > 0 and transposed > 0 and changed > 0


def test_portal_legs_keep_every_minimum_that_can_decide():
    # The pruning's premise, then the kept legs against a dense min-plus over
    # every portal. Half the trials put d0 one ulp below a contested pair's
    # all-open minutes, so a leg lands inside the margin.
    rng = np.random.default_rng(4242)
    inside_margin = dropped = 0
    for trial in range(80):
        graph, d_nodes, s_nodes, units = portal_graph(rng)
        base = rng.random(len(graph.edge_ids)) < rng.choice([0.0, 0.1])
        unit_ids = np.unique(units)
        toggled = sorted(rng.choice(unit_ids, size=min(unit_ids.size, int(rng.integers(1, 5))), replace=False).tolist())
        closed_h = base | np.isin(units, toggled)
        # Portals: the nodes an odd number of an openable toggled unit's edges touch, in node order.
        portal_nodes = set()
        for unit in toggled:
            if not base[units == unit].any():
                ends = np.r_[graph._edge_u[units == unit], graph._edge_v[units == unit]]
                portal_nodes.update(np.flatnonzero(np.bincount(ends) % 2).tolist())
        if not portal_nodes:
            continue
        h_graph = scipy_adjacency(graph, closed_h)
        to_supply = scipy_dijkstra(h_graph, directed=False, indices=sorted(portal_nodes))[:, s_nodes]

        d0 = float(rng.uniform(3.0, 60.0))
        portals = network.PortalDistances(graph, base, units, toggled, d_nodes, s_nodes, d0)
        if portals.rows.size and rng.random() < 0.5:
            all_open = portals._via_open(np.ones(portals.chain_units.size, dtype=bool))
            nearest = np.min(all_open[portals.rows] + to_supply[:, portals.cols].T, axis=1)
            d0 = float(np.nextafter(nearest[int(rng.integers(0, nearest.size))], 0.0))
            portals = network.PortalDistances(graph, base, units, toggled, d_nodes, s_nodes, d0)
        limit = d0 + portals.margin
        all_open = portals._via_open(np.ones(portals.chain_units.size, dtype=bool))
        on_h = network.reachable(graph, closed_h, d_nodes, s_nodes, d0)
        nearest = np.min(all_open[:, :, None] + to_supply[None], axis=1)
        contested = set(zip(*np.nonzero(~on_h & (nearest <= limit))))
        assert set(zip(portals.rows, portals.cols)) == contested
        for size in range(len(toggled) + 1):
            for subset in itertools.combinations(toggled, size):
                via = portals._via_open(np.isin(portals.chain_units, sorted(set(toggled) - set(subset))))
                assert np.all(via >= all_open)
                got = portals._minutes(via)
                want = np.min(via[portals.rows] + to_supply[:, portals.cols].T, axis=1, initial=np.inf)
                decisive = want <= limit
                assert got[decisive].tobytes() == want[decisive].tobytes()
                assert np.all(got[~decisive] > limit)
                inside_margin += np.count_nonzero(np.abs(want - d0) <= portals.margin)
                want_reach = network.reachable(graph, base | np.isin(units, subset), d_nodes, s_nodes, d0)
                assert np.array_equal(portals.reachable(set(subset)), want_reach)
        dropped += portals.rows.size * len(portal_nodes) - portals.flat.size
    assert inside_margin > 0 and dropped > 0


def margin_line():
    """n0 -a- n1 -b- n2 -c- n3 -d- n4 with spurs s1 and s2 that make n1 and n2
    junctions; c-d is one unit through the interior node n3. Dijkstra and the
    portal sum round a-b-c-d to either side of the returned d0."""
    minutes = {"a": 0.5, "b": 0.1, "c": 0.8, "d": 0.4}
    nodes = mk_nodes([(0, 0), (100, 0), (200, 0), (300, 0), (400, 0), (100, 100), (200, 100)])
    edges = [road(e, f"n{i:02d}", f"n{i + 1:02d}", 60.0 * m) for i, (e, m) in enumerate(minutes.items())]
    edges += [road("s1", "n01", "n05", 6000.0), road("s2", "n02", "n06", 6000.0)]
    graph = network.build_graph(nodes, edges, [])
    a, b, c, d = minutes.values()
    dijkstra_sum, portal_sum = ((a + b) + c) + d, (a + b) + (c + d)
    d0 = float(np.nextafter(dijkstra_sum, np.inf))
    assert dijkstra_sum < d0 < portal_sum  # the two groupings round to either side of d0
    return graph, network.closure_units(graph, np.array([0, 4])), d0, dijkstra_sum


def test_portals_falls_back_inside_the_margin(monkeypatch):
    # b is the toggled unit.
    graph, units, d0, dijkstra_sum = margin_line()
    d_nodes, s_nodes = np.array([0]), np.array([4])
    toggled = {int(units[graph.edge_ids.index("b")])}
    base = np.zeros(len(graph.edge_ids), dtype=bool)
    portals = network.PortalDistances(graph, base, units, toggled, d_nodes, s_nodes, d0)
    far = network.PortalDistances(graph, base, units, toggled, d_nodes, s_nodes, dijkstra_sum + 0.1)
    calls = []
    exact = network.reachable

    def spy(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(network, "reachable", spy)
    got = portals.reachable(set())
    assert len(calls) == 1
    assert got.tolist() == exact(graph, base, d_nodes, s_nodes, d0).tolist() == [[True]]
    assert portals.reachable(toggled).tolist() == [[False]]
    assert len(calls) == 1  # with b closed no pair is contested near d0
    assert far.reachable(set()).tolist() == [[True]]
    assert len(calls) == 1


def test_portals_fall_back_with_other_units_closed(monkeypatch):
    # b and the spur s1 are toggled; with s1 closed and b open the pair is still contested near d0, so the
    # fallback opens b alone and searches the base with s1 closed.
    graph, units, d0, _ = margin_line()
    d_nodes, s_nodes = np.array([0]), np.array([4])
    b, s1 = (int(units[graph.edge_ids.index(e)]) for e in ("b", "s1"))
    base = np.zeros(len(graph.edge_ids), dtype=bool)
    portals = network.PortalDistances(graph, base, units, [s1, b, s1], d_nodes, s_nodes, d0)
    assert portals.toggled.tolist() == sorted({b, s1}) and portals.toggled.dtype == np.int64
    calls = []
    exact = network.reachable

    def spy(graph, closed, *args):
        calls.append(closed.copy())
        return exact(graph, closed, *args)

    monkeypatch.setattr(network, "reachable", spy)
    assert portals.reachable({s1}).tolist() == [[True]]
    assert len(calls) == 1 and calls[0].tolist() == (units == s1).tolist()
    assert portals.reachable({b, s1}).tolist() == portals.reachable({b}).tolist() == [[False]]
    assert len(calls) == 1


def test_portals_with_no_unit_to_toggle():
    # No toggled unit, or only units the base already closes: every network is H, the base.
    graph, units, d0, _ = margin_line()
    d_nodes, s_nodes = np.array([0]), np.array([4])
    c = int(units[graph.edge_ids.index("c")])
    for base in (np.zeros(len(graph.edge_ids), dtype=bool), units == c):
        on_base = network.reachable(graph, base, d_nodes, s_nodes, d0)
        for toggled in (set(), [], {c} if base.any() else set()):
            portals = network.PortalDistances(graph, base, units, toggled, d_nodes, s_nodes, d0)
            assert portals.toggled.size == 0 and portals.toggled.dtype == np.int64
            assert np.array_equal(portals.closed, base)
            assert portals.reachable(set()).tolist() == on_base.tolist()


def test_isin_ids_matches_isin():
    rng = np.random.default_rng(11)
    values = rng.integers(0, 50, size=200)
    for ids in ([], [7], sorted(rng.choice(60, size=20, replace=False).tolist()), [3, 3, 70], np.arange(0)):
        got = network.isin_ids(values, ids)
        assert got.dtype == bool and got.tolist() == np.isin(values, np.asarray(ids, dtype=np.int64)).tolist()


def test_portals_search_past_d0_for_legs_summed_the_other_way():
    # n0 -0.3- n1 -0.2- n2 -0.1- n3 -(too short to register)- n4, with a spur at n3.
    # Dijkstra from the demand at n0 sums 0.3 + 0.2 + 0.1 = 0.6 = d0, but the
    # portal search from n3 sums the same leg as 0.1 + 0.2 + 0.3, one ulp above.
    nodes = mk_nodes([(0, 0), (100, 0), (200, 0), (300, 0), (400, 0), (300, 100)])
    lengths = (18.0, 12.0, 6.0, 3e-15)
    edges = [road(f"e{i}", f"n{i:02d}", f"n{i + 1:02d}", m) for i, m in enumerate(lengths)]
    graph = network.build_graph(nodes, edges + [road("spur", "n03", "n05", 6000.0)], [])
    e3 = graph.edges["e3"]
    d0 = ((0.3 + 0.2) + 0.1) + e3.length_m / e3.speed_mps / 60.0
    assert d0 == 0.6 < (0.1 + 0.2) + 0.3
    d_nodes, s_nodes = np.array([0]), np.array([4])
    units = network.closure_units(graph, np.array([0, 4]))
    base = np.zeros(len(graph.edge_ids), dtype=bool)
    toggled = {int(units[graph.edge_ids.index("e3")])}
    portals = network.PortalDistances(graph, base, units, toggled, d_nodes, s_nodes, d0)
    got = portals.reachable(set())
    assert got.tolist() == network.reachable(graph, base, d_nodes, s_nodes, d0).tolist() == [[True]]
