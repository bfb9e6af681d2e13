"""Road and bridge network: validation, closure masks, travel times.

The network is an undirected multigraph. Nodes are planar points, edges
carry an authoritative length and free-flow speed, and bridge edges point
at a bridge record that holds deck elevation and superstructure mass.
Travel times are free-flow minutes; anything beyond the catchment radius
d0 is treated as unreachable.

Shortest paths run on a compressed-sparse matrix via scipy's Dijkstra,
with closed edges given as a boolean per edge. Parallel edges between
the same node pair are collapsed to the fastest open one before routing,
because sparse construction would otherwise sum their weights. Binary
2SFCA needs only which pairs lie within d0 (reachable); the minutes are
kept only by travel_time_table. live_edges finds the edges that lie on
no within-d0 path, whose closure cannot change reachability. Networks
that differ only in which of a few closure units are open share the
searches of PortalDistances, through those units' end nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from . import hazard
from .errors import InvalidInputError, ValidationError

ROAD = "road"
BRIDGE = "bridge"
EDGE_KINDS = (ROAD, BRIDGE)

SHORT_TERM = "short"
LONG_TERM = "long"
HORIZONS = (SHORT_TERM, LONG_TERM)

# Closure provenance labels. Structural wins when both apply.
STRUCTURAL = "structural"
INUNDATION = "inundation"


@dataclass(frozen=True)
class Node:
    node_id: str
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    """One traversable segment. h_r is the lowest elevation of a road
    segment; bridge edges carry a bridge_id instead."""

    edge_id: str
    u: str
    v: str
    length_m: float
    speed_mps: float
    kind: str
    bridge_id: str | None = None
    h_r: float | None = None

    @property
    def minutes(self) -> float:
        return self.length_m / self.speed_mps / 60.0


@dataclass(frozen=True)
class BridgeRecord:
    """Deck elevation and mass per unit length for one bridge."""

    bridge_id: str
    deck_elevation_m: float
    mass_ton_per_m: float
    x: float
    y: float


class RoadGraph:
    """A validated network, immutable after construction.

    Construct through build_graph; the constructor assumes inputs have
    already passed validation.
    """

    def __init__(
        self,
        nodes: dict[str, Node],
        edges: dict[str, Edge],
        bridges: dict[str, BridgeRecord],
    ):
        self.nodes = nodes
        self.edges = edges
        self.bridges = bridges

        self.node_ids: tuple[str, ...] = tuple(sorted(nodes))
        self._node_pos = {nid: i for i, nid in enumerate(self.node_ids)}
        self._node_x = np.array([nodes[nid].x for nid in self.node_ids], dtype=float)
        self._node_y = np.array([nodes[nid].y for nid in self.node_ids], dtype=float)

        self.edge_ids: tuple[str, ...] = tuple(sorted(edges))
        self._edge_pos = {eid: i for i, eid in enumerate(self.edge_ids)}
        self._edge_u = np.array([self._node_pos[edges[eid].u] for eid in self.edge_ids], dtype=np.int64)
        self._edge_v = np.array([self._node_pos[edges[eid].v] for eid in self.edge_ids], dtype=np.int64)
        self._edge_minutes = np.array([edges[eid].minutes for eid in self.edge_ids], dtype=float)

        self._edges_by_bridge: dict[str, tuple[str, ...]] = {}
        for eid in self.edge_ids:
            edge = edges[eid]
            if edge.kind == BRIDGE and edge.bridge_id is not None:
                cur = self._edges_by_bridge.get(edge.bridge_id, ())
                self._edges_by_bridge[edge.bridge_id] = cur + (eid,)

        self.component_count = int(
            connected_components(self._adjacency(), directed=False, return_labels=False)
        )

    def _adjacency(self, closed: np.ndarray | None = None) -> csr_matrix:
        """Upper-triangle sparse minutes matrix without the closed edges
        (a boolean per edge, aligned with edge_ids; None closes none)."""
        n = len(self.node_ids)
        u, v, w = self._edge_u, self._edge_v, self._edge_minutes
        if closed is not None:
            u, v, w = u[~closed], v[~closed], w[~closed]
        key = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(key, kind="stable")
        key, w = key[order], w[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
        w_min = np.minimum.reduceat(w, starts) if key.size else w
        return csr_matrix((w_min, (key[starts] // n, key[starts] % n)), shape=(n, n))

    def edge_flags(self, edge_ids: Iterable[str]) -> np.ndarray:
        """Boolean per edge, aligned with edge_ids, set for the named edges the graph holds."""
        flags = np.zeros(len(self.edge_ids), dtype=bool)
        flags[[self._edge_pos[eid] for eid in edge_ids if eid in self._edge_pos]] = True
        return flags

    def edges_for_bridge(self, bridge_id: str) -> tuple[str, ...]:
        return self._edges_by_bridge.get(bridge_id, ())

    def nearest_nodes(self, xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray) -> np.ndarray:
        """Index (into node_ids) of the nearest node per query point; ties go to the lowest node id."""
        return hazard.nearest_points(self._node_x, self._node_y, xs, ys)[0]

    def bridge_sites(self) -> list[tuple[str, float, float, float]]:
        """(bridge_id, deck_elevation_m, x, y) rows, sorted by id."""
        return [
            (bid, self.bridges[bid].deck_elevation_m, self.bridges[bid].x, self.bridges[bid].y)
            for bid in sorted(self.bridges)
        ]

    def road_sites(self) -> list[tuple[str, float, float, float]]:
        """(edge_id, h_r, midpoint x, midpoint y) rows for road edges."""
        rows = []
        for eid in self.edge_ids:
            edge = self.edges[eid]
            if edge.kind != ROAD:
                continue
            a, b = self.nodes[edge.u], self.nodes[edge.v]
            rows.append((eid, float(edge.h_r), (a.x + b.x) / 2.0, (a.y + b.y) / 2.0))
        return rows


def build_graph(
    nodes: Iterable[Node],
    edges: Iterable[Edge],
    bridges: Iterable[BridgeRecord],
) -> RoadGraph:
    """Validate and assemble a RoadGraph, reporting every failure at once."""
    errors: list[str] = []

    node_map: dict[str, Node] = {}
    for node in nodes:
        if node.node_id in node_map:
            errors.append(f"duplicate node id {node.node_id}")
            continue
        if not (math.isfinite(node.x) and math.isfinite(node.y)):
            errors.append(f"node {node.node_id}: non-finite coordinates")
            continue
        node_map[node.node_id] = node
    if not node_map and not errors:
        errors.append("network has no nodes")

    bridge_map: dict[str, BridgeRecord] = {}
    for rec in bridges:
        if rec.bridge_id in bridge_map:
            errors.append(f"duplicate bridge id {rec.bridge_id}")
            continue
        bad = [
            name
            for name in ("deck_elevation_m", "mass_ton_per_m", "x", "y")
            if not math.isfinite(getattr(rec, name))
        ]
        if bad:
            errors.append(f"bridge {rec.bridge_id}: non-finite {', '.join(bad)}")
            continue
        if not 0.0 < rec.mass_ton_per_m <= 35.0:
            errors.append(
                f"bridge {rec.bridge_id}: mass {rec.mass_ton_per_m} ton/m outside supported range (0, 35]"
            )
            continue
        bridge_map[rec.bridge_id] = rec

    edge_map: dict[str, Edge] = {}
    referenced_bridges: set[str] = set()
    for edge in edges:
        ok = True
        if edge.edge_id in edge_map:
            errors.append(f"duplicate edge id {edge.edge_id}")
            continue
        for endpoint in (edge.u, edge.v):
            if endpoint not in node_map:
                errors.append(f"edge {edge.edge_id}: unknown endpoint node {endpoint}")
                ok = False
        if edge.u == edge.v:
            errors.append(f"edge {edge.edge_id}: self-loop at node {edge.u}")
            ok = False
        if not (math.isfinite(edge.length_m) and edge.length_m > 0.0):
            errors.append(f"edge {edge.edge_id}: length must be finite and > 0, got {edge.length_m}")
            ok = False
        if not (math.isfinite(edge.speed_mps) and edge.speed_mps > 0.0):
            errors.append(f"edge {edge.edge_id}: speed must be finite and > 0, got {edge.speed_mps}")
            ok = False
        if edge.kind not in EDGE_KINDS:
            errors.append(f"edge {edge.edge_id}: unknown kind {edge.kind!r}")
            ok = False
        elif edge.kind == BRIDGE:
            if edge.bridge_id is None:
                errors.append(f"edge {edge.edge_id}: bridge edge without bridge_id")
                ok = False
            elif edge.bridge_id not in bridge_map:
                errors.append(f"edge {edge.edge_id}: unknown bridge {edge.bridge_id}")
                ok = False
            else:
                referenced_bridges.add(edge.bridge_id)
        else:
            if edge.bridge_id is not None:
                errors.append(f"edge {edge.edge_id}: road edge carries bridge_id {edge.bridge_id}")
                ok = False
            if edge.h_r is None or not math.isfinite(edge.h_r):
                errors.append(f"edge {edge.edge_id}: road edge needs a finite lowest elevation h_r")
                ok = False
        if ok:
            edge_map[edge.edge_id] = edge

    for bid in sorted(bridge_map):
        if bid not in referenced_bridges:
            errors.append(f"bridge {bid}: no edge references it")

    if errors:
        raise ValidationError(errors)
    return RoadGraph(node_map, edge_map, bridge_map)


@dataclass(frozen=True)
class ClosureMask:
    """Closed edges with the reason each one closed."""

    provenance: Mapping[str, str]

    @property
    def closed_edges(self) -> frozenset[str]:
        return frozenset(self.provenance)

    def __len__(self) -> int:
        return len(self.provenance)


def closure_mask(
    graph: RoadGraph,
    exposures: hazard.ExposureSet,
    thresholds: hazard.ExposureThresholds,
    failure_draw: Mapping[str, bool],
    horizon: str,
) -> ClosureMask:
    """Closed edge set for one sampled storm outcome.

    Structural failures close a bridge's edges on both horizons. The
    short horizon also closes inundated bridges and flooded roads; the
    long horizon keeps them open because water recedes but collapsed
    decks stay collapsed. Road edges missing from the exposure map are
    treated as dry.
    """
    if horizon not in HORIZONS:
        raise InvalidInputError(f"unknown horizon {horizon!r}; expected one of {HORIZONS}")
    unknown = sorted(set(failure_draw) - set(graph.bridges))
    if unknown:
        raise InvalidInputError(f"failure draw names unknown bridge(s): {', '.join(unknown)}")
    missing = sorted(set(graph.bridges) - set(failure_draw))
    if missing:
        raise InvalidInputError(f"failure draw missing bridge(s): {', '.join(missing)}")
    missing = sorted(set(graph.bridges) - set(exposures.bridges))
    if missing:
        raise InvalidInputError(f"exposures missing bridge(s): {', '.join(missing)}")
    for eid in exposures.road_depth:
        edge = graph.edges.get(eid)
        if edge is None or edge.kind != ROAD:
            raise InvalidInputError(f"road exposure names unknown road edge {eid}")

    closed: dict[str, str] = {}
    for bid in sorted(graph.bridges):
        if failure_draw[bid]:
            for eid in graph.edges_for_bridge(bid):
                closed[eid] = STRUCTURAL
    if horizon == SHORT_TERM:
        for bid in sorted(graph.bridges):
            exp = exposures.bridges[bid]
            if hazard.bridge_inundation_closed(exp.z_c, thresholds):
                for eid in graph.edges_for_bridge(bid):
                    closed.setdefault(eid, INUNDATION)
        for eid in sorted(exposures.road_depth):
            if hazard.road_inundation_closed(exposures.road_depth[eid], thresholds):
                closed.setdefault(eid, INUNDATION)
    return ClosureMask(provenance=closed)


def closure_units(graph: RoadGraph, sited_nodes: np.ndarray) -> np.ndarray:
    """Closure-unit id per edge, aligned with graph.edge_ids.

    A closure unit is a maximal chain of edges joined through interior
    nodes: nodes of degree 2 in the multigraph that host no site
    (sited_nodes indexes graph.node_ids). A shortest path between two
    non-interior nodes uses all of a unit's edges or none of them, so
    travel times between sites depend only on which units have at least
    one closed edge. Most units are single edges.
    """
    edge_count = len(graph.edge_ids)
    ends = np.concatenate([graph._edge_u, graph._edge_v])
    edge_at_end = np.tile(np.arange(edge_count), 2)
    interior = np.bincount(ends, minlength=len(graph.node_ids)) == 2
    interior[np.asarray(sited_nodes, dtype=np.int64)] = False
    # Each interior node links its two edges; units are the linked components.
    at_interior = interior[ends]
    order = np.argsort(ends[at_interior], kind="stable")
    pairs = edge_at_end[at_interior][order].reshape(-1, 2)
    links = csr_matrix(
        (np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])), shape=(edge_count, edge_count)
    )
    return connected_components(links, directed=False)[1]


class TravelTimeTable:
    """Sparse demand-to-supply free-flow minutes within the catchment.

    Entries exist only for pairs whose shortest path is <= d0 minutes;
    absence means unreachable for scoring purposes. Arrays are sorted by
    (demand position, supply position) against the id tuples stored here.
    """

    __slots__ = ("demand_ids", "supply_ids", "demand_index", "supply_index", "minutes", "d0_minutes", "_lookup")

    def __init__(
        self,
        demand_ids: tuple[str, ...],
        supply_ids: tuple[str, ...],
        demand_index: np.ndarray,
        supply_index: np.ndarray,
        minutes: np.ndarray,
        d0_minutes: float,
    ):
        if not (math.isfinite(d0_minutes) and d0_minutes > 0.0):
            raise InvalidInputError(f"d0 must be finite and > 0, got {d0_minutes}")
        demand_index = np.asarray(demand_index, dtype=np.int64)
        supply_index = np.asarray(supply_index, dtype=np.int64)
        minutes = np.asarray(minutes, dtype=float)
        if not (demand_index.shape == supply_index.shape == minutes.shape):
            raise InvalidInputError("table arrays must share one shape")
        if minutes.size and (np.min(minutes) < 0.0 or np.max(minutes) > d0_minutes):
            raise InvalidInputError("table minutes must lie in [0, d0]")
        order = np.lexsort((supply_index, demand_index))
        self.demand_ids = demand_ids
        self.supply_ids = supply_ids
        self.demand_index = demand_index[order]
        self.supply_index = supply_index[order]
        self.minutes = minutes[order]
        self.d0_minutes = float(d0_minutes)
        self._lookup: dict[tuple[str, str], float] | None = None

    def __len__(self) -> int:
        return int(self.minutes.shape[0])

    def get(self, demand_id: str, supply_id: str) -> float | None:
        if self._lookup is None:
            pairs = zip(self.demand_index, self.supply_index, self.minutes)
            self._lookup = {(self.demand_ids[d], self.supply_ids[s]): float(t) for d, s, t in pairs}
        return self._lookup.get((demand_id, supply_id))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TravelTimeTable):
            return NotImplemented
        return (
            self.demand_ids == other.demand_ids
            and self.supply_ids == other.supply_ids
            and self.d0_minutes == other.d0_minutes
            and np.array_equal(self.demand_index, other.demand_index)
            and np.array_equal(self.supply_index, other.supply_index)
            and np.array_equal(self.minutes, other.minutes)
        )


def snap_sites(graph: RoadGraph, sites: Sequence) -> np.ndarray:
    """Nearest network node (index into graph.node_ids) per site."""
    if not sites:
        return np.array([], dtype=np.int64)
    return graph.nearest_nodes([s.x for s in sites], [s.y for s in sites])


def travel_time_table(
    graph: RoadGraph,
    mask: ClosureMask | None,
    demands: Sequence,
    supplies: Sequence,
    d0_minutes: float,
    *,
    snapped: tuple[np.ndarray, np.ndarray] | None = None,
) -> TravelTimeTable:
    """All demand-supply travel times within d0 on the masked network.

    Sites snap to their nearest node first; pass precomputed snap indices
    through `snapped` when calling repeatedly on the same geometry.
    """
    if not (math.isfinite(d0_minutes) and d0_minutes > 0.0):
        raise InvalidInputError(f"d0 must be finite and > 0, got {d0_minutes}")
    demand_ids = tuple(str(d.demand_id) for d in demands)
    supply_ids = tuple(str(s.supply_id) for s in supplies)
    for kind, ids in (("demand", demand_ids), ("supply", supply_ids)):
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate {kind} ids")

    if snapped is None:
        snapped = (snap_sites(graph, demands), snap_sites(graph, supplies))
    demand_nodes, supply_nodes = (np.asarray(nodes, dtype=np.int64) for nodes in snapped)
    if demand_nodes.shape != (len(demands),) or supply_nodes.shape != (len(supplies),):
        raise InvalidInputError("snapped node arrays do not match the site lists")

    closed = graph.edge_flags(mask.provenance) if mask is not None else None
    pair_minutes = _site_minutes(graph, closed, demand_nodes, supply_nodes, d0_minutes)
    within = pair_minutes <= d0_minutes  # inf fails the comparison
    return TravelTimeTable(demand_ids, supply_ids, *np.nonzero(within), pair_minutes[within], d0_minutes)


def reachable(graph: RoadGraph, closed, demand_nodes, supply_nodes, d0_minutes: float) -> np.ndarray:
    """Demand x supply booleans, True where the supply lies within d0
    minutes. Nodes are snapped site indices into graph.node_ids; closed
    is a boolean per edge, as for RoadGraph._adjacency."""
    return _site_minutes(graph, closed, demand_nodes, supply_nodes, d0_minutes) <= d0_minutes


def _site_minutes(graph, closed, demand_nodes, supply_nodes, d0_minutes) -> np.ndarray:
    """Demand x supply free-flow minutes, inf beyond d0.

    Dijkstra runs once, from whichever side has fewer sites; the bound
    makes the search prune anything past the catchment.
    """
    if not demand_nodes.size or not supply_nodes.size:
        return np.full((demand_nodes.size, supply_nodes.size), np.inf)
    transposed = demand_nodes.size > supply_nodes.size
    src_nodes, dst_nodes = (supply_nodes, demand_nodes) if transposed else (demand_nodes, supply_nodes)
    unique_src, src_row = np.unique(src_nodes, return_inverse=True)
    dist = dijkstra(graph._adjacency(closed), directed=False, indices=unique_src, limit=d0_minutes)
    pair_minutes = dist[np.ix_(src_row, dst_nodes)]
    return pair_minutes.T if transposed else pair_minutes


def live_edges(graph: RoadGraph, closed, demand_nodes, supply_nodes, d0_minutes: float) -> np.ndarray:
    """Per edge: can it lie on a within-d0 path between sites?

    One multi-source Dijkstra runs, from the side _site_minutes searches
    from, on the network without the closed edges. An edge is live when
    its nearer end plus its own minutes is within d0. Closing edges only
    lengthens paths and float addition is monotone, so closing edges that
    are not live, on top of `closed`, leaves reachable() as it is.
    """
    src_nodes = supply_nodes if demand_nodes.size > supply_nodes.size else demand_nodes
    dist = dijkstra(
        graph._adjacency(closed), directed=False, indices=np.unique(src_nodes), limit=d0_minutes, min_only=True
    )
    return np.minimum(dist[graph._edge_u], dist[graph._edge_v]) + graph._edge_minutes <= d0_minutes


class PortalDistances:
    """Searches shared by the networks that close some `toggled` closure
    units (ids into units, the closure_units labels for these sites) on
    top of the base network `closed` (a boolean per edge); units with a
    base-closed edge never open. H is the base with every toggled unit
    closed, and the portals are those units' end nodes. Dijkstra runs on H
    for reachable() and from the portals out to d0 plus reachable()'s
    margin, so no leg of a path within d0 is cut off. Pairs unreachable on
    H that may be reachable with all toggled units open are contested."""

    def __init__(self, graph: RoadGraph, closed, units, toggled, demand_nodes, supply_nodes, d0_minutes: float):
        n = len(graph.node_ids)
        self.units, self.sites, self.d0_minutes = units, (demand_nodes, supply_nodes), d0_minutes
        self.toggled = np.setdiff1d(np.asarray(sorted(toggled), dtype=np.int64), units[closed])
        self.closed = closed | np.isin(units, self.toggled)
        # A chain's end nodes are the two nodes only one of its edges touches; a loop has none.
        edges = np.flatnonzero(self.closed & ~closed)
        ends = n * np.tile(units[edges], 2).astype(np.int64) + np.r_[graph._edge_u[edges], graph._edge_v[edges]]
        ends, count = np.unique(ends, return_counts=True)
        portals, chain_ends = np.unique(ends[count == 1] % n, return_inverse=True)
        self.chain_ends, self.chain_units = chain_ends.reshape(-1, 2), ends[count == 1][::2] // n
        self.chain_minutes = np.bincount(units[edges], weights=graph._edge_minutes[edges])[self.chain_units]

        self.margin = 4 * n * np.finfo(float).eps * d0_minutes
        self.reach = reachable(graph, self.closed, demand_nodes, supply_nodes, d0_minutes)
        dist = dijkstra(graph._adjacency(self.closed), directed=False, indices=portals, limit=d0_minutes + self.margin)
        self.via, self.between, to_supply = dist[:, demand_nodes].T, dist[:, portals], dist[:, supply_nodes]
        nearest = np.full(self.reach.shape, np.inf)
        all_open = self._via_open(np.ones(self.chain_units.size, dtype=bool))
        for q in range(portals.size):
            np.minimum(nearest, all_open[:, q, None] + to_supply[q], out=nearest)
        self.rows, self.cols = np.nonzero(~self.reach & (nearest <= d0_minutes + self.margin))
        self.to_supply = to_supply[:, self.cols]

    def _via_open(self, chains: np.ndarray) -> np.ndarray:
        """Demand x portal minutes on H with the selected chains open (Floyd-Warshall over the portals)."""
        closure = self.between.copy()
        ends = self.chain_ends[chains]
        np.minimum.at(closure, (ends.ravel(), ends[:, ::-1].ravel()), np.repeat(self.chain_minutes[chains], 2))
        for k in range(closure.shape[0]):
            np.minimum(closure, closure[:, k, None] + closure[None, k, :], out=closure)
        return np.min(self.via[:, :, None] + closure[None], axis=1, initial=np.inf)

    def reachable(self, graph: RoadGraph, closed_units) -> np.ndarray:
        """reachable() on H with the toggled units not in closed_units open.

        A path between sites crosses an open unit end to end, so a contested
        pair's length is the minimum over portals p, q of demand to p on H,
        p to q through open chains and H, and q to supply on H. This sum and
        Dijkstra's each add nonnegative minutes along a walk, every term
        rounded at most 2n + 2 times (n nodes): each is within (2n + 2) *
        eps / 2 of the exact length, relative to it, so near d0 they differ
        by under 4 * n * eps * d0. Pairs farther than that margin from d0 are
        decided from the sum; if any is not, the network falls back to
        reachable(). Either way the matrix equals reachable()'s exactly."""
        opened = self.toggled[~np.isin(self.toggled, list(closed_units))]
        via = self._via_open(np.isin(self.chain_units, opened))
        minutes = np.min(via.T[:, self.rows] + self.to_supply, axis=0, initial=np.inf)
        if np.any(np.abs(minutes - self.d0_minutes) <= self.margin):
            return reachable(graph, self.closed & ~np.isin(self.units, opened), *self.sites, self.d0_minutes)
        reach = self.reach.copy()
        reach[self.rows, self.cols] = minutes < self.d0_minutes
        return reach
