"""Road and bridge network: validation, closure masks, travel times.

The network is an undirected multigraph. Nodes are planar points, edges
carry an authoritative length and free-flow speed, and bridge edges point
at a bridge record that holds deck elevation and superstructure mass.
Travel times are free-flow minutes; anything beyond the catchment radius
d0 is treated as unreachable. Exposure sites, and so the exposure rows
closure_mask reads, follow RoadGraph's bridge_ids and road_ids orders.

Shortest paths run on a compressed-sparse matrix via scipy's Dijkstra,
with closed edges given as a boolean per edge. Parallel edges between
the same node pair are collapsed to the fastest open one before routing,
because sparse construction would otherwise sum their weights. Binary
2SFCA needs only which pairs lie within d0 (reachable); the minutes are
kept only by travel_time_table. Searches start from the side with fewer
distinct snapped nodes; a scenario run passes live_edges and
PortalDistances its distinct demand and supply nodes, not its sites.
live_edges finds the edges that lie on no within-d0 path, whose closure
cannot change reachability. Networks that differ only in which of a few
closure units are open share the searches of PortalDistances, through
those units' end nodes; each network then takes, per contested pair, the
least of the few portal legs that lie within d0 with every unit open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
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
        road = np.array([edges[eid].kind == ROAD for eid in self.edge_ids], dtype=bool)
        self.road_ids: tuple[str, ...] = tuple(compress(self.edge_ids, road))
        self.bridge_ids: tuple[str, ...] = tuple(sorted(bridges))

        self._edges_by_bridge: dict[str, tuple[str, ...]] = dict.fromkeys(self.bridge_ids, ())
        for eid in compress(self.edge_ids, ~road):
            self._edges_by_bridge[edges[eid].bridge_id] += (eid,)

        rows = [(b.deck_elevation_m, b.x, b.y) for b in map(bridges.get, self.bridge_ids)]
        self._bridge_sites = np.array(rows, dtype=float).reshape(-1, 3)
        u, v = self._edge_u[road], self._edge_v[road]
        mid_x, mid_y = (self._node_x[u] + self._node_x[v]) / 2.0, (self._node_y[u] + self._node_y[v]) / 2.0
        self._road_sites = np.column_stack([[edges[eid].h_r for eid in self.road_ids], mid_x, mid_y])
        self._bridge_sites.flags.writeable = self._road_sites.flags.writeable = False

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

    def bridge_sites(self) -> np.ndarray:
        """(deck_elevation_m, x, y) rows, one per bridge in bridge_ids order; read-only."""
        return self._bridge_sites

    def road_sites(self) -> np.ndarray:
        """(h_r, midpoint x, midpoint y) rows, one per road edge in road_ids order; read-only."""
        return self._road_sites


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
    decks stay collapsed. exposures rows follow graph.bridge_ids and
    graph.road_ids, as evaluate_exposures returns them for the graph's sites.
    """
    if horizon not in HORIZONS:
        raise InvalidInputError(f"unknown horizon {horizon!r}; expected one of {HORIZONS}")
    drawn, known = set(failure_draw), set(graph.bridges)
    for problem, ids in (("names unknown", drawn - known), ("missing", known - drawn)):
        if ids:
            raise InvalidInputError(f"failure draw {problem} bridge(s): {', '.join(sorted(ids))}")
    shapes = (np.shape(exposures.z_c), np.shape(exposures.road_depth))
    if shapes != ((len(graph.bridge_ids),), (len(graph.road_ids),)):
        raise InvalidInputError(f"exposures need one z_c per bridge and one depth per road, got shapes {shapes}")

    closed: dict[str, str] = {}
    for bid in graph.bridge_ids:
        if failure_draw[bid]:
            closed.update(dict.fromkeys(graph.edges_for_bridge(bid), STRUCTURAL))
    if horizon == SHORT_TERM:
        for bid in compress(graph.bridge_ids, hazard.bridge_inundation_closed(exposures.z_c, thresholds)):
            for eid in graph.edges_for_bridge(bid):
                closed.setdefault(eid, INUNDATION)
        for eid in compress(graph.road_ids, hazard.road_inundation_closed(exposures.road_depth, thresholds)):
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
    """Demand x supply free-flow minutes on one closed network, row i for
    demand_ids[i] and column j for supply_ids[j]; inf beyond d0."""

    def __init__(self, demand_ids: tuple[str, ...], supply_ids: tuple[str, ...], minutes, d0_minutes: float):
        if not (math.isfinite(d0_minutes) and d0_minutes > 0.0):
            raise InvalidInputError(f"d0 must be finite and > 0, got {d0_minutes}")
        minutes = np.asarray(minutes, dtype=float)
        if minutes.shape != (len(demand_ids), len(supply_ids)):
            raise InvalidInputError("table minutes must have one row per demand and one column per supply")
        if not np.all(((minutes >= 0.0) & (minutes <= d0_minutes)) | (minutes == np.inf)):
            raise InvalidInputError("table minutes must lie in [0, d0] or be inf")
        self.demand_ids = demand_ids
        self.supply_ids = supply_ids
        self.minutes = minutes
        self.d0_minutes = float(d0_minutes)
        self._rows = {did: i for i, did in enumerate(demand_ids)}
        self._cols = {sid: j for j, sid in enumerate(supply_ids)}

    def get(self, demand_id: str, supply_id: str) -> float | None:
        i, j = self._rows.get(demand_id), self._cols.get(supply_id)
        if i is None or j is None or self.minutes[i, j] > self.d0_minutes:
            return None
        return float(self.minutes[i, j])


def snap_sites(graph: RoadGraph, sites: Sequence) -> np.ndarray:
    """Nearest network node (index into graph.node_ids) per site; ties go to the lowest node id."""
    return hazard.nearest_points(graph._node_x, graph._node_y, [s.x for s in sites], [s.y for s in sites])[0]


def travel_time_table(
    graph: RoadGraph,
    mask: ClosureMask | None,
    demands: Sequence,
    supplies: Sequence,
    d0_minutes: float,
) -> TravelTimeTable:
    """Demand x supply travel times on the masked network, inf beyond d0; sites snap to their nearest node first."""
    if not (math.isfinite(d0_minutes) and d0_minutes > 0.0):
        raise InvalidInputError(f"d0 must be finite and > 0, got {d0_minutes}")
    demand_ids = tuple(str(d.demand_id) for d in demands)
    supply_ids = tuple(str(s.supply_id) for s in supplies)
    for kind, ids in (("demand", demand_ids), ("supply", supply_ids)):
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate {kind} ids")

    demand_nodes, supply_nodes = snap_sites(graph, demands), snap_sites(graph, supplies)
    closed = graph.edge_flags(mask.provenance) if mask is not None else None
    minutes = _site_minutes(graph, closed, demand_nodes, supply_nodes, d0_minutes)
    return TravelTimeTable(demand_ids, supply_ids, minutes, d0_minutes)


def reachable(graph: RoadGraph, closed, demand_nodes, supply_nodes, d0_minutes: float) -> np.ndarray:
    """Demand x supply booleans, True where the supply lies within d0
    minutes. Nodes are snapped site indices into graph.node_ids; closed
    is a boolean per edge, as for RoadGraph._adjacency."""
    return _site_minutes(graph, closed, demand_nodes, supply_nodes, d0_minutes) <= d0_minutes


# Sources per Dijkstra call in _site_minutes, bounding its distance matrix.
_SOURCE_BLOCK = 64


def _site_minutes(graph, closed, demand_nodes, supply_nodes, d0_minutes) -> np.ndarray:
    """Demand x supply free-flow minutes, inf beyond d0.

    Dijkstra runs from the side with fewer distinct nodes (demands on a
    tie), so sites and their distinct nodes search from the same side;
    the bound makes the search prune anything past the catchment. It runs
    _SOURCE_BLOCK sources at a time and keeps only the other side's
    distinct node columns, so no source x all-nodes matrix is held; each
    row is its own search, so the minutes do not depend on the blocks.
    """
    if not demand_nodes.size or not supply_nodes.size:
        return np.full((demand_nodes.size, supply_nodes.size), np.inf)
    demand_side, supply_side = (np.unique(n, return_inverse=True) for n in (demand_nodes, supply_nodes))
    transposed = demand_side[0].size > supply_side[0].size
    (src, src_row), (dst, dst_col) = (supply_side, demand_side) if transposed else (demand_side, supply_side)
    adjacency = graph._adjacency(closed)
    dist = np.concatenate([
        dijkstra(adjacency, directed=False, indices=src[i:i + _SOURCE_BLOCK], limit=d0_minutes)[:, dst]
        for i in range(0, src.size, _SOURCE_BLOCK)
    ])
    pair_minutes = dist[np.ix_(src_row, dst_col)]
    return pair_minutes.T if transposed else pair_minutes


def live_edges(graph: RoadGraph, closed, demand_nodes, supply_nodes, d0_minutes: float) -> np.ndarray:
    """Per edge: can it lie on a within-d0 path between sites?

    One multi-source Dijkstra runs, from the side _site_minutes searches
    from (fewer distinct nodes), on the network without the closed edges.
    An edge is live when its nearer end plus its own minutes is within d0.
    Closing edges only lengthens paths and float addition is monotone, so
    closing edges that are not live, on top of `closed`, leaves
    reachable() as it is.
    """
    d_nodes, s_nodes = np.unique(demand_nodes), np.unique(supply_nodes)
    src = s_nodes if d_nodes.size > s_nodes.size else d_nodes
    dist = dijkstra(graph._adjacency(closed), directed=False, indices=src, limit=d0_minutes, min_only=True)
    return np.minimum(dist[graph._edge_u], dist[graph._edge_v]) + graph._edge_minutes <= d0_minutes


class PortalDistances:
    """Searches shared by the networks that close some `toggled` closure
    units (ids into units, the closure_units labels for these sites) on
    top of the base network `closed` (a boolean per edge of `graph`, which
    is kept for the exact fallback); units with a base-closed edge never
    open. H is the base with every toggled unit closed, and the portals are
    those units' end nodes. Dijkstra runs on H for reachable() and from the
    portals out to d0 plus reachable()'s margin, so no leg of a path within
    d0 is cut off. Pairs unreachable on H that may be reachable with all
    toggled units open are contested.

    Leg q of a contested pair is its demand's minutes to portal q through
    the open chains and H, plus portal q's minutes to its supply on H.
    Only the legs within d0 plus the margin with every toggled unit open
    are kept: opening fewer units only lengthens a leg, since float + and
    min are monotone, so a dropped leg exceeds d0 plus the margin on every
    network and can neither decide a pair nor send it to the fallback.
    Every contested pair keeps the leg that made it contested."""

    def __init__(self, graph: RoadGraph, closed, units, toggled, demand_nodes, supply_nodes, d0_minutes: float):
        n = len(graph.node_ids)
        self.graph, self.units, self.sites, self.d0_minutes = graph, units, (demand_nodes, supply_nodes), d0_minutes
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
        all_open = self._via_open(np.ones(self.chain_units.size, dtype=bool))
        # Each portal's kept legs, as flat indices into the demand x supply pairs.
        cells = [np.flatnonzero(~self.reach & (all_open[:, q, None] + to_supply[q] <= d0_minutes + self.margin))
                 for q in range(portals.size)]
        q = np.repeat(np.arange(portals.size), [c.size for c in cells])
        self.pairs, self.pair = np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *cells]), return_inverse=True)
        self.rows, self.cols = np.divmod(self.pairs, len(supply_nodes))
        # Kept leg i: its contested pair, a flat index into a demand x portal
        # array, and its portal-to-supply minutes.
        self.flat, self.leg = self.rows[self.pair] * portals.size + q, to_supply[q, self.cols[self.pair]]

    def _via_open(self, chains: np.ndarray) -> np.ndarray:
        """Demand x portal minutes on H with the selected chains open (Floyd-Warshall over the portals)."""
        closure = self.between.copy()
        ends = self.chain_ends[chains]
        np.minimum.at(closure, (ends.ravel(), ends[:, ::-1].ravel()), np.repeat(self.chain_minutes[chains], 2))
        for k in range(closure.shape[0]):
            np.minimum(closure, closure[:, k, None] + closure[None, k, :], out=closure)
        out = np.full(self.via.shape, np.inf)
        for p in range(closure.shape[0]):
            np.minimum(out, self.via[:, p, None] + closure[p], out=out)
        return out

    def _minutes(self, via: np.ndarray) -> np.ndarray:
        """Minutes per contested pair (rows, cols): its least kept leg, given
        the demand x portal minutes via of one network."""
        minutes = np.full(self.rows.size, np.inf)
        np.minimum.at(minutes, self.pair, via.ravel()[self.flat] + self.leg)
        return minutes

    def reachable(self, closed_units) -> np.ndarray:
        """reachable() on H with the toggled units not in closed_units open.

        A path between sites crosses an open unit end to end, so a contested
        pair's length is the minimum over portals p, q of demand to p on H,
        p to q through open chains and H, and q to supply on H. This sum and
        Dijkstra's each add nonnegative minutes along a walk, every term
        rounded at most 2n + 2 times (n nodes): each is within (2n + 2) *
        eps / 2 of the exact length, relative to it, so near d0 they differ
        by under 4 * n * eps * d0. Pairs farther than that margin from d0 are
        decided from the sum; if any is not, the network falls back to
        reachable(). Either way the matrix equals reachable()'s exactly.
        The sum runs over the kept legs only: where the minimum over all
        legs is within d0 plus the margin, a kept leg attains it, and where
        it is not, the kept minimum is not either, so neither the matrix nor
        the fallback changes."""
        # Every chain's unit is toggled, so a chain is open when its unit is not in closed_units.
        chains = np.array([u not in closed_units for u in self.chain_units.tolist()], dtype=bool)
        minutes = self._minutes(self._via_open(chains))
        if np.any(np.abs(minutes - self.d0_minutes) <= self.margin):
            opened = self.toggled[~np.isin(self.toggled, list(closed_units))]
            return reachable(self.graph, self.closed & ~np.isin(self.units, opened), *self.sites, self.d0_minutes)
        reach = self.reach.copy()
        reach.ravel()[self.pairs] = minutes < self.d0_minutes
        return reach
