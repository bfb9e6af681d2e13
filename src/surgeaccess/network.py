"""Road and bridge network: validation, closure masks, travel times.

The network is an undirected multigraph. Nodes are planar points, edges
carry an authoritative length and free-flow speed, and bridge edges point
at a bridge record that holds deck elevation and superstructure mass.
Travel times are free-flow minutes; anything beyond the catchment radius
d0 is treated as unreachable. RoadGraph holds nodes and edges as id
tuples and arrays; its one constructor validates the columns it is given,
whether build_graph takes them from records or load_bundle from a decoded
file. Exposure sites, and so the exposure rows closure_mask reads, follow
RoadGraph's bridge_ids and road_ids orders.

Shortest paths are a bounded numpy search (dijkstra) over the open arcs,
grouped by tail node, with closed edges given as a boolean per edge;
parallel edges need no collapsing, since the search keeps each node's
least candidate, and its minutes are Dijkstra's, bit for bit. Binary
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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import fragility, hazard
from .errors import InvalidInputError, ValidationError

ROAD = "road"
BRIDGE = "bridge"

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


@dataclass(frozen=True)
class BridgeRecord:
    """Deck elevation and mass per unit length for one bridge."""

    bridge_id: str
    deck_elevation_m: float
    mass_ton_per_m: float
    x: float
    y: float


# What can be wrong with an edge, in the order RoadGraph reports it.
_EDGE_PROBLEMS = (
    "unknown endpoint node {u}", "unknown endpoint node {v}", "self-loop at node {u}",
    "length must be finite and > 0, got {length}", "speed must be finite and > 0, got {speed}", "unknown kind {kind!r}",
    "bridge edge without bridge_id", "unknown bridge {bid}", "road edge carries bridge_id {bid}",
    "road edge needs a finite lowest elevation h_r",
)


def _id_groups(ids: Sequence[str], ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable order that sorts ids and, per row, its id's rank among the
    distinct ids and the first ok row with that id (len(ids) if none)."""
    rank = np.unique(np.array(ids, dtype=object), return_inverse=True)[1]
    first_ok = np.full(len(ids), len(ids))
    np.minimum.at(first_ok, rank[ok], np.flatnonzero(ok))
    return np.argsort(rank, kind="stable"), rank, first_ok[rank]


def valid_bridges(bridges: Iterable[BridgeRecord], errors: list[str]) -> dict[str, BridgeRecord]:
    """Valid bridges in id order; a repeated id, non-finite field or mass off the fragility domain is an error."""
    valid: dict[str, BridgeRecord] = {}
    lo, hi = fragility.default_table().domain
    for rec in bridges:
        bad = [f for f in ("deck_elevation_m", "mass_ton_per_m", "x", "y") if not math.isfinite(getattr(rec, f))]
        if rec.bridge_id in valid:
            errors.append(f"duplicate bridge id {rec.bridge_id}")
        elif bad:
            errors.append(f"bridge {rec.bridge_id}: non-finite {', '.join(bad)}")
        elif not lo < rec.mass_ton_per_m <= hi:
            errors.append(f"bridge {rec.bridge_id}: mass {rec.mass_ton_per_m} ton/m outside supported range "
                          f"({lo:g}, {hi:g}]")
        else:
            valid[rec.bridge_id] = rec
    return dict(sorted(valid.items()))


class RoadGraph:
    """A validated network held as columns, immutable after construction.

    Built from node and edge columns in any order, it reports every
    failure at once: nodes, bridges, then edges, each in input order with
    its failures together. edge_u and edge_v are node rows, ~k standing for
    unknown_nodes[k], a name no node has; h_r is nan where absent. A row
    whose id an earlier valid row holds is a duplicate, checked no further;
    an endpoint or bridge is known if a valid node or bridge has its id.

    Nodes are kept as the sorted node_ids with node_x and node_y arrays.
    Edges are the sorted edge_ids with endpoint node indices, length_m and
    speed_mps arrays and bridge_rows (each edge's row in bridge_ids, -1 on a
    road); bridges maps bridge_ids, sorted, to their records. bridge_sites
    holds a (deck_elevation_m, x, y) row per bridge in bridge_ids order and
    road_sites an (h_r, midpoint x, midpoint y) row per road in road_ids
    order, both read-only arrays. edges builds the Edge mapping when first read.
    """

    def __init__(
        self, node_ids: Sequence[str], node_x: np.ndarray, node_y: np.ndarray, edge_ids: Sequence[str],
        edge_u: np.ndarray, edge_v: np.ndarray, length_m: np.ndarray, speed_mps: np.ndarray, h_r: np.ndarray,
        kinds: Sequence[str], bridge_of: Sequence[str | None], bridges: Iterable[BridgeRecord],
        unknown_nodes: Sequence[str] = (),
    ):
        node_x, node_y, length_m, speed_mps, h_r = (
            np.asarray(column, dtype=float) for column in (node_x, node_y, length_m, speed_mps, h_r))
        edge_u, edge_v = np.asarray(edge_u, dtype=np.int64), np.asarray(edge_v, dtype=np.int64)
        errors: list[str] = []
        n = len(node_ids)
        node_order, node_rank, node_first = _id_groups(node_ids, np.isfinite(node_x) & np.isfinite(node_y))
        for i in np.flatnonzero(node_first != np.arange(n)).tolist():  # a repeated id or non-finite coordinates
            nid = node_ids[i]
            errors.append(f"duplicate node id {nid}" if node_first[i] < i else f"node {nid}: non-finite coordinates")
        if not n:
            errors.append("network has no nodes")
        self.bridges = bridge_map = valid_bridges(bridges, errors)

        # Per edge end: is it a known node, and which id does it name (unknown names stay negative)?
        ends = np.stack([edge_u, edge_v])
        at = np.where(ends >= 0, ends, n)
        known, name = np.append(node_first < n, False)[at], np.where(ends >= 0, np.append(node_rank, 0)[at], ends)
        road, bridge, has_bridge, known_bridge = (np.array(flags, dtype=bool) for flags in (
            [k == ROAD for k in kinds], [k == BRIDGE for k in kinds], [b is not None for b in bridge_of],
            [b in bridge_map for b in bridge_of]))
        failed = np.stack([  # per _EDGE_PROBLEMS entry and edge
            ~known[0], ~known[1], name[0] == name[1], ~(np.isfinite(length_m) & (length_m > 0.0)),
            ~(np.isfinite(speed_mps) & (speed_mps > 0.0)), ~road & ~bridge, bridge & ~has_bridge,
            bridge & has_bridge & ~known_bridge, road & has_bridge, road & ~np.isfinite(h_r),
        ])
        ok = ~failed.any(axis=0)
        edge_order, _, edge_first = _id_groups(edge_ids, ok)
        duplicate = edge_first < np.arange(len(edge_ids))
        for i in np.flatnonzero(duplicate | ~ok).tolist():
            if duplicate[i]:
                errors.append(f"duplicate edge id {edge_ids[i]}")
                continue
            u, v = (node_ids[e] if e >= 0 else unknown_nodes[~e] for e in ends[:, i].tolist())
            vals = dict(u=u, v=v, length=float(length_m[i]), speed=float(speed_mps[i]), kind=kinds[i], bid=bridge_of[i])
            errors += [f"edge {edge_ids[i]}: " + _EDGE_PROBLEMS[c].format(**vals) for c in np.flatnonzero(failed[:, i])]

        referenced = {bridge_of[i] for i in np.flatnonzero(bridge & known_bridge & ~duplicate).tolist()}
        errors += [f"bridge {bid}: no edge references it" for bid in bridge_map if bid not in referenced]

        if errors:
            raise ValidationError(errors)

        # Every id is now unique, so an id's rank is its index in the sorted ids.
        self.node_ids: tuple[str, ...] = tuple(node_ids[i] for i in node_order.tolist())
        self.node_x, self.node_y = node_x[node_order], node_y[node_order]
        self.edge_ids: tuple[str, ...] = tuple(edge_ids[i] for i in edge_order.tolist())
        self._edge_u, self._edge_v = name[0, edge_order], name[1, edge_order]
        self._edge_length, self._edge_speed = length_m[edge_order], speed_mps[edge_order]
        self._edge_minutes = self._edge_length / self._edge_speed / 60.0
        row_of = {bid: row for row, bid in enumerate(bridge_map)}
        self.bridge_rows = np.array([row_of.get(bridge_of[i], -1) for i in edge_order.tolist()], dtype=np.int64)
        self._edge_road = self.bridge_rows < 0
        self.road_ids: tuple[str, ...] = tuple(compress(self.edge_ids, self._edge_road))
        self.bridge_ids: tuple[str, ...] = tuple(bridge_map)

        rows = [(b.deck_elevation_m, b.x, b.y) for b in bridge_map.values()]
        self.bridge_sites = np.array(rows, dtype=float).reshape(-1, 3)
        u, v = self._edge_u[self._edge_road], self._edge_v[self._edge_road]
        mid_x, mid_y = (self.node_x[u] + self.node_x[v]) / 2.0, (self.node_y[u] + self.node_y[v]) / 2.0
        self.road_sites = np.column_stack([h_r[edge_order][self._edge_road], mid_x, mid_y])
        self.bridge_sites.flags.writeable = self.road_sites.flags.writeable = False
        # Each edge as two arcs, grouped by tail node; _adjacency keeps the open ones.
        tails = np.concatenate([self._edge_u, self._edge_v])
        order = np.argsort(tails, kind="stable")
        self._arc_tail, self._arc_head = tails[order], np.concatenate([self._edge_v, self._edge_u])[order]
        self._arc_edge = order % len(self.edge_ids)  # arc k of edge e is at order[k] = e or e + len(edge_ids)
        self.component_count = int(_components(n, self._edge_u, self._edge_v).max()) + 1

    @cached_property
    def edges(self) -> dict[str, Edge]:
        return {eid: Edge(eid, self.node_ids[u], self.node_ids[v], *rest) for eid, u, v, *rest in self.edge_rows()}

    def edge_rows(self) -> Iterator[tuple]:
        """(edge_id, u, v, length_m, speed_mps, kind, bridge_id, h_r) per edge in edge_ids order, u and v as
        indices into node_ids; bridge_id is None on a road and h_r None on a bridge."""
        bridge_id = np.array([*self.bridge_ids, None], dtype=object)[self.bridge_rows]  # a road's -1 reads None
        h_r = np.full(len(self.edge_ids), None, dtype=object)
        h_r[self._edge_road] = self.road_sites[:, 0].tolist()
        kinds = [ROAD if road else BRIDGE for road in self._edge_road.tolist()]
        return zip(self.edge_ids, self._edge_u.tolist(), self._edge_v.tolist(), self._edge_length.tolist(),
                   self._edge_speed.tolist(), kinds, bridge_id.tolist(), h_r.tolist())

    def _adjacency(self, closed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arcs of the edges not closed (a boolean per edge, aligned with edge_ids; None closes none) as
        (indptr, heads, minutes): node x's arcs run to heads[indptr[x]:indptr[x + 1]]."""
        keep = slice(None) if closed is None else ~closed[self._arc_edge]
        tails, heads, arc_edge = self._arc_tail[keep], self._arc_head[keep], self._arc_edge[keep]
        return np.searchsorted(tails, np.arange(len(self.node_ids) + 1)), heads, self._edge_minutes[arc_edge]

    def edge_flags(self, edge_ids: Iterable[str]) -> np.ndarray:
        """Boolean per edge, aligned with edge_ids, set for the named edges the graph holds (found by bisection)."""
        flags = np.zeros(len(self.edge_ids), dtype=bool)
        at = ((bisect_left(self.edge_ids, eid), eid) for eid in edge_ids)
        flags[[i for i, eid in at if self.edge_ids[i : i + 1] == (eid,)]] = True
        return flags


def build_graph(nodes: Iterable[Node], edges: Iterable[Edge], bridges: Iterable[BridgeRecord]) -> RoadGraph:
    """Validate and assemble a RoadGraph from records, their fields taken as its columns."""
    nodes, edges = list(nodes), list(edges)
    row, unknown = {node.node_id: i for i, node in enumerate(nodes)}, {}  # unknown: names no node has, first met first
    ends = [np.array([row[n] if n in row else ~unknown.setdefault(n, len(unknown)) for n in names], dtype=np.int64)
            for names in ([e.u for e in edges], [e.v for e in edges])]
    floats = [np.array([getattr(r, name) for r in records], dtype=float)  # a None h_r becomes nan
              for records, names in ((nodes, ("x", "y")), (edges, ("length_m", "speed_mps", "h_r"))) for name in names]
    return RoadGraph([n.node_id for n in nodes], *floats[:2], [e.edge_id for e in edges], *ends, *floats[2:],
                     [e.kind for e in edges], [e.bridge_id for e in edges], bridges, list(unknown))


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
    Each rule is one boolean array; the provenance lists structural, then
    inundated bridge, then flooded road edges, each in edge_ids order.
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

    # A road's bridge row -1 reads the False appended to each per-bridge rule.
    structural = np.array([failure_draw[bid] for bid in graph.bridge_ids] + [False], dtype=bool)[graph.bridge_rows]
    closed = dict.fromkeys(compress(graph.edge_ids, structural), STRUCTURAL)
    if horizon == SHORT_TERM:
        inundated = np.append(hazard.bridge_inundation_closed(exposures.z_c, thresholds), False)[graph.bridge_rows]
        flooded = hazard.road_inundation_closed(exposures.road_depth, thresholds)
        closed.update(dict.fromkeys(compress(graph.edge_ids, inundated & ~structural), INUNDATION))
        closed.update(dict.fromkeys(compress(graph.road_ids, flooded), INUNDATION))
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
    return _components(edge_count, pairs[:, 0], pairs[:, 1])


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component label per node of the undirected graph on nodes 0..n-1 with
    edges (u, v), components numbered in the order of their lowest nodes.

    Each round hooks the larger of an edge's two roots onto the least root
    offered to it (np.minimum.at: a plain assignment may keep a root's own
    offer and never finish), then jumps every node to its root; a root is
    the lowest node of its tree.
    """
    root = np.arange(n)
    while not np.array_equal(root[u], root[v]):
        np.minimum.at(root, np.maximum(root[u], root[v]), np.minimum(root[u], root[v]))
        while not np.array_equal(hop := root[root], root):
            root = hop
    return np.unique(root, return_inverse=True)[1]


def isin_ids(values: np.ndarray, ids) -> np.ndarray:
    """np.isin(values, ids) for integer values and a sequence of integer ids, by table lookup: on numpy 2, np.isin's
    sort path imports numpy.ma (1.2 MB), as np.setdiff1d and np.unique without return_index or counts do."""
    return np.isin(values, np.asarray(ids, dtype=np.int64), kind="table")


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
    return hazard.nearest_points(graph.node_x, graph.node_y, [s.x for s in sites], [s.y for s in sites])[0]


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


def dijkstra(arcs, *, indices, limit: float, min_only: bool = False) -> np.ndarray:
    """Least minutes over arcs (as RoadGraph._adjacency returns them) from
    each source node in indices to every node, inf past limit: one row per
    source, or with min_only their minimum as one row.

    Each round relaxes the arcs out of the nodes whose minutes fell in the
    last round and keeps a candidate only within limit. Float + and min are
    monotone, so every node ends at its least path sum rounded from the
    source out, the minutes Dijkstra's algorithm settles, bit for bit.
    """
    indptr, heads, minutes = arcs
    n, degree = indptr.size - 1, np.diff(indptr)
    sources = np.asarray(indices, dtype=np.int64).ravel()
    front = np.unique(sources, return_index=True)[0] if min_only else np.arange(sources.size) * n + sources
    dist = np.full(n if min_only else sources.size * n, np.inf)  # flat, row r at r * n
    dist[front], owner = 0.0, np.empty(dist.size, dtype=np.int32)  # a round holds under 2**31 candidates
    bound = np.nextafter(limit, np.inf)
    while front.size:
        node = front % n
        count = degree[node]
        arc = np.arange(count.sum()) + np.repeat(indptr[node] - np.cumsum(count) + count, count)
        target = np.repeat(front - node, count) + heads[arc]
        step = np.repeat(dist[front], count) + minutes[arc]
        better = np.flatnonzero(step < np.minimum(dist[target], bound))
        target, step = target[better], step[better]
        np.minimum.at(dist, target, step)
        # The next front: each improved node once, as the candidate the owner write kept for it.
        owner[target] = better
        front = target[owner[target] == better]
    return dist if min_only else dist.reshape(sources.size, n)


# Sources per dijkstra call in _site_minutes, so a search holds at most 64 rows of minutes to every node;
# larger blocks saved no CPU time on the county spec.
_SOURCE_BLOCK = 64


def _site_minutes(graph, closed, demand_nodes, supply_nodes, d0_minutes) -> np.ndarray:
    """Demand x supply free-flow minutes, inf beyond d0.

    Dijkstra runs from the side with fewer distinct nodes (demands on a
    tie), so sites and their distinct nodes search from the same side;
    the bound makes the search prune anything past the catchment. It runs
    a block of sources at a time and keeps only the other side's
    distinct node columns, so no source x all-nodes matrix is held; each
    row is its own search, so the minutes do not depend on the blocks.
    """
    if not demand_nodes.size or not supply_nodes.size:
        return np.full((demand_nodes.size, supply_nodes.size), np.inf)
    demand_side, supply_side = (np.unique(n, return_inverse=True) for n in (demand_nodes, supply_nodes))
    transposed = demand_side[0].size > supply_side[0].size
    (src, src_row), (dst, dst_col) = (supply_side, demand_side) if transposed else (demand_side, supply_side)
    adjacency, block = graph._adjacency(closed), _SOURCE_BLOCK
    dist = np.concatenate([
        dijkstra(adjacency, indices=src[i:i + block], limit=d0_minutes)[:, dst] for i in range(0, src.size, block)
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
    d_nodes, s_nodes = (np.unique(nodes, return_index=True)[0] for nodes in (demand_nodes, supply_nodes))
    src = s_nodes if d_nodes.size > s_nodes.size else d_nodes
    dist = dijkstra(graph._adjacency(closed), indices=src, limit=d0_minutes, min_only=True)
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
        self.toggled = np.asarray(sorted(set(toggled) - set(units[closed].tolist())), dtype=np.int64)
        self.closed = closed | isin_ids(units, self.toggled)
        # A chain's end nodes are the two nodes only one of its edges touches; a loop has none.
        edges = np.flatnonzero(self.closed & ~closed)
        ends = n * np.tile(units[edges], 2).astype(np.int64) + np.r_[graph._edge_u[edges], graph._edge_v[edges]]
        ends, count = np.unique(ends, return_counts=True)
        portals, chain_ends = np.unique(ends[count == 1] % n, return_inverse=True)
        self.chain_ends, self.chain_units = chain_ends.reshape(-1, 2), ends[count == 1][::2] // n
        self.chain_minutes = np.bincount(units[edges], weights=graph._edge_minutes[edges])[self.chain_units]

        self.margin = 4 * n * np.finfo(float).eps * d0_minutes
        self.reach = reachable(graph, self.closed, demand_nodes, supply_nodes, d0_minutes)
        dist = dijkstra(graph._adjacency(self.closed), indices=portals, limit=d0_minutes + self.margin)
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
            opened = self.toggled[~isin_ids(self.toggled, list(closed_units))]
            return reachable(self.graph, self.closed & ~isin_ids(self.units, opened), *self.sites, self.d0_minutes)
        reach = self.reach.copy()
        reach.ravel()[self.pairs] = minutes < self.d0_minutes
        return reach
