"""Monte Carlo closure sampling and accessibility aggregation.

Each sample draws an independent failure outcome per bridge from its
uplift probability, builds the closed-edge set for each recovery horizon,
and rescores accessibility on the surviving network. Draws are counter
based: the uniform for (seed, sample, bridge) is a pure hash of those
three values, so results never depend on iteration order, worker count,
or platform RNG state, and reruns with the same seed are bit-identical.
sample_failures compares each bridge's SHA-256 digest as bytes against
its cut (failure_cuts), which gives exactly uniform_draw(...) < p. Both
hash with fragility.sha256, the interpreter's built-in SHA-256, so a run
loads no OpenSSL.

Only bridges with a failure probability strictly between 0 and 1 are
drawn; the rest fail always or never. A closed network depends only on
which closure units (see network.closure_units) hold a closed edge, so
the drawn bridges are grouped by the units they touch and each sample
draws one outcome per group: whether any member fails, hashing the
members likeliest first and stopping at the first failure. Each horizon
is keyed, evaluated and aggregated on its own. Its samples are keyed on
closure units: samples whose closed edges touch the same units
share one network evaluation, evaluated on the canonical closed set that
takes every edge of each touched unit. Units that lie on no within-d0
path on the horizon's base network are left out of its keys (see
network.live_edges). Each horizon costs three bounded Dijkstra searches,
and each network a min-plus closure (network.PortalDistances), all on the
distinct nodes the sites snap to; access.two_step sums once per node, as
masked reductions, and gathers the sums back per site. The networks are
scored on the calling thread and workers - 1 helper threads, so one
worker starts no thread. Each horizon keeps
its K x D score table (K networks, D demands) and its sample -> network
index; statistics sum row blocks gathered through the index, and the
convergence check takes each window's span of running means from maxima
and minima over doubling spans of rows.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from . import access, fragility, hazard, network
from .errors import InvalidInputError
from .fragility import sha256


def uniform_draw(master_seed: int, sample_index: int, bridge_id: str) -> float:
    """Deterministic uniform in [0, 1) keyed by seed, sample and bridge."""
    digest = sha256(f"{master_seed}:{sample_index}:{bridge_id}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") >> 11) * 2.0**-53


def failure_cuts(failure_probability: Mapping[str, float]) -> dict[bytes, bytes]:
    """Each bridge's encoded id and cut, in mapping order: the draw sample_failures makes for the bridge.

    A digest sorts below the cut exactly when uniform_draw's u < p: u = (x >> 11) * 2**-53 for the digest's
    first eight bytes x, so u < p exactly when x < ceil(p * 2**53) << 11, and a 32-byte digest compares against
    an 8-byte cut as its first eight bytes would. At p = 1 that cut, 2**64, does not fit, so the cut sorts above
    every digest; at p = 0 it is all zeros and no digest sorts below it. A group for sample_failures is a
    tuple of these (id, cut) pairs.
    """
    cuts: dict[bytes, bytes] = {}
    for bridge_id, p in failure_probability.items():
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise InvalidInputError(f"bridge {bridge_id}: probability {p} outside [0, 1]")
        cuts[bridge_id.encode()] = b"\xff" * 33 if p == 1.0 else (math.ceil(p * 2.0**53) << 11).to_bytes(8, "big")
    return cuts


def sample_failures(
    groups: Sequence[Sequence[tuple[bytes, bytes]]], master_seed: int, sample_index: int
) -> tuple[bool, ...]:
    """One Bernoulli outcome per group of bridges for one Monte Carlo sample, in the order of groups.

    Each group holds (encoded id, cut) pairs from failure_cuts, and its outcome is whether any member fails:
    whether uniform_draw(master_seed, sample_index, bridge) < p for some member, drawn as one SHA-256 per
    member whose digest is compared with the member's cut. Members are hashed in order, and a group stops at
    its first failure, so listing the likeliest first hashes least. A group of one bridge is that bridge's
    draw. Probabilities of 0 and 1 are honored exactly. Because each bridge keeps its own uniform across
    probability changes, raising every probability pointwise can only grow the failure set (common random
    numbers), which keeps paired storm comparisons noise-free.
    """
    if sample_index < 0:
        raise InvalidInputError(f"sample index must be >= 0, got {sample_index}")
    prefix = f"{master_seed}:{sample_index}:".encode()
    failed = []
    for group in groups:  # plain loops: any() over a generator costs more than the hash on one-bridge groups
        for key, cut in group:
            if sha256(prefix + key).digest() < cut:
                failed.append(True)
                break
        else:
            failed.append(False)
    return tuple(failed)


# Rows per gathered block: the candidate rows convergence_report checks per step, and _gathered_sum's blocks.
_CONVERGENCE_BLOCK = 256
_CONVERGENCE_COLUMNS = 16  # columns convergence_report takes window spans over at once


def _running_mean_blocks(table: np.ndarray, index: np.ndarray, size: int):
    """Cumulative means down the rows of table[index], in blocks of `size` rows gathered and summed when asked for.
    Each block's cumsum starts from the sum before it, so every column adds up in one cumsum's order, to the bit."""
    sums = table[:0]
    for start in range(0, index.size, size):  # carry the last sum in as a first row, then drop it
        sums = np.cumsum(np.concatenate([sums[-1:], table[index[start : start + size]]]), axis=0)[min(start, 1) :]
        yield sums / np.arange(start + 1, start + sums.shape[0] + 1, dtype=float)[:, None]


def _gathered_sum(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index].sum(axis=0) to the bit, in gathered blocks. numpy adds an axis-0 sum row by row, so each
    block's sum starts from the sum before it; a lone column it sums pairwise, so that one is gathered whole."""
    if table.shape[1] == 1:
        return table[index].sum(axis=0)
    total, size = table[:0], _CONVERGENCE_BLOCK
    for start in range(0, index.size, size):
        total = np.concatenate([total, table[index[start : start + size]]]).sum(axis=0, keepdims=True)
    return total[0]


def _window_spans(x: np.ndarray, window: int) -> np.ndarray:
    """max - min over each run of `window` rows of x (at least `window` rows); row r covers rows r .. r + window - 1.
    Maxima and minima over spans of 1, 2, 4, ... rows come by doubling, and two overlapping spans cover a window."""
    hi, lo, span = x, x, 1
    while 2 * span <= window:
        hi, lo, span = np.maximum(hi[:-span], hi[span:]), np.minimum(lo[:-span], lo[span:]), 2 * span
    tail = window - span
    return np.maximum(hi[: hi.shape[0] - tail], hi[tail:]) - np.minimum(lo[: lo.shape[0] - tail], lo[tail:])


def convergence_report(trace: np.ndarray, window: int = 100, tolerance: float = 0.01, index=None) -> int | None:
    """Smallest sample count at which every running mean has settled.

    trace holds per-sample values, one row per sample (a single column is
    fine); given a sample -> row index, sample i's values are trace[index[i]],
    gathered a block at a time. The estimate at n is converged when the
    trailing `window` running means span at most tolerance * |current mean|
    (exactly zero range when the current mean is zero). Returns None if the
    trace never settles or is shorter than the window. Candidate rows are
    checked a block at a time, and neither the scan nor the running means go
    past the first block that holds a settled row.
    """
    if window < 1:
        raise InvalidInputError(f"window must be >= 1, got {window}")
    if not math.isfinite(tolerance) or tolerance <= 0.0:
        raise InvalidInputError(f"tolerance must be finite and > 0, got {tolerance}")
    trace = np.asarray(trace, dtype=float)
    if trace.ndim == 1:
        trace = trace[:, None]
    index = np.arange(trace.shape[0]) if index is None else np.asarray(index)
    if trace.ndim != 2 or trace.shape[0] == 0 or index.size == 0:
        raise InvalidInputError("trace must be a non-empty 1-d or 2-d array")
    running = trace[:0]  # running means of the block and the window - 1 samples before it
    for number, block in enumerate(_running_mean_blocks(trace, index, _CONVERGENCE_BLOCK)):
        running = np.concatenate([running[max(0, running.shape[0] - window + 1) :], block])
        if running.shape[0] < window:
            continue
        # Row r is the window of running means ending at row r + window - 1 of `running`; columns settle on their own.
        settled = np.ones(running.shape[0] - window + 1, dtype=bool)
        for start in range(0, running.shape[1], _CONVERGENCE_COLUMNS):
            columns = running[:, start : start + _CONVERGENCE_COLUMNS]
            spans, reference = _window_spans(columns, window), np.abs(columns[window - 1 :])
            settled &= np.where(reference > 0.0, spans <= tolerance * reference, spans == 0.0).all(axis=1)
            if not settled.any():  # no later column can settle a row
                break
        rows = np.flatnonzero(settled)
        if rows.size:
            return number * _CONVERGENCE_BLOCK + block.shape[0] - running.shape[0] + int(rows[0]) + window
    return None


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run needs besides the dataset itself."""

    storm: str
    surge: hazard.SurgeField
    thresholds: hazard.ExposureThresholds = hazard.ExposureThresholds()
    d0_minutes: float = 50.0
    samples: int = 1000
    seed: int = 42
    horizons: tuple[str, ...] = network.HORIZONS
    workers: int = 1
    convergence_window: int = 100
    convergence_tolerance: float = 0.01

    def __post_init__(self) -> None:
        if not self.storm:
            raise InvalidInputError("storm label must be non-empty")
        if not (math.isfinite(self.d0_minutes) and self.d0_minutes > 0.0):
            raise InvalidInputError(f"d0 must be finite and > 0, got {self.d0_minutes}")
        if self.samples < 1:
            raise InvalidInputError(f"samples must be >= 1, got {self.samples}")
        if self.workers < 1:
            raise InvalidInputError(f"workers must be >= 1, got {self.workers}")
        if not self.horizons:
            raise InvalidInputError("at least one horizon required")
        for horizon in self.horizons:
            if horizon not in network.HORIZONS:
                raise InvalidInputError(f"unknown horizon {horizon!r}; expected one of {network.HORIZONS}")
        if len(set(self.horizons)) != len(self.horizons):
            raise InvalidInputError("horizons must be distinct")
        if self.convergence_window < 1:
            raise InvalidInputError(f"convergence_window must be >= 1, got {self.convergence_window}")
        if not (math.isfinite(self.convergence_tolerance) and self.convergence_tolerance > 0.0):
            raise InvalidInputError(f"convergence_tolerance must be finite and > 0, got {self.convergence_tolerance}")


@dataclass
class HorizonResult:
    """Aggregated accessibility for one recovery horizon.

    Scores are scaled to capacity per 1,000 residents. score_table has
    one row per distinct network of this horizon and one column per
    demand; sample_network maps each Monte Carlo sample to its row, and
    every row has at least one sample. sample_scores gathers the N x D
    matrix from them on demand. converged_at is the first sample count at
    which every demand's running mean has settled, or None.
    """

    horizon: str
    demand_ids: tuple[str, ...]
    mean_scores: np.ndarray
    cov: np.ndarray
    quartiles: dict[str, str]
    group_averages: dict[str, float]
    no_access_fraction: float
    average_cov: float
    converged_at: int | None
    score_table: np.ndarray
    sample_network: np.ndarray

    @property
    def sample_scores(self) -> np.ndarray:
        return self.score_table[self.sample_network]


@dataclass
class ScenarioResult:
    """One storm's run. group_weights holds each group's total weight, "overall" first, added demand by demand
    as access.weighted_average adds its denominator (sum() would compensate from Python 3.12)."""

    storm: str
    seed: int
    samples: int
    d0_minutes: float
    failure_probability: dict[str, float]
    fragility_checksum: str
    group_weights: dict[str, float]
    horizons: dict[str, HorizonResult] = field(default_factory=dict)


def _column_stats(table: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-demand x.mean(axis=0) and CoV x.std(axis=0) / mean, to the bit, for the samples x = table[index],
    where index uses every row of table. Columns whose rows are all identical get a CoV of exactly 0, with no
    residue from the variance formula."""
    mean = _gathered_sum(table, index) / index.size
    std = np.sqrt(_gathered_sum(np.square(table - mean), index) / index.size)
    std[table.min(axis=0) == table.max(axis=0)] = 0.0
    cov = np.zeros_like(mean)
    np.divide(std, mean, out=cov, where=mean > 0.0)
    return mean, cov


def _thread_map(fn, items: Sequence, workers: int) -> list:
    """[fn(item) for item in items] on the calling thread and workers - 1 helper threads (none for one worker),
    each taking the next item not yet taken; once all are done, the lowest-index item that raised re-raises."""
    results, failures, lock, taken = [None] * len(items), {}, threading.Lock(), iter(range(len(items)))

    def take() -> int | None:
        with lock:
            return next(taken, None)

    def work() -> None:
        for i in iter(take, None):
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                failures[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(min(workers, len(items)) - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def run_scenario(
    config: ScenarioConfig,
    graph: network.RoadGraph,
    bridges: Sequence[network.BridgeRecord],
    supplies: Sequence[access.SupplySite],
    demands: Sequence[access.DemandSite],
) -> ScenarioResult:
    """Run the full Monte Carlo scenario for every configured horizon.

    Exposures and failure probabilities (fragility.default_table()) are
    deterministic per storm, so they are computed once. Bridges with p = 1
    close in each horizon's base network (closure_mask's structural rule)
    and bridges with p = 0 never do; only the rest are sampled, in
    groups that touch the same closure units, and each sample is keyed
    on its pattern of failed groups. Each pattern maps, per horizon, to
    the closure units its failed groups touch beyond the horizon's base
    set, less the units no demand can reach within d0 on the base
    network (see network.live_edges). Each horizon evaluates each of its
    distinct closed-unit keys once, from its own network.PortalDistances.
    One _thread_map serves every horizon's keys: the calling thread and
    config.workers - 1 helper threads share the portals and site arrays,
    and the numpy kernels release the GIL; --workers 1 starts no thread.
    Each network's scores are a pure function of its key, so any worker
    count gives the same bits. Each horizon's K x D score table (K
    networks, D demands) is indexed per sample and aggregated in
    gathered row blocks. Subgroups with zero total weight are left out
    of the group averages.
    """
    if not sum(d.population for d in demands) > 0.0:
        raise InvalidInputError("scenario needs demand locations with a total population above zero")
    demand_ids = tuple(d.demand_id for d in demands)
    for kind, ids in (("demand", demand_ids), ("supply", [s.supply_id for s in supplies])):
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate {kind} ids")
    if {b.bridge_id: b for b in bridges} != graph.bridges:  # exposures read the graph's records
        raise InvalidInputError("bridge records do not match the graph's bridges")
    table = fragility.default_table()

    exposures = hazard.evaluate_exposures(config.surge, graph.bridge_sites, graph.road_sites)
    failure_probability: dict[str, float] = {}
    for bid, h_max, z_c in zip(graph.bridge_ids, exposures.h_max.tolist(), exposures.z_c.tolist()):
        row = table.coefficients_for(graph.bridges[bid].mass_ton_per_m)
        failure_probability[bid] = fragility.uplift_probability(row, h_max, z_c)

    snapped = (network.snap_sites(graph, demands), network.snap_sites(graph, supplies))
    units = network.closure_units(graph, np.concatenate(snapped))
    # Sites on one node share their reach, so searches and 2SFCA sums run on the distinct (demand, supply) nodes.
    nodes, (d_row, s_col) = zip(*(np.unique(sites, return_inverse=True) for sites in snapped))
    bridge_units: list[set[int]] = [set() for _ in graph.bridge_ids]  # the closure units of each bridge's edges
    on_bridge = graph.bridge_rows >= 0
    for row, unit in zip(graph.bridge_rows[on_bridge].tolist(), units[on_bridge].tolist()):
        bridge_units[row].add(unit)

    # u < 0 never holds and u < 1 always does, so only 0 < p < 1 needs a draw; p = 1 closes in each base network.
    # Bridges that touch the same closure units close the same network, so each such group draws one outcome,
    # its members by p descending, then by id (bridges are in id order and a reversed sort stays stable).
    bridges_p = list(zip(graph.bridge_ids, failure_probability.values(), bridge_units))
    groups: dict[frozenset[int], dict[str, float]] = {}
    for bid, p, touched in sorted(bridges_p, key=lambda b: b[1], reverse=True):
        if 0.0 < p < 1.0:
            groups.setdefault(frozenset(touched), {})[bid] = p
    cuts = [tuple(failure_cuts(members).items()) for members in groups.values()]

    # Pass one: per-sample pattern of failed groups, numbered in first-seen order.
    patterns: dict[tuple[bool, ...], int] = {}
    sample_pattern = np.array(
        [patterns.setdefault(sample_failures(cuts, config.seed, i), len(patterns)) for i in range(config.samples)],
        dtype=np.int64,
    )

    # Pass two: patterns to closure-unit sets, one evaluation per distinct set.
    certain = {bid: p == 1.0 for bid, p in failure_probability.items()}
    items: list[tuple[str, frozenset[int]]] = []
    portals: dict[str, network.PortalDistances] = {}
    sample_network: dict[str, np.ndarray] = {}
    for horizon in config.horizons:
        base_mask = network.closure_mask(graph, exposures, config.thresholds, certain, horizon)
        base = set(units[graph.edge_flags(base_mask.provenance)].tolist())
        base_closed = network.isin_ids(units, sorted(base))
        live_units = frozenset(units[network.live_edges(graph, base_closed, *nodes, config.d0_minutes)].tolist())
        live_risk = [(u & live_units) - base for u in groups]
        toggled = frozenset().union(*live_risk)
        portals[horizon] = network.PortalDistances(graph, base_closed, units, toggled, *nodes, config.d0_minutes)
        keys: dict[frozenset[int], int] = {}
        per_pattern = [keys.setdefault(frozenset().union(*compress(live_risk, p)), len(keys)) for p in patterns]
        sample_network[horizon] = np.array(per_pattern, dtype=np.int64)[sample_pattern]
        items += [(horizon, closed) for closed in keys]
    pop, cap = access.site_weights(demands, supplies)

    def network_scores(item) -> np.ndarray:
        """Scaled score per demand on the item's horizon with its toggled units closed."""
        horizon, closed = item
        return access.two_step(portals[horizon].reachable(closed), d_row, s_col, pop, cap)[0] * access.SCORE_SCALE

    scores = _thread_map(network_scores, items, config.workers)

    group_weights = {"overall": {d.demand_id: float(d.population) for d in demands}} | {
        name: {d.demand_id: float(d.subgroups.get(name, 0.0)) for d in demands}
        for name in access.group_names(demands)
    }
    result = ScenarioResult(
        storm=config.storm,
        seed=config.seed,
        samples=config.samples,
        d0_minutes=config.d0_minutes,
        failure_probability=failure_probability,
        fragility_checksum=table.checksum(),
        group_weights={name: reduce(float.__add__, weights.values(), 0.0) for name, weights in group_weights.items()},
    )

    for horizon in config.horizons:
        index = sample_network[horizon]
        score_table = np.stack([row for (item_horizon, _), row in zip(items, scores) if item_horizon == horizon])
        mean_scores, cov = _column_stats(score_table, index)
        mean_access = access.AccessScores(
            scores={did: float(v) for did, v in zip(demand_ids, mean_scores)},
            d0_minutes=config.d0_minutes,
        )
        group_averages = {name: access.weighted_average(mean_access, weights)  # overall's weight > 0 (checked above)
                          for name, weights in group_weights.items() if result.group_weights[name] > 0.0}
        # Convergence requires every demand's running mean to settle.
        converged_at = convergence_report(score_table, config.convergence_window, config.convergence_tolerance, index)
        result.horizons[horizon] = HorizonResult(
            horizon=horizon,
            demand_ids=demand_ids,
            mean_scores=mean_scores,
            cov=cov,
            quartiles=access.quartile_classify(mean_access),
            group_averages=group_averages,
            no_access_fraction=access.no_access_fraction(mean_access),
            average_cov=float(cov.mean()),
            converged_at=converged_at,
            score_table=score_table,
            sample_network=index,
        )
    return result
