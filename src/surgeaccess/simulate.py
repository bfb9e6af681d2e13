"""Monte Carlo closure sampling and accessibility aggregation.

Each sample draws an independent failure outcome per bridge from its
uplift probability, builds the closed-edge set for each recovery horizon,
and rescores accessibility on the surviving network. Draws are counter
based: the uniform for (seed, sample, bridge) is a pure hash of those
three values, so results never depend on iteration order, worker count,
or platform RNG state, and reruns with the same seed are bit-identical.

Only bridges with a failure probability strictly between 0 and 1 are
drawn; the rest fail always or never. Samples are keyed on closure units
(see network.closure_units): samples whose closed edges touch the same
units share one network evaluation, evaluated on the canonical closed
set that takes every edge of each touched unit. Units that lie on no
within-d0 path on a horizon's base network are left out of its keys
(see network.live_edges). Each horizon costs three bounded Dijkstra
searches, and each network a min-plus closure (network.PortalDistances).
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import access, fragility, hazard, network
from .errors import InvalidInputError


def uniform_draw(master_seed: int, sample_index: int, bridge_id: str) -> float:
    """Deterministic uniform in [0, 1) keyed by seed, sample and bridge."""
    return _uniform(hashlib.sha256(f"{master_seed}:{sample_index}:".encode()), bridge_id)


def _uniform(prefix, bridge_id: str) -> float:
    """uniform_draw given the hash of its "seed:index:" prefix, which stays unchanged."""
    digest = prefix.copy()
    digest.update(bridge_id.encode())
    return (int.from_bytes(digest.digest()[:8], "big") >> 11) * 2.0**-53


def sample_failures(
    failure_probability: Mapping[str, float],
    master_seed: int,
    sample_index: int,
) -> dict[str, bool]:
    """One Bernoulli outcome per bridge for one Monte Carlo sample.

    Probabilities of 0 and 1 are honored exactly. Because each bridge
    keeps its own uniform across probability changes, raising every
    probability pointwise can only grow the failure set (common random
    numbers), which keeps paired storm comparisons noise-free.
    """
    if sample_index < 0:
        raise InvalidInputError(f"sample index must be >= 0, got {sample_index}")
    prefix = hashlib.sha256(f"{master_seed}:{sample_index}:".encode())
    out: dict[str, bool] = {}
    for bridge_id, p in failure_probability.items():
        _check_probability(bridge_id, p)
        out[bridge_id] = _uniform(prefix, bridge_id) < p
    return out


def _check_probability(bridge_id: str, p: float) -> None:
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"bridge {bridge_id}: probability {p} outside [0, 1]")


# Candidate rows convergence_report checks per step before it looks for a settled one.
_CONVERGENCE_BLOCK = 256


def _running_mean(trace: np.ndarray) -> np.ndarray:
    """Cumulative mean down the rows of a 2-d per-sample array."""
    return np.cumsum(trace, axis=0) / np.arange(1, trace.shape[0] + 1, dtype=float)[:, None]


def _running_mean_blocks(trace: np.ndarray, size: int):
    """_running_mean(trace) in blocks of `size` rows, each summed when asked for. Each block's cumsum
    starts from the sum before it, so every column adds up in one cumsum's order, to the bit."""
    sums = trace[:0]
    for start in range(0, trace.shape[0], size):  # carry the last sum in as a first row, then drop it
        sums = np.cumsum(np.concatenate([sums[-1:], trace[start : start + size]]), axis=0)[min(start, 1) :]
        yield sums / np.arange(start + 1, start + sums.shape[0] + 1, dtype=float)[:, None]


def convergence_report(
    trace: np.ndarray,
    window: int = 100,
    tolerance: float = 0.01,
) -> int | None:
    """Smallest sample count at which every running mean has settled.

    trace holds per-sample values, one row per sample (a single column
    is fine). The estimate at n is converged when the trailing `window`
    running means span a range of at most tolerance * |current mean|
    (exactly zero range when the current mean is zero). Returns None if
    the trace never settles or is shorter than the window. Candidate
    rows are checked a block at a time, and neither the scan nor the
    running means go past the first block that holds a settled row.
    """
    if window < 1:
        raise InvalidInputError(f"window must be >= 1, got {window}")
    if not math.isfinite(tolerance) or tolerance <= 0.0:
        raise InvalidInputError(f"tolerance must be finite and > 0, got {tolerance}")
    trace = np.asarray(trace, dtype=float)
    if trace.ndim == 1:
        trace = trace[:, None]
    if trace.ndim != 2 or trace.shape[0] == 0:
        raise InvalidInputError("trace must be a non-empty 1-d or 2-d array")
    running = trace[:0]  # running means of the block and the window - 1 samples before it
    for index, block in enumerate(_running_mean_blocks(trace, _CONVERGENCE_BLOCK)):
        running = np.concatenate([running[max(0, running.shape[0] - window + 1) :], block])
        if running.shape[0] < window:
            continue
        # Row r is the window of running means ending at row r + window - 1 of `running`.
        windows = sliding_window_view(running, window, axis=0)
        spans = windows.max(axis=-1) - windows.min(axis=-1)
        reference = np.abs(running[window - 1 :])
        settled = np.where(reference > 0.0, spans <= tolerance * reference, spans == 0.0)
        rows = np.flatnonzero(settled.all(axis=1))
        if rows.size:
            return index * _CONVERGENCE_BLOCK + block.shape[0] - running.shape[0] + int(rows[0]) + window
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


@dataclass
class HorizonResult:
    """Aggregated accessibility for one recovery horizon.

    Scores are scaled to capacity per 1,000 residents. sample_scores has
    one row per Monte Carlo sample and one column per demand site;
    running_mean gives its cumulative means, the per-demand convergence
    trace. converged_at is the first sample count at which every
    demand's running mean has settled, or None.
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
    sample_scores: np.ndarray

    @property
    def running_mean(self) -> np.ndarray:
        return _running_mean(self.sample_scores)


@dataclass
class ScenarioResult:
    storm: str
    seed: int
    samples: int
    d0_minutes: float
    demand_ids: tuple[str, ...]
    failure_probability: dict[str, float]
    exposures: hazard.ExposureSet
    fragility_checksum: str
    horizons: dict[str, HorizonResult] = field(default_factory=dict)


# Worker context for parallel network evaluation; set once per process.
_WORKER_CTX: tuple | None = None


def _init_worker(*context) -> None:
    global _WORKER_CTX
    _WORKER_CTX = context


def _network_scores(horizon, closed, graph, portals, pop, cap) -> np.ndarray:
    """Scaled score per demand on one horizon's base network with the toggled units `closed` closed."""
    return access.two_step(portals[horizon].reachable(graph, closed), pop, cap)[0] * access.SCORE_SCALE


def _eval_in_worker(item) -> np.ndarray:
    return _network_scores(*item, *_WORKER_CTX)


def _evaluate_networks(items: list, workers: int, context: tuple) -> list[np.ndarray]:
    """Score vector per (horizon, key) item, in list order. Each is a pure
    function of its item, so any worker count gives the same result."""
    if workers <= 1 or len(items) < 2:
        return [_network_scores(*item, *context) for item in items]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=context) as pool:
        chunksize = max(1, len(items) // (4 * workers))
        return list(pool.map(_eval_in_worker, items, chunksize=chunksize))


def _column_cov(sample_scores: np.ndarray) -> np.ndarray:
    """Per-demand coefficient of variation across samples.

    Columns whose samples are all identical get exactly 0, with no
    floating-point residue from the variance formula.
    """
    mean = sample_scores.mean(axis=0)
    std = sample_scores.std(axis=0)
    identical = sample_scores.min(axis=0) == sample_scores.max(axis=0)
    std[identical] = 0.0
    cov = np.zeros_like(mean)
    np.divide(std, mean, out=cov, where=mean > 0.0)
    return cov


def run_scenario(
    config: ScenarioConfig,
    graph: network.RoadGraph,
    bridges: Sequence[network.BridgeRecord],
    supplies: Sequence[access.SupplySite],
    demands: Sequence[access.DemandSite],
    fragility_table: fragility.FragilityTable | None = None,
) -> ScenarioResult:
    """Run the full Monte Carlo scenario for every configured horizon.

    Exposures and failure probabilities are deterministic per storm, so
    they are computed once. Bridges with p = 1 join every sample's closed
    set and bridges with p = 0 never do; only the rest are sampled, and
    each sample is keyed on its pattern of failed at-risk bridges. Each
    pattern maps, per horizon, to the closure units its closed edges
    touch beyond the horizon's base set, less the units no demand can
    reach within d0 on the base network (see network.live_edges). Each
    distinct (base set, closed units) key is evaluated once, from the
    network.PortalDistances of the first horizon that keys it. The
    resulting K x D score table (K networks, D demands) is indexed per
    sample. Subgroups with zero total weight are left out of the group
    averages.
    """
    if not demands:
        raise InvalidInputError("scenario needs at least one demand location")
    demand_ids = tuple(d.demand_id for d in demands)
    for kind, ids in (("demand", demand_ids), ("supply", [s.supply_id for s in supplies])):
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate {kind} ids")
    if {b.bridge_id for b in bridges} != set(graph.bridges):
        raise InvalidInputError("bridge records do not match the graph's bridges")
    table = fragility_table if fragility_table is not None else fragility.default_table()

    bridge_rows = sorted(bridges, key=lambda b: b.bridge_id)
    exposures = hazard.evaluate_exposures(
        config.surge,
        [(b.bridge_id, b.deck_elevation_m, b.x, b.y) for b in bridge_rows],
        graph.road_sites(),
    )
    failure_probability: dict[str, float] = {}
    for rec in bridge_rows:
        exp = exposures.bridges[rec.bridge_id]
        row = table.coefficients_for(rec.mass_ton_per_m)
        p = failure_probability[rec.bridge_id] = fragility.uplift_probability(row, exp.h_max, exp.z_c)
        _check_probability(rec.bridge_id, p)
    # u < 0 never holds and u < 1 always does, so only 0 < p < 1 needs a draw.
    at_risk = {bid: p for bid, p in failure_probability.items() if 0.0 < p < 1.0}
    always = [bid for bid, p in failure_probability.items() if p == 1.0]

    no_failures = {bid: False for bid in failure_probability}
    base_masks = {
        horizon: network.closure_mask(graph, exposures, config.thresholds, no_failures, horizon)
        for horizon in config.horizons
    }

    # Pass one: per-sample pattern of failed at-risk bridges.
    patterns: dict[tuple[bool, ...], int] = {}
    sample_pattern = np.empty(config.samples, dtype=np.int64)
    for index in range(config.samples):
        draw = sample_failures(at_risk, config.seed, index)
        sample_pattern[index] = patterns.setdefault(tuple(draw.values()), len(patterns))

    # Pass two: patterns to closure-unit sets, one evaluation per distinct set.
    snapped = (network.snap_sites(graph, demands), network.snap_sites(graph, supplies))
    units = network.closure_units(graph, np.concatenate(snapped))

    def units_of(edge_ids) -> frozenset[int]:
        return frozenset(units[graph.edge_flags(edge_ids)].tolist())

    risk_units = [units_of(graph.edges_for_bridge(bid)) for bid in at_risk]
    fixed_units = units_of(eid for bid in always for eid in graph.edges_for_bridge(bid))
    networks: dict[tuple[frozenset[int], frozenset[int]], tuple[int, str]] = {}
    portals: dict[str, network.PortalDistances] = {}
    sample_network: dict[str, np.ndarray] = {}
    for horizon in config.horizons:
        base = fixed_units | units_of(base_masks[horizon].provenance)
        base_closed = np.isin(units, sorted(base))
        live_units = frozenset(units[network.live_edges(graph, base_closed, *snapped, config.d0_minutes)].tolist())
        live_risk = [(u & live_units) - base for u in risk_units]
        toggled = frozenset().union(*live_risk)
        portals[horizon] = network.PortalDistances(graph, base_closed, units, toggled, *snapped, config.d0_minutes)
        per_pattern = [
            networks.setdefault((base, frozenset().union(*compress(live_risk, pattern))), (len(networks), horizon))[0]
            for pattern in patterns
        ]
        sample_network[horizon] = np.array(per_pattern, dtype=np.int64)[sample_pattern]
    items = [(horizon, closed) for (_, closed), (_, horizon) in networks.items()]
    context = (graph, portals, *access.site_weights(demands, supplies))
    score_table = np.stack(_evaluate_networks(items, config.workers, context))

    result = ScenarioResult(
        storm=config.storm,
        seed=config.seed,
        samples=config.samples,
        d0_minutes=config.d0_minutes,
        demand_ids=demand_ids,
        failure_probability=failure_probability,
        exposures=exposures,
        fragility_checksum=table.checksum(),
    )
    population = {d.demand_id: d.population for d in demands}
    subgroup_weights = {
        name: {d.demand_id: float(d.subgroups.get(name, 0.0)) for d in demands}
        for name in access.group_names(demands)
    }

    for horizon in config.horizons:
        sample_scores = score_table[sample_network[horizon]]
        mean_scores = sample_scores.mean(axis=0)
        cov = _column_cov(sample_scores)
        mean_access = access.AccessScores(
            scores={did: float(v) for did, v in zip(demand_ids, mean_scores)},
            d0_minutes=config.d0_minutes,
        )
        group_averages = {"overall": access.weighted_average(mean_access, population)}
        for name, weights in subgroup_weights.items():
            if sum(weights.values()) > 0.0:
                group_averages[name] = access.weighted_average(mean_access, weights)
        # Convergence requires every demand's running mean to settle.
        converged_at = convergence_report(sample_scores, config.convergence_window, config.convergence_tolerance)
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
            sample_scores=sample_scores,
        )
    return result
