"""Two-step floating catchment accessibility scoring.

Step one assigns each supply site a ratio of its capacity to the total
population that can reach it within the catchment. Step two sums those
ratios over the supplies each demand location can reach. Both steps sum
densely over the boolean demand x supply reachability matrix, in list
order (see two_step). Scores are kept as raw ratios internally and
scaled to capacity per 1,000 residents for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, UndefinedGroupError

if TYPE_CHECKING:
    from .network import TravelTimeTable

# Reporting scale: supply capacity per this many residents.
SCORE_SCALE = 1000.0

# Percentile ranks bounding the four score classes.
_QUARTILE_RANKS = (25, 50, 75)
QUARTILE_LABELS = ("Q1", "Q2", "Q3", "Q4")


@dataclass(frozen=True)
class SupplySite:
    """A service location with a nonnegative capacity (employee count)."""

    supply_id: str
    x: float
    y: float
    capacity: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "capacity"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"supply {self.supply_id}: {name} must be finite")
        if self.capacity < 0.0:
            raise InvalidInputError(f"supply {self.supply_id}: capacity must be >= 0")


@dataclass(frozen=True)
class DemandSite:
    """A population location, optionally split into named subgroups.

    Subgroup weights are head counts; each must fit inside the total
    population. Groups may overlap each other.
    """

    demand_id: str
    x: float
    y: float
    population: float
    subgroups: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("x", "y", "population"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"demand {self.demand_id}: {name} must be finite")
        if self.population < 0.0:
            raise InvalidInputError(f"demand {self.demand_id}: population must be >= 0")
        for group, weight in self.subgroups.items():
            if not math.isfinite(weight) or weight < 0.0:
                raise InvalidInputError(f"demand {self.demand_id}: group {group} weight must be finite and >= 0")
            if weight > self.population:
                raise InvalidInputError(
                    f"demand {self.demand_id}: group {group} weight {weight} exceeds population {self.population}"
                )


@dataclass(frozen=True)
class AccessScores:
    """Per-demand accessibility scores for one catchment radius."""

    scores: Mapping[str, float]
    d0_minutes: float


def _table_reach(table: TravelTimeTable, supplies: Sequence[SupplySite], demands: Sequence[DemandSite]) -> np.ndarray:
    """The table's demand x supply reachability, aligned to the given lists."""
    reach = np.zeros((len(demands), len(supplies)), dtype=bool)
    rows = _positions(table.demand_ids, [d.demand_id for d in demands], "demand")
    cols = _positions(table.supply_ids, [s.supply_id for s in supplies], "supply")
    reach[rows[table.demand_index], cols[table.supply_index]] = True
    return reach


def _positions(table_ids: Sequence[str], ids: Sequence[str], kind: str) -> np.ndarray:
    """Position in ids of each table id; ids must be distinct and hold every table id."""
    index: dict[str, int] = {}
    for pos, sid in enumerate(ids):
        if index.setdefault(sid, pos) != pos:
            raise InvalidInputError(f"duplicate {kind} id {sid}")
    for tid in table_ids:
        if tid not in index:
            raise InvalidInputError(f"table {kind} {tid} missing from {kind} list")
    return np.array([index[tid] for tid in table_ids], dtype=np.int64)


def ratio_vector(
    table: TravelTimeTable,
    supplies: Sequence[SupplySite],
    demands: Sequence[DemandSite],
) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, reachable_population) per supply, aligned to the supply list.

    Supplies whose catchment holds zero population are inert: their ratio
    is reported as 0 here and they are dropped from the mapping form.
    """
    return two_step(_table_reach(table, supplies, demands), *site_weights(demands, supplies))[1:]


def score_vector(
    table: TravelTimeTable,
    supplies: Sequence[SupplySite],
    demands: Sequence[DemandSite],
) -> np.ndarray:
    """Unscaled accessibility score per demand, aligned to the demand list."""
    return two_step(_table_reach(table, supplies, demands), *site_weights(demands, supplies))[0]


def site_weights(demands: Sequence[DemandSite], supplies: Sequence[SupplySite]) -> tuple[np.ndarray, np.ndarray]:
    """(population per demand, capacity per supply), the arrays two_step takes."""
    return np.array([d.population for d in demands], dtype=float), np.array([s.capacity for s in supplies], dtype=float)


def two_step(reach: np.ndarray, pop: np.ndarray, cap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binary 2SFCA on the boolean demand x supply reachability matrix
    and the site_weights arrays: (unscaled score per demand, ratio per
    supply, reachable population per supply). Each sum adds its terms in
    list order (demands for a supply, supplies for a demand), whatever the
    matrix's memory layout. With one demand or one supply a sum runs down
    a lone column, which numpy would add pairwise, so _column_sums adds
    it with cumsum instead."""
    denom = _column_sums(pop, reach)
    ratio = np.zeros(cap.size, dtype=float)
    np.divide(cap, denom, out=ratio, where=denom > 0.0)
    return _column_sums(ratio, reach.T), ratio, denom


def _column_sums(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """weights @ mask, adding the rows in order: numpy adds an axis-0 sum
    of a C-ordered array row by row, and cumsum a lone column."""
    terms = np.multiply(weights[:, None], mask, order="C")
    if terms.shape[1] == 1 and terms.shape[0] > 1:
        return np.cumsum(terms, axis=0)[-1]
    return terms.sum(axis=0)


def supply_ratios(
    table: TravelTimeTable,
    supplies: Sequence[SupplySite],
    demands: Sequence[DemandSite],
) -> dict[str, float]:
    """Capacity-to-reachable-population ratio per supply site.

    Inert supplies (no reachable population within the catchment) are
    omitted so they cannot contribute to any score downstream.
    """
    ratio, denom = ratio_vector(table, supplies, demands)
    return {
        s.supply_id: float(r)
        for s, r, d in zip(supplies, ratio, denom)
        if d > 0.0
    }


def accessibility_scores(
    table: TravelTimeTable,
    supplies: Sequence[SupplySite],
    demands: Sequence[DemandSite],
) -> AccessScores:
    """Sum reachable supply ratios per demand location (unscaled)."""
    vec = score_vector(table, supplies, demands)
    return AccessScores(
        scores={d.demand_id: float(v) for d, v in zip(demands, vec)},
        d0_minutes=table.d0_minutes,
    )


def scale_scores(scores: AccessScores, scale: float = SCORE_SCALE) -> AccessScores:
    """Express scores as capacity per `scale` residents."""
    if not math.isfinite(scale) or scale <= 0.0:
        raise InvalidInputError(f"scale must be finite and > 0, got {scale}")
    return AccessScores(
        scores={k: v * scale for k, v in scores.scores.items()},
        d0_minutes=scores.d0_minutes,
    )


def _nearest_rank(sorted_values: np.ndarray, percent: int) -> float:
    """Nearest-rank percentile of an ascending array."""
    n = sorted_values.shape[0]
    rank = -((-percent * n) // 100)  # ceil(percent * n / 100)
    return float(sorted_values[max(rank, 1) - 1])


def quartile_classify(scores: AccessScores) -> dict[str, str]:
    """Label each demand Q1 (lowest quartile) through Q4 (highest).

    Nearest-rank percentiles with ties resolved toward the lower class,
    so the labels are invariant under any positive rescaling of scores.
    """
    if not scores.scores:
        raise InvalidInputError("quartile classification needs at least one score")
    values = np.array(list(scores.scores.values()), dtype=float)
    cuts = [_nearest_rank(np.sort(values), p) for p in _QUARTILE_RANKS]
    labels: dict[str, str] = {}
    for demand_id, value in scores.scores.items():
        if value <= cuts[0]:
            labels[demand_id] = QUARTILE_LABELS[0]
        elif value <= cuts[1]:
            labels[demand_id] = QUARTILE_LABELS[1]
        elif value <= cuts[2]:
            labels[demand_id] = QUARTILE_LABELS[2]
        else:
            labels[demand_id] = QUARTILE_LABELS[3]
    return labels


def weighted_average(scores: AccessScores, weights: Mapping[str, float]) -> float:
    """Population-weighted mean score over the demands carrying weight.

    weights maps demand id to the group's head count at that location;
    demands absent from the mapping contribute nothing.
    """
    num = 0.0
    den = 0.0
    for demand_id, score in scores.scores.items():
        w = float(weights.get(demand_id, 0.0))
        if not math.isfinite(w) or w < 0.0:
            raise InvalidInputError(f"weight for demand {demand_id} must be finite and >= 0")
        num += w * score
        den += w
    if den <= 0.0:
        raise UndefinedGroupError("group has zero total weight")
    return num / den


def no_access_fraction(scores: AccessScores) -> float:
    """Share of demand locations with a score of exactly zero."""
    if not scores.scores:
        raise InvalidInputError("no-access fraction needs at least one score")
    zeros = sum(1 for v in scores.scores.values() if v == 0.0)
    return zeros / len(scores.scores)


def group_names(demands: Iterable[DemandSite]) -> tuple[str, ...]:
    """Sorted union of subgroup names across the demand list."""
    names: set[str] = set()
    for d in demands:
        names.update(d.subgroups.keys())
    return tuple(sorted(names))
