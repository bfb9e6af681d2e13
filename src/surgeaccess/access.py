"""Two-step floating catchment accessibility scoring.

Step one assigns each supply site a ratio of its capacity to the total
population that can reach it within the catchment. Step two sums those
ratios over the supplies each demand location can reach. Both steps sum
in list order over the boolean reachability matrix between the nodes the
sites snap to, once per node, as a masked reduction down a C-ordered mask
(see two_step). Scores are kept as raw ratios internally and scaled to
capacity per 1,000 residents.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    population. Groups may overlap each other; "overall" names the whole
    population and is no subgroup's name.
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
            if group == "overall":
                raise InvalidInputError(f"demand {self.demand_id}: group name overall is reserved")
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


def _table_two_step(table: TravelTimeTable, supplies: Sequence[SupplySite], demands: Sequence[DemandSite]):
    """two_step on the table's demand x supply reachability, aligned to the given lists, one row and column per site."""
    reach = np.zeros((len(demands), len(supplies)), dtype=bool)
    rows = _positions(table.demand_ids, [d.demand_id for d in demands], "demand")
    cols = _positions(table.supply_ids, [s.supply_id for s in supplies], "supply")
    reach[np.ix_(rows, cols)] = table.minutes <= table.d0_minutes
    return two_step(reach, np.arange(len(demands)), np.arange(len(supplies)), *site_weights(demands, supplies))


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


def score_vector(
    table: TravelTimeTable,
    supplies: Sequence[SupplySite],
    demands: Sequence[DemandSite],
) -> np.ndarray:
    """Unscaled accessibility score per demand, aligned to the demand list."""
    return _table_two_step(table, supplies, demands)[0]


def site_weights(demands: Sequence[DemandSite], supplies: Sequence[SupplySite]) -> tuple[np.ndarray, np.ndarray]:
    """(population per demand, capacity per supply), the arrays two_step takes."""
    return np.array([d.population for d in demands], dtype=float), np.array([s.capacity for s in supplies], dtype=float)


def two_step(
    reach: np.ndarray, d_row: np.ndarray, s_col: np.ndarray, pop: np.ndarray, cap: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binary 2SFCA for sites on nodes: reach is the boolean demand-node x
    supply-node matrix, d_row and s_col give each demand's and supply's
    node, pop and cap are the site_weights arrays. Returns (unscaled score
    per demand, ratio per supply, reachable population per supply); an
    inert supply, one with no reachable population, has ratio 0. Each sum
    runs once per node, down a column of reach[d_row] or reach.T[s_col] in
    list order whatever the memory layout, and is gathered per site: every
    site gets the bits of its column of reach[d_row][:, s_col]. Each sum is
    a masked reduction, so no weighted copy of the matrix is built."""
    denom = _column_sums(pop, reach[d_row])[s_col]
    ratio = np.zeros(cap.size, dtype=float)
    np.divide(cap, denom, out=ratio, where=denom > 0.0)
    return _column_sums(ratio, reach.T[s_col])[d_row], ratio, denom


def _column_sums(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """weights @ mask, adding the rows in order without forming the
    weights x mask product: numpy adds a masked axis-0 reduction of a
    C-ordered mask row by row (an F-ordered one it adds in another order),
    and cumsum a lone column, which a plain reduction would add pairwise."""
    mask = np.ascontiguousarray(mask)
    if mask.shape[1] == 1 and mask.shape[0] > 1:
        return np.cumsum(weights * mask[:, 0])[-1:]
    return np.add.reduce(np.broadcast_to(weights[:, None], mask.shape), axis=0, where=mask)


def supply_ratios(
    table: TravelTimeTable,
    supplies: Sequence[SupplySite],
    demands: Sequence[DemandSite],
) -> dict[str, float]:
    """Capacity-to-reachable-population ratio per supply site.

    Inert supplies (no reachable population within the catchment) are
    omitted so they cannot contribute to any score downstream.
    """
    _, ratio, denom = _table_two_step(table, supplies, demands)
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
    # The cuts are non-decreasing, so bisect_left counts those strictly below the value.
    return {demand_id: QUARTILE_LABELS[bisect_left(cuts, value)] for demand_id, value in scores.scores.items()}


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
    return tuple(sorted({name for d in demands for name in d.subgroups}))
