"""Storm surge exposure and deterministic inundation closure rules.

All elevations share a single vertical datum and all coordinates live in
one planar CRS measured in meters. A surge field is a set of point samples
of storm tide elevation and significant wave height; queries resolve to the
nearest sample, with ties broken toward the lowest sample index so results
never depend on floating-point iteration order. The exposure and closure
rules are elementwise: each takes a float or an array of them, so a run
calls each rule once over all bridges or all roads, not once per site.
evaluate_exposures takes site rows and returns float arrays row for row
with them; which site a row belongs to is the caller's order, not ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

# Design maximum wave height over significant wave height.
WAVE_HEIGHT_FACTOR = 1.8

# Surge applied to locations outside the field's coverage.
NO_SURGE = (0.0, 0.0)


@dataclass(frozen=True)
class ExposureThresholds:
    """Closure thresholds in meters.

    A bridge deck closes when its elevation relative to storm tide is at
    or below bridge_close_zc (negative: deck near or under water). A road
    segment closes when water depth over its lowest point is at or above
    road_close_din.
    """

    bridge_close_zc: float = -0.6
    road_close_din: float = 0.6

    def __post_init__(self) -> None:
        if not math.isfinite(self.bridge_close_zc) or self.bridge_close_zc >= 0.0:
            raise InvalidInputError(f"bridge_close_zc must be finite and < 0, got {self.bridge_close_zc}")
        if not math.isfinite(self.road_close_din) or self.road_close_din <= 0.0:
            raise InvalidInputError(f"road_close_din must be finite and > 0, got {self.road_close_din}")


class SurgeField:
    """Point samples of storm tide elevation and significant wave height.

    coverage_radius, when set, bounds how far a query location may sit
    from its nearest sample before the field reports no surge at all.
    """

    def __init__(
        self,
        x: Sequence[float] | np.ndarray,
        y: Sequence[float] | np.ndarray,
        h_st: Sequence[float] | np.ndarray,
        h_s: Sequence[float] | np.ndarray,
        datum_label: str = "unspecified",
        coverage_radius_m: float | None = None,
    ):
        self.x, self.y, self.h_st, self.h_s = (np.asarray(column, dtype=float) for column in (x, y, h_st, h_s))
        self.datum_label = str(datum_label)
        self.coverage_radius_m = None if coverage_radius_m is None else float(coverage_radius_m)

        n = self.x.shape[0]
        if n == 0:
            raise InvalidInputError("surge field needs at least one sample")
        for name, arr in (("x", self.x), ("y", self.y), ("h_st", self.h_st), ("h_s", self.h_s)):
            if arr.shape != (n,):
                raise InvalidInputError(f"surge field column {name} has shape {arr.shape}, expected ({n},)")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"surge field column {name} contains non-finite values")
        if np.any(self.h_s < 0.0):
            raise InvalidInputError("significant wave heights must be >= 0")
        if self.coverage_radius_m is not None and (
            not math.isfinite(self.coverage_radius_m) or self.coverage_radius_m < 0.0
        ):
            raise InvalidInputError(f"coverage radius must be finite and >= 0, got {coverage_radius_m}")
        locs = np.stack([self.x, self.y], axis=1)
        if np.unique(locs, axis=0, return_index=True)[0].shape[0] != n:  # a bare np.unique imports numpy.ma
            raise InvalidInputError("surge field contains duplicate sample locations")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def values_at(self, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(h_st, h_s) at each query point; no surge outside coverage."""
        idx, d2 = nearest_points(self.x, self.y, qx, qy)
        h_st = self.h_st[idx].copy()
        h_s = self.h_s[idx].copy()
        if self.coverage_radius_m is not None:
            outside = d2 > self.coverage_radius_m**2
            h_st[outside] = NO_SURGE[0]
            h_s[outside] = NO_SURGE[1]
        return h_st, h_s


# Elements in one search's temporary arrays, bounding its memory: 2**13, so 64 KB per float64 or int64 array.
_SEARCH_BUDGET = 1 << 13

# The 3 x 3 block of grid cells around a query's cell.
_BLOCK_X, _BLOCK_Y = np.repeat([-1, 0, 1], 3), np.tile([-1, 0, 1], 3)


def nearest_points(px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest point (px, py) and its squared distance, per query point.

    Exact cell-grid search (Bentley & Friedman 1979). Points fall into
    square cells sqrt(w * h / n) wide (w x h their bounding box), about
    one point per cell, and never narrower than max(w, h) / n, so a thin
    or collinear set keeps about one point per cell along its length;
    either way the grid has O(n) cells. Each query's candidates are the
    points in the 3 x 3 cells around its own, counted from the grid's cell
    counts and taken in chunks of at most _SEARCH_BUDGET / 9 queries that
    hold at most _SEARCH_BUDGET candidates (a query with more gets a chunk
    of its own); only a chunk's cell blocks are built. Points and queries
    take their cells from one floor expression, monotone in the
    coordinate, so a point outside the block lies a cell width or more
    from the query, short of it only by the rounding of x - x0, far below
    1e-9 of a cell. A query whose best d2 is below cell**2 * (1 - 1e-9)
    therefore has its answer in the block; any other query (one outside
    the grid, or with empty cells around it) goes to the brute-force
    search. d2 is computed as the brute force computes it, and ties go to
    the lowest point index among the candidates at the least d2, so the
    result equals the brute force's bit for bit.
    """
    px, py, qx, qy = (np.asarray(coords, dtype=float) for coords in (px, py, qx, qy))
    if qx.shape != qy.shape or qx.ndim != 1:
        raise InvalidInputError("query coordinates must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(qx)) and np.all(np.isfinite(qy))):
        raise InvalidInputError("query coordinates must be finite")
    n = px.shape[0]
    x0, y0 = px.min(), py.min()
    width, height = px.max() - x0, py.max() - y0
    extent = max(width, height)
    cell = max(math.sqrt(width * height / n), extent / n) if extent > 0.0 else 1.0  # coincident points share one cell

    # Two empty rings of cells pad the grid. A query beyond them is clipped
    # into the inner ring; every point lies a cell or more from it, so it
    # fails the bound below.
    pcx = np.floor((px - x0) / cell).astype(np.int64) + 2
    pcy = np.floor((py - y0) / cell).astype(np.int64) + 2
    nx, ny = int(pcx.max()) + 3, int(pcy.max()) + 3
    point_cell = pcx * ny + pcy
    order = np.argsort(point_cell, kind="stable")
    cell_start = np.searchsorted(point_cell[order], np.arange(nx * ny + 1))
    qcx = np.clip(np.floor((qx - x0) / cell) + 2, 1, nx - 2).astype(np.int64)
    qcy = np.clip(np.floor((qy - y0) / cell) + 2, 1, ny - 2).astype(np.int64)
    # Candidates per query: the points of the 3 x 3 cells around its own.
    in_cell = np.diff(cell_start).reshape(nx, ny)
    total = sum(in_cell[1 + dx:nx - 1 + dx, 1 + dy:ny - 1 + dy] for dx, dy in zip(_BLOCK_X, _BLOCK_Y))[qcx - 1, qcy - 1]

    idx = np.zeros(qx.shape[0], dtype=np.int64)
    d2 = np.full(qx.shape[0], np.inf)
    queries = np.flatnonzero(total)
    ends = np.cumsum(total[queries])
    start = 0
    while start < queries.size:
        offset = ends[start] - total[queries[start]]
        stop = max(start + 1, int(np.searchsorted(ends, offset + _SEARCH_BUDGET, side="right")))
        chunk = queries[start:min(stop, start + _SEARCH_BUDGET // _BLOCK_X.size)]
        block = (qcx[chunk, None] + _BLOCK_X) * ny + qcy[chunk, None] + _BLOCK_Y
        firsts = cell_start[block].ravel()
        lengths = cell_start[block + 1].ravel() - firsts
        span = total[chunk]
        # Candidates of each query as one flat run, cell after cell.
        cand = order[np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths) + np.arange(span.sum())]
        owner = np.repeat(chunk, span)
        dist2 = (qx[owner] - px[cand]) ** 2 + (qy[owner] - py[cand]) ** 2
        runs = np.cumsum(span) - span
        d2[chunk] = np.minimum.reduceat(dist2, runs)
        idx[chunk] = np.minimum.reduceat(np.where(dist2 == np.repeat(d2[chunk], span), cand, n), runs)
        start += chunk.size

    fallback = np.flatnonzero(~(d2 < cell * cell * (1.0 - 1e-9)))
    idx[fallback], d2[fallback] = _nearest_brute_force(px, py, qx[fallback], qy[fallback])
    return idx, d2


def _nearest_brute_force(px, py, qx, qy) -> tuple[np.ndarray, np.ndarray]:
    """nearest_points by comparing every query with every point, chunked to
    bound memory. np.argmin picks the first minimum, so ties go to the
    lowest point index."""
    idx = np.empty(qx.shape[0], dtype=np.int64)
    d2 = np.empty(qx.shape[0], dtype=float)
    chunk = max(1, _SEARCH_BUDGET // max(px.shape[0], 1))
    for start in range(0, qx.shape[0], chunk):
        end = min(start + chunk, qx.shape[0])
        dist2 = (qx[start:end, None] - px[None, :]) ** 2 + (qy[start:end, None] - py[None, :]) ** 2
        idx[start:end] = np.argmin(dist2, axis=1)
        d2[start:end] = dist2[np.arange(end - start), idx[start:end]]
    return idx, d2


def _require_finite(name: str, value: float | np.ndarray) -> float | np.ndarray:
    """value as a float or a float array, all of it finite."""
    value = np.asarray(value, dtype=float)[()]
    if not np.all(np.isfinite(value)):
        raise InvalidInputError(f"{name} must be finite, got {value}")
    return value


def relative_surge_elevation(h_b_m: float | np.ndarray, h_st_m: float | np.ndarray) -> float | np.ndarray:
    """Deck elevation relative to storm tide: z_c = h_b - h_st (m)."""
    return _require_finite("h_b", h_b_m) - _require_finite("h_st", h_st_m)


def inundation_depth(h_r_m: float | np.ndarray, h_st_m: float | np.ndarray) -> float | np.ndarray:
    """Water depth over a road's lowest elevation: d_in = h_st - h_r (m)."""
    return _require_finite("h_st", h_st_m) - _require_finite("h_r", h_r_m)


def max_wave_height(h_s_m: float | np.ndarray) -> float | np.ndarray:
    """Design maximum wave height from significant wave height."""
    h_s_m = _require_finite("h_s", h_s_m)
    if np.any(h_s_m < 0.0):
        raise InvalidInputError(f"h_s must be >= 0, got {h_s_m}")
    return WAVE_HEIGHT_FACTOR * h_s_m


def bridge_inundation_closed(z_c_m: float | np.ndarray, thresholds: ExposureThresholds) -> np.bool_ | np.ndarray:
    """True when the deck sits at or below the bridge closure threshold."""
    return _require_finite("z_c", z_c_m) <= thresholds.bridge_close_zc


def road_inundation_closed(d_in_m: float | np.ndarray, thresholds: ExposureThresholds) -> np.bool_ | np.ndarray:
    """True when standing water reaches the road closure depth."""
    return _require_finite("d_in", d_in_m) >= thresholds.road_close_din


@dataclass(frozen=True, eq=False)  # array fields: == would compare elementwise and not give a bool
class ExposureSet:
    """Deterministic exposure to one storm, row for row with the sites
    evaluated: z_c and h_max per bridge site, flood depth per road site."""

    z_c: np.ndarray
    h_max: np.ndarray
    road_depth: np.ndarray


def evaluate_exposures(field: SurgeField, bridge_sites, road_sites) -> ExposureSet:
    """Evaluate the surge field at every bridge and road site.

    bridge_sites rows are (deck_elevation_m, x, y) and road_sites rows
    (lowest_elevation_m, x, y), with the road location taken at the
    segment midpoint by callers; each is an (n, 3) array or a sequence of
    such rows, and any n may be 0.
    """
    h_b, bx, by = np.asarray(bridge_sites, dtype=float).reshape(-1, 3).T
    h_r, rx, ry = np.asarray(road_sites, dtype=float).reshape(-1, 3).T
    h_st, h_s = field.values_at(bx, by)
    road_depth = inundation_depth(h_r, field.values_at(rx, ry)[0])
    return ExposureSet(relative_surge_elevation(h_b, h_st), max_wave_height(h_s), road_depth)
