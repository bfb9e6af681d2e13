"""Storm surge exposure and deterministic inundation closure rules.

All elevations share a single vertical datum and all coordinates live in
one planar CRS measured in meters. A surge field is a set of point samples
of storm tide elevation and significant wave height; queries resolve to the
nearest sample, with ties broken toward the lowest sample index so results
never depend on floating-point iteration order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.h_st = np.asarray(h_st, dtype=float)
        self.h_s = np.asarray(h_s, dtype=float)
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
        if np.unique(locs, axis=0).shape[0] != n:
            raise InvalidInputError("surge field contains duplicate sample locations")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurgeField):
            return NotImplemented
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.h_st, other.h_st)
            and np.array_equal(self.h_s, other.h_s)
            and self.datum_label == other.datum_label
            and self.coverage_radius_m == other.coverage_radius_m
        )

    def nearest_index(self, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest sample index and squared distance for each query point."""
        return nearest_points(self.x, self.y, qx, qy)

    def values_at(self, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(h_st, h_s) at each query point; no surge outside coverage."""
        idx, d2 = self.nearest_index(qx, qy)
        h_st = self.h_st[idx].copy()
        h_s = self.h_s[idx].copy()
        if self.coverage_radius_m is not None:
            outside = d2 > self.coverage_radius_m**2
            h_st[outside] = NO_SURGE[0]
            h_s[outside] = NO_SURGE[1]
        return h_st, h_s

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        datum_label: str = "unspecified",
        coverage_radius_m: float | None = None,
    ) -> SurgeField:
        """Load samples from a CSV with columns x, y, h_st, h_s."""
        required = ("x", "y", "h_st", "h_s")
        cols: dict[str, list[float]] = {name: [] for name in required}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            missing = [name for name in required if name not in fields]
            if missing:
                raise InvalidInputError(f"{path}: missing column(s) {', '.join(missing)}")
            for lineno, rec in enumerate(reader, start=2):
                try:
                    for name in required:
                        cols[name].append(float(rec[name]))
                except (TypeError, ValueError) as exc:
                    raise InvalidInputError(f"{path}:{lineno}: bad row ({exc})") from exc
        return cls(
            cols["x"], cols["y"], cols["h_st"], cols["h_s"],
            datum_label=datum_label, coverage_radius_m=coverage_radius_m,
        )


def nearest_points(px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest point (px, py) and its squared distance, per query point.

    Exact brute-force search, chunked to bound memory. np.argmin picks
    the first minimum, so ties go to the lowest point index.
    """
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    if qx.shape != qy.shape or qx.ndim != 1:
        raise InvalidInputError("query coordinates must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(qx)) and np.all(np.isfinite(qy))):
        raise InvalidInputError("query coordinates must be finite")
    idx = np.empty(qx.shape[0], dtype=np.int64)
    d2 = np.empty(qx.shape[0], dtype=float)
    chunk = max(1, 2_000_000 // max(px.shape[0], 1))
    for start in range(0, qx.shape[0], chunk):
        end = min(start + chunk, qx.shape[0])
        dist2 = (qx[start:end, None] - px[None, :]) ** 2 + (qy[start:end, None] - py[None, :]) ** 2
        idx[start:end] = np.argmin(dist2, axis=1)
        d2[start:end] = dist2[np.arange(end - start), idx[start:end]]
    return idx, d2


def sample_field_at(field: SurgeField, location: tuple[float, float]) -> tuple[float, float]:
    """(h_st, h_s) at a single location."""
    h_st, h_s = field.values_at(np.array([location[0]]), np.array([location[1]]))
    return float(h_st[0]), float(h_s[0])


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value}")
    return value


def relative_surge_elevation(h_b_m: float, h_st_m: float) -> float:
    """Deck elevation relative to storm tide: z_c = h_b - h_st (m)."""
    return _require_finite("h_b", h_b_m) - _require_finite("h_st", h_st_m)


def inundation_depth(h_r_m: float, h_st_m: float) -> float:
    """Water depth over a road's lowest elevation: d_in = h_st - h_r (m)."""
    return _require_finite("h_st", h_st_m) - _require_finite("h_r", h_r_m)


def max_wave_height(h_s_m: float) -> float:
    """Design maximum wave height from significant wave height."""
    h_s_m = _require_finite("h_s", h_s_m)
    if h_s_m < 0.0:
        raise InvalidInputError(f"h_s must be >= 0, got {h_s_m}")
    return WAVE_HEIGHT_FACTOR * h_s_m

def bridge_inundation_closed(z_c_m: float, thresholds: ExposureThresholds) -> bool:
    """True when the deck sits at or below the bridge closure threshold."""
    return _require_finite("z_c", z_c_m) <= thresholds.bridge_close_zc


def road_inundation_closed(d_in_m: float, thresholds: ExposureThresholds) -> bool:
    """True when standing water reaches the road closure depth."""
    return _require_finite("d_in", d_in_m) >= thresholds.road_close_din


@dataclass(frozen=True)
class BridgeExposure:
    """Surge quantities evaluated at one bridge location."""

    bridge_id: str
    h_st: float
    h_s: float
    z_c: float
    h_max: float


@dataclass(frozen=True)
class ExposureSet:
    """Deterministic exposure of every bridge and road to one storm."""

    bridges: dict[str, BridgeExposure]
    road_depth: dict[str, float]


def evaluate_exposures(
    field: SurgeField,
    bridge_sites: Iterable[tuple[str, float, float, float]],
    road_sites: Iterable[tuple[str, float, float, float]],
) -> ExposureSet:
    """Evaluate the surge field at every bridge and road site.

    bridge_sites rows are (bridge_id, deck_elevation_m, x, y); road_sites
    rows are (edge_id, lowest_elevation_m, x, y) with the location taken
    at the segment midpoint by callers.
    """
    bridge_rows = list(bridge_sites)
    road_rows = list(road_sites)

    bridges: dict[str, BridgeExposure] = {}
    if bridge_rows:
        bx = np.array([r[2] for r in bridge_rows], dtype=float)
        by = np.array([r[3] for r in bridge_rows], dtype=float)
        h_st, h_s = field.values_at(bx, by)
        for (bridge_id, h_b, _x, _y), st, s in zip(bridge_rows, h_st, h_s):
            bridges[str(bridge_id)] = BridgeExposure(
                bridge_id=str(bridge_id),
                h_st=float(st),
                h_s=float(s),
                z_c=relative_surge_elevation(h_b, float(st)),
                h_max=max_wave_height(float(s)),
            )

    road_depth: dict[str, float] = {}
    if road_rows:
        rx = np.array([r[2] for r in road_rows], dtype=float)
        ry = np.array([r[3] for r in road_rows], dtype=float)
        h_st, _h_s = field.values_at(rx, ry)
        for (edge_id, h_r, _x, _y), st in zip(road_rows, h_st):
            road_depth[str(edge_id)] = inundation_depth(h_r, float(st))

    return ExposureSet(bridges=bridges, road_depth=road_depth)
