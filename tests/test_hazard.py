"""Surge field sampling and deterministic closure rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from surgeaccess import hazard
from surgeaccess.errors import InvalidInputError

THRESH = hazard.ExposureThresholds()


def small_field(**kw):
    return hazard.SurgeField(
        x=[0.0, 100.0, 200.0],
        y=[0.0, 0.0, 0.0],
        h_st=[2.0, 3.0, 4.0],
        h_s=[0.5, 1.0, 1.5],
        **kw,
    )


def test_exposure_quantities():
    assert hazard.relative_surge_elevation(7.0, 2.5) == 4.5
    assert hazard.inundation_depth(1.0, 2.5) == 1.5
    assert hazard.max_wave_height(2.0) == 3.6
    assert hazard.WAVE_HEIGHT_FACTOR == 1.8


def test_bridge_closure_boundary_inclusive():
    # closure takes effect exactly at z_c = -0.6 m
    assert hazard.bridge_inundation_closed(-0.6, THRESH)
    assert hazard.bridge_inundation_closed(-0.7, THRESH)
    assert not hazard.bridge_inundation_closed(-0.5999999, THRESH)
    assert not hazard.bridge_inundation_closed(3.0, THRESH)


def test_road_closure_boundary_inclusive():
    # closure takes effect exactly at d_in = 0.6 m
    assert hazard.road_inundation_closed(0.6, THRESH)
    assert hazard.road_inundation_closed(1.4, THRESH)
    assert not hazard.road_inundation_closed(0.5999999, THRESH)
    assert not hazard.road_inundation_closed(-2.0, THRESH)


def test_threshold_signs_validated():
    with pytest.raises(InvalidInputError):
        hazard.ExposureThresholds(bridge_close_zc=0.6)
    with pytest.raises(InvalidInputError):
        hazard.ExposureThresholds(road_close_din=-0.6)
    with pytest.raises(InvalidInputError):
        hazard.ExposureThresholds(bridge_close_zc=float("nan"))


def test_nearest_sample_lookup():
    field = small_field()
    assert hazard.sample_field_at(field, (10.0, 5.0)) == (2.0, 0.5)
    assert hazard.sample_field_at(field, (160.0, 0.0)) == (4.0, 1.5)


def test_nearest_tie_breaks_to_lowest_index():
    # (50, 0) is equidistant from samples 0 and 1; sample 0 wins
    field = small_field()
    idx, d2 = field.nearest_index(np.array([50.0]), np.array([0.0]))
    assert idx[0] == 0
    assert d2[0] == 2500.0


def _naive_nearest(px, py, qx, qy):
    """Per query: the first index holding the least squared distance, and that distance."""
    idx, d2 = [], []
    for x, y in zip(qx, qy):
        dist2 = (x - px) ** 2 + (y - py) ** 2
        idx.append(int(np.flatnonzero(dist2 == dist2.min())[0]))
        d2.append(dist2[idx[-1]])
    return np.array(idx), np.array(d2)


def test_nearest_points_matches_naive_argmin():
    rng = np.random.default_rng(11)
    # 4,000 grid points in shuffled order: a chunk is 500 queries, so 1,700 queries span four chunks.
    gx, gy = np.meshgrid(np.arange(80) * 25.0, np.arange(50) * 25.0)
    order = rng.permutation(gx.size)
    px, py = gx.ravel()[order], gy.ravel()[order]
    # Queries on the half-spacing lattice sit exactly between 2 or 4 points; the rest fall anywhere, some off the grid.
    qx = np.r_[rng.integers(-4, 164, 850) * 12.5, rng.uniform(-500.0, 2500.0, 850)]
    qy = np.r_[rng.integers(-4, 104, 850) * 12.5, rng.uniform(-500.0, 1700.0, 850)]
    idx, d2 = hazard.nearest_points(px, py, qx, qy)
    want_idx, want_d2 = _naive_nearest(px, py, qx, qy)
    assert np.array_equal(idx, want_idx)
    assert d2.tobytes() == want_d2.tobytes()
    ties = [np.count_nonzero((x - px) ** 2 + (y - py) ** 2 == d) > 1 for x, y, d in zip(qx, qy, d2)]
    assert sum(ties) > 300  # the tie rule is exercised, not assumed

    one = hazard.nearest_points(np.array([3.0]), np.array([-4.0]), qx[:5], qy[:5])
    assert one[0].tolist() == [0] * 5
    assert one[1].tobytes() == _naive_nearest(np.array([3.0]), np.array([-4.0]), qx[:5], qy[:5])[1].tobytes()
    with pytest.raises(InvalidInputError, match="equal length"):
        hazard.nearest_points(px, py, qx, qy[:-1])
    with pytest.raises(InvalidInputError, match="finite"):
        hazard.nearest_points(px, py, np.array([np.nan]), np.array([0.0]))


def test_coverage_radius_zeroes_surge_outside():
    field = small_field(coverage_radius_m=50.0)
    assert hazard.sample_field_at(field, (0.0, 49.0)) == (2.0, 0.5)
    assert hazard.sample_field_at(field, (0.0, 50.0)) == (2.0, 0.5)
    assert hazard.sample_field_at(field, (0.0, 51.0)) == hazard.NO_SURGE
    # without a radius the nearest sample applies at any distance
    assert hazard.sample_field_at(small_field(), (0.0, 1e6)) == (2.0, 0.5)


def test_field_validation():
    with pytest.raises(InvalidInputError, match="at least one sample"):
        hazard.SurgeField([], [], [], [])
    with pytest.raises(InvalidInputError, match="shape"):
        hazard.SurgeField([0, 1], [0], [1, 1], [0, 0])
    with pytest.raises(InvalidInputError, match="non-finite"):
        hazard.SurgeField([0, 1], [0, 0], [1, float("nan")], [0, 0])
    with pytest.raises(InvalidInputError, match="wave heights"):
        hazard.SurgeField([0, 1], [0, 0], [1, 1], [0, -0.1])
    with pytest.raises(InvalidInputError, match="duplicate"):
        hazard.SurgeField([0, 0], [0, 0], [1, 1], [0, 0])
    with pytest.raises(InvalidInputError, match="coverage radius"):
        small_field(coverage_radius_m=-5.0)


def test_field_csv_round_trip(tmp_path):
    field = small_field(datum_label="NAVD88")
    path = tmp_path / "surge.csv"
    rows = ["x,y,h_st,h_s"]
    rows += [
        f"{float(x)!r},{float(y)!r},{float(a)!r},{float(b)!r}"
        for x, y, a, b in zip(field.x, field.y, field.h_st, field.h_s)
    ]
    path.write_text("\n".join(rows) + "\n")
    loaded = hazard.SurgeField.from_csv(path, datum_label="NAVD88")
    assert loaded == field


def test_field_csv_errors(tmp_path):
    path = tmp_path / "surge.csv"
    path.write_text("x,y,h_st\n0,0,1\n")
    with pytest.raises(InvalidInputError, match="missing column"):
        hazard.SurgeField.from_csv(path)
    path.write_text("x,y,h_st,h_s\n0,0,oops,0\n")
    with pytest.raises(InvalidInputError, match="surge.csv:2"):
        hazard.SurgeField.from_csv(path)


def test_evaluate_exposures():
    field = small_field()
    exposures = hazard.evaluate_exposures(
        field,
        bridge_sites=[("b1", 3.5, 0.0, 0.0), ("b2", 2.0, 200.0, 0.0)],
        road_sites=[("e1", 1.0, 100.0, 0.0), ("e2", 9.0, 200.0, 0.0)],
    )
    b1 = exposures.bridges["b1"]
    assert (b1.h_st, b1.h_s) == (2.0, 0.5)
    assert b1.z_c == 1.5
    assert b1.h_max == 0.9
    assert exposures.bridges["b2"].z_c == -2.0
    assert exposures.road_depth["e1"] == 2.0
    assert exposures.road_depth["e2"] == -5.0


def test_evaluate_exposures_empty_sites():
    exposures = hazard.evaluate_exposures(small_field(), [], [])
    assert exposures.bridges == {} and exposures.road_depth == {}


@given(
    h_st=st.floats(-2.0, 12.0),
    rise=st.floats(0.0, 8.0),
    h_b=st.floats(0.0, 12.0),
    h_r=st.floats(0.0, 8.0),
)
def test_rising_water_never_reopens(h_st, rise, h_b, h_r):
    closed_before = hazard.bridge_inundation_closed(
        hazard.relative_surge_elevation(h_b, h_st), THRESH
    )
    closed_after = hazard.bridge_inundation_closed(
        hazard.relative_surge_elevation(h_b, h_st + rise), THRESH
    )
    assert closed_after or not closed_before
    road_before = hazard.road_inundation_closed(hazard.inundation_depth(h_r, h_st), THRESH)
    road_after = hazard.road_inundation_closed(hazard.inundation_depth(h_r, h_st + rise), THRESH)
    assert road_after or not road_before
