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


def value_at(field, x, y):
    """(h_st, h_s) at one location, through SurgeField.values_at."""
    h_st, h_s = field.values_at(np.array([x]), np.array([y]))
    return float(h_st[0]), float(h_s[0])


def test_exposure_quantities():
    assert hazard.relative_surge_elevation(7.0, 2.5) == 4.5
    assert hazard.inundation_depth(1.0, 2.5) == 1.5
    assert hazard.max_wave_height(2.0) == 3.6
    assert hazard.max_wave_height(np.array([0.0, 2.0])).tolist() == [0.0, 3.6]
    with pytest.raises(InvalidInputError, match="h_s must be >= 0"):
        hazard.max_wave_height(np.array([1.0, -0.5]))
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
    assert value_at(field, 10.0, 5.0) == (2.0, 0.5)
    assert value_at(field, 160.0, 0.0) == (4.0, 1.5)


def test_nearest_tie_breaks_to_lowest_index():
    # (50, 0) is equidistant from samples 0 and 1; sample 0 wins
    field = small_field()
    idx, d2 = hazard.nearest_points(field.x, field.y, np.array([50.0]), np.array([0.0]))
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


def test_nearest_points_matches_naive_argmin(monkeypatch):
    rng = np.random.default_rng(11)
    # 4,000 grid points in shuffled order. About a third of the 1,700 queries lie off the grid or have empty cells
    # around them, more than the 500 queries of one brute-force chunk.
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

    # The cell grid's edge cases. Each pair is (points, queries) as x and y arrays.
    cases = []
    # A cluster that fills one cell plus a far outlier: about 3,000 candidates per query, so 2,000 queries span three chunks.
    cx, cy = np.meshgrid(np.arange(60) * 0.25, np.arange(50) * 0.25)
    order = rng.permutation(cx.size + 1)
    cases.append((
        (np.r_[cx.ravel(), 5e4][order], np.r_[cy.ravel(), 5e4][order]),
        (np.r_[rng.integers(-2, 120, 1000) * 0.125, rng.uniform(-1.0, 16.0, 1000)],
         np.r_[rng.integers(-2, 100, 1000) * 0.125, rng.uniform(-1.0, 14.0, 1000)]),
    ))
    # Queries far outside the hull, which only the brute force answers.
    far = rng.choice([-1.0, 1.0], (2, 40)) * rng.uniform(3e3, 1e7, (2, 40))
    cases.append(((px, py), (far[0], far[1])))
    # Collinear points: zero extent across the line, so cells take the floor width, 1,995 / 400.
    line = rng.permutation(400) * 5.0
    cases.append((
        (line, np.full(400, 3.0)),
        (np.r_[rng.integers(-10, 810, 300) * 2.5, rng.uniform(-100.0, 2100.0, 300)],
         np.r_[np.full(300, 3.0), rng.uniform(-50.0, 50.0, 300)]),
    ))
    # 100 points with an extent of 100, so cells are exactly 10 wide and every point sits on a cell corner.
    bx, by = np.meshgrid(np.arange(10) * 10.0, np.arange(10) * 10.0)
    bx, by = bx.ravel(), by.ravel()
    bx[-1] = by[-1] = 100.0
    order = rng.permutation(100)
    cases.append(((bx[order], by[order]), (rng.integers(-4, 25, 800) * 5.0, rng.integers(-4, 25, 800) * 5.0)))
    # UTM-like coordinates: the grid and lattice queries of the first case, 3e6 m east and 4e6 m north.
    cases.append(((px + 3e6, py + 4e6), (qx + 3e6, qy + 4e6)))
    # A 40:1 lattice, 400 x 10 points 10 apart: cells sqrt(w * h / n) = 9.5 wide, not the 63 the longer side
    # alone gives. Half-spacing queries tie between 2 or 4 points.
    lx, ly = np.meshgrid(np.arange(400) * 10.0, np.arange(10) * 10.0)
    order = rng.permutation(lx.size)
    cases.append((
        (lx.ravel()[order], ly.ravel()[order]),
        (np.r_[rng.integers(-4, 804, 600) * 5.0, rng.uniform(-50.0, 4050.0, 600)],
         np.r_[rng.integers(-4, 24, 600) * 5.0, rng.uniform(-50.0, 140.0, 600)]),
    ))
    # A thin strip that is not a line, 5,000 long and 1 wide with 500 points: the floor, 5,000 / 500, sets the cell.
    cases.append((
        (rng.uniform(0.0, 5000.0, 500), rng.uniform(0.0, 1.0, 500)),
        (rng.uniform(-100.0, 5100.0, 800), rng.uniform(-5.0, 6.0, 800)),
    ))
    # Found by search: x - x0 rounds so that point 0, two cells right of the query, lies under one
    # cell width from it and ties point 1 in the block, both a hair below cell**2. The first case
    # was found for cells max(w, h) / sqrt(n) wide, the second for sqrt(w * h / n).
    for p0, p1, x0, x1, q in (
        (105.33449525600057, -71.14546972595585, -335.8654171988905, 242.76284337118403, 17.09451276502236),
        (53.54294124328274, -107.89381917287375, -269.33057958903026, 431.0810375281767, -27.175438964795507),
    ):
        cases.append((
            (np.r_[p0, p1, x0, x1, np.linspace(x0, x1, 39)], np.r_[np.zeros(4), np.full(39, 400.0)]),
            (np.array([q]), np.array([0.0])),
        ))
    for (cpx, cpy), (cqx, cqy) in cases:
        idx, d2 = hazard.nearest_points(cpx, cpy, cqx, cqy)
        want_idx, want_d2 = _naive_nearest(cpx, cpy, cqx, cqy)
        assert np.array_equal(idx, want_idx)
        assert d2.tobytes() == want_d2.tobytes()
    # A budget of 90 caps a chunk at 10 queries where candidates are sparse, and at one query where they are not.
    monkeypatch.setattr(hazard, "_SEARCH_BUDGET", 90)
    for (cpx, cpy), (cqx, cqy) in ((px, py), (qx, qy)), cases[0]:
        idx, d2 = hazard.nearest_points(cpx, cpy, cqx, cqy)
        want_idx, want_d2 = _naive_nearest(cpx, cpy, cqx, cqy)
        assert np.array_equal(idx, want_idx)
        assert d2.tobytes() == want_d2.tobytes()
    monkeypatch.undo()

    one = hazard.nearest_points(np.array([3.0]), np.array([-4.0]), qx[:5], qy[:5])
    assert one[0].tolist() == [0] * 5
    assert one[1].tobytes() == _naive_nearest(np.array([3.0]), np.array([-4.0]), qx[:5], qy[:5])[1].tobytes()
    with pytest.raises(InvalidInputError, match="equal length"):
        hazard.nearest_points(px, py, qx, qy[:-1])
    with pytest.raises(InvalidInputError, match="finite"):
        hazard.nearest_points(px, py, np.array([np.nan]), np.array([0.0]))


def test_coverage_radius_zeroes_surge_outside():
    field = small_field(coverage_radius_m=50.0)
    assert value_at(field, 0.0, 49.0) == (2.0, 0.5)
    assert value_at(field, 0.0, 50.0) == (2.0, 0.5)
    assert value_at(field, 0.0, 51.0) == hazard.NO_SURGE
    # without a radius the nearest sample applies at any distance
    assert value_at(small_field(), 0.0, 1e6) == (2.0, 0.5)

    # On a field large enough for the cell grid, against the naive nearest sample.
    rng = np.random.default_rng(5)
    gx, gy = np.meshgrid(np.arange(30) * 40.0, np.arange(20) * 40.0)
    order = rng.permutation(gx.size)
    x, y = gx.ravel()[order], gy.ravel()[order]
    field = hazard.SurgeField(x, y, np.arange(x.size) + 1.0, np.arange(x.size) * 0.5, coverage_radius_m=15.0)
    # Queries anywhere, off the grid, and exactly at the radius from a sample (inside, by the <= rule).
    qx = np.r_[rng.uniform(-200.0, 1400.0, 600), x[:50] + 15.0, x[50:100]]
    qy = np.r_[rng.uniform(-200.0, 1000.0, 600), y[:50], y[50:100] - 15.0]
    idx, d2 = _naive_nearest(x, y, qx, qy)
    inside = d2 <= 15.0**2
    h_st, h_s = field.values_at(qx, qy)
    assert np.array_equal(h_st, np.where(inside, field.h_st[idx], hazard.NO_SURGE[0]))
    assert np.array_equal(h_s, np.where(inside, field.h_s[idx], hazard.NO_SURGE[1]))
    assert 100 < np.count_nonzero(inside) < 700


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


def test_evaluate_exposures():
    field = small_field()
    exposures = hazard.evaluate_exposures(
        field,
        bridge_sites=np.array([(3.5, 0.0, 0.0), (2.0, 200.0, 0.0)]),
        # Row 2 sits as far from sample 1 as from sample 2 and takes sample 1's surge.
        road_sites=np.array([(1.0, 100.0, 0.0), (9.0, 200.0, 0.0), (2.5, 150.0, 10.0)]),
    )
    assert exposures.z_c.tolist() == [1.5, -2.0]
    assert exposures.h_max.tolist() == [0.9, 2.7]
    assert exposures.road_depth.tolist() == [2.0, -5.0, 0.5]


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


finite = st.floats(-50.0, 50.0)
site = st.tuples(finite, st.floats(-300.0, 500.0), st.floats(-200.0, 200.0))


@given(
    bridge_rows=st.lists(site, max_size=12),
    road_rows=st.lists(site, max_size=12),
    radius=st.none() | st.floats(0.0, 300.0),
)
def test_evaluate_exposures_matches_scalar_rules_per_site(bridge_rows, road_rows, radius):
    field = small_field(coverage_radius_m=radius)
    exposures = hazard.evaluate_exposures(field, bridge_rows, road_rows)
    assert exposures.z_c.shape == exposures.h_max.shape == (len(bridge_rows),)
    assert exposures.road_depth.shape == (len(road_rows),)
    for i, (h_b, x, y) in enumerate(bridge_rows):
        h_st, h_s = value_at(field, x, y)
        want = (hazard.relative_surge_elevation(h_b, h_st), hazard.max_wave_height(h_s))
        assert _bits(exposures.z_c[i], exposures.h_max[i]) == _bits(*want)
    for i, (h_r, x, y) in enumerate(road_rows):
        want = hazard.inundation_depth(h_r, value_at(field, x, y)[0])
        assert _bits(exposures.road_depth[i]) == _bits(want)


@given(a=st.lists(finite, max_size=20), b=st.lists(finite, max_size=20))
def test_rules_on_arrays_equal_their_scalar_calls(a, b):
    a, b = a[: len(b)], b[: len(a)]
    pairs = (
        (hazard.relative_surge_elevation, (a, b)),
        (hazard.inundation_depth, (a, b)),
        (hazard.max_wave_height, ([abs(v) for v in a],)),
        (lambda z: hazard.bridge_inundation_closed(z, THRESH), (a,)),
        (lambda d: hazard.road_inundation_closed(d, THRESH), (a,)),
    )
    for rule, args in pairs:
        whole = rule(*(np.array(arg, dtype=float) for arg in args))
        assert whole.tobytes() == np.array([rule(*row) for row in zip(*args)], dtype=whole.dtype).tobytes()


@pytest.mark.parametrize("name, rule", [
    ("h_b", lambda v: hazard.relative_surge_elevation(v, np.zeros(3))),
    ("h_st", lambda v: hazard.relative_surge_elevation(np.zeros(3), v)),
    ("h_r", lambda v: hazard.inundation_depth(v, np.zeros(3))),
    ("h_st", lambda v: hazard.inundation_depth(np.zeros(3), v)),
    ("h_s", hazard.max_wave_height),
    ("z_c", lambda v: hazard.bridge_inundation_closed(v, THRESH)),
    ("d_in", lambda v: hazard.road_inundation_closed(v, THRESH)),
])
def test_rules_reject_one_nan_in_an_array(name, rule):
    with pytest.raises(InvalidInputError, match=f"^{name} must be finite"):
        rule(np.array([1.0, np.nan, 2.0]))


def test_evaluate_exposures_empty_sites():
    for sites in ([], np.zeros((0, 3))):
        exposures = hazard.evaluate_exposures(small_field(), sites, sites)
        assert exposures.z_c.shape == exposures.h_max.shape == exposures.road_depth.shape == (0,)


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
