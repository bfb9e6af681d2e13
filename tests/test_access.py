"""Catchment scoring against a brute-force oracle plus summary statistics."""

from __future__ import annotations

import numpy as np
import pytest

from surgeaccess import access, network
from surgeaccess.errors import InvalidInputError, UndefinedGroupError


def make_table(demands, supplies, reachable, d0=50.0, minutes=10.0):
    """Reachability table from explicit (demand_id, supply_id) pairs."""
    dids = tuple(d.demand_id for d in demands)
    sids = tuple(s.supply_id for s in supplies)
    di = np.array([dids.index(d) for d, _ in reachable], dtype=np.int64)
    si = np.array([sids.index(s) for _, s in reachable], dtype=np.int64)
    return network.TravelTimeTable(dids, sids, di, si, np.full(len(reachable), minutes), d0)


def naive_2sfca(reachable, supplies, demands):
    """Double-loop reference: step one ratios, step two sums."""
    reachable = set(reachable)
    ratios = {}
    for s in supplies:
        pop = sum(d.population for d in demands if (d.demand_id, s.supply_id) in reachable)
        if pop > 0:
            ratios[s.supply_id] = s.capacity / pop
    return {
        d.demand_id: sum(
            ratios[s.supply_id]
            for s in supplies
            if (d.demand_id, s.supply_id) in reachable and s.supply_id in ratios
        )
        for d in demands
    }


def worked_instance():
    supplies = [
        access.SupplySite("j1", 0, 0, capacity=10.0),
        access.SupplySite("j2", 1, 0, capacity=20.0),
    ]
    demands = [
        access.DemandSite("i1", 0, 1, population=100.0),
        access.DemandSite("i2", 0, 2, population=200.0),
        access.DemandSite("i3", 0, 3, population=300.0),
    ]
    reachable = [("i1", "j1"), ("i2", "j1"), ("i2", "j2"), ("i3", "j2")]
    return supplies, demands, reachable


def test_worked_instance_by_hand():
    supplies, demands, reachable = worked_instance()
    table = make_table(demands, supplies, reachable)
    ratios = access.supply_ratios(table, supplies, demands)
    # j1 serves 300 people, j2 serves 500
    assert ratios["j1"] == pytest.approx(10.0 / 300.0, abs=1e-15)
    assert ratios["j2"] == pytest.approx(20.0 / 500.0, abs=1e-15)
    scores = access.accessibility_scores(table, supplies, demands)
    assert scores.scores["i1"] == pytest.approx(1.0 / 30.0, abs=1e-15)
    assert scores.scores["i2"] == pytest.approx(1.0 / 30.0 + 0.04, abs=1e-15)
    assert scores.scores["i3"] == pytest.approx(0.04, abs=1e-15)
    assert scores.d0_minutes == 50.0


def test_conservation_on_worked_instance():
    supplies, demands, reachable = worked_instance()
    scores = access.accessibility_scores(make_table(demands, supplies, reachable), supplies, demands)
    total = sum(d.population * scores.scores[d.demand_id] for d in demands)
    assert total == pytest.approx(30.0, rel=1e-12)


def test_matches_naive_oracle_exactly():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n_d = int(rng.integers(1, 40))
        n_s = int(rng.integers(1, 15))
        demands = [
            access.DemandSite(f"d{i:03d}", 0, 0, population=float(rng.integers(0, 500)))
            for i in range(n_d)
        ]
        supplies = [
            access.SupplySite(f"s{j:03d}", 0, 0, capacity=float(rng.integers(0, 40)))
            for j in range(n_s)
        ]
        mask = rng.random((n_d, n_s)) < rng.uniform(0.05, 0.6)
        pairs = [
            (demands[i].demand_id, supplies[j].supply_id)
            for i, j in zip(*np.nonzero(mask))
        ]
        rng.shuffle(pairs)
        table = make_table(demands, supplies, pairs)
        got = access.accessibility_scores(table, supplies, demands).scores
        expected = naive_2sfca(pairs, supplies, demands)
        # accumulation order is pinned, so agreement is exact
        assert got == expected


def sequential_two_step(reach, pop, cap):
    """Binary 2SFCA in plain Python, every sum added term by term in list order."""
    n_d, n_s = reach.shape
    denom = []
    for j in range(n_s):
        total = 0.0
        for i in range(n_d):
            if reach[i, j]:
                total += float(pop[i])
        denom.append(total)
    ratio = [float(cap[j]) / denom[j] if denom[j] > 0.0 else 0.0 for j in range(n_s)]
    scores = []
    for i in range(n_d):
        total = 0.0
        for j in range(n_s):
            if reach[i, j]:
                total += ratio[j]
        scores.append(total)
    return np.array(scores, dtype=float), np.array(ratio, dtype=float), np.array(denom, dtype=float)


def test_two_step_matches_sequential_oracle_byte_for_byte():
    rng = np.random.default_rng(6)
    shapes = [(1, 200), (1, 9), (200, 1), (9, 1), (1, 1), (0, 7), (7, 0), (0, 1), (1, 0)]
    shapes += [(int(rng.integers(1, 60)), int(rng.integers(1, 60))) for _ in range(120)]
    for n_d, n_s in shapes:
        # Non-integer weights, some zero, so any change of summation order shows in the bits.
        pop = rng.uniform(0.0, 900.0, n_d) * (rng.random(n_d) > 0.1)
        cap = rng.uniform(0.0, 60.0, n_s) * (rng.random(n_s) > 0.1)
        reach = rng.random((n_d, n_s)) < rng.uniform(0.05, 1.0)
        for layout in (reach, np.asfortranarray(reach)):
            got = access.two_step(layout, pop, cap)
            want = sequential_two_step(reach, pop, cap)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (n_d, n_s)


def test_inert_supply_is_omitted():
    supplies = [access.SupplySite("j1", 0, 0, 10.0), access.SupplySite("j2", 0, 0, 5.0)]
    demands = [
        access.DemandSite("i1", 0, 0, population=100.0),
        access.DemandSite("i0", 0, 0, population=0.0),
    ]
    # j2 reaches only a zero-population demand: no one to serve
    table = make_table(demands, supplies, [("i1", "j1"), ("i0", "j2"), ("i0", "j1")])
    ratios = access.supply_ratios(table, supplies, demands)
    assert "j2" not in ratios
    scores = access.accessibility_scores(table, supplies, demands)
    assert scores.scores["i0"] == pytest.approx(0.1, abs=1e-15)  # j1 only
    vec_ratio, denom = access.ratio_vector(table, supplies, demands)
    assert denom.tolist() == [100.0, 0.0]
    assert vec_ratio[1] == 0.0


def test_unreachable_demand_scores_zero():
    supplies = [access.SupplySite("j1", 0, 0, 10.0)]
    demands = [access.DemandSite("i1", 0, 0, 50.0), access.DemandSite("i2", 0, 0, 70.0)]
    table = make_table(demands, supplies, [("i1", "j1")])
    scores = access.accessibility_scores(table, supplies, demands)
    assert scores.scores["i2"] == 0.0
    assert access.no_access_fraction(scores) == 0.5


def test_scale_scores():
    scores = access.AccessScores({"a": 0.01, "b": 0.0}, d0_minutes=50.0)
    scaled = access.scale_scores(scores)
    assert scaled.scores == {"a": 10.0, "b": 0.0}
    assert scaled.d0_minutes == 50.0
    assert access.SCORE_SCALE == 1000.0
    with pytest.raises(InvalidInputError):
        access.scale_scores(scores, scale=0.0)


def test_quartile_worked_examples():
    classify = lambda vals: access.quartile_classify(
        access.AccessScores({f"d{i}": v for i, v in enumerate(vals)}, 50.0)
    )
    assert classify([0.0, 0.0, 5.0, 10.0]) == {"d0": "Q1", "d1": "Q1", "d2": "Q3", "d3": "Q4"}
    assert classify([1.0, 2.0, 3.0, 4.0]) == {"d0": "Q1", "d1": "Q2", "d2": "Q3", "d3": "Q4"}
    assert set(classify([7.0, 7.0, 7.0]).values()) == {"Q1"}


def test_quartiles_scale_invariant():
    rng = np.random.default_rng(5)
    vals = rng.random(37) * 4.0
    base = access.quartile_classify(access.AccessScores({f"d{i}": v for i, v in enumerate(vals)}, 50.0))
    scaled = access.quartile_classify(
        access.AccessScores({f"d{i}": v * 1000.0 for i, v in enumerate(vals)}, 50.0)
    )
    assert base == scaled


def test_quartiles_reject_empty():
    with pytest.raises(InvalidInputError):
        access.quartile_classify(access.AccessScores({}, 50.0))
    with pytest.raises(InvalidInputError):
        access.no_access_fraction(access.AccessScores({}, 50.0))


def test_weighted_average_by_hand():
    scores = access.AccessScores({"a": 10.0, "b": 20.0}, 50.0)
    assert access.weighted_average(scores, {"a": 1.0, "b": 3.0}) == pytest.approx(17.5, abs=1e-15)
    # demands outside the score set carry no weight
    assert access.weighted_average(scores, {"a": 1.0, "zz": 99.0}) == 10.0


def test_weighted_average_errors():
    scores = access.AccessScores({"a": 10.0}, 50.0)
    with pytest.raises(UndefinedGroupError):
        access.weighted_average(scores, {"a": 0.0})
    with pytest.raises(UndefinedGroupError):
        access.weighted_average(scores, {})
    with pytest.raises(InvalidInputError):
        access.weighted_average(scores, {"a": -1.0})


def test_demand_site_validation():
    with pytest.raises(InvalidInputError, match="population"):
        access.DemandSite("d", 0, 0, population=-5.0)
    with pytest.raises(InvalidInputError, match="exceeds population"):
        access.DemandSite("d", 0, 0, population=10.0, subgroups={"kids": 11.0})
    with pytest.raises(InvalidInputError, match="capacity"):
        access.SupplySite("s", 0, 0, capacity=-1.0)


def test_group_names_sorted_union():
    demands = [
        access.DemandSite("a", 0, 0, 10.0, subgroups={"older": 2.0}),
        access.DemandSite("b", 0, 0, 10.0, subgroups={"poor": 1.0, "older": 3.0}),
    ]
    assert access.group_names(demands) == ("older", "poor")


def test_mismatched_ids_rejected():
    supplies, demands, reachable = worked_instance()
    table = make_table(demands, supplies, reachable)
    with pytest.raises(InvalidInputError, match="missing from demand list"):
        access.accessibility_scores(table, supplies, demands[:2])
    with pytest.raises(InvalidInputError, match="duplicate demand id"):
        access.accessibility_scores(table, supplies, demands + [demands[0]])
