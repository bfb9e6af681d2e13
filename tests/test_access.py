"""Catchment scoring against a brute-force oracle plus summary statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from surgeaccess import access, network
from surgeaccess.errors import InvalidInputError, UndefinedGroupError


def make_table(demands, supplies, reachable, d0=50.0, minutes=10.0):
    """Reachability table from explicit (demand_id, supply_id) pairs."""
    dids = tuple(d.demand_id for d in demands)
    sids = tuple(s.supply_id for s in supplies)
    table = np.full((len(dids), len(sids)), np.inf)
    for d, s in reachable:
        table[dids.index(d), sids.index(s)] = minutes
    return network.TravelTimeTable(dids, sids, table, d0)


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
            got = access.two_step(layout, np.arange(n_d), np.arange(n_s), pop, cap)
            want = sequential_two_step(reach, pop, cap)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (n_d, n_s)


def loop_column_sums(weights, mask):
    """Per column, the weights of its True rows added one at a time in row order."""
    sums = []
    for j in range(mask.shape[1]):
        total = 0.0
        for i in range(mask.shape[0]):
            if mask[i, j]:
                total += float(weights[i])
        sums.append(total)
    return np.array(sums, dtype=float)


def test_column_sums_match_a_row_order_loop_byte_for_byte():
    rng = np.random.default_rng(31)
    shapes = [(1, 40), (40, 1), (1, 1), (0, 5), (5, 0), (0, 1), (1, 0)]
    shapes += [(int(rng.integers(1, 80)), int(rng.integers(1, 80))) for _ in range(150)]
    for rows, cols in shapes:
        # Weights across sixteen decades, some zero, so any other order of the additions shows in the bits.
        weights = 10.0 ** rng.uniform(-8.0, 8.0, rows) * (rng.random(rows) > 0.15)
        mask = rng.random((rows, cols)) < rng.uniform(0.05, 1.0)
        want = loop_column_sums(weights, mask)
        # A masked reduction over an F-ordered mask adds in another order unless the mask is made C-ordered.
        for layout in (mask, np.asfortranarray(mask), np.repeat(mask, 2, axis=1)[:, ::2]):
            got = access._column_sums(weights, layout)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (rows, cols)


def site_to_node(rng, nodes, sites):
    """A site -> node index of `sites` sites on `nodes` nodes, in shuffled order, using every node when it can."""
    index = np.r_[np.arange(min(nodes, sites)), rng.integers(0, nodes, max(sites - nodes, 0))]
    return rng.permutation(index).astype(np.int64)


def test_two_step_on_nodes_matches_sequential_oracle_on_the_site_matrix():
    rng = np.random.default_rng(12)
    # (demand nodes, supply nodes, demands, supplies)
    shapes = [(1, 4, 1, 30), (4, 1, 12, 1), (5, 1, 9, 6), (1, 1, 7, 5), (1, 1, 1, 8), (1, 1, 8, 1)]
    shapes += [(0, 3, 0, 9), (3, 0, 9, 0), (0, 1, 0, 4), (1, 0, 4, 0), (2, 6, 40, 200)]
    for _ in range(150):
        n_ud, n_us = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        shapes.append((n_ud, n_us, n_ud + int(rng.integers(0, 3 * n_ud)), n_us + int(rng.integers(0, 6 * n_us))))
    for n_ud, n_us, n_d, n_s in shapes:
        d_row, s_col = site_to_node(rng, n_ud, n_d), site_to_node(rng, n_us, n_s)
        # Non-integer weights, some zero, so any change of summation order shows in the bits.
        pop = rng.uniform(0.0, 900.0, n_d) * (rng.random(n_d) > 0.1)
        cap = rng.uniform(0.0, 60.0, n_s) * (rng.random(n_s) > 0.1)
        reach = rng.random((n_ud, n_us)) < rng.uniform(0.05, 1.0)
        if n_ud and n_us and rng.random() < 0.5:  # duplicate node rows and columns
            reach = reach[rng.integers(0, n_ud, n_ud)][:, rng.integers(0, n_us, n_us)]
        want = sequential_two_step(reach[d_row][:, s_col], pop, cap)
        for layout in (reach, np.asfortranarray(reach)):
            got = access.two_step(layout, d_row, s_col, pop, cap)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (n_ud, n_us, n_d, n_s)


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
    reach = np.array([[True, False], [True, True]])  # rows i1, i0; columns j1, j2
    _, ratio, denom = access.two_step(reach, np.arange(2), np.arange(2), *access.site_weights(demands, supplies))
    assert denom.tolist() == [100.0, 0.0]
    assert ratio[1] == 0.0


def test_unreachable_demand_scores_zero():
    supplies = [access.SupplySite("j1", 0, 0, 10.0)]
    demands = [access.DemandSite("i1", 0, 0, 50.0), access.DemandSite("i2", 0, 0, 70.0)]
    table = make_table(demands, supplies, [("i1", "j1")])
    scores = access.accessibility_scores(table, supplies, demands)
    assert scores.scores["i2"] == 0.0
    assert access.no_access_fraction(scores) == 0.5


def test_quartile_worked_examples():
    classify = lambda vals: access.quartile_classify(
        access.AccessScores({f"d{i}": v for i, v in enumerate(vals)}, 50.0)
    )
    assert classify([0.0, 0.0, 5.0, 10.0]) == {"d0": "Q1", "d1": "Q1", "d2": "Q3", "d3": "Q4"}
    assert classify([1.0, 2.0, 3.0, 4.0]) == {"d0": "Q1", "d1": "Q2", "d2": "Q3", "d3": "Q4"}
    assert set(classify([7.0, 7.0, 7.0]).values()) == {"Q1"}
    # cuts 1, 2, 2: a value at the doubled cut takes the lower class
    assert classify([1.0, 2.0, 2.0, 9.0]) == {"d0": "Q1", "d1": "Q2", "d2": "Q2", "d3": "Q4"}


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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match="supply s: x must be finite"):
            access.SupplySite("s", bad, 0, capacity=1.0)
        with pytest.raises(InvalidInputError, match="supply s: capacity must be finite"):
            access.SupplySite("s", 0, 0, capacity=bad)
        with pytest.raises(InvalidInputError, match="demand d: y must be finite"):
            access.DemandSite("d", 0, bad, population=1.0)
        with pytest.raises(InvalidInputError, match="demand d: population must be finite"):
            access.DemandSite("d", 0, 0, population=bad)
        with pytest.raises(InvalidInputError, match="demand d: group kids weight must be finite and >= 0"):
            access.DemandSite("d", 0, 0, population=10.0, subgroups={"kids": bad})
    with pytest.raises(InvalidInputError, match="demand d: group kids weight must be finite and >= 0"):
        access.DemandSite("d", 0, 0, population=10.0, subgroups={"kids": -1.0})
    with pytest.raises(InvalidInputError, match="demand d: group name overall is reserved"):
        access.DemandSite("d", 0, 0, population=10.0, subgroups={"overall": 1.0})


def test_group_names_sorted_union():
    demands = [
        access.DemandSite("a", 0, 0, 10.0, subgroups={"older": 2.0}),
        access.DemandSite("b", 0, 0, 10.0, subgroups={"poor": 1.0, "older": 3.0}),
    ]
    assert access.group_names(demands) == ("older", "poor")


def test_mismatched_ids_rejected():
    # A table is scored with the site lists it was built from: its own sites, in table order.
    supplies, demands, reachable = worked_instance()
    table = make_table(demands, supplies, reachable)
    extra = access.DemandSite("i4", 0, 4, population=400.0)
    for demand_list, supply_list in (
        (demands[:2], supplies),  # a table demand missing from the list
        (demands + [demands[0]], supplies),  # a repeated demand
        (demands + [extra], supplies),  # a superset of the table's demands
        ([demands[1], demands[0], demands[2]], supplies),  # a permutation
        (demands, supplies[::-1]),
    ):
        with pytest.raises(InvalidInputError, match="lists must hold the table's sites in table order"):
            access.accessibility_scores(table, supply_list, demand_list)
    # A table cannot hold a repeated id in the first place.
    for demand_ids, supply_ids, kind in ((("i1", "i1"), ("j1",), "demand"), (("i1",), ("j1", "j2", "j1"), "supply")):
        minutes = np.full((len(demand_ids), len(supply_ids)), np.inf)
        with pytest.raises(InvalidInputError, match=f"duplicate {kind} ids"):
            network.TravelTimeTable(demand_ids, supply_ids, minutes, 50.0)
