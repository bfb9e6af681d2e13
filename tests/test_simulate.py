"""Counter-based sampling, convergence detection, scenario aggregation."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import multiprocessing.process
import statistics
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from surgeaccess import access, fragility, hazard, network, scenario_io, simulate
from surgeaccess.errors import InvalidInputError


def naive_converged_at(trace, window=100, tol=0.01):
    """Reference convergence scan, plain loop over running means."""
    trace = np.asarray(trace, dtype=float)
    rm = np.cumsum(trace) / np.arange(1, len(trace) + 1)
    for n in range(window, len(trace) + 1):
        w = rm[n - window : n]
        span = w.max() - w.min()
        ref = abs(rm[n - 1])
        if (span <= tol * ref) if ref > 0 else (span == 0.0):
            return n
    return None


def test_uniform_draw_matches_hash_formula():
    for seed, index, bid in ((42, 0, "b1"), (7, 999, "x"), (0, 0, "")):
        digest = hashlib.sha256(f"{seed}:{index}:{bid}".encode()).digest()
        expected = (int.from_bytes(digest[:8], "big") >> 11) * 2.0**-53
        assert simulate.uniform_draw(seed, index, bid) == expected


def test_uniform_draw_range_and_determinism():
    draws = [simulate.uniform_draw(1, i, "b") for i in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert draws == [simulate.uniform_draw(1, i, "b") for i in range(1000)]
    assert simulate.uniform_draw(2, 0, "b") != simulate.uniform_draw(1, 0, "b")
    assert simulate.uniform_draw(1, 1, "b") != simulate.uniform_draw(1, 0, "b")
    assert simulate.uniform_draw(1, 0, "c") != simulate.uniform_draw(1, 0, "b")


def draw(probs, seed, index):
    """sample_failures for one sample, as {bridge id: failed}."""
    return dict(zip(probs, simulate.sample_failures([(c,) for c in simulate.failure_cuts(probs).items()], seed, index)))


def test_sample_failures_matches_per_bridge_draws():
    rng = np.random.default_rng(404)
    alphabet = list("abcxyz019-_:é桥")
    for _ in range(50):
        ids = {"".join(rng.choice(alphabet, size=int(rng.integers(0, 12)))) for _ in range(int(rng.integers(1, 30)))}
        probs = {bid: float(rng.choice([0.0, 1.0, rng.random()])) for bid in ids}
        seed, index = int(rng.integers(0, 2**62)), int(rng.integers(0, 10**6))
        want = {bid: simulate.uniform_draw(seed, index, bid) < p for bid, p in probs.items()}
        assert list(draw(probs, seed, index).items()) == list(want.items())


def test_sample_failures_exact_at_endpoints():
    probs = {"never": 0.0, "always": 1.0}
    for index in range(50):
        assert draw(probs, 42, index) == {"never": False, "always": True}


def test_sample_failures_validation():
    with pytest.raises(InvalidInputError):
        simulate.failure_cuts({"b": 1.2})
    with pytest.raises(InvalidInputError):
        simulate.failure_cuts({"b": float("nan")})
    with pytest.raises(InvalidInputError):
        draw({"b": 0.5}, 0, -1)


def test_sample_failures_cut_matches_uniform_draw_at_the_boundaries():
    # sample_failures compares each digest with a byte cut and never forms u; it must still give u < p exactly.
    rng = np.random.default_rng(53)
    seed, bid = 2024, "b-cut"
    indices = [int(i) for i in rng.integers(0, 2**63, size=300)] + [2**64 + 7, 10**30, 0, 1]

    def head(index):  # the digest's first eight bytes as x; u keeps its top 53 bits
        return int.from_bytes(hashlib.sha256(f"{seed}:{index}:{bid}".encode()).digest()[:8], "big")

    # Draws with x exactly u * 2**64 (low 11 bits zero), where an 8-byte `<=` against the cut would differ.
    whole = [i for i in range(20_000) if head(i) % 2**11 == 0][:3]
    assert len(whole) == 3
    indices += whole
    us = [simulate.uniform_draw(seed, i, bid) for i in indices]
    exact = us[::15] + us[-len(whole) :]  # a draw's own u as p: False at that draw, True one ulp above
    probs = [0.0, 1.0, 1.0 - 2.0**-53, 5e-324, 2.0**-1030, 0.5, math.nextafter(0.5, 0.0)]
    probs += [int(k) * 2.0**-53 for k in rng.integers(1, 2**53, size=10)]
    probs += exact + [math.nextafter(u, 1.0) for u in exact]
    for p in probs:
        assert [draw({bid: p}, seed, i)[bid] for i in indices] == [u < p for u in us], p


def test_group_outcome_is_any_member_failing():
    rng = np.random.default_rng(505)
    alphabet = list("abcxyz019-_:é桥")
    for _ in range(50):
        ids = sorted({"".join(rng.choice(alphabet, size=int(rng.integers(0, 12)))) for _ in range(rng.integers(1, 30))})
        probs = {bid: float(rng.choice([0.0, 1.0, rng.random(), rng.random()])) for bid in rng.permutation(ids)}
        labels = rng.integers(0, int(rng.integers(1, len(ids) + 1)), size=len(ids))
        members = [[bid for bid, label in zip(ids, labels) if label == group] for group in np.unique(labels)]
        groups = [tuple(simulate.failure_cuts({bid: probs[bid] for bid in group}).items()) for group in members]
        seed, index = int(rng.integers(0, 2**62)), int(rng.integers(0, 10**6))
        want = tuple(any(simulate.uniform_draw(seed, index, bid) < probs[bid] for bid in group) for group in members)
        assert simulate.sample_failures(groups, seed, index) == want


def test_group_stops_hashing_at_its_first_failure(monkeypatch):
    probs = {"b0": 0.0, "b1": 0.3, "b2": 1.0, "b3": 0.6, "b4": 0.0, "b5": 0.9}
    members = [("b0", "b1", "b2", "b3"), ("b4", "b5"), ("b3",)]
    groups = [tuple(simulate.failure_cuts({bid: probs[bid] for bid in group}).items()) for group in members]
    want = []
    for index in range(60):
        fails = [[simulate.uniform_draw(7, index, bid) < probs[bid] for bid in group] for group in members]
        want.append(sum(f.index(True) + 1 if any(f) else len(f) for f in fails))
    hashed = []
    real = simulate.sha256
    monkeypatch.setattr(simulate, "sha256", lambda data: hashed.append(data) or real(data))
    counts = []
    for index in range(60):
        before = len(hashed)
        simulate.sample_failures(groups, 7, index)
        counts.append(len(hashed) - before)
    monkeypatch.undo()
    assert counts == want
    assert set(want) == {5, 6}  # of 7 members: b2 always stops the first group before b3, and b1 sometimes does


def test_failure_sets_nested_under_pointwise_larger_probability():
    rng = np.random.default_rng(3)
    low = {f"b{i}": float(p) for i, p in enumerate(rng.uniform(0, 0.8, size=20))}
    high = {bid: min(1.0, p + 0.2) for bid, p in low.items()}
    for index in range(200):
        fail_low = draw(low, 11, index)
        fail_high = draw(high, 11, index)
        for bid in low:
            assert fail_high[bid] or not fail_low[bid]


def test_empirical_rate_close_to_probability():
    hits = sum(simulate.uniform_draw(42, i, "b-main") < 0.5 for i in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.01


def test_convergence_constant_trace():
    assert simulate.convergence_report(np.full(500, 7.0)) == 100
    assert simulate.convergence_report(np.zeros(500)) == 100
    assert simulate.convergence_report(np.full(250, 3.0), window=250) == 250


def test_convergence_alternating_trace():
    trace = np.arange(400) % 2  # 0, 1, 0, 1, ...
    # running mean wobbles by 1/(2n); the window range dips under 1% at n = 199
    assert simulate.convergence_report(trace.astype(float)) == 199
    assert naive_converged_at(trace) == 199


def test_convergence_matches_naive_scan_on_random_traces():
    rng = np.random.default_rng(17)
    for _ in range(20):
        trace = rng.choice([0.0, 1.0, 5.0], size=int(rng.integers(50, 600)))
        assert simulate.convergence_report(trace) == naive_converged_at(trace)


def spiked_zero_trace(last_spike, length, gap=50):
    """Zero trace whose running mean is non-zero only at a spike every `gap`
    rows up to last_spike; with gap < window it first settles at sample
    count last_spike + window + 1."""
    trace = np.zeros(length)
    for k in range(last_spike, -1, -gap):
        trace[k], trace[k + 1] = 1.0, -1.0
    return trace


def indexed_report(trace, window):
    """convergence_report on the distinct rows of trace plus the sample -> row index."""
    table, index = np.unique(trace, axis=0, return_inverse=True)
    assert len(table) < len(trace)
    return simulate.convergence_report(table, window, 0.01, index.ravel())


def test_convergence_matches_naive_scan_around_block_boundaries():
    block = simulate._CONVERGENCE_BLOCK
    for window in (100, block + 44):
        for boundary in (block, 2 * block):
            for row in (boundary - 1, boundary, boundary + 1):  # first settled row
                trace = spiked_zero_trace(row - 1, row + window + 150)
                assert naive_converged_at(trace, window) == row + window
                assert simulate.convergence_report(trace, window) == row + window
                assert indexed_report(trace, window) == row + window
                other = spiked_zero_trace(row // 2, len(trace))  # an earlier-settling column
                assert simulate.convergence_report(np.stack([other, trace], axis=1), window) == row + window
                assert indexed_report(np.stack([other, trace], axis=1), window) == row + window
        never = spiked_zero_trace(3 * block, 3 * block + window // 2)  # last window always holds a spike
        assert naive_converged_at(never, window) is None
        assert simulate.convergence_report(never, window) is None
        assert indexed_report(never, window) is None


def test_convergence_in_column_blocks_matches_all_columns_at_once(monkeypatch):
    """Window spans taken _CONVERGENCE_COLUMNS columns at a time settle at the same sample count as all
    columns at once, whether or not the column count is a multiple of the block."""
    rng = np.random.default_rng(23)
    block = simulate._CONVERGENCE_COLUMNS
    traces = []
    for columns in (1, block - 1, block, block + 1, 2 * block + 5):
        for _ in range(4):
            trace = rng.choice([0.0, 1.0, 5.0], size=(int(rng.integers(300, 1500)), columns))
            if columns > 1:
                trace[:, rng.integers(columns)] = 0.0  # a column that settles on zero range
            traces.append(trace * rng.uniform(0.5, 2.0, size=columns))
    blocked = [simulate.convergence_report(trace, 60, 0.04) for trace in traces]
    monkeypatch.setattr(simulate, "_CONVERGENCE_COLUMNS", 10**6)
    assert blocked == [simulate.convergence_report(trace, 60, 0.04) for trace in traces]
    assert None in blocked and len(set(blocked)) > 10


def test_convergence_matches_naive_scan_around_running_mean_blocks():
    block = simulate._CONVERGENCE_BLOCK
    for window in (100, block + 44):
        for settle in (block, block + 1, block + 2, 2 * block, 2 * block + 1, 2 * block + 2):
            if settle <= window:
                continue
            trace = spiked_zero_trace(settle - window - 1, settle + 150)
            assert naive_converged_at(trace, window) == settle
            assert simulate.convergence_report(trace, window) == settle
            assert indexed_report(trace, window) == settle


def cumsum_running_mean(trace):
    """Oracle: one cumsum down the rows of the whole array, divided by the row count."""
    return np.cumsum(trace, axis=0) / np.arange(1, trace.shape[0] + 1, dtype=float)[:, None]


def test_running_mean_blocks_match_running_mean_bit_for_bit():
    rng = np.random.default_rng(2718)
    for trial in range(20):
        size = simulate._CONVERGENCE_BLOCK if trial % 2 else int(rng.integers(1, 300))
        rows = int(rng.integers(3 * size + 1, 4 * size + 300))
        trace = rng.normal(rng.uniform(-5.0, 50.0), rng.uniform(0.01, 30.0), size=(rows, int(rng.integers(1, 6))))
        blocks = list(simulate._running_mean_blocks(trace, np.arange(rows), size))
        assert len(blocks) > 3
        assert np.concatenate(blocks).tobytes() == cumsum_running_mean(trace).tobytes()
        # The same running means gathered from a table of distinct rows through a sample -> row index.
        table = trace[: int(rng.integers(1, 40))]
        index = rng.integers(0, len(table), size=rows)
        blocks = simulate._running_mean_blocks(table, index, size)
        assert np.concatenate(list(blocks)).tobytes() == cumsum_running_mean(table[index]).tobytes()


def test_window_spans_match_sliding_window_max_minus_min():
    rng = np.random.default_rng(577)
    windows = {1, 100} | {2**k + d for k in range(1, 8) for d in (-1, 0, 1)}
    for window in sorted(windows):
        for rows in (window, window + 1, window + 37, 3 * window + 5):
            x = rng.normal(rng.uniform(-5.0, 50.0), rng.uniform(0.01, 30.0), size=(rows, int(rng.integers(1, 5))))
            x[rng.random(x.shape) < 0.2] = 0.0  # ties
            windows_of_x = np.lib.stride_tricks.sliding_window_view(x, window, axis=0)
            want = windows_of_x.max(axis=-1) - windows_of_x.min(axis=-1)
            got = simulate._window_spans(x, window)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (window, rows)


def test_convergence_growing_trace_never_settles():
    assert simulate.convergence_report(np.arange(1000, dtype=float)) is None


def test_convergence_short_trace():
    assert simulate.convergence_report(np.ones(99)) is None


def test_convergence_matrix_needs_every_column():
    settled = np.full(400, 2.0)
    alternating = (np.arange(400) % 2).astype(float)
    assert simulate.convergence_report(np.stack([settled, settled], axis=1)) == 100
    assert simulate.convergence_report(np.stack([settled, alternating], axis=1)) == 199


def test_convergence_validation():
    with pytest.raises(InvalidInputError):
        simulate.convergence_report(np.ones(10), window=0)
    with pytest.raises(InvalidInputError):
        simulate.convergence_report(np.ones(10), tolerance=0.0)
    with pytest.raises(InvalidInputError):
        simulate.convergence_report(np.array([]))
    with pytest.raises(InvalidInputError):
        simulate.convergence_report(np.ones(10), index=np.array([], dtype=np.int64))


def test_column_cov():
    scores = np.array([[0.0, 5.0, 7.0], [10.0, 5.0, 7.0]])
    _, cov = simulate._column_stats(scores, np.arange(2))
    assert cov[0] == 1.0  # mean 5, population std 5
    assert cov[1] == 0.0 and cov[2] == 0.0  # identical columns, no residue
    assert simulate._column_stats(np.zeros((4, 2)), np.arange(4))[1].tolist() == [0.0, 0.0]


def gathered_column_cov(x):
    """Reference CoV on the whole N x D sample matrix: numpy's std over its mean, 0 on constant columns."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[x.min(axis=0) == x.max(axis=0)] = 0.0
    cov = np.zeros_like(mean)
    np.divide(std, mean, out=cov, where=mean > 0.0)
    return cov


def test_column_stats_match_the_gathered_matrix_bit_for_bit():
    rng = np.random.default_rng(31)
    block = simulate._CONVERGENCE_BLOCK
    sizes = (1, 7, block - 1, block, block + 1, 2 * block, 3 * block, 5 * block + 17)
    for trial in range(120):
        k, d = int(rng.integers(1, 12)), (1, 2, 3, int(rng.integers(4, 130)))[trial % 4]
        n = sizes[trial % len(sizes)] if trial < 64 else int(rng.integers(1, 6 * block))
        k = min(k, n)
        table = rng.choice([0.0, 1.0, 7.5], size=(k, d)) * rng.uniform(0.0, 300.0, size=(k, d))
        index = rng.integers(0, k, size=n)
        index[rng.choice(n, size=k, replace=False)] = np.arange(k)  # every table row is used, as in a run
        if d > 2:
            zero, constant = rng.choice(d, size=2, replace=False)
            table[:, zero] = 0.0
            table[:, constant] = 42.5
        x = table[index]
        mean, cov = simulate._column_stats(table, index)
        assert mean.tobytes() == x.mean(axis=0).tobytes()
        assert cov.tobytes() == gathered_column_cov(x).tobytes()
        if d > 2 and k > 1:
            assert cov[zero] == 0.0 and cov[constant] == 0.0


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 37])
def test_thread_map_keeps_item_order(workers, count):
    before = threading.active_count()
    items = [f"item {i}" for i in range(count)]
    assert simulate._thread_map(str.upper, items, workers) == [item.upper() for item in items]
    assert threading.active_count() == before


def test_thread_map_with_one_worker_runs_on_the_calling_thread():
    before = threading.active_count()
    ran_on = simulate._thread_map(lambda _: threading.get_ident(), range(20), 1)
    assert set(ran_on) == {threading.get_ident()} and len(ran_on) == 20
    assert threading.active_count() == before


def test_thread_map_with_two_workers_spreads_the_items():
    # Item 0 waits until another thread has run item 1, so both threads take part.
    ran_one = threading.Event()

    def run(i):
        if i == 1:
            ran_one.set()
        elif i == 0:
            assert ran_one.wait(timeout=30)
        return threading.get_ident()

    assert len(set(simulate._thread_map(run, range(4), 2))) == 2


def test_thread_map_raises_the_first_failing_items_own_exception():
    # Item 3 fails only after item 7 has failed on the other thread; item 3's exception still wins.
    before, raised, seven_failed = threading.active_count(), {}, threading.Event()
    ran = []

    def run(i):
        ran.append(i)
        if i == 3:
            assert seven_failed.wait(timeout=30)
        if i in (3, 7):
            raised[i] = ValueError(i)
            if i == 7:
                seven_failed.set()
            raise raised[i]
        return i

    with pytest.raises(ValueError) as info:
        simulate._thread_map(run, range(10), 2)
    assert info.value is raised[3] and 7 in raised
    assert sorted(ran) == list(range(10))  # every item still ran
    assert threading.active_count() == before


def test_scenario_config_validation():
    surge = hazard.SurgeField([0.0], [0.0], [0.0], [0.0])
    ok = dict(storm="s", surge=surge)
    simulate.ScenarioConfig(**ok)
    for bad in (
        dict(ok, storm=""),
        dict(ok, samples=0),
        dict(ok, workers=0),
        dict(ok, d0_minutes=0.0),
        dict(ok, horizons=()),
        dict(ok, horizons=("short", "short")),
        dict(ok, horizons=("soon",)),
    ):
        with pytest.raises(InvalidInputError):
            simulate.ScenarioConfig(**bad)


def twin_result(p_fail, samples=400, seed=7, **config_overrides):
    bundle = scenario_io.generate_twin_town(p_fail=p_fail, samples=samples, seed=seed)
    config = scenario_io.override_config(bundle.config, **config_overrides)
    return simulate.run_scenario(
        config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands
    ), bundle


def test_twin_town_two_outcomes():
    result, _ = twin_result(0.5)
    p = result.failure_probability["b-main"]
    assert p == pytest.approx(0.5, abs=1e-12)
    hits = sum(simulate.uniform_draw(result.seed, i, "b-main") < p for i in range(result.samples))
    for hr in result.horizons.values():
        # every sample scores exactly 0 (bridge down) or exactly 100 (open)
        assert set(np.unique(hr.sample_scores).tolist()) == {0.0, 100.0}
        expected_mean = (1.0 - hits / result.samples) * 100.0
        assert hr.mean_scores == pytest.approx([expected_mean, expected_mean], abs=1e-9)
        assert hr.group_averages["overall"] == pytest.approx(expected_mean, abs=1e-9)
        assert hr.no_access_fraction == 0.0  # mean scores stay positive
    # the twin town never floods, so both horizons see identical samples
    short, long = result.horizons["short"], result.horizons["long"]
    assert np.array_equal(short.sample_scores, long.sample_scores)


def test_twin_town_p_zero_is_degenerate():
    result, _ = twin_result(0.0, samples=150)
    assert result.failure_probability["b-main"] == 0.0
    for hr in result.horizons.values():
        assert np.all(hr.sample_scores == 100.0)
        assert np.all(hr.cov == 0.0)
        assert hr.average_cov == 0.0
        assert hr.converged_at == 100  # settles as soon as the window fills


def test_run_scenario_deterministic_and_worker_invariant():
    a, _ = twin_result(0.5, samples=300)
    b, _ = twin_result(0.5, samples=300)
    c, _ = twin_result(0.5, samples=300, workers=2)
    d, _ = twin_result(0.5, samples=300, workers=3)
    for other in (b, c, d):
        assert a.failure_probability == other.failure_probability
        for horizon in a.horizons:
            assert np.array_equal(a.horizons[horizon].sample_scores, other.horizons[horizon].sample_scores)
            assert a.horizons[horizon].group_averages == other.horizons[horizon].group_averages
            assert a.horizons[horizon].quartiles == other.horizons[horizon].quartiles


def test_zero_access_monotone_in_failure_probability():
    # common random numbers: a riskier bridge can only take access away
    low, _ = twin_result(0.3, samples=250)
    high, _ = twin_result(0.6, samples=250)
    for horizon in ("short", "long"):
        zero_low = low.horizons[horizon].sample_scores == 0.0
        zero_high = high.horizons[horizon].sample_scores == 0.0
        assert np.all(zero_high | ~zero_low)


def test_zero_population_fails_before_any_draw(monkeypatch):
    bundle = scenario_io.generate_twin_town(p_fail=0.5, samples=10)
    empty = [dataclasses.replace(d, population=0.0) for d in bundle.demands]

    def no_draw(*args):
        raise AssertionError("drew a sample for a population of zero")

    monkeypatch.setattr(simulate, "sample_failures", no_draw)
    with pytest.raises(InvalidInputError, match="population above zero"):
        simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, empty)


def test_run_scenario_input_errors():
    bundle = scenario_io.generate_twin_town(samples=10)
    with pytest.raises(InvalidInputError, match="demand"):
        simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, [])
    with pytest.raises(InvalidInputError, match="bridge records"):
        simulate.run_scenario(
            bundle.config, bundle.graph, [], bundle.supplies, bundle.demands
        )
    moved = [dataclasses.replace(b, x=b.x + 1.0) for b in bundle.bridges]
    with pytest.raises(InvalidInputError, match="bridge records"):
        simulate.run_scenario(bundle.config, bundle.graph, moved, bundle.supplies, bundle.demands)
    with pytest.raises(InvalidInputError, match="duplicate demand ids"):
        simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands * 2)
    with pytest.raises(InvalidInputError, match="duplicate supply ids"):
        simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies[:1] * 2, bundle.demands)


# Mass bands whose failure probability is the constant a: p = 0, 1, 0.25, 0.5, 0.75.
CONSTANT_P_TABLE = fragility.FragilityTable(
    [
        fragility.FragilityRow(0.0, 5.0, 0.0, 0.0, 0.0),
        fragility.FragilityRow(5.0, 10.0, 1.0, 0.0, 0.0),
        fragility.FragilityRow(10.0, 15.0, 0.25, 0.0, 0.0),
        fragility.FragilityRow(15.0, 20.0, 0.5, 0.0, 0.0),
        fragility.FragilityRow(20.0, 35.0, 0.75, 0.0, 0.0),
    ]
)
MASS_FOR_P = {0.0: 2.0, 1.0: 7.0, 0.25: 12.0, 0.5: 17.0, 0.75: 22.0}


@pytest.fixture
def constant_p(monkeypatch):
    """Runs take their failure probabilities from CONSTANT_P_TABLE."""
    monkeypatch.setattr(fragility, "default_table", lambda: CONSTANT_P_TABLE)


RIVER_CORRIDORS = (  # (west node, east node, span probabilities, deck elevation per span)
    ("w0", "e0", (0.25, 0.5, 0.75), (10.0, 10.0, 10.0)),
    ("w1", "e1", (0.0, 0.5), (10.0, 10.0)),
    ("w2", "e2", (1.0, 0.25), (10.0, 1.0)),
    ("w3", "e3", (0.5,), (10.0,)),
    ("w3", "e2", (0.0,), (10.0,)),
    ("w0", "e1", (1.0,), (10.0,)),
    ("w1", "e0", (0.75, 0.25), (1.0, 10.0)),
)


def river_town(samples=300, corridors=RIVER_CORRIDORS):
    """Two banks joined by bridge corridors: series chains of spans and
    single spans, with p = 0, p = 1 and at-risk bridges mixed, a site on
    the first pier of corridor 1, a low deck and low roads that flood on
    the short horizon."""
    nodes = [
        network.Node(f"{bank}{i}", x, 1000.0 * i) for bank, x in (("w", 0.0), ("e", 3000.0)) for i in range(4)
    ]
    edges = []
    for bank in "we":  # slow bank roads so the catchment cuts some pairs
        for i in range(3):
            h_r = 1.0 if (bank, i) in (("w", 1), ("e", 2)) else 5.0
            u, v = f"{bank}{i}", f"{bank}{i + 1}"
            edges.append(network.Edge(f"r-{u}", u, v, 1000.0, 1.0, network.ROAD, h_r=h_r))
    bridges = []
    for c, (west, east, probs, decks) in enumerate(corridors):
        y0, y1 = float(west[1:]) * 1000.0, float(east[1:]) * 1000.0
        prev = west
        for k, (p, deck) in enumerate(zip(probs, decks)):
            last = k == len(probs) - 1
            t = (k + 1) / len(probs)
            end = east if last else f"c{c}p{k}"
            if not last:
                nodes.append(network.Node(end, 3000.0 * t, y0 + (y1 - y0) * t + 7.0 * c))
            bid = f"b{c}{k}"
            bridges.append(network.BridgeRecord(bid, deck, MASS_FOR_P[p], 3000.0 * (t - 0.5 / len(probs)), y0))
            span = 3000.0 / len(probs)
            edges.append(network.Edge(f"s-{bid}", prev, end, span, 10.0, network.BRIDGE, bridge_id=bid))
            prev = end
    graph = network.build_graph(nodes, edges, bridges)
    pier = next(node for node in nodes if node.node_id == "c1p0")
    demands = [
        access.DemandSite(f"d{i}", 0.0, 1000.0 * i, 100.0 * (i + 1), {"g": 10.0 * i}) for i in range(4)
    ] + [access.DemandSite("d-pier", pier.x, pier.y, 50.0)]
    supplies = [access.SupplySite(f"s{i}", 3000.0, 1000.0 * i, 5.0 + i) for i in range(4)]
    supplies.append(access.SupplySite("s-west", 0.0, 2000.0, 3.0))
    surge = hazard.SurgeField([1500.0], [1500.0], [2.0], [0.0])
    config = simulate.ScenarioConfig(storm="river", surge=surge, samples=samples, seed=5, d0_minutes=30.0)
    return config, graph, bridges, supplies, demands


def raw_key_sample_scores(result, config, graph, supplies, demands, horizon):
    """Reference: every sample closes its raw edge set (closure_mask with
    every bridge drawn), then travel_time_table and score_vector."""
    exposures = hazard.evaluate_exposures(config.surge, graph.bridge_sites, graph.road_sites)
    cache = {}
    rows = []
    for index in range(result.samples):
        failed = draw(result.failure_probability, config.seed, index)
        mask = network.closure_mask(graph, exposures, config.thresholds, failed, horizon)
        closed = frozenset(mask.provenance)
        if closed not in cache:
            table = network.travel_time_table(graph, mask, demands, supplies, config.d0_minutes)
            cache[closed] = access.score_vector(table, supplies, demands) * access.SCORE_SCALE
        rows.append(cache[closed])
    return np.stack(rows)


def test_unit_keys_match_raw_key_reference_on_mixed_bridges(constant_p):
    config, graph, bridges, supplies, demands = river_town()
    result = simulate.run_scenario(config, graph, bridges, supplies, demands)
    assert sorted(set(result.failure_probability.values())) == [0.0, 0.25, 0.5, 0.75, 1.0]
    for horizon, hres in result.horizons.items():
        reference = raw_key_sample_scores(result, config, graph, supplies, demands, horizon)
        assert np.array_equal(hres.sample_scores, reference)
        assert len(np.unique(reference, axis=0)) > 2  # the draws really vary the network
    assert not np.array_equal(result.horizons["short"].sample_scores, result.horizons["long"].sample_scores)
    pooled = simulate.run_scenario(scenario_io.override_config(config, workers=2), graph, bridges, supplies, demands)
    for horizon, hres in result.horizons.items():
        assert np.array_equal(pooled.horizons[horizon].sample_scores, hres.sample_scores)


def test_groups_sharing_a_unit_match_raw_key_reference(monkeypatch, constant_p):
    # Long corridors through unsited piers: each corridor's spans share one closure unit (corridor 1's site on
    # its first pier splits it in two), so each draws as one group, its likeliest spans first.
    corridors = (
        ("w0", "e0", (0.25, 0.0, 0.5, 0.25), (10.0,) * 4),
        ("w1", "e1", (0.5, 0.25, 0.0, 0.75), (10.0, 10.0, 1.0, 10.0)),
        ("w2", "e3", (0.75, 1.0, 0.5), (10.0,) * 3),
        ("w3", "e2", (0.25,), (10.0,)),
        ("w1", "e0", (0.25, 0.5), (1.0, 10.0)),
    )
    config, graph, bridges, supplies, demands = river_town(corridors=corridors)
    calls = []
    real = simulate.sample_failures
    monkeypatch.setattr(simulate, "sample_failures", lambda groups, *args: calls.append(groups) or real(groups, *args))
    result = simulate.run_scenario(config, graph, bridges, supplies, demands)
    assert len(calls) == config.samples
    assert sorted([key.decode() for key, _ in group] for group in calls[0]) == [
        ["b02", "b00", "b03"], ["b10"], ["b13", "b11"], ["b20", "b22"], ["b30"], ["b41", "b40"],
    ]
    for horizon, hres in result.horizons.items():
        reference = raw_key_sample_scores(result, config, graph, supplies, demands, horizon)
        assert hres.sample_scores.tobytes() == reference.tobytes()
        assert len(np.unique(reference, axis=0)) > 2  # the draws really vary the network


def co_sited_town(samples=300):
    """river_town with several demands and several supplies on shared nodes: more supply sites than demand
    sites, but fewer distinct supply nodes, so a side chosen by site count and one chosen by node count differ."""
    config, graph, bridges, _, _ = river_town(samples)
    pier = graph.node_ids.index("c1p0")
    pier_xy = float(graph.node_x[pier]), float(graph.node_y[pier])
    demand_at = [(0.0, 0.0), (0.0, 0.0), (0.0, 1000.0), (0.0, 3000.0), (0.0, 3000.0), pier_xy]
    demands = [
        access.DemandSite(f"d{i}", x, y, 97.3 * (i + 1), {"g": 9.1 * i}) for i, (x, y) in enumerate(demand_at)
    ]
    supply_at = [(3000.0, 0.0)] * 3 + [(3000.0, 2000.0)] * 3 + [(0.0, 2000.0)] * 2
    supplies = [access.SupplySite(f"s{j}", x, y, 4.7 + 1.3 * j) for j, (x, y) in enumerate(supply_at)]
    return config, graph, bridges, supplies, demands


def test_co_sited_town_matches_raw_key_reference_with_one_and_two_workers(monkeypatch, constant_p):
    def no_process(self):
        raise RuntimeError("network evaluation started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    config, graph, bridges, supplies, demands = co_sited_town()
    d_nodes, s_nodes = (np.unique(network.snap_sites(graph, sites)) for sites in (demands, supplies))
    assert len(supplies) > len(demands) and s_nodes.size < d_nodes.size
    for workers in (1, 2):
        run_config = scenario_io.override_config(config, workers=workers)
        result = simulate.run_scenario(run_config, graph, bridges, supplies, demands)
        for horizon, hres in result.horizons.items():
            reference = raw_key_sample_scores(result, config, graph, supplies, demands, horizon)
            assert np.array_equal(hres.sample_scores, reference)
            assert len(np.unique(reference, axis=0)) > 2  # the draws really vary the network


def test_unit_keys_match_raw_key_reference_on_storm2(storm2_bundle):
    bundle = storm2_bundle
    config = scenario_io.override_config(bundle.config, samples=100)
    result = simulate.run_scenario(config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    for horizon, hres in result.horizons.items():
        reference = raw_key_sample_scores(result, config, bundle.graph, bundle.supplies, bundle.demands, horizon)
        assert np.array_equal(hres.sample_scores, reference)


def exact_moments(bundle, result):
    """The run's groups of drawn bridges, and per horizon each demand's exact mean and standard deviation of
    its score over every group-failure state, and whether its score is the same in every state.

    The groups are run_scenario's: bridges with 0 < p < 1 that touch the same closure units. A state fails
    each group with probability 1 - prod(1 - p) over its members and closes every member's edges, through
    closure_mask with p = 1 bridges failed; network.reachable and access.two_step score it on the raw
    closed edges, with no unit keys, live-edge pruning or portal searches."""
    graph, config, p = bundle.graph, bundle.config, result.failure_probability
    d_nodes, s_nodes = network.snap_sites(graph, bundle.demands), network.snap_sites(graph, bundle.supplies)
    units = network.closure_units(graph, np.concatenate([d_nodes, s_nodes]))
    groups: dict[frozenset, list[str]] = {}
    for row, bid in enumerate(graph.bridge_ids):
        if 0.0 < p[bid] < 1.0:
            groups.setdefault(frozenset(units[graph.bridge_rows == row].tolist()), []).append(bid)
    fails = [1.0 - math.prod(1.0 - p[bid] for bid in members) for members in groups.values()]
    pop, cap = access.site_weights(bundle.demands, bundle.supplies)
    exposures = hazard.evaluate_exposures(config.surge, graph.bridge_sites, graph.road_sites)
    moments = {}
    for horizon in config.horizons:
        weights, scores = [], []
        for state in itertools.product((False, True), repeat=len(groups)):
            draw = {bid: p[bid] == 1.0 for bid in graph.bridge_ids}
            for failed, members in zip(state, groups.values()):
                draw.update(dict.fromkeys(members, failed))
            mask = network.closure_mask(graph, exposures, config.thresholds, draw, horizon)
            reach = network.reachable(graph, graph.edge_flags(mask.provenance), d_nodes, s_nodes, config.d0_minutes)
            scores.append(access.two_step(reach, np.arange(d_nodes.size), np.arange(s_nodes.size), pop, cap)[0])
            weights.append(math.prod(q if failed else 1.0 - q for q, failed in zip(fails, state)))
        scores, weights = np.array(scores) * access.SCORE_SCALE, np.array(weights)
        mean = weights @ scores
        moments[horizon] = mean, np.sqrt(weights @ np.square(scores - mean)), scores.min(0) == scores.max(0)
    return list(groups.values()), moments


def test_session_run_means_lie_in_a_clt_band_around_the_exact_expectation(
    default_bundle, storm1_run, storm2_bundle, storm2_run
):
    """Each demand's mean score over the run's samples against its exact expectation: within 1e-11 where the
    score is the same in every state, else within a CLT band that holds with probability 1 - 1e-3 for all of a
    run's demands and horizons at once (Bonferroni)."""
    for (result, _), bundle, group_count in ((storm1_run, default_bundle, 4), (storm2_run, storm2_bundle, 7)):
        groups, moments = exact_moments(bundle, result)
        assert len(groups) == group_count and moments["short"][2].any()  # some demands have one score only
        tests = len(bundle.demands) * len(moments)
        z_bound = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * tests))
        for horizon, (mean, std, constant) in moments.items():
            gap = result.horizons[horizon].mean_scores - mean
            assert np.abs(gap[constant]).max(initial=0.0) <= 1e-11, horizon
            z = gap[~constant] / (std[~constant] / math.sqrt(result.samples))
            assert np.abs(z).max(initial=0.0) <= z_bound, (horizon, np.abs(z).max(initial=0.0), z_bound)


def test_run_with_no_at_risk_bridge_matches_raw_key_reference(monkeypatch):
    config, graph, bridges, supplies, demands = river_town(samples=60)
    always = fragility.FragilityTable([fragility.FragilityRow(0.0, 35.0, 1.0, 0.0, 0.0)])
    monkeypatch.setattr(fragility, "default_table", lambda: always)
    result = simulate.run_scenario(config, graph, bridges, supplies, demands)
    assert set(result.failure_probability.values()) == {1.0}  # nothing to draw: every sample keys pattern ()
    for horizon, hres in result.horizons.items():
        reference = raw_key_sample_scores(result, config, graph, supplies, demands, horizon)
        assert np.array_equal(hres.sample_scores, reference)
        assert len(np.unique(reference, axis=0)) == 1


def test_p_one_bridges_close_like_their_units_closed_explicitly(monkeypatch, constant_p, tmp_path):
    """p = 1 bridges close in each horizon's base network through closure_mask's structural rule. The reference
    asks closure_mask for no failure and closes every edge of the p = 1 bridges' closure units itself; the keys,
    score tables and write_results bytes agree. The added corridor's p = 1 span has a low deck, so on the short
    horizon it is also inundated."""
    corridors = RIVER_CORRIDORS + (("w3", "e3", (1.0,), (1.0,)),)
    config, graph, bridges, supplies, demands = river_town(corridors=corridors)
    bundle = scenario_io.DatasetBundle(graph, tuple(supplies), tuple(demands), config, "local-meters")
    exposures = hazard.evaluate_exposures(config.surge, graph.bridge_sites, graph.road_sites)
    inundated = hazard.bridge_inundation_closed(exposures.z_c, config.thresholds)
    keys = []
    reachable = network.PortalDistances.reachable
    monkeypatch.setattr(
        network.PortalDistances, "reachable", lambda self, closed: keys.append(closed) or reachable(self, closed)
    )
    result = simulate.run_scenario(config, graph, bridges, supplies, demands)
    certain = {bid: p == 1.0 for bid, p in result.failure_probability.items()}
    assert [bid for bid, p1 in certain.items() if p1] == ["b20", "b50", "b70"]
    assert inundated[graph.bridge_ids.index("b70")] and not inundated[graph.bridge_ids.index("b20")]
    scenario_io.write_results(result, bundle, tmp_path / "run")
    run_keys = keys.copy()
    keys.clear()

    units = network.closure_units(graph, np.concatenate([network.snap_sites(graph, demands),
                                                         network.snap_sites(graph, supplies)]))
    rows = [row for row, bid in enumerate(graph.bridge_ids) if certain[bid]]
    fixed = list(itertools.compress(graph.edge_ids, np.isin(units, units[np.isin(graph.bridge_rows, rows)])))
    closure_mask = network.closure_mask

    def explicit(graph, exposures, thresholds, draw, horizon):
        assert draw == certain
        closed = closure_mask(graph, exposures, thresholds, dict.fromkeys(draw, False), horizon).provenance
        return network.ClosureMask({**dict.fromkeys(fixed, network.STRUCTURAL), **closed})

    monkeypatch.setattr(network, "closure_mask", explicit)
    reference = simulate.run_scenario(config, graph, bridges, supplies, demands)
    scenario_io.write_results(reference, bundle, tmp_path / "reference")
    assert keys == run_keys and len(run_keys) > 4
    for horizon, hres in result.horizons.items():
        assert hres.sample_network.tobytes() == reference.horizons[horizon].sample_network.tobytes()
        assert hres.score_table.tobytes() == reference.horizons[horizon].score_table.tobytes()
    for path in (tmp_path / "run").iterdir():
        assert path.read_bytes() == (tmp_path / "reference" / path.name).read_bytes(), path.name


def test_horizons_sharing_a_base_key_and_score_on_their_own():
    # The twin town never floods, so both horizons have the same base network and the same keys.
    result, _ = twin_result(0.5, samples=300)
    short, long = result.horizons["short"], result.horizons["long"]
    for hres in (short, long):
        assert hres.score_table.shape == (2, 2)  # one row per distinct key: bridge up, bridge down
        assert np.all(np.bincount(hres.sample_network) > 0)
    assert np.array_equal(short.score_table, long.score_table)
    assert np.array_equal(short.sample_network, long.sample_network)
    for name in ("mean_scores", "cov"):
        assert getattr(short, name).tobytes() == getattr(long, name).tobytes()
    for name in ("quartiles", "group_averages", "no_access_fraction", "average_cov", "converged_at"):
        assert getattr(short, name) == getattr(long, name)


def test_each_horizons_searches_are_freed_before_the_next_horizons_are_built(monkeypatch):
    built, alive = [], []  # weak references to each PortalDistances; live ones as each search starts

    class Tracked(network.PortalDistances):
        def __init__(self, *args):
            alive.append(("portals", sum(ref() is not None for ref in built)))
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(network, "PortalDistances", Tracked)
    for workers in (1, 2):
        built.clear(), alive.clear()
        result, _ = twin_result(0.5, samples=120, workers=workers)
        assert alive == [("portals", 0)] * 2
        assert len(built) == 2 and all(ref() is None for ref in built)
        assert all(hres.score_table.shape == (2, 2) for hres in result.horizons.values())


def test_short_horizon_keys_only_the_units_a_trip_within_d0_can_cross(tmp_path):
    # Here the short horizon's floods leave no within-d0 trip between sites that an at-risk bridge could carry,
    # so all its samples share one network; a one-sided, edge-level test on the base network kept 37.
    spec = scenario_io.SyntheticFixtureSpec(
        seed=2, scenario_seed=2, storm="storm-2-like", grid_width=40, grid_height=12, bridge_count=30,
        spans_per_corridor=3, demand_count=25, supply_count=60, samples=400,
    )
    scenario_io.generate_fixture(spec, tmp_path)
    bundle = scenario_io.load_bundle(tmp_path)
    result = simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    short = result.horizons["short"]
    assert short.score_table.shape[0] == 1
    reference = raw_key_sample_scores(result, bundle.config, bundle.graph, bundle.supplies, bundle.demands, "short")
    assert np.array_equal(short.sample_scores, reference)


def test_each_horizon_table_holds_only_its_own_networks(storm1_run):
    # Storm 1 floods the short horizon's base, so the horizons key different networks.
    result, _ = storm1_run
    sizes = [hres.score_table.shape[0] for hres in result.horizons.values()]
    for hres in result.horizons.values():
        assert np.all(np.bincount(hres.sample_network, minlength=hres.score_table.shape[0]) > 0)
    assert sizes == [7, 12]  # at seed 42


def test_run_scenario_reaches_stage_functions_through_module_attributes(monkeypatch):
    # Span tracers time each stage by wrapping these attributes.
    targets = (
        (simulate, "sample_failures"), (simulate, "convergence_report"), (access, "group_names"),
        (hazard, "evaluate_exposures"), (fragility, "uplift_probability"), (network, "closure_mask"),
        (network, "snap_sites"), (network, "dijkstra"),
    )
    calls = {}
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    twin_result(0.5, samples=120)
    assert calls == {
        "sample_failures": 120, "group_names": 1, "convergence_report": 2, "evaluate_exposures": 1,
        "uplift_probability": 1, "closure_mask": 2, "snap_sites": 2, "dijkstra": 4,
    }


def test_run_scenario_memory_stays_below_one_sample_matrix(tmp_path):
    spec = scenario_io.SyntheticFixtureSpec(
        grid_width=24, grid_height=8, bridge_count=12, demand_count=16, supply_count=40, samples=20_000
    )
    scenario_io.generate_fixture(spec, tmp_path)
    bundle = scenario_io.load_bundle(tmp_path)
    tracemalloc.start()
    try:
        result = simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.horizons["long"].average_cov > 0.0  # the samples really vary
    assert peak < spec.samples * spec.demand_count * 8  # one horizon's N x D float64 matrix
