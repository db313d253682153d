"""The round-based minimum-distance pruning against the one-at-a-time greedy visit."""

from bisect import bisect_left, insort

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from protoneuro._kernels import pure


def reference_prune(times, amplitudes, min_distance):
    # The greedy loop that pure.prune_min_distance's rounds stand in for.
    t = np.asarray(times, dtype=np.float64)
    a = np.asarray(amplitudes, dtype=np.float64)
    keep = np.zeros(t.size, dtype=bool)
    kept_times = []
    for idx in np.lexsort((t, -a)):
        ti = t[idx]
        pos = bisect_left(kept_times, ti)
        if pos > 0 and ti - kept_times[pos - 1] < min_distance:
            continue
        if pos < len(kept_times) and kept_times[pos] - ti < min_distance:
            continue
        insort(kept_times, ti)
        keep[idx] = True
    return np.flatnonzero(keep)


def assert_prune_matches(t, a, d):
    got = pure.prune_min_distance(t, a, d)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, reference_prune(t, a, d))
    return got


@st.composite
def prune_cases(draw):
    m = draw(st.integers(0, 200))
    # Time steps in tenths of a second; zero steps repeat a time.
    steps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 25, 50]), min_size=m, max_size=m))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e6 + 0.3]))
    t = offset + np.cumsum(steps, dtype=np.float64) * 0.1
    levels = draw(st.sampled_from([2, 5, None]))  # None: no forced ties
    if levels is None:
        a = draw(st.lists(st.floats(0, 1), min_size=m, max_size=m))
    else:
        a = draw(st.lists(st.integers(0, levels - 1), min_size=m, max_size=m))
    d = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 5.0, 1e9]) | st.floats(0, 20))
    return t, np.asarray(a, dtype=np.float64), d


@settings(max_examples=300, deadline=None)
@given(case=prune_cases())
def test_prune_matches_greedy_loop(case):
    assert_prune_matches(*case)


@settings(max_examples=300, deadline=None)
@given(case=prune_cases())
def test_conflict_windows_match_the_pairwise_predicate(case):
    # The O(m^2) predicate of the loop, fl(t[max] - t[min]) < d, on every
    # pair; at the 1e6 + 0.3 offsets t - d and t + d round.
    t, _, d = case
    assume(d > 0)  # prune_min_distance keeps every candidate before it asks
    lo, hi = pure._conflict_windows(t, d)
    i, j = np.indices((t.size, t.size))
    conflict = t[np.maximum(i, j)] - t[np.minimum(i, j)] < d
    np.testing.assert_array_equal((lo[:, None] <= j) & (j < hi[:, None]), conflict)


def test_prune_matches_greedy_loop_on_uniform_times():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(0, 400))
        t = np.sort(rng.uniform(0, 1000, m))
        a = rng.uniform(0, 1, m)
        if rng.random() < 0.3 and m:
            a = np.round(a * 5) / 5  # force amplitude ties
        assert_prune_matches(t, a, float(rng.uniform(0, 50)))


@pytest.mark.parametrize("t, a", [
    ([], []),
    ([3.0], [0.5]),
    ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]),   # one time, tied amplitudes
])
@pytest.mark.parametrize("d", [0.0, 1.0])
def test_prune_small_inputs(t, a, d):
    assert_prune_matches(np.array(t), np.array(a), d)


def test_zero_distance_keeps_every_candidate():
    t = np.array([0.0, 0.0, 1.0, 1.0])
    np.testing.assert_array_equal(assert_prune_matches(t, np.ones(4), 0.0), [0, 1, 2, 3])


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_pair_exactly_min_distance_apart_is_kept(offset):
    t = offset + np.array([0.25, 5.25])
    np.testing.assert_array_equal(assert_prune_matches(t, np.array([1.0, 2.0]), 5.0), [0, 1])


def test_distance_is_the_difference_of_times_not_time_plus_distance():
    t = np.array([1000000.1, 1000000.2])
    d = 0.1
    # The two tests disagree on this pair: the loop's subtraction conflicts.
    assert t[1] - t[0] < d and not t[1] < t[0] + d
    np.testing.assert_array_equal(assert_prune_matches(t, np.array([1.0, 2.0]), d), [1])
    np.testing.assert_array_equal(assert_prune_matches(t, np.array([2.0, 1.0]), d), [0])


@pytest.mark.parametrize("amplitudes", [np.arange(20000.0), np.ones(20000)],
                         ids=["ramp", "flat"])
def test_ramp_and_flat_runs_fall_back_to_the_loop(monkeypatch, amplitudes):
    calls = []
    loop = pure._prune_sequential

    def spy(t, a, d):
        calls.append(t.size)
        return loop(t, a, d)

    monkeypatch.setattr(pure, "_prune_sequential", spy)
    t = np.arange(20000.0)
    kept = assert_prune_matches(t, amplitudes, 5.0)
    assert len(calls) == 1 and calls[0] > 10000
    assert kept.size == 4000
