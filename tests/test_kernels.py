"""The NumPy kernels against plain-Python loop references.

Each reference visits one sample or one neuron at a time, the way the
contracts in the kernel docstrings read; the kernels work on whole arrays.
The pruning reference lives in ``test_prune.py``.

The LIF and rate kernels must also give the same bits as the straight
per-step array updates they replaced (``vectorised_lif``, ``vectorised_rate``).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from protoneuro import _kernels
from protoneuro._kernels import pure


def reference_local_maxima(values):
    # Walk each rise to the end of its plateau; a peak is a plateau followed by a fall.
    v = np.asarray(values, dtype=np.float64).tolist()
    n = len(v)
    out = []
    i = 1
    while i < n - 1:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < n and v[j + 1] == v[i]:
                j += 1
            if j + 1 < n and v[j + 1] < v[i]:
                out.append(i)
            i = j + 1
        else:
            i += 1
    return np.asarray(out, dtype=np.int64)


def reference_lif(v0, drive, weights, tau_m, v_rest, v_th, v_reset, refractory, dt,
                  tau_syn, record_potentials=True):
    n, steps = drive.shape
    d = np.asarray(drive, dtype=np.float64).tolist()
    w = np.asarray(weights, dtype=np.float64).tolist()
    v = [float(x) for x in v0]
    refr = [0.0] * n
    syn = [0.0] * n
    spikes_prev = [0.0] * n
    active = [False] * n
    leak = dt / tau_m
    syn_decay = math.exp(-dt / tau_syn)
    syn_jump = 1.0 / tau_syn
    pot = np.empty((n, steps)) if record_potentials else None
    filt = np.empty((n, steps))
    spike_steps, spike_neurons = [], []
    for k in range(steps):
        for j in range(n):
            active[j] = refr[j] <= 0.0
            if active[j]:
                dv = leak * (v_rest - v[j]) + dt * d[j][k]
                rec = 0.0
                for i in range(n):
                    if spikes_prev[i] != 0.0:
                        rec += w[j][i]
                dv += rec
                v[j] = v[j] + dv
            else:
                v[j] = v_reset
            refr[j] = max(refr[j] - dt, 0.0)
        for j in range(n):
            if active[j] and v[j] > v_th:
                spikes_prev[j] = 1.0
                v[j] = v_reset
                refr[j] = refractory
                spike_steps.append(k)
                spike_neurons.append(j)
            else:
                spikes_prev[j] = 0.0
            syn[j] = syn[j] * syn_decay + spikes_prev[j] * syn_jump
        if record_potentials:
            pot[:, k] = v
        filt[:, k] = syn
    return (pot, filt, np.asarray(spike_steps, dtype=np.int64),
            np.asarray(spike_neurons, dtype=np.int64))


def reference_rate(x0, drive, weights, tau, dt):
    n, steps = drive.shape
    d = np.asarray(drive, dtype=np.float64).tolist()
    w = np.asarray(weights, dtype=np.float64).tolist()
    x = [float(v) for v in x0]
    r = [math.tanh(v) for v in x]
    a = dt / tau
    state = np.empty((n, steps))
    act = np.empty((n, steps))
    for k in range(steps):
        xn = []
        for j in range(n):
            rec = 0.0
            for i in range(n):
                rec += w[j][i] * r[i]
            xn.append(x[j] + a * (-x[j] + rec + d[j][k]))
        x = xn
        r = [math.tanh(v) for v in x]
        state[:, k] = x
        act[:, k] = r
    return state, act


def random_signal(rng, n):
    return rng.standard_normal(n).cumsum() * 0.1 + rng.standard_normal(n) * 0.3


def test_backend_is_pure():
    assert _kernels.backend() == "pure"


def test_local_maxima_matches_plateau_walk():
    rng = np.random.default_rng(0)
    cases = [np.zeros(10), np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0, 0.0]),
             np.array([1.0, 0.5, 1.0]), np.array([0.0, 2.0, 2.0])]
    cases += [random_signal(rng, int(rng.integers(3, 5000))) for _ in range(40)]
    # quantised signals exercise the plateau handling
    cases += [np.round(random_signal(rng, 2000) * 2) / 2 for _ in range(10)]
    for v in cases:
        np.testing.assert_array_equal(pure.local_maxima(v), reference_local_maxima(v))


@pytest.mark.parametrize("equal_neighbours", [False, True], ids=["samples", "runs"])
def test_local_maxima_matches_plateau_walk_on_either_branch(equal_neighbours):
    # With no two equal neighbours the kernel compares the samples directly;
    # otherwise it compresses runs of equal values first.
    rng = np.random.default_rng(7)
    cases = [random_signal(rng, n) for n in (3, 4, 5, 6, 101, 4000)]
    cases.append(np.array([0.0, np.nan, 1.0, np.inf, 2.0, -np.inf, 3.0, np.nan, np.nan, 1.0]))
    for v in cases:
        if equal_neighbours:
            v = np.round(v * 2) / 2
            v[len(v) // 2] = v[len(v) // 2 - 1]
        assert bool(np.all(v[1:] != v[:-1])) is not equal_neighbours
        got = pure.local_maxima(v)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, reference_local_maxima(v))


def lif_args(rng, n=6, steps=20000):
    drive = rng.uniform(0.0, 3.0, (n, steps))
    weights = rng.uniform(-1, 1, (n, n)) * 0.004
    v0 = np.full(n, -0.065)
    return (v0, drive, weights, 0.020, -0.065, -0.050, -0.065, 0.002, 1e-4, 0.005)


def test_lif_matches_neuron_loop():
    rng = np.random.default_rng(2)
    args = lif_args(rng)
    vp, fp, sp, np_ = pure.lif_run(*args)
    vr, fr, sr, nr = reference_lif(*args)
    assert sp.size > 100  # the fixture actually spikes
    np.testing.assert_array_equal(sp, sr)
    np.testing.assert_array_equal(np_, nr)
    np.testing.assert_allclose(vp, vr, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(fp, fr, rtol=1e-12, atol=1e-15)


def test_lif_matches_neuron_loop_without_recording():
    # The kernel always records the potentials; its spikes and filtered
    # trace are those of a loop that records none.
    rng = np.random.default_rng(3)
    args = lif_args(rng, n=3, steps=5000)
    vp, fp, sp, _ = pure.lif_run(*args)
    vr, fr, sr, _ = reference_lif(*args, record_potentials=False)
    assert vp.shape == (3, 5000) and vr is None
    np.testing.assert_array_equal(sp, sr)
    np.testing.assert_allclose(fp, fr, rtol=1e-12, atol=1e-15)


def test_lif_matches_neuron_loop_without_weights():
    # A zero recurrent matrix: the neurons run uncoupled.
    rng = np.random.default_rng(4)
    drive = rng.uniform(0.0, 2.0, (2, 10000))
    args = (np.full(2, -0.065), drive, np.zeros((2, 2)), 0.020, -0.065, -0.050, -0.065, 0.0,
            1e-4, 0.005)
    vp, fp, sp, np_ = pure.lif_run(*args)
    vr, fr, sr, nr = reference_lif(*args)
    np.testing.assert_array_equal(sp, sr)
    np.testing.assert_array_equal(np_, nr)
    np.testing.assert_allclose(vp, vr, rtol=1e-12, atol=1e-15)


def test_rate_matches_unit_loop():
    rng = np.random.default_rng(5)
    n, steps = 8, 10000
    drive = rng.uniform(-1, 1, (n, steps))
    weights = rng.uniform(-1, 1, (n, n)) * 0.8 / np.sqrt(n)  # contracting dynamics
    x0 = rng.uniform(-0.5, 0.5, n)
    rp, first = pure.rate_run(x0, drive, weights, 0.01, 1e-4)
    xr, rr = reference_rate(x0, drive, weights, 0.01, 1e-4)
    assert first is None and np.all(np.isfinite(xr))
    np.testing.assert_allclose(rp, rr, rtol=1e-9, atol=1e-12)


def test_rate_matches_unit_loop_without_weights():
    rng = np.random.default_rng(6)
    drive = rng.uniform(-1, 1, (2, 3000))
    rp, first = pure.rate_run(np.zeros(2), drive, np.zeros((2, 2)), 0.02, 1e-4)
    xr, rr = reference_rate(np.zeros(2), drive, np.zeros((2, 2)), 0.02, 1e-4)
    assert first is None
    np.testing.assert_allclose(rp, rr, rtol=1e-12, atol=1e-15)


# --- bit identity with the straight per-step array updates ---------------------

def vectorised_lif(v0, drive, weights, tau_m, v_rest, v_th, v_reset, refractory, dt,
                   tau_syn, record_potentials=True):
    # One array update per step, refractory clocks counted down in floats.
    N, steps = drive.shape
    v = np.array(v0, dtype=np.float64, copy=True)
    refr = np.zeros(N)
    syn = np.zeros(N)
    spikes_prev = np.zeros(N)
    leak = dt / tau_m
    syn_decay = math.exp(-dt / tau_syn)
    syn_jump = 1.0 / tau_syn
    potentials = np.empty((N, steps)) if record_potentials else None
    filtered = np.empty((N, steps))
    spike_steps, spike_neurons = [], []
    for k in range(steps):
        active = refr <= 0.0
        dv = leak * (v_rest - v) + dt * drive[:, k]
        dv = dv + weights @ spikes_prev
        v = np.where(active, v + dv, v_reset)
        refr = np.maximum(refr - dt, 0.0)
        fired = active & (v > v_th)
        if fired.any():
            v[fired] = v_reset
            refr[fired] = refractory
            for j in np.flatnonzero(fired):
                spike_steps.append(k)
                spike_neurons.append(int(j))
        spikes_prev = fired.astype(np.float64)
        syn = syn * syn_decay + spikes_prev * syn_jump
        if record_potentials:
            potentials[:, k] = v
        filtered[:, k] = syn
    return (potentials, filtered, np.asarray(spike_steps, dtype=np.int64),
            np.asarray(spike_neurons, dtype=np.int64))


def vectorised_rate(x0, drive, weights, tau, dt):
    N, steps = drive.shape
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.tanh(x)
    a = dt / tau
    state = np.empty((N, steps))
    activities = np.empty((N, steps))
    for k in range(steps):
        x = x + a * (-x + weights @ r + drive[:, k])
        r = np.tanh(x)
        state[:, k] = x
        activities[:, k] = r
    return state, activities


def reference_first_nonfinite(state):
    """(step, neuron) of the first non-finite entry of an (N, steps) state, or None."""
    where = np.argwhere(~np.isfinite(state.T))
    return tuple(int(i) for i in where[0]) if where.size else None


def assert_same_rate_bits(got, want):
    """The activities' bits, and the first non-finite state, of ``vectorised_rate``."""
    activities, first = got
    assert_same_bits((activities,), want[1:])
    assert first == reference_first_nonfinite(want[0])


@pytest.fixture
def small_blocks():
    """Run the kernels with blocks of ``values`` neuron-steps; restored after the test."""
    old = pure._BLOCK_VALUES
    yield lambda values: setattr(pure, "_BLOCK_VALUES", values)
    pure._BLOCK_VALUES = old


def assert_same_bits(got, want):
    """Equal bit patterns, except which NaN a NaN is.

    When both operands are NaN, NumPy's in-place add returns the second
    one's sign and payload and the out-of-place add the first one's. Only
    where the NaNs are can show: a non-finite state is an error, and
    ``%.9g`` prints every NaN as ``nan``.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.shape == w.shape and g.dtype == w.dtype
        if w.dtype == np.float64:
            np.testing.assert_array_equal(np.isnan(g), np.isnan(w))
            g, w = (np.where(np.isnan(a), 0.0, a).view(np.int64) for a in (g, w))
        np.testing.assert_array_equal(g, w)


def lif_case(n=6, steps=3000, seed=0, low=0.0, high=3.0, refractory=0.002, dt=1e-4,
             weights=True, v_reset=-0.065):
    rng = np.random.default_rng(seed)
    drive = rng.uniform(low, high, (n, steps))
    w = rng.uniform(-1, 1, (n, n)) * 0.004 if weights else np.zeros((n, n))
    return (np.full(n, -0.065), drive, w, 0.020, -0.065, -0.050, v_reset, refractory, dt, 0.005)


def overflow_case():
    args = list(lif_case(n=4, steps=400, seed=9))
    drive = args[1]
    drive[0, 50:] = -np.inf  # V = -inf, then NaN once the leak meets it
    drive[1, 100] = np.inf  # V = inf fires and resets
    drive[2, 150:160] = np.nan
    drive[3, ::7] = 1.7e308  # near the float limit: fires at once
    return tuple(args)


LIF_CASES = {
    "refractory-0": lif_case(refractory=0.0),
    "refractory-not-a-multiple-of-dt": lif_case(refractory=0.00035),
    "refractory-longer-than-the-run": lif_case(steps=500, refractory=0.5),
    "dense-firing": lif_case(low=50.0, high=400.0, refractory=1e-4),
    "reset-above-threshold": lif_case(v_reset=-0.045),  # a held neuron still cannot fire
    "overflow": overflow_case(),
    "no-weights": lif_case(weights=False),  # a zero recurrent matrix
    "one-neuron": lif_case(n=1),
    "two-hundred-neurons": lif_case(n=200, steps=400, high=4.0),
    "zero-steps": lif_case(steps=0),
    "one-step": lif_case(steps=1, low=1e3, high=1e4),
}


@pytest.mark.parametrize("record", [True, False], ids=["potentials", "no-potentials"])
@pytest.mark.parametrize("case", LIF_CASES.values(), ids=LIF_CASES.keys())
def test_lif_has_the_bits_of_the_per_step_update(case, record):
    # The kernel always records the potentials; without them the reference
    # still gives the spikes and filtered trace, which must not differ.
    with np.errstate(all="ignore"):
        got = pure.lif_run(*case)
        want = vectorised_lif(*case, record_potentials=record)
    assert_same_bits(got if record else got[1:], want if record else want[1:])


def test_lif_cases_reach_their_regimes():
    def spikes(name):
        with np.errstate(all="ignore"):
            return vectorised_lif(*LIF_CASES[name])
    assert sorted(spikes("refractory-longer-than-the-run")[3].tolist()) == list(range(6))
    dense = spikes("dense-firing")[2]
    assert dense.size > 3000 * 6 // 3
    pot = spikes("overflow")[0]
    assert np.isneginf(pot).any() and np.isnan(pot).any()
    assert spikes("one-step")[2].size == 6
    assert spikes("two-hundred-neurons")[2].size > 200


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(1, 4), steps=st.integers(0, 40),
       refractory=st.sampled_from([0.0, 1e-4, 0.00035, 0.002]), block=st.integers(1, 12))
def test_lif_has_the_bits_of_the_per_step_update_on_any_drive(small_blocks, data, n, steps,
                                                              refractory, block):
    small_blocks(block)
    cells = st.one_of(st.floats(-2e3, 2e3), st.floats(allow_nan=True, allow_infinity=True))
    drive = np.array(data.draw(st.lists(cells, min_size=n * steps, max_size=n * steps)),
                     dtype=np.float64).reshape(n, steps)
    weights = np.linspace(-0.02, 0.03, n * n).reshape(n, n)
    args = (np.full(n, -0.065), drive, weights, 0.020, -0.065, -0.050, -0.065, refractory,
            1e-4, 0.005)
    with np.errstate(all="ignore"):
        assert_same_bits(pure.lif_run(*args), vectorised_lif(*args))


RATE_CASES = {
    "recurrent": (8, 2000, True, 1.0),
    "no-weights": (3, 500, False, 1.0),  # a zero recurrent matrix
    "one-unit": (1, 500, True, 1.0),
    "two-hundred-units": (200, 200, True, 1.0),
    "zero-steps": (5, 0, True, 1.0),
    "one-step": (5, 1, True, 1.0),
    "overflow": (4, 300, True, 1e308),
}


@pytest.mark.parametrize("n, steps, weights, scale", RATE_CASES.values(), ids=RATE_CASES.keys())
def test_rate_has_the_bits_of_the_per_step_update(n, steps, weights, scale):
    rng = np.random.default_rng(n * 1000 + steps)
    drive = rng.uniform(-1, 1, (n, steps)) * scale
    w = rng.normal(0, 1.2 / np.sqrt(n), (n, n)) if weights else np.zeros((n, n))
    x0 = rng.uniform(-0.5, 0.5, n)
    tau = 0.01 if scale == 1.0 else 1e-6  # a step longer than tau overshoots, to inf and NaN
    with np.errstate(all="ignore"):
        got = pure.rate_run(x0, drive, w, tau, 1e-4)
        want = vectorised_rate(x0, drive, w, tau, 1e-4)
    if scale != 1.0:
        assert not np.all(np.isfinite(want[0]))
    assert_same_rate_bits(got, want)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(1, 4), steps=st.integers(0, 40),
       block=st.integers(1, 12))
def test_rate_has_the_bits_of_the_per_step_update_on_any_drive(small_blocks, data, n, steps,
                                                               block):
    # Blocks of a few steps put the first non-finite state on any side of a block edge.
    small_blocks(block)
    cells = st.one_of(st.floats(-10, 10), st.floats(allow_nan=True, allow_infinity=True))
    drive = np.array(data.draw(st.lists(cells, min_size=n * steps, max_size=n * steps)),
                     dtype=np.float64).reshape(n, steps)
    weights = np.linspace(-0.5, 0.6, n * n).reshape(n, n)
    with np.errstate(all="ignore"):
        assert_same_rate_bits(pure.rate_run(np.zeros(n), drive, weights, 0.01, 1e-4),
                              vectorised_rate(np.zeros(n), drive, weights, 0.01, 1e-4))


# --- a run fed in pieces, its state carried, gives the bits of one call --------

def run_in_pieces(kernel, state, drive, cuts, *constants):
    """``kernel`` on the pieces of ``drive`` between the steps ``cuts``, in order,
    each call carrying ``state`` on from the one before."""
    bounds = [0, *sorted(cuts), drive.shape[1]]
    return [kernel(state, drive[:, lo:hi], *constants) for lo, hi in zip(bounds, bounds[1:])]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), steps=st.integers(0, 60),
       refractory=st.sampled_from([0.0, 1e-4, 0.00035, 0.002]))
def test_kernels_split_anywhere_give_the_bits_of_one_call(data, n, steps, refractory):
    # Besides cuts anywhere, a run that spikes is cut on the step right after
    # a spike (its recurrent input is the first thing the next call adds)
    # and a few steps later, inside the spike's refractory hold (1, 4 or 20
    # steps here), so the hold is released by a later call than the one that
    # started it.
    cells = st.one_of(st.floats(-2e3, 2e3), st.floats(allow_nan=True, allow_infinity=True))
    drive = np.array(data.draw(st.lists(cells, min_size=n * steps, max_size=n * steps)),
                     dtype=np.float64).reshape(n, steps)
    cuts = data.draw(st.lists(st.integers(0, steps), max_size=5))
    weights = np.linspace(-0.02, 0.03, n * n).reshape(n, n)
    v0 = np.full(n, -0.065)
    constants = (weights, 0.020, -0.065, -0.050, -0.065, refractory, 1e-4, 0.005)
    with np.errstate(all="ignore"):
        whole = pure.lif_run(v0, drive, *constants)
        if whole[2].size:
            spike = data.draw(st.sampled_from(whole[2].tolist()))
            cuts += [c for c in (spike + 1, spike + 1 + data.draw(st.integers(1, 20)))
                     if c <= steps]
        parts = run_in_pieces(pure.lif_run, pure.LifState(v0, refractory), drive, cuts,
                              *constants)
    assert_same_bits(tuple(np.concatenate([p[k] for p in parts], axis=-1) for k in range(4)),
                     whole)

    rate_drive = np.where(np.isfinite(drive), drive / 200, drive)
    x0 = np.linspace(-0.5, 0.5, n)
    rate_weights = np.linspace(-0.5, 0.6, n * n).reshape(n, n)
    with np.errstate(all="ignore"):
        activities, first = pure.rate_run(x0, rate_drive, rate_weights, 0.01, 1e-4)
        parts = run_in_pieces(pure.rate_run, pure.RateState(x0), rate_drive, cuts,
                              rate_weights, 0.01, 1e-4)
    assert_same_bits((np.concatenate([p[0] for p in parts], axis=-1),), (activities,))
    assert next((p[1] for p in parts if p[1] is not None), None) == first


def test_a_refractory_hold_longer_than_a_call_is_counted_on():
    # The hold of a refractory period of 500 steps is counted only as far as
    # the calls reach, so a run fed 7 steps at a time releases the neuron on
    # the step one call on the whole drive does.
    args = list(lif_case(n=1, steps=1200, low=1e3, high=1e4, refractory=0.05, weights=False))
    whole = pure.lif_run(*args)
    assert whole[2].tolist() == [0, 501, 1002]
    state = pure.LifState(args[0], args[7])
    parts = run_in_pieces(pure.lif_run, state, args[1], range(7, 1200, 7), *args[2:])
    assert_same_bits(tuple(np.concatenate([p[k] for p in parts], axis=-1) for k in range(4)),
                     whole)
    assert state.steps == 1200
