"""The NumPy kernels against plain-Python loop references.

Each reference visits one sample or one neuron at a time, the way the
contracts in the kernel docstrings read; the kernels work on whole arrays.
The pruning reference lives in ``test_prune.py``.
"""

import math

import numpy as np

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
    w = None if weights is None else np.asarray(weights, dtype=np.float64).tolist()
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
                if w is not None:
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
    w = None if weights is None else np.asarray(weights, dtype=np.float64).tolist()
    x = [float(v) for v in x0]
    r = [math.tanh(v) for v in x]
    a = dt / tau
    state = np.empty((n, steps))
    act = np.empty((n, steps))
    for k in range(steps):
        xn = []
        for j in range(n):
            if w is not None:
                rec = 0.0
                for i in range(n):
                    rec += w[j][i] * r[i]
                xn.append(x[j] + a * (-x[j] + rec + d[j][k]))
            else:
                xn.append(x[j] + a * (-x[j] + d[j][k]))
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
    rng = np.random.default_rng(3)
    args = lif_args(rng, n=3, steps=5000)
    vp, fp, sp, _ = pure.lif_run(*args, record_potentials=False)
    vr, fr, sr, _ = reference_lif(*args, record_potentials=False)
    assert vp is None and vr is None
    np.testing.assert_array_equal(sp, sr)
    np.testing.assert_allclose(fp, fr, rtol=1e-12, atol=1e-15)


def test_lif_matches_neuron_loop_without_weights():
    rng = np.random.default_rng(4)
    drive = rng.uniform(0.0, 2.0, (2, 10000))
    args = (np.full(2, -0.065), drive, None, 0.020, -0.065, -0.050, -0.065, 0.0, 1e-4, 0.005)
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
    xp, rp = pure.rate_run(x0, drive, weights, 0.01, 1e-4)
    xr, rr = reference_rate(x0, drive, weights, 0.01, 1e-4)
    np.testing.assert_allclose(xp, xr, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(rp, rr, rtol=1e-9, atol=1e-12)


def test_rate_matches_unit_loop_without_weights():
    rng = np.random.default_rng(6)
    drive = rng.uniform(-1, 1, (2, 3000))
    xp, rp = pure.rate_run(np.zeros(2), drive, None, 0.02, 1e-4)
    xr, rr = reference_rate(np.zeros(2), drive, None, 0.02, 1e-4)
    np.testing.assert_allclose(xp, xr, rtol=1e-12, atol=1e-15)
