"""NumPy implementations of the hot kernels.

``local_maxima`` works on runs of equal values in whole arrays.
``prune_min_distance`` decides most candidates in whole-array rounds and
keeps the one-at-a-time greedy visit (``_prune_sequential``) only for what
the rounds leave. ``lif_run`` and ``rate_run`` loop over time steps and
update all neurons of a step at once.
"""

import math
from bisect import bisect_left, insort

import numpy as np


def local_maxima(values):
    """Indices of strict local maxima; a plateau counts once, at its first sample.

    Endpoints (and plateaus touching an endpoint) are never maxima because
    one neighbour is missing.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n < 3:
        return np.empty(0, dtype=np.int64)
    # Compress runs of equal values; a run is a peak iff the neighbouring
    # runs on both sides are lower.
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    if starts.size < 3:
        return np.empty(0, dtype=np.int64)
    rv = v[starts]
    inner = np.arange(1, starts.size - 1)
    is_peak = (rv[inner] > rv[inner - 1]) & (rv[inner] > rv[inner + 1])
    return starts[inner[is_peak]].astype(np.int64)


def prune_min_distance(times, amplitudes, min_distance):
    """Greedy minimum-distance pruning of candidate peaks.

    Candidates are visited in order of decreasing amplitude (earlier time
    wins ties) and kept only if every already-kept peak is at least
    ``min_distance`` away. ``times`` must be ascending (not necessarily
    strictly). Returns the kept candidate indices in time order.

    The visit is not run one candidate at a time. Candidates ``i < j``
    conflict when ``t[j] - t[i] < min_distance``; each round keeps every
    undecided candidate that outranks all undecided candidates it conflicts
    with, and drops the candidates those keepers conflict with. This is the
    round form of the greedy maximal independent set, so the result is the
    greedy one. A round that decides fewer than half of the undecided
    candidates (a long amplitude ramp or an equal-amplitude run) hands the
    rest to the one-at-a-time loop, which is exact for them because no
    undecided candidate conflicts with a kept one.
    """
    t = np.asarray(times, dtype=np.float64)
    a = np.asarray(amplitudes, dtype=np.float64)
    m = t.size
    if not min_distance > 0:
        return np.arange(m, dtype=np.int64)
    rank = np.empty(m, dtype=np.int64)
    rank[np.lexsort((t, -a))] = np.arange(m)
    lo, hi = _conflict_windows(t, min_distance)
    keep = np.zeros(m, dtype=bool)
    undecided = np.arange(m)
    while undecided.size:
        r = np.full(m, m, dtype=np.int64)  # decided candidates rank last
        r[undecided] = rank[undecided]
        kept = undecided[_range_min(r, lo[undecided], hi[undecided]) == rank[undecided]]
        keep[kept] = True
        cover = np.bincount(lo[kept], minlength=m + 1) - np.bincount(hi[kept], minlength=m + 1)
        left = undecided[np.cumsum(cover[:m])[undecided] == 0]
        if 2 * left.size > undecided.size:
            keep[left[_prune_sequential(t[left], a[left], min_distance)]] = True
            break
        undecided = left
    return np.flatnonzero(keep).astype(np.int64)


def _conflict_windows(t, d):
    """Per candidate, the index range ``[lo, hi)`` of candidates it conflicts with.

    ``j`` is inside when ``fl(t[max] - t[min]) < d``, the predicate of the
    one-at-a-time loop. ``searchsorted`` on ``t - d`` and ``t + d`` rounds
    differently, so its edges are moved, one distinct time at a time, until
    they agree with that subtraction.
    """
    lo = np.searchsorted(t, t - d, side="right")
    while True:
        grow = (lo > 0) & (t - t[lo - 1] < d)
        shrink = ~grow & ~(t - t[np.minimum(lo, t.size - 1)] < d)
        if not (grow.any() or shrink.any()):
            break
        lo[grow] = np.searchsorted(t, t[lo[grow] - 1], side="left")
        lo[shrink] = np.searchsorted(t, t[lo[shrink]], side="right")
    hi = np.searchsorted(t, t + d, side="left")
    while True:
        grow = (hi < t.size) & (t[np.minimum(hi, t.size - 1)] - t < d)
        shrink = ~grow & ~(t[hi - 1] - t < d)
        if not (grow.any() or shrink.any()):
            break
        hi[grow] = np.searchsorted(t, t[hi[grow]], side="right")
        hi[shrink] = np.searchsorted(t, t[hi[shrink] - 1], side="left")
    return lo, hi


def _range_min(r, lo, hi):
    """``min(r[lo[k]:hi[k]])`` for every k (all ranges non-empty), by sparse table."""
    levels = [r]
    span = 1
    longest = int((hi - lo).max())
    while 2 * span <= longest:
        prev = levels[-1]
        levels.append(np.minimum(prev[:-span], prev[span:]))
        span *= 2
    k = np.frexp(hi - lo)[1] - 1  # floor(log2(length)), exactly
    out = np.empty(lo.size, dtype=r.dtype)
    for level, table in enumerate(levels):
        sel = np.flatnonzero(k == level)
        out[sel] = np.minimum(table[lo[sel]], table[hi[sel] - (1 << level)])
    return out


def _prune_sequential(t, a, min_distance):
    """The greedy visit, one candidate at a time; same contract as the above."""
    order = np.lexsort((t, -a))
    keep = np.zeros(t.size, dtype=bool)
    kept_times: list[float] = []
    for idx in order:
        ti = t[idx]
        pos = bisect_left(kept_times, ti)
        if pos > 0 and ti - kept_times[pos - 1] < min_distance:
            continue
        if pos < len(kept_times) and kept_times[pos] - ti < min_distance:
            continue
        insort(kept_times, ti)
        keep[idx] = True
    return np.flatnonzero(keep)


def lif_run(v0, drive, weights, tau_m, v_rest, v_th, v_reset, refractory, dt,
            tau_syn, record_potentials=True):
    """Forward-Euler leaky integrate-and-fire loop.

    Per step: V += (dt/tau_m)(v_rest - V) + dt*drive + weights @ spikes_prev,
    where a presynaptic spike is treated as a unit-area current impulse
    (1/dt for one step), so it deposits its weight directly onto the
    postsynaptic membrane. Neurons with V > v_th fire, reset to v_reset and
    hold there for the refractory period. A filtered trace per neuron decays
    with tau_syn and jumps by 1/tau_syn on each spike, so one spike carries
    unit time-integral.

    Returns (potentials, filtered, spike_steps, spike_neurons) where
    potentials is (N, steps) or None, filtered is the exponential synaptic
    trace (N, steps), and the spike arrays give the 0-based step index and
    neuron index of every spike in chronological order.
    """
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
    spike_steps: list[int] = []
    spike_neurons: list[int] = []

    for k in range(steps):
        active = refr <= 0.0
        dv = leak * (v_rest - v) + dt * drive[:, k]
        if weights is not None:
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

    return (potentials, filtered,
            np.asarray(spike_steps, dtype=np.int64),
            np.asarray(spike_neurons, dtype=np.int64))


def rate_run(x0, drive, weights, tau, dt):
    """Forward-Euler tanh rate dynamics: tau * dx/dt = -x + weights@tanh(x) + drive.

    ``drive`` is the already-projected external input, shape (N, steps).
    Returns (state, activities): the pre-activation x and r = tanh(x), both
    (N, steps).
    """
    N, steps = drive.shape
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.tanh(x)
    a = dt / tau
    state = np.empty((N, steps))
    activities = np.empty((N, steps))
    for k in range(steps):
        if weights is not None:
            x = x + a * (-x + weights @ r + drive[:, k])
        else:
            x = x + a * (-x + drive[:, k])
        r = np.tanh(x)
        state[:, k] = x
        activities[:, k] = r
    return state, activities
