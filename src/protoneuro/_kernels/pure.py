"""NumPy implementations of the hot kernels.

``local_maxima`` works on runs of equal values in whole arrays.
``prune_min_distance`` decides most candidates in whole-array rounds and
keeps the one-at-a-time greedy visit (``_prune_sequential``) only for what
the rounds leave. ``lif_run`` and ``rate_run`` loop over time steps,
update all neurons of a step at once with in-place array operations, and
record one step per row of a (steps, N) buffer.
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
    neuron index of every spike in chronological order. The two traces are
    recorded one step per row and returned as ``.T`` views of (steps, N)
    buffers, so they are not C-contiguous.

    The loop does the arithmetic of the per-step update above, in the same
    order, with fewer array operations per step, and gives the same bits (a
    NaN may carry another NaN's payload):

    - ``weights @ spikes_prev`` is taken only on a step after a spike; on
      any other step it is a vector of zeros, which leaves V unchanged.
    - The refractory countdown ``r = max(r - dt, 0)``, started at
      ``refractory`` on a spike, is the same for every neuron, so its length
      is counted once (``_refractory_hold``) and a firing neuron gets the
      step on which it is released. A held neuron sits at v_reset and is
      left out of the update, so it cannot fire.
    - The fired mask is built only on steps whose largest V exceeds v_th;
      NaN never fires, as in ``V > v_th``.
    """
    N, steps = drive.shape
    v = np.array(v0, dtype=np.float64, copy=True)
    leak = dt / tau_m
    syn_decay = math.exp(-dt / tau_syn)
    syn_jump = 1.0 / tau_syn
    hold = _refractory_hold(refractory, dt, steps)
    dt_drive = np.empty((steps, N))
    np.multiply(dt, drive.T, out=dt_drive)

    potentials = np.empty((steps, N)) if record_potentials else None
    filtered = np.empty((steps, N))
    spike_steps: list[int] = []
    spike_neurons: list[int] = []
    dv = np.empty(N)
    syn = np.zeros(N)
    active = np.ones(N, dtype=bool)
    release = np.zeros(N, dtype=np.int64)  # first step a held neuron is active again
    wake = steps  # the earliest pending release
    spikes_prev = None  # the previous step's spikes as 0/1, None when it had none

    for k in range(steps):
        if k == wake:
            np.less_equal(release, k, out=active)
            wake = int(release[~active].min(initial=steps))
        np.subtract(v_rest, v, out=dv)
        np.multiply(leak, dv, out=dv)
        dv += dt_drive[k]
        if spikes_prev is not None and weights is not None:
            dv += weights @ spikes_prev
        np.add(v, dv, out=v, where=active)
        spikes_prev = None
        if np.fmax.reduce(v, initial=-np.inf) > v_th:
            fired = np.flatnonzero(active & (v > v_th))
            if fired.size:
                v[fired] = v_reset
                spike_steps.extend([k] * fired.size)
                spike_neurons.extend(fired.tolist())
                if hold:
                    active[fired] = False
                    release[fired] = k + 1 + hold
                    wake = min(wake, k + 1 + hold)
                spikes_prev = np.zeros(N)
                spikes_prev[fired] = 1.0
        syn = np.multiply(syn, syn_decay, out=filtered[k])
        if spikes_prev is not None:
            syn[fired] += syn_jump
        if record_potentials:
            potentials[k] = v

    return (None if potentials is None else potentials.T, filtered.T,
            np.asarray(spike_steps, dtype=np.int64),
            np.asarray(spike_neurons, dtype=np.int64))


def _refractory_hold(refractory, dt, steps):
    """Steps a neuron stays held after a spike, at most ``steps``.

    The number of values the countdown ``r = max(r - dt, 0)`` from
    ``refractory`` takes before the first ``r <= 0``; a NaN or infinite
    period holds for the whole run.
    """
    hold, r = 0, float(refractory)
    while hold < steps and not r <= 0.0:
        hold += 1
        r = max(r - dt, 0.0)
    return hold


def rate_run(x0, drive, weights, tau, dt):
    """Forward-Euler tanh rate dynamics: tau * dx/dt = -x + weights@tanh(x) + drive.

    ``drive`` is the already-projected external input, shape (N, steps).
    Returns (state, activities): the pre-activation x and r = tanh(x), both
    (N, steps), as ``.T`` views of buffers recorded one step per row. Each
    step evaluates the update in place, in the order the formula reads.
    """
    N, steps = drive.shape
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.tanh(x)
    a = dt / tau
    state = np.empty((steps, N))
    activities = np.empty((steps, N))
    dx = np.empty(N)
    for k in range(steps):
        np.negative(x, out=dx)
        if weights is not None:
            dx += weights @ r
        dx += drive[:, k]
        np.multiply(a, dx, out=dx)
        x = np.add(x, dx, out=state[k])
        r = np.tanh(x, out=activities[k])
    return state.T, activities.T
