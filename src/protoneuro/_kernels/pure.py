"""NumPy implementations of the hot kernels.

``local_maxima`` works on runs of equal values in whole arrays, and on the
samples themselves when no two neighbours are equal.
``prune_min_distance`` decides most candidates in whole-array rounds and
keeps the one-at-a-time greedy visit (``_prune_sequential``) only for what
the rounds leave. ``lif_run`` and ``rate_run`` loop over time steps and
update all neurons of a step at once. A step makes only the array calls its
sequential arithmetic needs: each writes into a preallocated array (the new
state straight into the step's row of a (steps, N) buffer or of a block
buffer), every constant operand is a length-N array rather than a Python
float, and the work of a spike (the recurrent input, the reset, the
refractory hold) is done only on the steps that have one. The steps run in
blocks of ``_block_steps(N)``: a (steps, N) buffer is kept only for what the
kernel returns, and what a step needs for itself (the LIF's ``dt * drive``,
the rate units' pre-activation state) is held one block at a time.
"""

import math
from bisect import bisect_left, insort
from collections import deque

import numpy as np

#: Values a kernel's block buffer holds (128 KiB of float64): a block is this
#: many neuron-steps, at least one step.
_BLOCK_VALUES = 1 << 14


def local_maxima(values):
    """Indices of strict local maxima; a plateau counts once, at its first sample.

    Endpoints (and plateaus touching an endpoint) are never maxima because
    one neighbour is missing.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n < 3:
        return np.empty(0, dtype=np.int64)
    changes = v[1:] != v[:-1]
    if changes.all():
        # No two equal neighbours (a noisy trace): every sample is its own run.
        peaks = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))
        peaks += 1
        return peaks.astype(np.int64, copy=False)
    # Compress runs of equal values; a run is a peak iff the neighbouring
    # runs on both sides are lower.
    starts = np.flatnonzero(np.concatenate(([True], changes)))
    if starts.size < 3:
        return np.empty(0, dtype=np.int64)
    rv = v[starts]
    is_peak = (rv[1:-1] > rv[:-2]) & (rv[1:-1] > rv[2:])
    return starts[1:-1][is_peak].astype(np.int64)


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


def lif_run(v0, drive, weights, tau_m, v_rest, v_th, v_reset, refractory, dt, tau_syn):
    """Forward-Euler leaky integrate-and-fire loop.

    Per step: V += (dt/tau_m)(v_rest - V) + dt*drive + weights @ spikes_prev,
    where a presynaptic spike is treated as a unit-area current impulse
    (1/dt for one step), so it deposits its weight directly onto the
    postsynaptic membrane. Neurons with V > v_th fire, reset to v_reset and
    hold there for the refractory period. A filtered trace per neuron decays
    with tau_syn and jumps by 1/tau_syn on each spike, so one spike carries
    unit time-integral.

    Returns (potentials, filtered, spike_steps, spike_neurons) where
    potentials is (N, steps), filtered is the exponential synaptic
    trace (N, steps), and the spike arrays give the 0-based step index and
    neuron index of every spike in chronological order. The two traces are
    recorded one step per row and returned as ``.T`` views of (steps, N)
    buffers, so they are not C-contiguous.

    The loop does the arithmetic of the per-step update above, in the same
    order, with fewer array operations per step, and gives the same bits (a
    NaN may carry another NaN's payload). A step is: ``dv = leak * (rest -
    V)``, ``dv += dt * drive`` (taken for a block of steps at once into one
    block buffer; the product is elementwise, so its bits do not depend on
    the block), the recurrent input if the last step had a spike, the new V
    written straight into the step's row of potentials, the decay of the
    filtered trace written into its row, and the threshold test. The
    constants are length-N arrays, so a step without a spike converts no
    Python float.

    - ``weights @ spikes_prev`` is taken only on a step after a spike; on
      any other step it is a vector of zeros, which leaves V unchanged.
    - The refractory countdown ``r = max(r - dt, 0)``, started at
      ``refractory`` on a spike, is the same for every neuron, so its length
      is counted once (``_refractory_hold``), and the neurons that fire on a
      step are released together, in the order of the steps they fired on.
      A held neuron sits at v_reset and is left out of the update, so it
      cannot fire. The rows of potentials start filled with v_reset, so the
      add that skips held neurons leaves them at their value. While no
      neuron is held, the plain add gives the same bits for less: on the
      benchmark's network (10 neurons, 20 steps held per spike) 80% of
      steps hold no neuron, and the masked add on every step took the loop
      from about 0.39 to 0.45 s (2 vCPUs).
    - ``V > v_th`` goes into a mask that is counted; only a step with a
      count looks for the neurons that fire. NaN never fires.
    """
    N, steps = drive.shape
    v = np.array(v0, dtype=np.float64, copy=True)
    leak = np.full(N, dt / tau_m)
    rest = np.full(N, v_rest, dtype=np.float64)
    th = np.full(N, v_th, dtype=np.float64)
    syn_decay = np.full(N, math.exp(-dt / tau_syn))
    syn_jump = 1.0 / tau_syn
    hold = _refractory_hold(refractory, dt, steps)
    block = _block_steps(N)
    dt_drive = np.empty((min(block, steps), N))

    potentials = np.full((steps, N), v_reset, dtype=np.float64)  # a held neuron's value
    filtered = np.empty((steps, N))
    # Spike steps and neurons go into int64 buffers that double when full:
    # 8 bytes a spike each, where lists of Python ints take about 20 in all.
    spike_steps = np.empty(1024, np.int64)
    spike_neurons = np.empty(1024, np.int64)
    spikes = 0
    dv = np.empty(N)
    above = np.empty(N, dtype=bool)
    syn = np.zeros(N)
    active = np.ones(N, dtype=bool)
    # (release step, neurons) of each step whose spikes are still held, in
    # step order: every spike is held equally long, so they release in turn.
    held = deque()
    wake = steps  # the release step of held[0]
    spikes_prev = None  # the previous step's spikes as 0/1, None when it had none

    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        np.multiply(dt, drive[:, lo:hi].T, out=dt_drive[:hi - lo])
        for k, dt_drive_k in zip(range(lo, hi), dt_drive):
            if k == wake:
                active[held.popleft()[1]] = True
                wake = held[0][0] if held else steps
            np.subtract(rest, v, out=dv)
            np.multiply(leak, dv, out=dv)
            dv += dt_drive_k
            if spikes_prev is not None:
                dv += weights @ spikes_prev
                spikes_prev = None
            if held:
                v = np.add(v, dv, out=potentials[k], where=active)
            else:
                v = np.add(v, dv, out=potentials[k])
            syn = np.multiply(syn, syn_decay, out=filtered[k])
            np.greater(v, th, out=above)
            if not np.count_nonzero(above):
                continue
            fired = np.flatnonzero(active & above)
            if not fired.size:
                continue
            v[fired] = v_reset
            syn[fired] += syn_jump
            if spikes + fired.size > spike_steps.size:
                grown = 2 * spike_steps.size + fired.size
                spike_steps.resize(grown, refcheck=False)
                spike_neurons.resize(grown, refcheck=False)
            spike_steps[spikes:spikes + fired.size] = k
            spike_neurons[spikes:spikes + fired.size] = fired
            spikes += fired.size
            if hold:
                active[fired] = False
                held.append((k + 1 + hold, fired))
                wake = held[0][0]
            spikes_prev = np.zeros(N)
            spikes_prev[fired] = 1.0

    spike_steps.resize(spikes, refcheck=False)
    spike_neurons.resize(spikes, refcheck=False)
    return potentials.T, filtered.T, spike_steps, spike_neurons


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
    Returns (activities, first): r = tanh(x), (N, steps), as the ``.T`` view
    of a buffer recorded one step per row, and the (step, neuron) of the
    first pre-activation x that is not finite (``first_nonfinite``), or None.
    The states x are held one block of steps at a time and checked after
    each block; the run goes on to its last step either way.

    A step is ``dx = weights @ r - x``, ``dx += drive``, ``dx *= dt/tau`` (a
    length-N array), and ``x + dx`` and its tanh written straight into the
    step's rows. ``(-x) + y`` and ``y - x`` are the same IEEE sum, so the
    update has the bits of the formula read left to right. ``weights @ r``
    is ``np.dot`` into ``dx``, which copies ``weights`` on each step unless
    it is C-contiguous.
    """
    N, steps = drive.shape
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.tanh(x)
    a = np.full(N, dt / tau)
    block = _block_steps(N)
    state = np.empty((min(block, steps), N))
    activities = np.empty((steps, N))
    dx = np.empty(N)
    first = None
    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        for k, state_k in zip(range(lo, hi), state):
            np.dot(weights, r, out=dx)
            dx -= x
            dx += drive[:, k]
            np.multiply(a, dx, out=dx)
            x = np.add(x, dx, out=state_k)
            r = np.tanh(x, out=activities[k])
        if first is None:
            first = first_nonfinite(state[:hi - lo])
            if first is not None:
                first = (lo + first[0], first[1])
    return activities.T, first


def first_nonfinite(rows):
    """The (step, neuron) of the first value of (steps, N) ``rows`` that is
    not finite, the earliest step and then the lowest neuron, or None."""
    finite = np.isfinite(rows)
    if finite.all():
        return None
    step, neuron = divmod(int(np.argmin(finite)), rows.shape[1])
    return step, neuron


def _block_steps(n):
    """Steps per block of a kernel with ``n`` neurons: ``_BLOCK_VALUES`` values."""
    return max(1, _BLOCK_VALUES // max(n, 1))
