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
refractory hold) is done only on the steps that have one. Each call runs
the steps of the drive it is given and carries its state (``LifState``,
``RateState``) to the next, so a run is fed one block of its drive at a
time and no (steps, N) array of the run exists. Within a call the steps run
in blocks of ``_block_steps(N)``: a (steps, N) buffer is kept only for what
the call returns, and what a step needs for itself (the LIF's ``dt *
drive``, the rate units' pre-activation state) is held one block at a time.
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
    one-at-a-time loop: ``hi`` moves from ``searchsorted(t, t + d)`` one
    distinct time at a time until it agrees. That difference is monotone, so
    ``hi`` never decreases and ``lo[i]`` is the first ``j`` with ``i < hi[j]``.
    """
    hi = np.searchsorted(t, t + d, side="left")
    while True:
        grow = (hi < t.size) & (t[np.minimum(hi, t.size - 1)] - t < d)
        shrink = ~grow & ~(t[hi - 1] - t < d)
        if not (grow.any() or shrink.any()):
            break
        hi[grow] = np.searchsorted(t, t[hi[grow]], side="right")
        hi[shrink] = np.searchsorted(t, t[hi[shrink] - 1], side="left")
    return np.searchsorted(hi, np.arange(t.size), side="right"), hi


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


class LifState:
    """What ``lif_run`` carries from one block of a run to the next.

    The potentials ``v`` and the filtered trains ``syn``, the steps run so
    far, the last step's spikes, and the refractory holds: the neurons held
    (``active`` is False for them), the step each held group fired on, and
    the hold's length as far as it is counted (``count_hold``). A new run
    starts from ``v0``.
    """

    def __init__(self, v0, refractory):
        self.v = np.array(v0, dtype=np.float64, copy=True)
        self.syn = np.zeros(self.v.size)
        self.steps = 0
        self.spikes_prev = None  # the last step's spikes as 0/1, None when it had none
        self.active = np.ones(self.v.size, dtype=bool)
        # (step, neurons) of each step whose spikes are still held, in step
        # order: every spike is held equally long, so they release in turn.
        self.held = deque()
        self.hold, self.countdown = 0, float(refractory)

    def count_hold(self, dt, steps):
        """The refractory hold in steps, counted on to at most ``steps``.

        The hold is the number of values the countdown ``r = max(r - dt, 0)``
        from ``refractory`` takes before the first ``r <= 0``; a NaN or
        infinite period holds for the whole run. A call that ends at step
        ``steps`` needs no more: a hold that long releases no neuron before
        the call ends, so the count goes on in a later call.
        """
        while self.hold < steps and not self.countdown <= 0.0:
            self.hold += 1
            self.countdown = max(self.countdown - dt, 0.0)
        return self.hold


def lif_run(state, drive, weights, tau_m, v_rest, v_th, v_reset, refractory, dt, tau_syn):
    """Forward-Euler leaky integrate-and-fire loop over the steps of ``drive``.

    Per step: V += (dt/tau_m)(v_rest - V) + dt*drive + weights @ spikes_prev,
    where a presynaptic spike is treated as a unit-area current impulse
    (1/dt for one step), so it deposits its weight directly onto the
    postsynaptic membrane. Neurons with V > v_th fire, reset to v_reset and
    hold there for the refractory period. A filtered trace per neuron decays
    with tau_syn and jumps by 1/tau_syn on each spike, so one spike carries
    unit time-integral.

    ``state`` is the initial potentials of a new run, or the ``LifState`` of
    a run, which the call advances by the steps of ``drive``: a run fed one
    block of its drive at a time gives the bits of one call on the whole
    drive. The constants are the run's own on every call.

    Returns (potentials, filtered, spike_steps, spike_neurons) where
    potentials is (N, steps), filtered is the exponential synaptic
    trace (N, steps), and the spike arrays give the step index, counted
    from 0 at the run's first step, and the neuron index of every spike in
    chronological order. The two traces are recorded one step per row and
    returned as ``.T`` views of (steps, N) buffers, so they are not
    C-contiguous.

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
      is counted once (``LifState.count_hold``), and the neurons that fire
      on a step are released together, in the order of the steps they fired
      on. A held neuron sits at v_reset and is left out of the update, so it
      cannot fire. The rows of potentials start filled with v_reset, so the
      add that skips held neurons leaves them at their value. While no
      neuron is held, the plain add gives the same bits for less: on the
      benchmark's network (10 neurons, 20 steps held per spike) 80% of
      steps hold no neuron, and the masked add on every step took the loop
      from about 0.39 to 0.45 s (2 vCPUs).
    - ``V > v_th`` goes into a mask that is counted; only a step with a
      count looks for the neurons that fire. NaN never fires.
    """
    if not isinstance(state, LifState):
        state = LifState(state, refractory)
    N, steps = drive.shape
    start, end = state.steps, state.steps + steps
    v, syn, active, held = state.v, state.syn, state.active, state.held
    spikes_prev = state.spikes_prev
    leak = np.full(N, dt / tau_m)
    rest = np.full(N, v_rest, dtype=np.float64)
    th = np.full(N, v_th, dtype=np.float64)
    syn_decay = np.full(N, math.exp(-dt / tau_syn))
    syn_jump = 1.0 / tau_syn
    hold = state.count_hold(dt, end)
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
    wake = held[0][0] + 1 + hold if held else end  # the release step of held[0]

    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        np.multiply(dt, drive[:, lo:hi].T, out=dt_drive[:hi - lo])
        for k, dt_drive_k, v_k, syn_k in zip(range(start + lo, start + hi), dt_drive,
                                             potentials[lo:hi], filtered[lo:hi]):
            if k == wake:
                active[held.popleft()[1]] = True
                wake = held[0][0] + 1 + hold if held else end
            np.subtract(rest, v, out=dv)
            np.multiply(leak, dv, out=dv)
            dv += dt_drive_k
            if spikes_prev is not None:
                dv += weights @ spikes_prev
                spikes_prev = None
            if held:
                v = np.add(v, dv, out=v_k, where=active)
            else:
                v = np.add(v, dv, out=v_k)
            syn = np.multiply(syn, syn_decay, out=syn_k)
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
                held.append((k, fired))
                wake = held[0][0] + 1 + hold
            spikes_prev = np.zeros(N)
            spikes_prev[fired] = 1.0

    if steps:  # copies, so that the state keeps no returned buffer alive
        state.v, state.syn = v.copy(), syn.copy()
    state.steps, state.spikes_prev = end, spikes_prev
    spike_steps.resize(spikes, refcheck=False)
    spike_neurons.resize(spikes, refcheck=False)
    return potentials.T, filtered.T, spike_steps, spike_neurons


class RateState:
    """What ``rate_run`` carries from one block of a run to the next: the
    pre-activation states ``x``, their tanh ``r`` and the steps run so far.
    A new run starts from ``x0``."""

    def __init__(self, x0):
        self.x = np.array(x0, dtype=np.float64, copy=True)
        self.r = np.tanh(self.x)
        self.steps = 0


def rate_run(state, drive, weights, tau, dt):
    """Forward-Euler tanh rate dynamics: tau * dx/dt = -x + weights@tanh(x) + drive.

    ``drive`` is the already-projected external input, shape (N, steps).
    ``state`` is the initial x of a new run, or the ``RateState`` of a run,
    which the call advances by the steps of ``drive``, as ``lif_run``'s.
    Returns (activities, first): r = tanh(x), (N, steps), as the ``.T`` view
    of a buffer recorded one step per row, and the (step, neuron) of the
    first pre-activation x of the call that is not finite
    (``first_nonfinite``; the step counted from the run's first), or None.
    The states x are held one block of steps at a time and checked after
    each block; the call goes on to its last step either way.

    A step is ``dx = weights @ r - x``, ``dx += drive``, ``dx *= dt/tau`` (a
    length-N array), and ``x + dx`` and its tanh written straight into the
    step's rows. ``(-x) + y`` and ``y - x`` are the same IEEE sum, so the
    update has the bits of the formula read left to right. ``weights @ r``
    is ``np.dot`` into ``dx``, which copies ``weights`` on each step unless
    it is C-contiguous.
    """
    if not isinstance(state, RateState):
        state = RateState(state)
    N, steps = drive.shape
    x, r = state.x, state.r
    a = np.full(N, dt / tau)
    block = _block_steps(N)
    states = np.empty((min(block, steps), N))
    activities = np.empty((steps, N))
    dx = np.empty(N)
    first = None
    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        for k, state_k in zip(range(lo, hi), states):
            np.dot(weights, r, out=dx)
            dx -= x
            dx += drive[:, k]
            np.multiply(a, dx, out=dx)
            x = np.add(x, dx, out=state_k)
            r = np.tanh(x, out=activities[k])
        if first is None:
            first = first_nonfinite(states[:hi - lo])
            if first is not None:
                first = (state.steps + lo + first[0], first[1])
    if steps:  # copies, so that the state keeps no returned buffer alive
        state.x, state.r = x.copy(), r.copy()
    state.steps += steps
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
