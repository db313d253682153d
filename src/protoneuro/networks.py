"""Spiking and rate network simulation.

Two architectures are provided. The spiking network is a recurrent pool of
leaky integrate-and-fire neurons driven through input synapses U, with a
linear readout W_out applied to exponentially filtered spike trains:

    dV/dt = (V_rest - V) / tau_m + I_ext(t)        (forward Euler, step dt)
    V > V_th  ->  spike, V = V_reset, refractory hold
    recurrent spikes deposit their weight J[j][i] directly on the membrane
    filtered trace: dr/dt = -r / tau_syn, r += 1/tau_syn per spike
    F_out(t) = W_out @ r(t)

The rate network is the continuous-variable counterpart: recurrently
connected tanh units receiving the external input and, optionally, an
output feedback stream:

    tau * dx/dt = -x + J @ tanh(x) + U @ F_in(t) + u @ F_fb(t)

Both integrators live in the kernel layer (``protoneuro._kernels``) and are
deterministic given the initial state. External input units for the LIF are
volts per second, so a constant drive I reaches the steady state
V_rest + tau_m * I.
"""

import json
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import _csvio, _kernels
from .errors import NonFiniteStateError, ShapeError, ValidationError


@dataclass(frozen=True)
class LifParameters:
    """Membrane constants; conventional textbook defaults, all overridable."""

    membrane_time_constant: float = 0.020
    threshold: float = -0.050
    reset: float = -0.065
    rest: float = -0.065
    refractory: float = 0.002
    dt: float = 0.0001

    def __post_init__(self):
        if self.membrane_time_constant <= 0:
            raise ValidationError("membrane_time_constant must be > 0")
        if self.threshold <= self.reset:
            raise ValidationError("threshold must exceed reset")
        if self.dt <= 0:
            raise ValidationError("dt must be > 0")
        if self.refractory < 0:
            raise ValidationError("refractory must be >= 0")
        if self.refractory > 0 and self.dt > self.refractory:
            raise ValidationError("dt must not exceed the refractory period")


def _as_matrix(name, value, shape):
    m = np.asarray(value, dtype=np.float64)
    if m.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


@dataclass(eq=False)
class SpikingNetwork:
    """Recurrent LIF pool with input synapses and a filtered linear readout."""

    n: int
    recurrent_weights: np.ndarray
    input_weights: np.ndarray
    output_weights: np.ndarray
    lif: LifParameters = field(default_factory=LifParameters)
    tau_syn: float = 0.005

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if self.tau_syn <= 0:
            raise ValidationError("tau_syn must be > 0")
        self.recurrent_weights = _as_matrix("recurrent_weights", self.recurrent_weights,
                                            (self.n, self.n))
        u = np.atleast_2d(np.asarray(self.input_weights, dtype=np.float64))
        w = np.atleast_2d(np.asarray(self.output_weights, dtype=np.float64))
        self.input_weights = _as_matrix("input_weights", u, (self.n, u.shape[1]))
        self.output_weights = _as_matrix("output_weights", w, (w.shape[0], self.n))

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output_weights.shape[0]


@dataclass(eq=False)
class RateNetwork:
    """Recurrent tanh units with input and output-feedback synapses."""

    n: int
    recurrent_weights: np.ndarray
    input_weights: np.ndarray
    feedback_weights: np.ndarray = None
    time_constant: float = 0.010
    dt: float = 0.0001

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if self.time_constant <= 0:
            raise ValidationError("time_constant must be > 0")
        if self.dt <= 0:
            raise ValidationError("dt must be > 0")
        self.recurrent_weights = _as_matrix("recurrent_weights", self.recurrent_weights,
                                            (self.n, self.n))
        u = np.atleast_2d(np.asarray(self.input_weights, dtype=np.float64))
        self.input_weights = _as_matrix("input_weights", u, (self.n, u.shape[1]))
        if self.feedback_weights is not None:
            f = np.atleast_2d(np.asarray(self.feedback_weights, dtype=np.float64))
            self.feedback_weights = _as_matrix("feedback_weights", f, (self.n, f.shape[1]))

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]


@dataclass(eq=False)
class SimulationTrace:
    """Recorded run: sample times plus per-step state and events.

    ``membrane_potentials`` is filled for spiking runs and
    ``unit_activities`` (tanh outputs) for rate runs; ``spike_raster`` is a
    list of (neuron, time) pairs and ``outputs`` the readout stream.
    """

    times: np.ndarray
    membrane_potentials: np.ndarray = None
    unit_activities: np.ndarray = None
    spike_raster: list = field(default_factory=list)
    outputs: np.ndarray = None


def step_lif(potentials, refractory_clocks, input_current, lif: LifParameters,
             recurrent_weights=None, spikes_prev=None):
    """Advance the LIF state one step of lif.dt; returns (V, clocks, spikes).

    Single-step convenience wrapper over the same arithmetic the kernel
    loop uses: leak toward rest, external drive, plus recurrent deposits
    from the previous step's spikes. Refractory neurons sit at the reset
    potential until their clock expires.
    """
    v = np.asarray(potentials, dtype=np.float64)
    refr = np.asarray(refractory_clocks, dtype=np.float64)
    drive = np.asarray(input_current, dtype=np.float64)
    if not (v.shape == refr.shape == drive.shape):
        raise ShapeError("state, clocks and input must share one shape")
    if not np.all(np.isfinite(v)):
        raise NonFiniteStateError("membrane potentials contain non-finite entries")
    if not np.all(np.isfinite(drive)):
        raise NonFiniteStateError("input current contains non-finite entries")

    active = refr <= 0.0
    dv = (lif.dt / lif.membrane_time_constant) * (lif.rest - v) + lif.dt * drive
    if recurrent_weights is not None and spikes_prev is not None:
        j = np.asarray(recurrent_weights, dtype=np.float64)
        s = np.asarray(spikes_prev, dtype=np.float64)
        if j.shape != (v.size, v.size) or s.shape != v.shape:
            raise ShapeError("recurrent weights / previous spikes shape mismatch")
        dv = dv + j @ s
    v = np.where(active, v + dv, lif.reset)
    refr = np.maximum(refr - lif.dt, 0.0)
    spikes = (active & (v > lif.threshold)).astype(np.uint8)
    fired = spikes.astype(bool)
    v = np.where(fired, lif.reset, v)
    refr = np.where(fired, lif.refractory, refr)
    return v, refr, spikes


def run_spiking(net: SpikingNetwork, inputs, initial_potentials=None,
                record_potentials=True) -> SimulationTrace:
    """Integrate the spiking network over the columns of ``inputs``.

    ``inputs`` has shape (input_dim, steps); the readout is the output
    weights applied to the exponentially filtered spike trains.
    """
    fin = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if fin.shape[0] != net.input_dim:
        raise ShapeError(f"inputs have {fin.shape[0]} rows, expected {net.input_dim}")
    if not np.all(np.isfinite(fin)):
        raise ValidationError("inputs contain non-finite entries")
    lif = net.lif
    steps = fin.shape[1]
    v0 = np.full(net.n, lif.rest) if initial_potentials is None \
        else _as_matrix("initial_potentials", initial_potentials, (net.n,))
    drive = net.input_weights @ fin

    potentials, filtered, spike_steps, spike_neurons = _kernels.lif_run(
        v0, drive, net.recurrent_weights, lif.membrane_time_constant, lif.rest,
        lif.threshold, lif.reset, lif.refractory, lif.dt, net.tau_syn,
        record_potentials=record_potentials,
    )
    if potentials is not None and not np.all(np.isfinite(potentials)):
        raise _non_finite("membrane potentials", potentials, lif.dt)
    times = (np.arange(steps) + 1) * lif.dt
    raster = [(int(j), float((k + 1) * lif.dt)) for k, j in zip(spike_steps, spike_neurons)]
    return SimulationTrace(times=times, membrane_potentials=potentials,
                           spike_raster=raster, outputs=net.output_weights @ filtered)


def run_rate(net: RateNetwork, inputs, output_feedback=None, initial_state=None,
             ) -> SimulationTrace:
    """Integrate the rate network; returns unit activities tanh(x) per step."""
    fin = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if fin.shape[0] != net.input_dim:
        raise ShapeError(f"inputs have {fin.shape[0]} rows, expected {net.input_dim}")
    if not np.all(np.isfinite(fin)):
        raise ValidationError("inputs contain non-finite entries")
    steps = fin.shape[1]
    drive = net.input_weights @ fin
    if output_feedback is not None:
        if net.feedback_weights is None:
            raise ShapeError("network has no feedback weights")
        fb = np.atleast_2d(np.asarray(output_feedback, dtype=np.float64))
        expected = (net.feedback_weights.shape[1], steps)
        if fb.shape != expected:
            raise ShapeError(f"feedback must have shape {expected}, got {fb.shape}")
        drive = drive + net.feedback_weights @ fb
    x0 = np.zeros(net.n) if initial_state is None \
        else _as_matrix("initial_state", initial_state, (net.n,))

    state, activities = _kernels.rate_run(x0, drive, net.recurrent_weights,
                                          net.time_constant, net.dt)
    if not np.all(np.isfinite(state)):
        raise _non_finite("unit state", state, net.dt)
    times = (np.arange(steps) + 1) * net.dt
    return SimulationTrace(times=times, unit_activities=activities)


def _non_finite(what, recorded, dt) -> NonFiniteStateError:
    """The error naming the step and neuron of the first non-finite entry of ``recorded``.

    ``recorded`` is (N, steps); the earliest step wins, then the lowest index.
    """
    step, neuron = (int(i) for i in np.argwhere(~np.isfinite(recorded.T))[0])
    return NonFiniteStateError(f"simulation produced non-finite {what}: first at step {step} "
                               f"(t={(step + 1) * dt:.9g} s), neuron {neuron}")


def _check_keys(section, known, where):
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")


def _spec_int(spec, key, default, minimum):
    """``spec[key]`` (or ``default``) as an int; an integral float counts."""
    value = spec.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(
            f'network spec "{key}" must be an integer >= {minimum}, got {value!r}')
    return value


def _spec_number(section, key, default, prefix=""):
    """``section[key]`` (or ``default``) as a finite float."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValidationError(
            f'network spec "{prefix}{key}" must be a finite number, got {value!r}')
    return float(value)


def _spec_lif(spec) -> LifParameters:
    section = spec.get("lif", {})
    _check_keys(section, [f.name for f in fields(LifParameters)], 'network spec "lif"')
    return LifParameters(**{key: _spec_number(section, key, None, "lif.") for key in section})


def _spec_weights(spec: dict, own_keys):
    """Size, recurrent and input weights of a network spec, and a weight getter.

    The spec may hold the keys every network takes and ``own_keys``; any
    other key, a size, dimension or seed that is not an integer, or an
    explicit array that is not numeric is a ValidationError naming it.
    ``weights(key, shape)`` returns the spec's explicit array under ``key``,
    or else draws one uniform [-1, 1] scaled by 1/sqrt(n) from the spec's
    seed (``None`` when ``shape`` is None). All draws come from one
    generator in call order, so a matrix given explicitly shifts the draws
    after it.
    """
    _check_keys(spec, ("n", "input_dim", "seed", "recurrent_weights", "input_weights")
                + own_keys, "network spec")
    if "n" not in spec:
        raise ValidationError('network spec needs "n"')
    n = _spec_int(spec, "n", None, 1)
    d_in = _spec_int(spec, "input_dim", 1, 1)
    rng = np.random.default_rng(_spec_int(spec, "seed", 0, 0))
    scale = 1.0 / np.sqrt(n)

    def weights(key, shape):
        if key in spec:
            try:
                return np.asarray(spec[key], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f'network spec "{key}": {exc}') from None
        return None if shape is None else rng.uniform(-1.0, 1.0, size=shape) * scale

    return n, weights("recurrent_weights", (n, n)), weights("input_weights", (n, d_in)), weights


def spiking_network_from_dict(spec: dict) -> SpikingNetwork:
    """Build a spiking network from a JSON-style dict.

    Expected keys: n, optionally input_dim/output_dim (default 1), lif
    parameter overrides under "lif", tau_syn, seed, and optional explicit
    arrays recurrent_weights / input_weights / output_weights. Missing
    arrays are drawn uniform [-1, 1] scaled by 1/sqrt(n) from the seed.
    Unknown keys, here or under "lif", are rejected.
    """
    n, j, u, weights = _spec_weights(
        spec, ("output_dim", "output_weights", "lif", "tau_syn"))
    w = weights("output_weights", (_spec_int(spec, "output_dim", 1, 1), n))
    return SpikingNetwork(n=n, recurrent_weights=j, input_weights=u, output_weights=w,
                          lif=_spec_lif(spec),
                          tau_syn=_spec_number(spec, "tau_syn", 0.005))


def rate_network_from_dict(spec: dict) -> RateNetwork:
    """Rate-network counterpart of :func:`spiking_network_from_dict`.

    In place of output weights it takes feedback_weights, drawn with
    feedback_dim columns when feedback_dim (default 0) is positive.
    """
    n, j, u, weights = _spec_weights(
        spec, ("feedback_dim", "feedback_weights", "time_constant", "dt"))
    d_fb = _spec_int(spec, "feedback_dim", 0, 0)
    fb = weights("feedback_weights", (n, d_fb) if d_fb > 0 else None)
    return RateNetwork(n=n, recurrent_weights=j, input_weights=u, feedback_weights=fb,
                       time_constant=_spec_number(spec, "time_constant", 0.010),
                       dt=_spec_number(spec, "dt", 0.0001))


def load_network_json(path, kind: str):
    """Read a network spec file; ``kind`` is "spiking" or "rate"."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if kind == "spiking":
        return spiking_network_from_dict(spec)
    if kind == "rate":
        return rate_network_from_dict(spec)
    raise ValidationError(f"unknown network kind {kind!r}")


def _write_long_csv(fh, times, matrix) -> None:
    """``time,index,value`` rows, time-major, a block of steps at a time.

    The bytes are those of ``f"{t:.9g},{i},{x:.9g}\\n"`` per row. Each
    step's time is formatted once and joined with the row indices into that
    step's format, ``"<t>,0,%.9g\\n<t>,1,%.9g\\n..."`` (a ``%.9g`` time
    holds no ``%``), so one ``%`` operation per block formats only the
    values. A (steps, N) buffer seen through ``.T`` hands over each block
    as one contiguous slice.
    """
    n = matrix.shape[0]
    row_tails = [""] + [f",{i},%.9g\n" for i in range(n)]
    steps_per_block = max(1, _csvio.BLOCK_ROWS // n)
    for lo in range(0, len(times), steps_per_block):
        block = slice(lo, lo + steps_per_block)
        block_format = "".join([("%.9g" % t).join(row_tails) for t in times[block].tolist()])
        fh.write(block_format % tuple(matrix[:, block].T.ravel().tolist()))


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Long-format export: ``time_s,neuron,value`` rows."""
    matrix = trace.membrane_potentials if trace.membrane_potentials is not None \
        else trace.unit_activities
    with open(path, "w", newline="") as fh:
        fh.write("time_s,neuron,value\n")
        if matrix is None:
            return
        _write_long_csv(fh, trace.times, matrix)


def write_raster_csv(trace: SimulationTrace, path) -> None:
    """Raster export: ``neuron,spike_time_s`` rows."""
    with open(path, "w", newline="") as fh:
        fh.write("neuron,spike_time_s\n")
        _csvio.write_rows(fh, "%d,%.9g\n", [j for j, _ in trace.spike_raster],
                          [t for _, t in trace.spike_raster])


def write_outputs_csv(trace: SimulationTrace, path) -> None:
    """Readout export: ``time_s,channel,value`` rows."""
    with open(path, "w", newline="") as fh:
        fh.write("time_s,channel,value\n")
        if trace.outputs is None:
            return
        _write_long_csv(fh, trace.times, np.atleast_2d(trace.outputs))
