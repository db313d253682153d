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
deterministic: every LIF neuron starts at rest and every rate unit at
x = 0. External input units for the LIF are volts per second, so a
constant drive I reaches the steady state V_rest + tau_m * I.

A run is made a block of steps at a time (``simulate``): each block's
drive is projected from its columns of the inputs, run by the kernel from
the state the block before left (``_kernels.LifState``,
``_kernels.RateState``), read out and checked, and yielded as a
SimulationTrace, so no (steps, n) array of the run exists. A run that
overflows ends, without a NumPy warning, in a NonFiniteStateError naming
the first step, then the lowest neuron, whose state is not finite
(``_kernels.first_nonfinite``), raised at the block that holds it: the
recorded potentials of a spiking run, the pre-activation states of a rate
run. ``run_spiking`` and ``run_rate`` collect the blocks into one trace.

The module also reads what a simulation takes: the network spec JSON
(``load_network_json``) and the input and feedback stream CSVs
(``read_stream_csv``, one ``_csvio.read_table`` pass and array tests of the
values and the time steps), and writes the trace, raster and readout CSVs.
"""

import contextlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import _csvio, _inputs, _kernels
from .errors import NonFiniteStateError, ParseError, ShapeError, ValidationError


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
        for f in fields(self):
            _inputs.finite(getattr(self, f.name), f.name)
        if not self.membrane_time_constant > 0:
            raise ValidationError("membrane_time_constant must be > 0")
        if not self.threshold > self.reset:
            raise ValidationError("threshold must exceed reset")
        if not self.dt > 0:
            raise ValidationError("dt must be > 0")
        if not self.refractory >= 0:
            raise ValidationError("refractory must be >= 0")
        if self.refractory > 0 and self.dt > self.refractory:
            raise ValidationError("dt must not exceed the refractory period")


def _as_matrix(name, value, shape):
    """A finite, C-contiguous float64 matrix of ``shape``, whose None sizes are
    free (a vector is one row)."""
    m = np.asarray(value, dtype=np.float64)
    if None in shape:
        m = np.atleast_2d(m)
        shape = tuple(m.shape[k] if size is None else size for k, size in enumerate(shape))
    if m.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(m)


@dataclass(eq=False)
class _Network:
    """n units with (n, n) recurrent and (n, d) input weights."""

    n: int
    recurrent_weights: np.ndarray
    input_weights: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        self.recurrent_weights = _as_matrix("recurrent_weights", self.recurrent_weights,
                                            (self.n, self.n))
        self.input_weights = _as_matrix("input_weights", self.input_weights, (self.n, None))

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]


@dataclass(eq=False)
class SpikingNetwork(_Network):
    """Recurrent LIF pool with input synapses and a filtered linear readout."""

    output_weights: np.ndarray
    lif: LifParameters = field(default_factory=LifParameters)
    tau_syn: float = 0.005

    def __post_init__(self):
        if not _inputs.finite(self.tau_syn, "tau_syn") > 0:
            raise ValidationError("tau_syn must be > 0")
        super().__post_init__()
        self.output_weights = _as_matrix("output_weights", self.output_weights, (None, self.n))


@dataclass(eq=False)
class RateNetwork(_Network):
    """Recurrent tanh units with input and output-feedback synapses."""

    feedback_weights: np.ndarray = None
    time_constant: float = 0.010
    dt: float = 0.0001

    def __post_init__(self):
        if not _inputs.finite(self.time_constant, "time_constant") > 0:
            raise ValidationError("time_constant must be > 0")
        if not _inputs.finite(self.dt, "dt") > 0:
            raise ValidationError("dt must be > 0")
        super().__post_init__()
        if self.feedback_weights is not None:
            self.feedback_weights = _as_matrix("feedback_weights", self.feedback_weights,
                                               (self.n, None))


@dataclass(eq=False)
class SimulationTrace:
    """Recorded run: sample times plus per-step state and events.

    ``membrane_potentials`` is filled for spiking runs and
    ``unit_activities`` (tanh outputs) for rate runs. The raster is two
    equal-length arrays in spike order: ``spike_neurons`` (int64) and
    ``spike_times`` (s), empty for a run without spikes. ``outputs`` is the
    readout stream.
    """

    times: np.ndarray
    membrane_potentials: np.ndarray = None
    unit_activities: np.ndarray = None
    spike_neurons: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    spike_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    outputs: np.ndarray = None


#: A block of a run holds at most this many values per array (128 KiB of float64).
_BLOCK_VALUES = 1 << 14


def _block_steps(n):
    """Steps per block of a run of ``n`` units: the largest multiple of 64
    within ``_BLOCK_VALUES`` values, and at least 64.

    The input projections and the readout are taken a block at a time.
    With OpenBLAS, a product over a block whose length is not a multiple of
    8 can round its last columns differently from the product over the
    whole run. At multiples of 64 the projections keep the whole run's
    bits; the readout of 32 or more neurons to 2 or more outputs may not,
    where OpenBLAS sums over the neurons with its small-matrix kernel
    (README: Performance). The length depends on ``n`` only, so a run's
    bytes are the same on every call.
    """
    return 64 * max(1, _BLOCK_VALUES // (64 * n))


def _columns(stream, lo, hi, error):
    """Columns ``lo:hi`` of a (rows, steps) stream, which must be finite
    (``error`` otherwise). A broadcast constant is made here, a block at a
    time: a product does not hand an operand with a zero stride to BLAS."""
    block = stream[:, lo:hi]
    if 0 in block.strides:
        block = block.copy()
    if not np.all(np.isfinite(block)):
        raise ValidationError(error)
    return block


def simulate(net, inputs, output_feedback=None):
    """Integrate ``net`` over the columns of ``inputs``, a block of steps at a time.

    Yields a SimulationTrace for each block of ``_block_steps(net.n)``
    steps (fewer in the last, and one empty block for a run of no steps):
    the times, potentials, spikes and readout of the block's steps for a
    SpikingNetwork, or their activities for a RateNetwork, as one run over
    the whole input gives them (``_block_steps`` says where a product may
    round differently). ``inputs`` is (input_dim, steps); the
    ``output_feedback`` of a RateNetwork with feedback weights is
    (feedback_dim, steps), and its projection is added to the drive. A
    non-finite input or feedback value is a ValidationError, and a state
    that turns non-finite a NonFiniteStateError naming its first step and
    then lowest neuron, each raised at the block that holds it.
    """
    fin = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if fin.shape[0] != net.input_dim:
        raise ShapeError(f"inputs have {fin.shape[0]} rows, expected {net.input_dim}")
    steps = fin.shape[1]
    fb = None
    if output_feedback is not None:
        if getattr(net, "feedback_weights", None) is None:
            raise ShapeError("network has no feedback weights")
        fb = np.atleast_2d(np.asarray(output_feedback, dtype=np.float64))
        expected = (net.feedback_weights.shape[1], steps)
        if fb.shape != expected:
            raise ShapeError(f"feedback must have shape {expected}, got {fb.shape}")
    spiking = isinstance(net, SpikingNetwork)
    if spiking:
        lif, dt = net.lif, net.lif.dt
        state = _kernels.LifState(np.full(net.n, lif.rest), lif.refractory)
    else:
        dt, state = net.dt, _kernels.RateState(np.zeros(net.n))
    block = _block_steps(net.n)
    for lo in range(0, max(steps, 1), block):
        hi = min(lo + block, steps)
        with np.errstate(over="ignore", invalid="ignore"):
            drive = net.input_weights @ _columns(fin, lo, hi, "inputs contain non-finite entries")
            if fb is not None:
                drive += net.feedback_weights @ _columns(fb, lo, hi,
                                                         "feedback contains non-finite entries")
            if spiking:
                potentials, filtered, spike_steps, spike_neurons = _kernels.lif_run(
                    state, drive, net.recurrent_weights, lif.membrane_time_constant,
                    lif.rest, lif.threshold, lif.reset, lif.refractory, dt, net.tau_syn)
                outputs = net.output_weights @ filtered
                first = _kernels.first_nonfinite(potentials.T)
                if first is not None:
                    first = (lo + first[0], first[1])
            else:
                activities, first = _kernels.rate_run(state, drive, net.recurrent_weights,
                                                      net.time_constant, dt)
        if first is not None:
            step, neuron = first
            what = "membrane potentials" if spiking else "unit state"
            raise NonFiniteStateError(f"simulation produced non-finite {what}: first at step "
                                      f"{step} (t={(step + 1) * dt:.9g} s), neuron {neuron}")
        times = (np.arange(lo, hi) + 1) * dt
        if spiking:
            spike_steps += 1  # a spike at step k is at (k + 1) * dt, as in ``times``
            yield SimulationTrace(times=times, membrane_potentials=potentials,
                                  spike_neurons=spike_neurons, spike_times=spike_steps * dt,
                                  outputs=outputs)
        else:
            yield SimulationTrace(times=times, unit_activities=activities)


def _collect(blocks):
    """The SimulationTrace of a whole run from ``simulate``'s blocks."""
    blocks = list(blocks)

    def joined(name):
        parts = [getattr(block, name) for block in blocks]
        return None if parts[0] is None else np.concatenate(parts, axis=-1)

    return SimulationTrace(**{f.name: joined(f.name) for f in fields(SimulationTrace)})


def run_spiking(net: SpikingNetwork, inputs) -> SimulationTrace:
    """Integrate the spiking network over the columns of ``inputs``.

    ``inputs`` has shape (input_dim, steps); the readout is the output
    weights applied to the exponentially filtered spike trains: ``simulate``'s
    blocks joined into one trace.
    """
    return _collect(simulate(net, inputs))


def run_rate(net: RateNetwork, inputs, output_feedback=None) -> SimulationTrace:
    """Integrate the rate network; returns unit activities tanh(x) per step.

    ``output_feedback``, if given, is (feedback_dim, steps) and finite, like
    ``inputs``; its projection is added to the drive. ``simulate``'s blocks
    joined into one trace.
    """
    return _collect(simulate(net, inputs, output_feedback))


#: The name of a spec key in error messages.
_SPEC = 'network spec "{}"'.format


def _spec_numbers(section, keys, prefix=""):
    """The finite numbers ``section`` gives for ``keys``; the others keep their defaults."""
    return {key: _inputs.number(section[key], _SPEC(prefix + key))
            for key in keys if key in section}


def _spec_lif(spec) -> LifParameters:
    section = spec.get("lif", {})
    _inputs.check_keys(section, [f.name for f in fields(LifParameters)], _SPEC("lif"))
    return LifParameters(**_spec_numbers(section, section, "lif."))


def _spec_weights(spec: dict, own_keys):
    """Size, recurrent and input weights of a network spec, and a weight getter.

    The spec may hold the keys every network takes and ``own_keys``; any
    other key, a size, dimension or seed that is not an integer, or an
    explicit array that is not numeric is a ValidationError naming it.
    ``weights(key, shape, dims)`` returns the spec's array under ``key``, or
    else draws one uniform [-1, 1] scaled by 1/sqrt(n) from the spec's seed
    (``None`` when ``shape``, whose sizes ``dims`` names, is None). All draws
    come from one generator in call order, so a matrix given explicitly
    shifts the draws after it. The generator is made at the first draw: a
    spec that gives every matrix does not load ``numpy.random``.
    """
    _inputs.check_keys(spec, ("n", "input_dim", "seed", "recurrent_weights", "input_weights")
                       + own_keys, "network spec")
    n = _inputs.integer(spec.get("n"), 1, _SPEC("n"))
    d_in = _inputs.integer(spec.get("input_dim", 1), 1, _SPEC("input_dim"))
    seed = _inputs.integer(spec.get("seed", 0), 0, _SPEC("seed"))
    scale = 1.0 / np.sqrt(n)
    rng = None

    def weights(key, shape, dims):
        nonlocal rng
        if key in spec:
            try:
                return np.asarray(spec[key], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{_SPEC(key)}: {exc}") from None
        if shape is None:
            return None
        if shape[0] * shape[1] > _inputs.max_items(8):  # float64 entries
            raise ValidationError(f"{key} ({dims} = {shape[0]} x {shape[1]}) is too large to draw")
        if rng is None:
            rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, size=shape) * scale

    return (n, weights("recurrent_weights", (n, n), "n x n"),
            weights("input_weights", (n, d_in), "n x input_dim"), weights)


def spiking_network_from_dict(spec: dict) -> SpikingNetwork:
    """Build a spiking network from a JSON-style dict.

    Expected keys: n, optionally input_dim/output_dim (default 1), lif
    parameter overrides under "lif", tau_syn, seed, and optional explicit
    arrays recurrent_weights / input_weights / output_weights. Missing
    arrays are drawn uniform [-1, 1] scaled by 1/sqrt(n) from the seed.
    Unknown keys, here or under "lif", are rejected.
    """
    n, j, u, weights = _spec_weights(spec, ("output_dim", "output_weights", "lif", "tau_syn"))
    d_out = _inputs.integer(spec.get("output_dim", 1), 1, _SPEC("output_dim"))
    w = weights("output_weights", (d_out, n), "output_dim x n")
    return SpikingNetwork(n=n, recurrent_weights=j, input_weights=u, output_weights=w,
                          lif=_spec_lif(spec), **_spec_numbers(spec, ("tau_syn",)))


def rate_network_from_dict(spec: dict) -> RateNetwork:
    """Rate-network counterpart of :func:`spiking_network_from_dict`.

    In place of output weights it takes feedback_weights, drawn with
    feedback_dim columns when feedback_dim (default 0) is positive.
    """
    n, j, u, weights = _spec_weights(
        spec, ("feedback_dim", "feedback_weights", "time_constant", "dt"))
    d_fb = _inputs.integer(spec.get("feedback_dim", 0), 0, _SPEC("feedback_dim"))
    fb = weights("feedback_weights", (n, d_fb) if d_fb > 0 else None, "n x feedback_dim")
    return RateNetwork(n=n, recurrent_weights=j, input_weights=u, feedback_weights=fb,
                       **_spec_numbers(spec, ("time_constant", "dt")))


def load_network_json(path, kind: str):
    """Read a network spec file; ``kind`` is "spiking" or "rate"."""
    build = {"spiking": spiking_network_from_dict, "rate": rate_network_from_dict}.get(kind)
    if build is None:
        raise ValidationError(f"unknown network kind {kind!r}")
    spec = _inputs.read_json_object(path, "network spec")
    with _inputs.blamed(path):
        return build(spec)


def read_stream_csv(path, dt, expected_rows=None):
    """Wide input stream: header time_s,ch0[,ch1...]; returns a (d, steps) array.

    Consecutive times must be ``dt`` apart within a relative 1e-6; the first
    time is free, and every channel value must be finite. Blank lines,
    before the header too, are skipped but count in the line numbers of
    error messages. The body is parsed in one pass, then the values and
    then the steps are checked, so a parse error wins over an earlier
    non-finite value, and both over an earlier bad step; only a non-finite
    value or a bad step re-reads the file, to name its line.
    """
    def check_header(header, line):
        if not header.startswith("time_s"):
            raise ValidationError("expected a header starting with time_s")
        if "," not in header:
            raise ValidationError("header lists no channels")

    with _inputs.blamed(path), _inputs.open_text(path) as fh:
        header, rows = _csvio.read_table(fh, check_header)
        values = rows[:, 1:]
        first = _kernels.first_nonfinite(values)
        if first is not None:
            row, column = first
            name = header.split(",")[column + 1].strip()
            raise ParseError(f"{name} is {values[row, column]:.9g}, not a finite number",
                             line=_csvio.row_line(path, row))
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN step, reported below
            step = np.diff(rows[:, 0])
        bad = np.flatnonzero(~(np.abs(step - dt) <= 1e-6 * dt))
        if bad.size:
            raise ParseError(f"time step {step[bad[0]]:.9g} s, expected the network's dt "
                             f"{dt:.9g} s", line=_csvio.row_line(path, bad[0] + 1))
        # The (steps, d).T layout of the per-row loop, so matmuls add in the same order.
        arr = rows[:, 1:].copy().T
        if expected_rows is not None and arr.shape[0] != expected_rows:
            raise ValidationError(f"{arr.shape[0]} channels, expected {expected_rows}")
    return arr


def _export(out, header, head, write_rows, *columns):
    """``head`` if ``header``, then the rows ``write_rows`` makes of ``columns``,
    to ``out``: a path, which ``_csvio.replacing`` writes, or a binary file
    open for writing, which a run's earlier blocks went to."""
    with contextlib.nullcontext(out) if hasattr(out, "write") else \
            _csvio.replacing(out) as fh:
        if header:
            fh.write(head)
        write_rows(fh, *columns)


def _long_rows(fh, times, matrix):
    if matrix is not None:
        _csvio.write_long_rows(fh, times, np.atleast_2d(matrix))


def write_trace_csv(trace: SimulationTrace, out, header=True) -> None:
    """Long-format export: ``time_s,neuron,value`` rows, to a path or binary file."""
    matrix = trace.membrane_potentials if trace.membrane_potentials is not None \
        else trace.unit_activities
    _export(out, header, b"time_s,neuron,value\n", _long_rows, trace.times, matrix)


def write_raster_csv(trace: SimulationTrace, out, header=True) -> None:
    """Raster export: ``neuron,spike_time_s`` rows, to a path or binary file."""
    _export(out, header, b"neuron,spike_time_s\n", _csvio.write_rows, "%.12g,%.9g\n",
            trace.spike_neurons, trace.spike_times)


def write_outputs_csv(trace: SimulationTrace, out, header=True) -> None:
    """Readout export: ``time_s,channel,value`` rows, to a path or binary file."""
    _export(out, header, b"time_s,channel,value\n", _long_rows, trace.times, trace.outputs)
