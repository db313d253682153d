import hashlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from protoneuro import _kernels, networks
from protoneuro._csvio import BLOCK_ROWS
from protoneuro.errors import NonFiniteStateError, ShapeError, ValidationError
from protoneuro.networks import LifParameters, RateNetwork, SpikingNetwork

NO_REFRACTORY = LifParameters(refractory=0.0)


def single_neuron(lif=NO_REFRACTORY, j=0.0, u=1.0, w_out=1.0, tau_syn=0.005):
    return SpikingNetwork(n=1, recurrent_weights=[[j]], input_weights=[[u]],
                          output_weights=[[w_out]], lif=lif, tau_syn=tau_syn)


def analytic_period(lif, current):
    i_eff = lif.membrane_time_constant * current
    return lif.membrane_time_constant * math.log(i_eff / (i_eff - (lif.threshold - lif.rest)))


def spike_times(trace):
    return trace.spike_times


def test_lif_parameter_validation():
    with pytest.raises(ValidationError):
        LifParameters(membrane_time_constant=0.0)
    with pytest.raises(ValidationError):
        LifParameters(threshold=-0.07, reset=-0.065)
    with pytest.raises(ValidationError):
        LifParameters(dt=0.0)
    with pytest.raises(ValidationError):
        LifParameters(dt=0.005, refractory=0.002)


def nan_spiking(**kwargs):
    return SpikingNetwork(n=1, recurrent_weights=[[0.0]], input_weights=[[1.0]],
                          output_weights=[[1.0]], **kwargs)


def nan_rate(**kwargs):
    return RateNetwork(n=1, recurrent_weights=[[0.0]], input_weights=[[1.0]], **kwargs)


@pytest.mark.parametrize("build,field", [
    (LifParameters, "membrane_time_constant"),
    (LifParameters, "threshold"),
    (LifParameters, "reset"),
    (LifParameters, "dt"),
    (LifParameters, "refractory"),
    (nan_spiking, "tau_syn"),
    (nan_rate, "time_constant"),
    (nan_rate, "dt"),
])
def test_parameters_reject_nan(build, field):
    with pytest.raises(ValidationError):
        build(**{field: math.nan})


@pytest.mark.parametrize("build,field",
                         [(LifParameters, f.name) for f in fields(LifParameters)]
                         + [(nan_spiking, "tau_syn"), (nan_rate, "time_constant"),
                            (nan_rate, "dt")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_network_constants_must_be_finite(build, field, value):
    # An infinite tau_syn or time_constant would pass "> 0" and run to an
    # all-zero readout; each constant is named before anything runs.
    with pytest.raises(ValidationError, match=f"^{field} must be finite, got {value!r}$"):
        build(**{field: value})


def test_rest_is_a_fixed_point():
    lif = LifParameters()
    net = single_neuron(lif)
    trace = networks.run_spiking(net, np.zeros((1, 2000)))
    assert trace.spike_neurons.size == trace.spike_times.size == 0
    np.testing.assert_allclose(trace.membrane_potentials, lif.rest, rtol=1e-12)


def test_subthreshold_drive_never_spikes():
    lif = NO_REFRACTORY
    rheobase = (lif.threshold - lif.rest) / lif.membrane_time_constant
    steps = int(5.0 / lif.dt)
    trace = networks.run_spiking(single_neuron(lif), np.full((1, steps), 0.9 * rheobase))
    assert trace.spike_neurons.size == trace.spike_times.size == 0
    assert trace.membrane_potentials.max() < lif.threshold


def test_interspike_period_matches_closed_form():
    lif = NO_REFRACTORY
    current = 1.5  # i_eff = 30 mV against a 15 mV threshold gap
    steps = int(2.0 / lif.dt)
    trace = networks.run_spiking(single_neuron(lif), np.full((1, steps), current))
    times = spike_times(trace)
    assert times.size > 100
    period = np.diff(times).mean()
    assert period == pytest.approx(analytic_period(lif, current), rel=0.01)


def test_halving_dt_shifts_spikes_less_than_dt_per_spike():
    current = 1.5
    horizon = 10.0
    coarse = LifParameters(refractory=0.0, dt=1e-4)
    fine = LifParameters(refractory=0.0, dt=5e-5)
    t_coarse = spike_times(networks.run_spiking(
        single_neuron(coarse), np.full((1, int(horizon / coarse.dt)), current)))
    t_fine = spike_times(networks.run_spiking(
        single_neuron(fine), np.full((1, int(horizon / fine.dt)), current)))
    n = min(t_coarse.size, t_fine.size)
    assert n > 500
    drift = np.abs(t_coarse[:n] - t_fine[:n])
    assert np.all(drift < (np.arange(n) + 1) * coarse.dt)


def test_zero_network_stays_silent():
    net = SpikingNetwork(n=3, recurrent_weights=np.zeros((3, 3)),
                         input_weights=np.zeros((3, 1)), output_weights=np.zeros((1, 3)))
    trace = networks.run_spiking(net, np.zeros((1, 1000)))
    assert trace.spike_neurons.size == trace.spike_times.size == 0
    assert not trace.outputs.any()


def test_feedforward_output_is_periodic_filtered_train():
    lif = NO_REFRACTORY
    current = 1.5
    steps = int(3.0 / lif.dt)
    trace = networks.run_spiking(single_neuron(lif), np.full((1, steps), current))
    times = spike_times(trace)
    assert np.allclose(np.diff(times), np.diff(times)[0], atol=lif.dt)
    out = trace.outputs[0]
    assert out[: int(times[0] / lif.dt) - 1].max() == 0.0  # silent before the first spike
    # after settling, the filtered train oscillates around the firing rate
    rate = 1.0 / np.diff(times).mean()
    tail = out[steps // 2:]
    assert tail.mean() == pytest.approx(rate, rel=0.05)


def test_refractory_separation_invariant():
    rng = np.random.default_rng(12)
    lif = LifParameters(refractory=0.003)
    net = SpikingNetwork(n=6, recurrent_weights=rng.uniform(-1, 1, (6, 6)) * 0.004,
                         input_weights=rng.uniform(0, 1, (6, 2)),
                         output_weights=rng.uniform(-1, 1, (2, 6)), lif=lif)
    fin = rng.uniform(0, 3.0, (2, 20000))
    trace = networks.run_spiking(net, fin)
    assert trace.spike_neurons.size > 50
    by_neuron = {}
    for j, t in zip(trace.spike_neurons.tolist(), trace.spike_times.tolist()):
        by_neuron.setdefault(j, []).append(t)
    for ts in by_neuron.values():
        assert np.all(np.diff(ts) >= lif.refractory - 1e-12)


def test_membrane_bound_with_nonnegative_input():
    # with J = 0 and nonnegative drive, the pre-reset potential can overshoot
    # the threshold by at most dt * max_input
    rng = np.random.default_rng(13)
    lif = NO_REFRACTORY
    drive = rng.uniform(0, 4.0, (1, 5000))
    net = single_neuron(lif)
    trace = networks.run_spiking(net, drive)
    v = np.concatenate(([lif.rest], trace.membrane_potentials[0]))
    leak = lif.dt / lif.membrane_time_constant
    pre_reset = v[:-1] + leak * (lif.rest - v[:-1]) + lif.dt * drive[0]
    assert pre_reset.max() <= lif.threshold + lif.dt * drive.max() + 1e-15
    assert trace.membrane_potentials.max() <= lif.threshold


def test_spiking_determinism():
    rng = np.random.default_rng(14)
    net = SpikingNetwork(n=4, recurrent_weights=rng.uniform(-1, 1, (4, 4)) * 0.003,
                         input_weights=rng.uniform(0, 1, (4, 1)),
                         output_weights=np.ones((1, 4)))
    fin = rng.uniform(0, 2.5, (1, 8000))
    a = networks.run_spiking(net, fin)
    b = networks.run_spiking(net, fin)
    np.testing.assert_array_equal(a.spike_neurons, b.spike_neurons)
    np.testing.assert_array_equal(a.spike_times, b.spike_times)
    np.testing.assert_array_equal(a.outputs, b.outputs)


def test_run_spiking_shape_mismatch():
    net = single_neuron()
    with pytest.raises(ShapeError):
        networks.run_spiking(net, np.zeros((2, 10)))


def one_unit(cls, **kwargs):
    extra = {"output_weights": [[1.0]]} if cls is SpikingNetwork else {}
    return cls(**{"n": 1, "recurrent_weights": [[0.0]], "input_weights": [[1.0]],
                  **extra, **kwargs})


@pytest.mark.parametrize("cls", [SpikingNetwork, RateNetwork])
def test_both_networks_check_size_and_weights_alike(cls):
    # A vector of input weights counts as one row; a vector of recurrent
    # weights does not, even for n = 1.
    with pytest.raises(ValidationError, match="n must be >= 1"):
        one_unit(cls, n=0)
    with pytest.raises(ShapeError, match=r"recurrent_weights must have shape \(1, 1\)"):
        one_unit(cls, recurrent_weights=[0.0])
    with pytest.raises(ShapeError, match=r"input_weights must have shape \(1, 2\), got \(2, 2\)"):
        one_unit(cls, input_weights=np.ones((2, 2)))
    with pytest.raises(ValidationError, match="input_weights contains non-finite"):
        one_unit(cls, input_weights=[[math.inf]])
    assert one_unit(cls, input_weights=[1.0, 2.0]).input_dim == 2


def test_output_and_feedback_weight_vectors_count_as_one_row():
    assert one_unit(SpikingNetwork, output_weights=[3.0]).output_weights.shape == (1, 1)
    with pytest.raises(ShapeError, match=r"output_weights must have shape \(2, 1\)"):
        one_unit(SpikingNetwork, output_weights=np.ones((2, 2)))
    assert one_unit(RateNetwork, feedback_weights=[2.0]).feedback_weights.shape == (1, 1)


@pytest.mark.parametrize("run, net, what", [
    (networks.run_spiking, SpikingNetwork(2, np.zeros((2, 2)), 2 * np.eye(2), [[1, 1]]),
     "membrane potentials"),
    (networks.run_rate, RateNetwork(2, np.zeros((2, 2)), 2 * np.eye(2)), "unit state"),
], ids=["spiking", "rate"])
def test_overflow_of_finite_inputs_is_a_non_finite_state_error(run, net, what):
    # The suite turns warnings into errors: a NumPy overflow warning from the
    # projection or the kernel would end the call before the documented error.
    fin = np.zeros((2, 200))
    fin[0, 150:] = fin[1, 100:] = -1e308
    with pytest.raises(NonFiniteStateError, match=f"non-finite {what}: first at step 100 "
                                                  r"\(t=0.0101 s\), neuron 1"):
        run(net, fin)


def test_overflow_the_outputs_do_not_show_is_a_non_finite_state_error():
    # A NaN membrane never crosses threshold, so the filtered trains and the
    # readout stay finite; only the potentials, always recorded, show it.
    net = SpikingNetwork(2, np.zeros((2, 2)), 2 * np.eye(2), [[1, 1]])
    fin = np.zeros((2, 200))
    fin[1, 100:] = -1e308
    lif = net.lif
    with np.errstate(all="ignore"):
        potentials, filtered, _, _ = _kernels.lif_run(
            np.full(2, lif.rest), net.input_weights @ fin, net.recurrent_weights,
            lif.membrane_time_constant, lif.rest, lif.threshold, lif.reset, lif.refractory,
            lif.dt, net.tau_syn)
    assert np.all(np.isfinite(net.output_weights @ filtered))
    assert not np.all(np.isfinite(potentials))
    with pytest.raises(NonFiniteStateError, match=r"first at step 100 \(t=0.0101 s\), neuron 1"):
        networks.run_spiking(net, fin)


def test_rate_zero_fixed_point():
    net = RateNetwork(n=2, recurrent_weights=np.zeros((2, 2)), input_weights=np.zeros((2, 1)))
    trace = networks.run_rate(net, np.zeros((1, 500)))
    assert not trace.unit_activities.any()


def test_rate_first_order_convergence():
    tau = 0.01
    net = RateNetwork(n=1, recurrent_weights=[[0.0]], input_weights=[[1.0]],
                      time_constant=tau, dt=1e-5)
    c = 0.5
    steps = int(5 * tau / net.dt)
    trace = networks.run_rate(net, np.full((1, steps), c))
    x_final = np.arctanh(trace.unit_activities[0, -1])
    assert x_final == pytest.approx(c, rel=0.01)  # within 1% of c after 5 tau


def test_rate_error_decreases_with_dt():
    # scalar linear case: x(t) = c (1 - exp(-t/tau)) exactly
    tau = 0.01
    c = 0.8
    horizon = 3 * tau
    errors = []
    for dt in (1e-2 * tau, 1e-3 * tau, 1e-4 * tau):
        net = RateNetwork(n=1, recurrent_weights=[[0.0]], input_weights=[[1.0]],
                          time_constant=tau, dt=dt)
        steps = int(round(horizon / dt))
        trace = networks.run_rate(net, np.full((1, steps), c))
        x = np.arctanh(trace.unit_activities[0])
        analytic = c * (1.0 - np.exp(-trace.times / tau))
        errors.append(np.abs(x - analytic).max())
    assert errors[0] > errors[1] > errors[2]


def test_rate_activities_bounded():
    rng = np.random.default_rng(15)
    net = RateNetwork(n=5, recurrent_weights=rng.uniform(-1, 1, (5, 5)) * 3,
                      input_weights=rng.uniform(-1, 1, (5, 2)))
    fin = rng.uniform(-50, 50, (2, 4000))
    trace = networks.run_rate(net, fin)
    assert np.all(np.abs(trace.unit_activities) <= 1.0)


def test_rate_feedback_stream():
    net = RateNetwork(n=1, recurrent_weights=[[0.0]], input_weights=[[1.0]],
                      feedback_weights=[[1.0]], time_constant=0.01, dt=1e-4)
    steps = 3000
    # feedback exactly cancels the input: the state never moves
    trace = networks.run_rate(net, np.full((1, steps), 0.7),
                              output_feedback=np.full((1, steps), -0.7))
    assert not trace.unit_activities.any()
    with pytest.raises(ShapeError):
        networks.run_rate(net, np.zeros((1, 10)), output_feedback=np.zeros((1, 5)))
    # Like the inputs: a non-finite feedback value is bad input, not a
    # non-finite state of the run.
    for value in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="^feedback contains non-finite entries$"):
            networks.run_rate(net, np.zeros((1, 3)), output_feedback=[[0.0, value, 0.0]])


def test_network_json_round_trip(tmp_path):
    spec = {"n": 3, "input_dim": 2, "output_dim": 1, "seed": 42, "tau_syn": 0.004,
            "lif": {"refractory": 0.001, "dt": 0.0005}}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(spec))
    net = networks.load_network_json(path, "spiking")
    assert net.n == 3
    assert net.input_weights.shape == (3, 2)
    assert net.lif.refractory == 0.001
    assert net.tau_syn == 0.004
    # explicit arrays are honoured verbatim
    spec["recurrent_weights"] = np.eye(3).tolist()
    path.write_text(json.dumps(spec))
    net2 = networks.load_network_json(path, "spiking")
    np.testing.assert_array_equal(net2.recurrent_weights, np.eye(3))
    # same seed, same random weights
    net3 = networks.load_network_json(path, "spiking")
    np.testing.assert_array_equal(net2.input_weights, net3.input_weights)


def weight_digests(*matrices):
    return [hashlib.sha256(np.ascontiguousarray(m, dtype=np.float64).tobytes()).hexdigest()[:16]
            for m in matrices]


# sha256 prefixes of seeded weights: a seed must keep giving the same network,
# so the draw order (recurrent, input, then output or feedback) is fixed.
@pytest.mark.parametrize("spec, digests", [
    ({"n": 7, "input_dim": 2, "output_dim": 3, "seed": 11},
     ["dd5ba32c7997555d", "42e5585218e23fb5", "921e309b2fdae109"]),
    ({"n": 2, "seed": 5, "recurrent_weights": [[0, 1], [1, 0]]},
     ["c9a2fb79c96caefa", "bc29f0fb3a50663e", "2cd7b54e3e46078e"]),
])
def test_seeded_spiking_weights_are_unchanged(spec, digests):
    net = networks.spiking_network_from_dict(spec)
    assert weight_digests(net.recurrent_weights, net.input_weights,
                          net.output_weights) == digests


@pytest.mark.parametrize("spec, digests", [
    ({"n": 5, "input_dim": 2, "feedback_dim": 3, "seed": 13},
     ["b764314c2ae294e9", "cd42b91cdd64bcf8", "173e1a43a01d238a"]),
    ({"n": 2, "seed": 5, "input_weights": [[1], [2]], "feedback_dim": 1},
     ["3642a683c1e42433", "dc91ce9a50ddc828", "3db162cfe93ff893"]),
])
def test_seeded_rate_weights_are_unchanged(spec, digests):
    net = networks.rate_network_from_dict(spec)
    assert weight_digests(net.recurrent_weights, net.input_weights,
                          net.feedback_weights) == digests


def test_rate_spec_without_feedback_has_no_feedback_weights():
    assert networks.rate_network_from_dict({"n": 3, "seed": 1}).feedback_weights is None


def test_trace_exports(tmp_path):
    lif = LifParameters(refractory=0.0, dt=0.001)
    trace = networks.run_spiking(single_neuron(lif), np.full((1, 100), 2.0))
    networks.write_trace_csv(trace, tmp_path / "trace.csv")
    networks.write_raster_csv(trace, tmp_path / "raster.csv")
    networks.write_outputs_csv(trace, tmp_path / "out.csv")
    assert (tmp_path / "trace.csv").read_text().splitlines()[0] == "time_s,neuron,value"
    raster_lines = (tmp_path / "raster.csv").read_text().splitlines()
    assert raster_lines[0] == "neuron,spike_time_s"
    assert len(raster_lines) == 1 + trace.spike_neurons.size
    assert (tmp_path / "out.csv").read_text().splitlines()[0] == "time_s,channel,value"


# --- block writer parity -------------------------------------------------------
#
# Per-row reference writers: the trace, raster and output files written in
# blocks by protoneuro._csvio must equal these byte for byte.

def reference_write_long(path, header, times, matrix):
    with open(path, "w", newline="") as fh:
        fh.write(header)
        if matrix is None:
            return
        for k, t in enumerate(times):
            for j in range(matrix.shape[0]):
                fh.write(f"{t:.9g},{j},{matrix[j, k]:.9g}\n")


def reference_write_raster(path, neurons, times):
    with open(path, "w", newline="") as fh:
        fh.write("neuron,spike_time_s\n")
        for j, t in zip(neurons.tolist(), times.tolist()):
            fh.write(f"{j},{t:.9g}\n")


SPECIAL_VALUES = np.array([
    -0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e-300, -1e300, 1e300, 123456789.5,
    0.1234567895, 9.999999995, 999999999.5, 1.0000000005, 2.5e-7, 1 / 3,
    np.nextafter(9.999999995, 0.0), np.nextafter(0.1234567895, 1.0), np.inf, np.nan,
])


def assert_trace_writers_agree(tmp_path, trace):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    networks.write_trace_csv(trace, new)
    matrix = trace.membrane_potentials if trace.membrane_potentials is not None \
        else trace.unit_activities
    reference_write_long(ref, "time_s,neuron,value\n", trace.times, matrix)
    assert new.read_bytes() == ref.read_bytes()
    networks.write_outputs_csv(trace, new)
    outputs = None if trace.outputs is None else np.atleast_2d(trace.outputs)
    reference_write_long(ref, "time_s,channel,value\n", trace.times, outputs)
    assert new.read_bytes() == ref.read_bytes()
    networks.write_raster_csv(trace, new)
    reference_write_raster(ref, trace.spike_neurons, trace.spike_times)
    assert new.read_bytes() == ref.read_bytes()


def block_edge_steps(rows):
    """Steps around those that hold one block's rows and four blocks' rows."""
    steps = [0, 1]
    for per_span in (BLOCK_ROWS // rows, 4 * BLOCK_ROWS // rows):
        steps += [per_span - 1, per_span, per_span + 1, 2 * per_span + 1]
    return steps


@pytest.mark.parametrize("rows,steps", [(1, s) for s in block_edge_steps(1)]
                         + [(50, s) for s in block_edge_steps(50)]
                         # one step fills a block, or four
                         + [(k * BLOCK_ROWS + e, 2) for k in (1, 4) for e in (-1, 0, 1)])
def test_trace_writers_match_per_row_writers_across_block_edges(tmp_path, rows, steps):
    rng = np.random.default_rng(rows * 100003 + steps)
    times = (np.arange(steps) + 1) * 1e-4
    matrix = rng.standard_normal((rows, steps)) * 10.0 ** rng.integers(-9, 9, (rows, steps))
    assert_trace_writers_agree(tmp_path, networks.SimulationTrace(
        times=times, membrane_potentials=matrix, spike_neurons=rng.integers(0, rows, steps),
        spike_times=times, outputs=matrix[:, ::-1].copy()))
    assert_trace_writers_agree(tmp_path, networks.SimulationTrace(
        times=times, unit_activities=matrix))


def test_writers_of_a_trace_with_no_rows_write_the_header_only(tmp_path):
    trace = networks.SimulationTrace(times=np.arange(3) * 1e-4,
                                     membrane_potentials=np.empty((0, 3)),
                                     outputs=np.empty((0, 3)))
    networks.write_outputs_csv(trace, tmp_path / "out.csv")
    networks.write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "out.csv").read_text() == "time_s,channel,value\n"
    assert (tmp_path / "trace.csv").read_text() == "time_s,neuron,value\n"


def test_trace_writers_match_per_row_writers_on_special_values(tmp_path):
    values = np.concatenate([SPECIAL_VALUES, -SPECIAL_VALUES])
    matrix = np.stack([values, values[::-1]])
    neurons = np.repeat(np.array([0, 7]), values.size)
    for outputs in (values, matrix, None):
        assert_trace_writers_agree(tmp_path, networks.SimulationTrace(
            times=values, membrane_potentials=matrix, spike_neurons=neurons,
            spike_times=np.tile(values, 2), outputs=outputs))


def test_trace_writers_match_per_row_writers_on_a_simulation(tmp_path):
    spec = {"n": 5, "input_dim": 1, "output_dim": 2, "seed": 3}
    net = networks.spiking_network_from_dict(spec)
    trace = networks.run_spiking(net, np.full((1, 3000), 4.0))
    assert trace.spike_neurons.size
    assert_trace_writers_agree(tmp_path, trace)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 4), data=st.data())
def test_trace_writers_match_per_row_writers_on_any_values(tmp_path, rows, data):
    steps = data.draw(st.integers(0, 12))
    cells = st.floats(allow_nan=True, allow_infinity=True)
    times = np.array(data.draw(st.lists(cells, min_size=steps, max_size=steps)))
    matrix = np.array(data.draw(st.lists(cells, min_size=rows * steps,
                                         max_size=rows * steps))).reshape(rows, steps)
    assert_trace_writers_agree(tmp_path, networks.SimulationTrace(
        times=times, membrane_potentials=matrix, outputs=matrix,
        spike_neurons=np.arange(steps) % rows, spike_times=times))
