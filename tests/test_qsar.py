import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoneuro import qsar
from protoneuro.errors import ParseError, RankDeficiencyError, ValidationError
from protoneuro.qsar import (
    REFERENCE_COEFFICIENTS,
    REFERENCE_RATES,
    QsarCoefficients,
    QsarObservation,
    SamplePredictors,
)

ZERO = QsarCoefficients(*([0.0] * 9))


def make_observations(coeffs, x, y, rates=None):
    if rates is None:
        rates = qsar.predict(coeffs, np.asarray(x), np.asarray(y))
    return [QsarObservation(SamplePredictors(f"s{i}", float(xi), float(yi)), float(ri))
            for i, (xi, yi, ri) in enumerate(zip(x, y, rates))]


def full_rank_points(n, seed=0):
    # retry until the (unit-norm column) design is numerically full rank;
    # small n with repeated integer y values can land on a deficient set
    for attempt in range(50):
        rng = np.random.default_rng(seed + 1000 * attempt)
        x = rng.uniform(100.0, 700.0, n)
        y = rng.integers(1, 9, n).astype(float)
        design = qsar.design_matrix(x, y)
        scaled = design / np.linalg.norm(design, axis=0)
        if np.linalg.matrix_rank(scaled) == 9 and np.linalg.cond(scaled) < 1e6:
            return x, y
    raise AssertionError(f"no full-rank design found for n={n}, seed={seed}")


def test_predict_at_origin_returns_intercept_exactly():
    assert qsar.predict(REFERENCE_COEFFICIENTS, 0.0, 0.0) == 2349.0


def test_predict_zero_coefficients():
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert qsar.predict(ZERO, rng.uniform(0, 1000), rng.uniform(1, 10)) == 0.0


def test_predict_term_by_term_oracle():
    # frozen from exact rational arithmetic over the term sums at (100, 3)
    assert qsar.predict(REFERENCE_COEFFICIENTS, 100.0, 3.0) == pytest.approx(3285.1, rel=1e-12)


def test_predict_is_linear_in_coefficients():
    rng = np.random.default_rng(1)
    c1 = QsarCoefficients.from_array(rng.standard_normal(9))
    c2 = QsarCoefficients.from_array(rng.standard_normal(9))
    a, b = 2.5, -1.25
    combo = QsarCoefficients.from_array(a * c1.as_array() + b * c2.as_array())
    for _ in range(5):
        x, y = rng.uniform(0, 500), rng.uniform(1, 8)
        lhs = qsar.predict(combo, x, y)
        rhs = a * qsar.predict(c1, x, y) + b * qsar.predict(c2, x, y)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_predict_rejects_nonfinite():
    with pytest.raises(ValidationError):
        qsar.predict(REFERENCE_COEFFICIENTS, np.inf, 1.0)


def test_fit_round_trips_nine_exact_points():
    x = np.array([120.0, 260.0, 395.0, 540.0, 685.0, 180.0, 320.0, 465.0, 610.0])
    y = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 3.0, 4.0, 2.0, 5.0])
    assert np.linalg.matrix_rank(qsar.design_matrix(x, y)) == 9
    obs = make_observations(REFERENCE_COEFFICIENTS, x, y)
    result = qsar.fit(obs)
    np.testing.assert_allclose(result.coefficients.as_array(),
                               REFERENCE_COEFFICIENTS.as_array(), rtol=1e-6)


def test_fit_round_trips_twenty_noiseless_points():
    x, y = full_rank_points(20, seed=3)
    result = qsar.fit(make_observations(REFERENCE_COEFFICIENTS, x, y))
    np.testing.assert_allclose(result.coefficients.as_array(),
                               REFERENCE_COEFFICIENTS.as_array(), rtol=1e-6)
    assert result.residual_sum_squares < 1e-10


def test_fit_round_trips_random_coefficients():
    rng = np.random.default_rng(4)
    for trial in range(10):
        truth = QsarCoefficients.from_array(rng.standard_normal(9) * 10)
        x, y = full_rank_points(int(rng.integers(9, 40)), seed=100 + trial)
        result = qsar.fit(make_observations(truth, x, y))
        np.testing.assert_allclose(result.coefficients.as_array(), truth.as_array(),
                                   rtol=1e-6, atol=1e-9)


def test_fit_residuals_orthogonal_to_basis():
    rng = np.random.default_rng(5)
    x, y = full_rank_points(30, seed=6)
    rates = qsar.predict(REFERENCE_COEFFICIENTS, x, y) + rng.standard_normal(30) * 25
    result = qsar.fit(make_observations(None, x, y, rates))
    design = qsar.design_matrix(x, y)
    residuals = rates - design @ result.coefficients.as_array()
    for j in range(9):
        col = design[:, j]
        inner = abs(residuals @ col)
        assert inner < 1e-6 * np.linalg.norm(residuals) * np.linalg.norm(col) + 1e-9


def test_fit_rejects_too_few_observations():
    x, y = full_rank_points(20, seed=7)
    obs = make_observations(REFERENCE_COEFFICIENTS, x, y)
    with pytest.raises(ValidationError, match="9"):
        qsar.fit(obs[:8])


def test_fit_identical_y_is_rank_deficient():
    x = np.linspace(100, 800, 9)
    y = np.full(9, 3.0)
    obs = make_observations(REFERENCE_COEFFICIENTS, x, y)
    with pytest.raises(RankDeficiencyError) as err:
        qsar.fit(obs)
    assert len(err.value.columns) == 6  # only three independent directions remain


def test_confidence_bounds_noiseless_are_tight_and_centred():
    x, y = full_rank_points(20, seed=8)
    obs = make_observations(REFERENCE_COEFFICIENTS, x, y)
    result = qsar.fit(obs)
    bounds = qsar.confidence_bounds(result, obs)
    values = result.coefficients.as_array()
    for j, name in enumerate(qsar.COEFFICIENT_NAMES):
        lo, hi = bounds[name]
        assert hi - lo < 1e-6
        assert (lo + hi) / 2 == pytest.approx(values[j], abs=1e-9)
        assert lo <= values[j] <= hi


def test_confidence_bounds_require_extra_observations():
    x = np.array([120.0, 260.0, 395.0, 540.0, 685.0, 180.0, 320.0, 465.0, 610.0])
    y = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 3.0, 4.0, 2.0, 5.0])
    obs = make_observations(REFERENCE_COEFFICIENTS, x, y)
    result = qsar.fit(obs)
    with pytest.raises(ValidationError, match="more than 9"):
        qsar.confidence_bounds(result, obs)


def test_confidence_coverage_monte_carlo():
    # reduced-size version of the acceptance check
    truth = REFERENCE_COEFFICIENTS
    x, y = full_rank_points(30, seed=9)
    rng = np.random.default_rng(10)
    clean = qsar.predict(truth, x, y)
    hits = np.zeros(9)
    reps = 150
    for _ in range(reps):
        rates = clean + rng.standard_normal(30) * 40.0
        obs = make_observations(None, x, y, rates)
        bounds = qsar.confidence_bounds(qsar.fit(obs), obs)
        for j, name in enumerate(qsar.COEFFICIENT_NAMES):
            lo, hi = bounds[name]
            hits[j] += lo <= truth.as_array()[j] <= hi
    coverage = hits / reps
    assert np.all(coverage >= 0.88) and np.all(coverage <= 1.0)


def test_percent_deviation_reference_rows():
    by_label = {label: (mean, pred) for label, mean, pred in REFERENCE_RATES}
    mean, pred = by_label["L-Glu:L-Asp"]
    assert qsar.percent_deviation(mean, pred) == pytest.approx(0.1058, abs=1e-3)
    mean, pred = by_label["L-Glu:L-Arg"]
    assert qsar.percent_deviation(mean, pred) == pytest.approx(-378.57, abs=0.01)


def test_percent_deviation_sign_and_zero():
    assert qsar.percent_deviation(10.0, 10.0) == 0.0
    assert qsar.percent_deviation(10.0, 11.0) > 0
    assert qsar.percent_deviation(10.0, 9.0) < 0
    with pytest.raises(ValidationError):
        qsar.percent_deviation(0.0, 1.0)


@pytest.mark.parametrize("mean, predicted", [(1e308, 678.6), (1e-320, 678.6),
                                             (-1e308, 1e308)])
def test_percent_deviation_that_overflows_names_the_mean(mean, predicted):
    with pytest.raises(ValidationError, match=re.escape(f"mean firing rate {mean!r} gives")):
        qsar.percent_deviation(mean, predicted)


def test_reference_bounds_contain_values():
    c = REFERENCE_COEFFICIENTS
    for name in qsar.COEFFICIENT_NAMES:
        lo, hi = c.bounds[name]
        assert lo <= getattr(c, name) <= hi


def test_coefficients_validation():
    with pytest.raises(ValidationError):
        QsarCoefficients.from_array(np.array([np.nan] + [0.0] * 8))
    with pytest.raises(ValidationError):
        QsarCoefficients(*([1.0] * 9), bounds={"p00": (2.0, 3.0)})
    with pytest.raises(ValidationError):
        QsarCoefficients(*([1.0] * 9), bounds={"p99": (0.0, 2.0)})


def test_observation_csv_round_trip(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(
        "label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz\n"
        "a,147.13,2,535.4877\n"
        "b,262.26,3,436.2721\n"
    )
    obs = qsar.read_observations_csv(path)
    assert len(obs) == 2
    assert obs[0].predictors.label == "a"
    assert obs[0].predictors.molecular_weight == 147.13
    assert obs[1].mean_firing_rate == 436.2721
    path.write_text("label,x,y,rate\na,1,1,1\n")
    with pytest.raises(ParseError, match="line 1"):
        qsar.read_observations_csv(path)
    path.write_text(
        "label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz\na,-5,1,1\n")
    with pytest.raises(ParseError, match="line 2"):
        qsar.read_observations_csv(path)


def test_model_json_round_trip(tmp_path):
    path = tmp_path / "model.json"
    qsar.write_model_json(REFERENCE_COEFFICIENTS, path, residual_sum_squares=1.25)
    back = qsar.read_model_json(path)
    np.testing.assert_array_equal(back.as_array(), REFERENCE_COEFFICIENTS.as_array())
    assert back.bounds["p03"] == REFERENCE_COEFFICIENTS.bounds["p03"]


def exact_t_quantile(dof, p, t):
    """The p-quantile of Student's t with ``dof`` degrees of freedom, at 40
    digits: two Newton steps from ``t``, a float within 1e-10 of it, on the
    CDF in the form that does not cancel (the centre below p = 3/4, the
    upper tail above)."""
    with mpmath.workdps(40):
        nu, p, t, half = mpmath.mpf(dof), mpmath.mpf(p), mpmath.mpf(t), mpmath.mpf(0.5)
        scale = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
        for _ in range(2):
            if p < 0.75:
                miss = mpmath.betainc(half, nu / 2, 0, t * t / (nu + t * t),
                                      regularized=True) / 2 - (p - half)
            else:
                miss = (1 - p) - mpmath.betainc(nu / 2, half, 0, nu / (nu + t * t),
                                                regularized=True) / 2
            t -= miss / (scale * (1 + t * t / nu) ** (-(nu + 1) / 2))
        return t


def assert_t_quantile_within_1e14(t, dof, p):
    exact = exact_t_quantile(dof, p, t)
    assert abs(t - exact) <= 1e-14 * exact, (dof, p, t, float(exact))


@pytest.mark.parametrize("dof", [*range(1, 33), 40, 63, 64, 65, 100, 121, 500, 1000, 10**4,
                                 10**5, 10**6, 10**9])
def test_t_quantile_is_within_1e14_of_mpmath_on_a_grid(dof):
    for level in (1e-12, 0.05, 0.3, 0.5, 0.6, 0.8, 0.9, 0.95, 0.98, 0.99, 0.999, 0.9999,
                  1 - 2.0 ** -40, 1 - 2.0 ** -52):
        p = 0.5 + level / 2.0
        assert_t_quantile_within_1e14(qsar._t_quantile(dof, p), dof, p)


@settings(max_examples=200, deadline=None)
@given(dof=st.integers(1, 10**6), level=st.floats(0.05, 0.9999))
def test_t_quantile_is_within_1e14_of_mpmath_on_draws(dof, level):
    p = 0.5 + level / 2.0
    assert_t_quantile_within_1e14(qsar._t_quantile(dof, p), dof, p)


def test_t_quantile_at_the_ends_of_its_domain():
    assert qsar._t_quantile(7, 0.5) == 0.0
    assert qsar._t_quantile(7, 1.0) == math.inf


def test_t_quantile_at_levels_90_95_99_and_dof_1_to_120_is_within_1e14_of_mpmath():
    for level in (0.9, 0.95, 0.99):
        p = 0.5 + level / 2.0
        for dof in range(1, 121):
            assert_t_quantile_within_1e14(qsar._t_quantile(dof, p), dof, p)


def test_t_quantile_of_the_benchmark_fit_is_pinned():
    # 60 observations at level 0.95: the seed-1 qsar-fit model's bytes rest on it.
    assert qsar._t_quantile(51, 0.975) == 2.007583770315836


def test_confidence_bounds_are_within_1e14_of_the_mpmath_quantile_bounds():
    x, y = full_rank_points(30, seed=9)
    rates = qsar.predict(REFERENCE_COEFFICIENTS, x, y) \
        + np.random.default_rng(12).standard_normal(30) * 40.0
    obs = make_observations(None, x, y, rates)
    result = qsar.fit(obs)
    se = np.sqrt(result.residual_sum_squares / 21 * np.diag(result.covariance_unit))
    values = result.coefficients.as_array()
    for level in (0.5, 0.9, 0.95, 0.99):
        bounds = qsar.confidence_bounds(result, obs, level=level)
        p = 0.5 + level / 2.0
        tq = float(exact_t_quantile(21, p, qsar._t_quantile(21, p)))
        for j, name in enumerate(qsar.COEFFICIENT_NAMES):
            want = (values[j] - tq * se[j], values[j] + tq * se[j])
            for got, w in zip(bounds[name], want):
                assert abs(got - w) <= 1e-14 * tq * se[j] + math.ulp(w), (level, name)


def test_confidence_bounds_that_are_not_finite_name_the_level():
    # The largest level below 1: 0.5 + level / 2 rounds to 1, so t is infinite.
    level = 0.9999999999999999
    x, y = full_rank_points(12, seed=4)
    obs = make_observations(REFERENCE_COEFFICIENTS, x, y)
    result = qsar.fit(obs)
    with pytest.raises(ValidationError, match=rf"level {level!r} are not finite"):
        qsar.confidence_bounds(result, obs, level=level)


def test_fit_rejects_rates_whose_residual_sum_of_squares_overflows():
    x, y = full_rank_points(20, seed=5)
    rates = (np.arange(20.0) % 7 - 3.0) * 1e157
    with pytest.raises(ValidationError, match="residual sum of squares overflows"):
        qsar.fit(make_observations(None, x, y, rates))


def test_predict_on_floats_equals_the_array_path_bit_for_bit():
    rng = np.random.default_rng(21)
    coeffs = [REFERENCE_COEFFICIENTS,
              QsarCoefficients.from_array(rng.standard_normal(9) * 10.0 ** rng.uniform(-3, 3, 9))]
    x = np.concatenate([rng.uniform(0.0, 1000.0, 1000), rng.uniform(-1e6, 1e6, 500)])
    y = np.concatenate([rng.uniform(1.0, 10.0, 1000), rng.uniform(-1e3, 1e3, 500)])
    for c in coeffs:
        on_arrays = qsar.predict(c, x, y)
        on_floats = np.array([qsar.predict(c, float(xi), float(yi)) for xi, yi in zip(x, y)])
        assert on_arrays.tobytes() == on_floats.tobytes()
        assert type(qsar.predict(c, float(x[0]), float(y[0]))) is float


def test_predict_on_floats_rejects_nonfinite_and_overflows_like_the_array_path():
    with pytest.raises(ValidationError, match="finite"):
        qsar.predict(REFERENCE_COEFFICIENTS, 1.0, float("nan"))
    # x^2 overflows in two terms of opposite sign (NaN), or y^3 in one (inf):
    # neither path returns the non-finite value, nor warns.
    for x, y in ((1e200, 2.0), (1e200, 1e200), (3.0, 1e150)):
        with pytest.raises(ValidationError, match="predictors too large: the surface overflows"):
            qsar.predict(REFERENCE_COEFFICIENTS, np.array([1.0, x]), np.array([1.0, y]))
        with pytest.raises(ValidationError, match="predictors too large: the surface overflows"):
            qsar.predict(REFERENCE_COEFFICIENTS, x, y)


@pytest.mark.parametrize("x", [np.linspace(100, 800, 9), np.arange(9) * 50.0 + 100,
                               np.random.default_rng(22).uniform(100, 700, 15)],
                         ids=["linspace", "step-50", "random"])
def test_fit_constant_y_names_the_columns_after_the_simplest(x):
    # With y constant, 1 ~ y ~ y^2 ~ y^3, x ~ x*y ~ x*y^2 and x^2 ~ x^2*y after scaling:
    # a column that adds nothing to the rank of the simpler ones before it is
    # named, so the first in basis order is kept, whatever the rounding.
    obs = make_observations(REFERENCE_COEFFICIENTS, x, np.full(x.size, 3.0))
    with pytest.raises(RankDeficiencyError, match="rank 3 < 9") as err:
        qsar.fit(obs)
    assert err.value.columns == ("x*y", "x*y^2", "x^2*y", "y", "y^2", "y^3")


def test_fit_two_valued_y_names_the_columns_after_the_simplest():
    # With y in {1, 2}, y^2 = 3y - 2 and y^3 = 7y - 6 and x*y^2 = 3x*y - 2x: the
    # simplest terms are kept, however close the norms of the others come.
    x = np.random.default_rng(24).uniform(100, 700, 20)
    obs = make_observations(REFERENCE_COEFFICIENTS, x, np.tile([1.0, 2.0], 10))
    with pytest.raises(RankDeficiencyError, match="rank 6 < 9") as err:
        qsar.fit(obs)
    assert err.value.columns == ("x*y^2", "y^2", "y^3")


@pytest.mark.parametrize("x", [1e120, 1e200])
def test_fit_rejects_predictors_whose_design_overflows(x):
    obs = make_observations(None, np.arange(1.0, 13.0) * x, np.arange(12.0) % 4 + 1,
                            np.arange(12.0))
    with pytest.raises(ValidationError, match="overflows"):
        qsar.fit(obs)


def test_fit_constant_x_names_the_columns_after_the_simplest():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    obs = make_observations(REFERENCE_COEFFICIENTS, np.full(y.size, 250.0), y)
    with pytest.raises(RankDeficiencyError, match="rank 4 < 9") as err:
        qsar.fit(obs)
    assert err.value.columns == ("x", "x*y", "x*y^2", "x^2", "x^2*y")


def test_model_json_with_a_non_numeric_coefficient_is_a_validation_error(tmp_path):
    path = tmp_path / "model.json"
    qsar.write_model_json(REFERENCE_COEFFICIENTS, path)
    doc = json.loads(path.read_text())
    doc["coefficients"]["p11"] = "lots"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="malformed model document"):
        qsar.read_model_json(path)


@pytest.mark.parametrize("bounds, message", [
    ({"p00": ["ab", 1.0]}, 'bounds "p00" must be a finite number'),
    ({"p00": [-1.0, 0.0, 1.0]}, 'bounds "p00" must be a [low, high] pair'),
    ([[-1.0, 1.0]], '"bounds" must be a JSON object'),
], ids=["not-a-number", "three-values", "a-list"])
def test_model_json_with_malformed_bounds_names_the_coefficient(tmp_path, bounds, message):
    path = tmp_path / "model.json"
    doc = qsar.model_to_dict(REFERENCE_COEFFICIENTS)
    doc["bounds"] = bounds
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        qsar.read_model_json(path)
    assert str(err.value).startswith(f"{path}: malformed model document: {message}")


def test_fit_rank_agrees_with_lapack_pivoted_qr():
    # The rank fit reports (9 on success, else the one in its error) is the
    # rank of LAPACK's pivoted QR at the same 1e-10 relative tolerance, and
    # the error names 9 - rank columns.
    from scipy import linalg

    def scaled(x, y):
        design = qsar.design_matrix(x, y)
        return design / np.linalg.norm(design, axis=0)

    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(9, 60))
        x, y = rng.uniform(100, 700, n), rng.integers(1, 9, n).astype(float)
        designs = [(x, y), (x, np.full(n, 2.0)), (np.full(n, 300.0), y),
                   (x, rng.choice([1.0, 2.0], n))]
        for k, (dx, dy) in enumerate(designs):
            r, _ = linalg.qr(scaled(dx, dy), mode="r", pivoting=True)
            diag = np.abs(np.diag(r))
            lapack = int(np.sum(diag > diag.max() * 1e-10))
            try:
                qsar.fit(make_observations(None, dx, dy, np.arange(float(n))))
                rank, columns = 9, ()
            except RankDeficiencyError as exc:
                rank = int(str(exc).split()[3])
                columns = exc.columns
            assert rank == lapack
            assert len(columns) == 9 - rank
            if k == 0:
                assert rank == 9
