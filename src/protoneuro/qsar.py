"""Polynomial firing-rate surface over molecular descriptors.

The model maps molecular weight x (g/mol) and peptide length y (residues)
to a firing rate in Hz through a cubic-in-y, quadratic-in-x surface:

    f(x, y) = p00 + p10*x + p01*y + p20*x^2 + p11*x*y + p02*y^2
            + p21*x^2*y + p12*x*y^2 + p03*y^3

Fitting is ordinary least squares on that nine-term basis. The raw design
matrix is badly conditioned (x spans hundreds while y spans units), so the
solver scales each basis column to unit norm, solves by orthogonal
decomposition, and unscales the coefficients; it is dependable up to
condition numbers around 1e8. Confidence intervals are the standard
linear-model ones (t quantile times the standard error derived from the
residual variance and the design covariance).

The rank is read from the singular values ``numpy.linalg.lstsq`` returns
with the coefficients, and the design covariance inverts the R of
``numpy.linalg.qr`` with ``numpy.linalg.solve``. The t quantile of the
bounds, at every level and degree of freedom, is solved here with the
standard library (``_t_quantile``), so the module needs numpy and nothing
else. numpy is imported inside the array functions only, so
``qsar-predict`` (the bundled or a JSON model at one point) starts without
it.

The surface is evaluated with products only (``x * x``, ``y * y * y``),
never ``**``: numpy's float power runs its own vector routines, which can
round differently from the C library's ``pow`` behind Python's, whereas a
product rounds the same for a Python float and an array element, so a
prediction at one point equals the same point of an array prediction bit
for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field

from . import _inputs
from .errors import NumericError, ParseError, RankDeficiencyError, ValidationError

COEFFICIENT_NAMES = ("p00", "p10", "p01", "p20", "p11", "p02", "p21", "p12", "p03")
BASIS_NAMES = ("1", "x", "y", "x^2", "x*y", "y^2", "x^2*y", "x*y^2", "y^3")


@dataclass(frozen=True)
class QsarCoefficients:
    """The nine surface coefficients, optionally with 95% bounds per name."""

    p00: float
    p10: float
    p01: float
    p20: float
    p11: float
    p02: float
    p21: float
    p12: float
    p03: float
    bounds: dict = field(default=None, compare=False)

    def __post_init__(self):
        for name in COEFFICIENT_NAMES:
            _inputs.finite(getattr(self, name), name)
        if self.bounds is not None:
            for name in self.bounds:
                if name not in COEFFICIENT_NAMES:
                    raise ValidationError(f"unknown coefficient {name!r} in bounds")
                lo, hi = self.bounds[name]
                if not lo <= getattr(self, name) <= hi:
                    raise ValidationError(f"{name} outside its own bounds [{lo}, {hi}]")

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([getattr(self, n) for n in COEFFICIENT_NAMES])

    @classmethod
    def from_array(cls, values, bounds=None) -> "QsarCoefficients":
        import numpy as np
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (9,):
            raise ValidationError(f"need 9 coefficients, got shape {values.shape}")
        return cls(*(float(v) for v in values), bounds=bounds)


#: Reference coefficient set bundled with the toolkit (95% bounds included).
REFERENCE_COEFFICIENTS = QsarCoefficients(
    p00=2349.0, p10=-12.08, p01=-1770.0, p20=-0.1149, p11=48.49,
    p02=-2545.0, p21=0.04667, p12=-17.24, p03=1151.0,
    bounds={
        "p00": (-3560.0, 8258.0),
        "p10": (-45.24, 21.07),
        "p01": (-1.172e4, 8182.0),
        "p20": (-0.6961, 0.4664),
        "p11": (-128.7, 225.7),
        "p02": (-1.132e4, 6227.0),
        "p21": (-0.1628, 0.2561),
        "p12": (-79.99, 45.5),
        "p03": (-2675.0, 4977.0),
    },
)

#: Reference per-sample mean firing rates and the rates the reference
#: surface assigned to them (Hz). The underlying descriptors were never
#: published, so these pairs are data, not something the fitter can rebuild.
REFERENCE_RATES = (
    ("L-Glu:L-Asp", 535.4877, 536.0542),
    ("L-Glu:L-Asp:L-Phe", 436.2721, 492.8753),
    ("L-Lys:L-Phe:L-Glu", 542.9443, 563.6253),
    ("L-Glu:L-Phe:L-His", 567.0562, 521.7084),
    ("L-Glu:L-Phe:PLLA", 498.2888, 551.9483),
    ("L-Lys:L-Phe:L-His:PLLA", 650.4798, -901.3635),
    ("L-Glu:L-Arg", 732.9516, -2041.8),
    ("L-Asp", 529.072, 723.4966),
    ("L-Phe:L-Lys", 768.2345, -2619.1),
    ("L-Glu:L-Asp:L-Pro", 617.3223, 1345.4),
    ("L-Phe", 491.5065, 471.338),
    ("L-Glu:L-Phe", 665.2995, -1084.7),
)


@dataclass(frozen=True)
class SamplePredictors:
    label: str
    molecular_weight: float
    peptide_length: float

    def __post_init__(self):
        if not self.molecular_weight > 0:
            raise ValidationError("molecular_weight must be > 0")
        if not self.peptide_length >= 1:
            raise ValidationError("peptide_length must be >= 1")


@dataclass(frozen=True)
class QsarObservation:
    predictors: SamplePredictors
    mean_firing_rate: float

    def __post_init__(self):
        _inputs.finite(self.mean_firing_rate, "mean_firing_rate")


@dataclass(frozen=True)
class FitResult:
    """OLS solution plus the pieces confidence intervals need."""

    coefficients: QsarCoefficients
    residual_sum_squares: float
    observation_count: int
    covariance_unit: np.ndarray = field(repr=False, compare=False, default=None)


def design_matrix(x, y) -> np.ndarray:
    """Rows of basis terms [1, x, y, x^2, xy, y^2, x^2 y, x y^2, y^3]."""
    import numpy as np
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.column_stack([
        np.ones_like(x), x, y, x**2, x * y, y**2, x**2 * y, x * y**2, y**3,
    ])


def predict(coeffs: QsarCoefficients, x, y):
    """Evaluate the surface; broadcasts over array-valued x and y.

    Two Python floats are evaluated without numpy; the result equals the
    array path's bit for bit. Finite predictors whose surface overflows are
    a ValidationError on both paths.
    """
    if isinstance(x, float) and isinstance(y, float):
        finite, quiet = math.isfinite, contextlib.nullcontext()
    else:
        import numpy as np
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        quiet = np.errstate(over="ignore", invalid="ignore")

        def finite(v):
            return bool(np.all(np.isfinite(v)))
    if not (finite(x) and finite(y)):
        raise ValidationError("predictors must be finite")
    c = coeffs
    with quiet:
        x2, y2 = x * x, y * y
        out = (c.p00 + c.p10 * x + c.p01 * y + c.p20 * x2 + c.p11 * x * y
               + c.p02 * y2 + c.p21 * x2 * y + c.p12 * x * y2 + c.p03 * (y2 * y))
    if not finite(out):
        raise ValidationError("predictors too large: the surface overflows")
    return out if getattr(out, "ndim", 0) else float(out)


def fit(observations) -> FitResult:
    """Ordinary least squares over the nine-term basis.

    Raises RankDeficiencyError when a singular value of the scaled design is
    at most 1e-10 of the largest, naming, in basis order, each column that
    adds nothing to the rank of the simpler columns kept before it; and
    ValidationError with fewer than 9 observations.
    """
    import numpy as np
    obs = list(observations)
    if len(obs) < 9:
        raise ValidationError(f"need at least 9 observations, got {len(obs)}")
    x = np.array([o.predictors.molecular_weight for o in obs])
    y = np.array([o.predictors.peptide_length for o in obs])
    rates = np.array([o.mean_firing_rate for o in obs])
    with np.errstate(over="ignore"):
        design = design_matrix(x, y)
        norms = np.linalg.norm(design, axis=0)
    if not np.all(np.isfinite(norms)):
        raise ValidationError("predictors too large: a design column's norm overflows")
    norms[norms == 0] = 1.0
    scaled = design / norms
    solution, _, _, singular = np.linalg.lstsq(scaled, rates, rcond=None)
    tol = singular[0] * 1e-10
    if singular[-1] <= tol:
        kept = []
        for j in range(9):
            if np.linalg.matrix_rank(scaled[:, kept + [j]], tol=tol) > len(kept):
                kept.append(j)
        bad = sorted(name for j, name in enumerate(BASIS_NAMES) if j not in kept)
        raise RankDeficiencyError(
            f"design matrix rank {len(kept)} < 9; dependent columns: {', '.join(bad)}",
            columns=bad,
        )
    coeffs = solution / norms
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = rates - design @ coeffs
        rss = float(residuals @ residuals)
    if not math.isfinite(rss):
        raise ValidationError("rates too large: the residual sum of squares overflows")
    # Unit-sigma coefficient covariance: D (Xs' Xs)^-1 D with D = diag(1/norms).
    r_full = np.linalg.qr(scaled, mode="r")
    rinv = np.linalg.solve(r_full, np.eye(9))
    cov_unit = (rinv @ rinv.T) / np.outer(norms, norms)
    return FitResult(coefficients=QsarCoefficients.from_array(coeffs),
                     residual_sum_squares=rss, observation_count=len(obs),
                     covariance_unit=cov_unit)


#: ln(Gamma(a + 1/2) / Gamma(a)) - ln(a) / 2 = sum_k c_k / a**(2k - 1), large a.
_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432)
#: Taylor coefficients at 0 of sqrt(w / (1 - exp(-w))), whose radius is 2*pi.
_TAIL_SERIES = (
    1.0, 0.25, 0.010416666666666666, -0.0026041666666666665, -9.765625e-05,
    5.154079861111111e-05, 1.2756024718915344e-06, -1.110097087880291e-06,
    -1.9670584004181822e-08, 2.4836319884715677e-08, 3.3966619960386745e-10,
    -5.690071833942187e-10, -6.3372301556671304e-12, 1.3251315155878903e-11,
    1.2468358960996804e-13, -3.1229993780631886e-13, -2.546988626356897e-15,
    7.426702350918158e-15, 5.3488858900327365e-17, -1.778579261088922e-16,
    -1.1473989542270475e-18, 4.283476654726128e-18,
)


def _gamma_ratio(dof):
    """Gamma((dof + 1) / 2) / Gamma(dof / 2), divided by sqrt(pi) and by sqrt(dof / 2).

    Below dof 64 from a ratio of integers rounded once; above, from the
    asymptotic series, whose next term is below 1e-19 there.
    """
    a = dof / 2.0
    if dof >= 64:
        inv2, s = 1.0 / (a * a), 0.0
        for coefficient in reversed(_RATIO_SERIES):
            s = s * inv2 + coefficient
        h = math.exp(s / a)
        return h * math.sqrt(a / math.pi), h
    m = dof // 2
    odd = math.prod(range(1, 2 * m, 2))
    if dof % 2:
        c = math.factorial(m) * 2 ** m / odd / math.pi
    else:
        c = odd / (2 ** m * math.factorial(m - 1))
    return c, c * math.sqrt(math.pi / a)


def _central_sum(dof, y):
    """S = sum_n ((dof + 1) / 2)_n / (3 / 2)_n * y**n, a series of positive terms:
    F(t) - 1/2 = t f(t) S at y = t**2 / (dof + t**2), f the density."""
    h = (dof + 1) / 2.0
    term = total = 1.0
    n = 0
    while term > total * 1e-17:
        term *= (n + h) / (n + 1.5) * y
        total += term
        n += 1
    return total


def _tail_sum(a, u):
    """sum_k g_k a**-k Gamma(k + 1/2, a u) / Gamma(1/2), g_k the ``_TAIL_SERIES``.

    With a = dof / 2 and u = log(1 + t**2 / dof), the upper tail is
    1 - F(t) = h / 2 times this sum (h from ``_gamma_ratio``): the tail
    integral in w = -log(x) of I_x(a, 1/2), term by term. The sum is
    asymptotic in 1/a; for a >= 10 and u <= 1 its terms fall below 1e-17 of
    the total before they grow.
    """
    z = a * u
    j = math.erfc(math.sqrt(z))
    power = math.sqrt(z / math.pi) * math.exp(-z)
    total = j
    for k, g in enumerate(_TAIL_SERIES[1:], start=1):
        # Gamma(s + 1, z) = s Gamma(s, z) + z**s exp(-z), each side over a**k.
        j = ((k - 0.5) * j + power) / a
        power *= u
        total += g * j
        if abs(g * j) <= total * 1e-17:
            break
    return total


def _beta_fraction(a, x):
    """The continued fraction K of I_x(a, 1/2) (modified Lentz), where
    1 - F(t) = t f(t) K / dof at x = dof / (dof + t**2).

    Used for x < (a + 1) / (a + 5/2), where it converges fast, or x <= 1/e.
    Nearer 1 each step cancels: at dof 1e6 the value moved by 1e-11.
    """
    b = 0.5
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        if abs(d * c - 1.0) < 3e-16:
            break
    return h


def _t_quantile(dof, p):
    """The p-quantile of Student's t with an integer ``dof`` >= 1, for 0.5 <= p <= 1.

    Newton steps on the CDF F from t = 1. F(t) is taken in the form whose
    rounding error moves t least: F - 1/2 near the centre (``_central_sum``),
    else the upper tail 1 - F (``_tail_sum`` for dof >= 20,
    ``_beta_fraction`` below or far out). p - 1/2 and 1 - p are exact. F is
    concave for t > 0, so after at most one step past the root Newton climbs
    to it from below; a step that would leave t <= 0 (from above a root
    below 1) halves t instead. The slowest case seen, dof 1 at the largest
    p below 1, takes 57 steps. Against mpmath at 40 digits the worst error
    seen was 15.8 ulp (2.2e-15 relative, dof 1-19 near the centre/tail
    switch), and 84% of random (dof, level) draws were within 2 ulp; at
    levels 0.9, 0.95 and 0.99 with dof 1-120 it was 6.4 ulp.
    """
    if p == 0.5:
        return 0.0
    if p == 1.0:
        return math.inf
    q, half = 1.0 - p, p - 0.5
    c, h = _gamma_ratio(dof)
    a = dof / 2.0
    t = 1.0
    for _ in range(100):
        t2 = t * t
        u = math.log1p(t2 / dof)
        density = c * math.exp(-a * u) / math.sqrt(dof + t2)
        central = p < 0.75 if dof >= 20 else t2 * (dof + 2) < 3 * dof
        if central:
            step = half / density - t * _central_sum(dof, t2 / (dof + t2))
        elif dof >= 20 and u <= 1.0:
            step = (0.5 * h * _tail_sum(a, u) - q) / density
        else:
            step = t * _beta_fraction(a, dof / (dof + t2)) / dof - q / density
        if t + step <= 0:
            t *= 0.5
            continue
        t += step
        if abs(step) <= t * 2.0 ** -40:
            return t
    raise NumericError(f"t quantile for dof {dof}, p {p!r} did not converge")


def confidence_bounds(fit_result: FitResult, observations, level: float = 0.95) -> dict:
    """Per-coefficient (low, high) intervals at the requested level.

    Needs more observations than coefficients; with n <= 9 there are no
    residual degrees of freedom. A bound that is not finite (a level so
    near 1 that its t quantile is infinite, or a standard error that
    overflows) is a ValidationError naming the level.
    """
    obs = list(observations)
    n = len(obs)
    if n != fit_result.observation_count:
        raise ValidationError("observations do not match the fit")
    dof = n - 9
    if dof <= 0:
        raise ValidationError(
            f"confidence bounds need more than 9 observations, got {n}"
        )
    if not 0 < level < 1:
        raise ValidationError("level must be in (0, 1)")
    import numpy as np
    s2 = fit_result.residual_sum_squares / dof
    tq = _t_quantile(dof, 0.5 + level / 2.0)
    values = fit_result.coefficients.as_array()
    with np.errstate(over="ignore", invalid="ignore"):
        se = np.sqrt(s2 * np.diag(fit_result.covariance_unit))
        low, high = values - tq * se, values + tq * se
    if not (np.all(np.isfinite(low)) and np.all(np.isfinite(high))):
        raise ValidationError(f"confidence bounds at level {level!r} are not finite")
    return {name: (float(low[j]), float(high[j])) for j, name in enumerate(COEFFICIENT_NAMES)}


def percent_deviation(mean: float, predicted: float) -> float:
    """Signed disparity of prediction vs observation: 100*(predicted-mean)/mean."""
    if mean == 0:
        raise ValidationError("mean firing rate must be nonzero")
    deviation = 100.0 * (predicted - mean) / mean
    if not math.isfinite(deviation):
        raise ValidationError(f"mean firing rate {mean!r} gives a percent deviation of "
                              f"{deviation}, not a finite number")
    return deviation


def read_observations_csv(path) -> list[QsarObservation]:
    """Parse ``label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz``."""
    expected = "label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz"
    out = []
    with _inputs.blamed(path), _inputs.open_text(path) as fh:
        lines = fh.read().splitlines()
        if not lines or lines[0].strip() != expected:
            raise ParseError(f"expected header {expected!r}", line=1)
        for lineno, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ParseError(f"expected 4 fields, got {len(parts)}", line=lineno)
            try:
                pred = SamplePredictors(label=parts[0], molecular_weight=float(parts[1]),
                                        peptide_length=float(parts[2]))
                out.append(QsarObservation(pred, float(parts[3])))
            except (ValueError, ValidationError) as exc:
                raise ParseError(str(exc), line=lineno) from None
    return out


def model_to_dict(coeffs: QsarCoefficients, residual_sum_squares=None) -> dict:
    doc = {"coefficients": {n: getattr(coeffs, n) for n in COEFFICIENT_NAMES}}
    if coeffs.bounds is not None:
        doc["bounds"] = {n: list(coeffs.bounds[n]) for n in sorted(coeffs.bounds)}
    if residual_sum_squares is not None:
        doc["residual_sum_squares"] = residual_sum_squares
    return doc


def write_model_json(coeffs: QsarCoefficients, path, residual_sum_squares=None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(coeffs, residual_sum_squares), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_model_json(path) -> QsarCoefficients:
    """Read a model JSON; a malformed coefficient or bound is an error naming it."""
    bad = "malformed model document"
    doc = _inputs.read_json_object(path, "model")
    with _inputs.blamed(path):
        coeffs, bounds = doc.get("coefficients"), doc.get("bounds")
        if not isinstance(coeffs, dict) or not set(COEFFICIENT_NAMES) <= set(coeffs):
            raise ValidationError(f"{bad}: need the coefficients {', '.join(COEFFICIENT_NAMES)}")
        values = [_inputs.number(coeffs[n], f'{bad}: coefficient "{n}"')
                  for n in COEFFICIENT_NAMES]
        if bounds is not None:
            _inputs.check_keys(bounds, COEFFICIENT_NAMES, f'{bad}: "bounds"')
            for name, pair in bounds.items():
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValidationError(f'{bad}: bounds "{name}" must be a [low, high] pair')
            bounds = {name: tuple(_inputs.number(b, f'{bad}: bounds "{name}"') for b in pair)
                      for name, pair in bounds.items()}
        return QsarCoefficients(*values, bounds=bounds)

