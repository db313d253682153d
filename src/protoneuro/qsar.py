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

The rank check is a pivoted Householder QR (Businger and Golub, Numer.
Math. 7:269, 1965) written with numpy on the nine scaled columns, and the
design covariance inverts R with ``numpy.linalg.solve``; neither needs
``scipy.linalg``. numpy is imported inside the array functions only, so
``qsar-predict`` (the bundled or a JSON model at one point) starts without
it, and scipy inside ``confidence_bounds`` only: the t quantile comes from
``scipy.special.stdtrit``, the function behind ``scipy.stats.t.ppf``,
which avoids importing ``scipy.stats`` at all.

The surface is evaluated with products only (``x * x``, ``y * y * y``),
never ``**``: numpy's float power runs its own vector routines, which can
round differently from the C library's ``pow`` behind Python's, whereas a
product rounds the same for a Python float and an array element, so a
prediction at one point equals the same point of an array prediction bit
for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import _inputs
from .errors import ParseError, RankDeficiencyError, ValidationError

COEFFICIENT_NAMES = ("p00", "p10", "p01", "p20", "p11", "p02", "p21", "p12", "p03")
BASIS_NAMES = ("1", "x", "y", "x^2", "x*y", "y^2", "x^2*y", "x*y^2", "y^3")
#: Relative gap below which two column norms tie when pivoting.
_PIVOT_TIE = 1e-10


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
        if not all(math.isfinite(getattr(self, n)) for n in COEFFICIENT_NAMES):
            raise ValidationError("coefficients must be finite")
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
        if not math.isfinite(self.mean_firing_rate):
            raise ValidationError("mean_firing_rate must be finite")


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
    array path's bit for bit.
    """
    if isinstance(x, float) and isinstance(y, float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError("predictors must be finite")
    else:
        import numpy as np
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("predictors must be finite")
    c = coeffs
    x2, y2 = x * x, y * y
    out = (c.p00 + c.p10 * x + c.p01 * y + c.p20 * x2 + c.p11 * x * y
           + c.p02 * y2 + c.p21 * x2 * y + c.p12 * x * y2 + c.p03 * (y2 * y))
    return out if getattr(out, "ndim", 0) else float(out)


def _pivoted_qr_diagonal(a):
    """|diag R| and the column order of a Householder QR with column pivoting.

    Each step moves the remaining column of largest norm to the front and
    reflects it onto the axis, so |R[k, k]| is non-increasing and a column
    dependent on the ones before it ends among the last. Norms within a
    relative ``_PIVOT_TIE`` of the largest count as equal and the first in
    basis order wins: proportional columns (every power of a constant y)
    then keep the simplest term whatever the rounding of their norms.
    """
    import numpy as np
    a = np.array(a, dtype=np.float64)
    n = a.shape[1]
    piv = np.arange(n)
    diag = np.zeros(n)
    for k in range(n):
        rest = a[k:, k:]
        sq = np.einsum("ij,ij->j", rest, rest)
        tied = np.flatnonzero(sq >= sq.max() * (1.0 - _PIVOT_TIE))
        j = k + int(tied[np.argmin(piv[k:][tied])])
        a[:, [k, j]] = a[:, [j, k]]
        piv[[k, j]] = piv[[j, k]]
        v = a[k:, k].copy()
        alpha = -math.copysign(math.sqrt(sq[j - k]), v[0])
        diag[k] = abs(alpha)
        v[0] -= alpha
        vv = float(v @ v)
        if vv > 0:
            rest -= np.outer(v, (2.0 / vv) * (v @ rest))
    return diag, piv


def fit(observations) -> FitResult:
    """Ordinary least squares over the nine-term basis.

    Raises RankDeficiencyError naming the dependent basis columns when the
    design is singular, and ValidationError with fewer than 9 observations.
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
    # Pivoted QR both detects deficiency and names the dependent columns.
    diag, piv = _pivoted_qr_diagonal(scaled)
    tol = diag.max() * 1e-10 if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < 9:
        bad = sorted(BASIS_NAMES[j] for j in piv[rank:])
        raise RankDeficiencyError(
            f"design matrix rank {rank} < 9; dependent columns: {', '.join(bad)}",
            columns=bad,
        )
    solution, _, _, _ = np.linalg.lstsq(scaled, rates, rcond=None)
    coeffs = solution / norms
    residuals = rates - design @ coeffs
    rss = float(residuals @ residuals)
    # Unit-sigma coefficient covariance: D (Xs' Xs)^-1 D with D = diag(1/norms).
    r_full = np.linalg.qr(scaled, mode="r")
    rinv = np.linalg.solve(r_full, np.eye(9))
    cov_unit = (rinv @ rinv.T) / np.outer(norms, norms)
    return FitResult(coefficients=QsarCoefficients.from_array(coeffs),
                     residual_sum_squares=rss, observation_count=len(obs),
                     covariance_unit=cov_unit)


def confidence_bounds(fit_result: FitResult, observations, level: float = 0.95) -> dict:
    """Per-coefficient (low, high) intervals at the requested level.

    Needs more observations than coefficients; with n <= 9 there are no
    residual degrees of freedom.
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
    from scipy.special import stdtrit
    s2 = fit_result.residual_sum_squares / dof
    se = np.sqrt(s2 * np.diag(fit_result.covariance_unit))
    tq = float(stdtrit(dof, 0.5 + level / 2.0))
    values = fit_result.coefficients.as_array()
    return {
        name: (float(values[j] - tq * se[j]), float(values[j] + tq * se[j]))
        for j, name in enumerate(COEFFICIENT_NAMES)
    }


def percent_deviation(mean: float, predicted: float) -> float:
    """Signed disparity of prediction vs observation: 100*(predicted-mean)/mean."""
    if mean == 0:
        raise ValidationError("mean firing rate must be nonzero")
    return 100.0 * (predicted - mean) / mean


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
