"""Temporal coding, synaptic weight matrices and connection-strength grids.

A potential trace becomes a binary code row through a strict threshold
indicator (1 where the potential exceeds theta). Codes for N neurons over n
samples form an N x n matrix; synaptic weights are a signed N x N matrix in
[-1, 1].

PSI/PPI (post-/pre-synaptic index) quantify connection potency per neuron.
There is no single canonical definition of these indices; this toolkit
defines the grid entry for post-synaptic neuron j and pre-synaptic neuron i
as weight[j][i] times the mean activity of neuron i's code row, with PSI the
row sums and PPI the column sums of that grid. Anything consuming these
numbers should be aware the definition is a convention of this toolkit.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _csvio
from .config import CodingConfig, derive_seed  # CodingConfig is re-exported
from .errors import ShapeError, ValidationError


@dataclass(eq=False)
class CodeMatrix:
    """Binary N x n code; row j is the temporal code of neuron j."""

    entries: np.ndarray
    neuron_labels: list[str] = None

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2:
            raise ShapeError("code entries must be a 2-D matrix")
        if not np.isin(e, (0, 1)).all():
            raise ValidationError("code entries must be 0 or 1")
        self.entries = e.astype(np.uint8)
        if self.neuron_labels is None:
            self.neuron_labels = [f"n{j + 1}" for j in range(e.shape[0])]
        elif len(self.neuron_labels) != e.shape[0]:
            raise ShapeError(
                f"{len(self.neuron_labels)} labels for {e.shape[0]} code rows"
            )

    @property
    def neuron_count(self) -> int:
        return self.entries.shape[0]

    @property
    def sample_count(self) -> int:
        return self.entries.shape[1]

    def mean_activity(self) -> np.ndarray:
        """Fraction of ones per neuron row."""
        return self.entries.mean(axis=1)


@dataclass(eq=False)
class WeightMatrix:
    """Square synaptic weight matrix with entries in [-1, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ShapeError("weights must form a square matrix")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights contain non-finite entries")
        if np.any(np.abs(w) > 1.0):
            raise ValidationError("weights must lie in [-1, 1]")
        self.entries = w

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(eq=False)
class PsiPpiGrid:
    """Weight-activity products plus their row (PSI) and column (PPI) sums."""

    grid: np.ndarray
    psi: np.ndarray = field(init=False)
    ppi: np.ndarray = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeError("grid must be square")
        self.grid = g
        self.psi = g.sum(axis=1)
        self.ppi = g.sum(axis=0)


def encode(potentials, threshold: float, labels=None) -> CodeMatrix:
    """Threshold a potential matrix into a binary code.

    Entry [j][k] is 1 exactly when potentials[j][k] > threshold; equality
    codes to 0.
    """
    p = np.asarray(potentials, dtype=np.float64)
    if p.ndim != 2:
        raise ShapeError("potentials must be a 2-D matrix (neurons x samples)")
    if not np.isfinite(threshold):
        raise ValidationError("threshold must be finite")
    return CodeMatrix((p > threshold).astype(np.uint8), neuron_labels=labels)


def init_weights(n: int, seed: int) -> WeightMatrix:
    """Seeded i.i.d. uniform[-1, 1] weights; identical seeds give identical matrices."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    # n x n float64 entries: more bytes than this no array can index.
    if n * n * 8 > sys.maxsize:
        raise ValidationError(f"n must be at most {math.isqrt(sys.maxsize // 8)}, got {n}")
    rng = np.random.default_rng(seed)
    return WeightMatrix(rng.uniform(-1.0, 1.0, size=(n, n)))


# Fixed 10-neuron demonstration weights, bundled so analyses are repeatable
# without seeding. The CLI exposes them as `weights --table1`.
_REFERENCE_WEIGHTS = (
    (-1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0),
    (1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0),
    (1.0, -1.0, -0.4, -1.0, -0.8, -1.0, -1.0, 1.0, -1.0, -1.0),
    (-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0),
    (-1.0, -1.0, 0.2, -1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0),
    (-1.0, 1.0, 0.5, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 0.7),
    (1.0, -0.5, -0.6, 0.7, 1.0, 1.0, -0.7, 1.0, 1.0, -1.0),
    (-1.0, 1.0, 1.0, -0.9, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0),
    (1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0),
    (0.3, 1.0, -1.0, -1.0, -0.2, -1.0, 0.1, -1.0, 1.0, -1.0),
)


def reference_weight_matrix() -> WeightMatrix:
    """The bundled fixed 10x10 weight matrix."""
    return WeightMatrix(np.array(_REFERENCE_WEIGHTS))


def weight_matrix(source: str, n: int, seed: int) -> WeightMatrix:
    """The ``"reference"`` matrix, which needs n = 10, or else seeded n x n weights
    drawn from the ``"weights"`` stream of ``seed``."""
    if source == "reference":
        if n != 10:
            raise ValidationError(f"the reference weight matrix is 10x10, not {n}x{n}")
        return reference_weight_matrix()
    return init_weights(n, derive_seed(seed, "weights"))


def psi_ppi(weights: WeightMatrix, codes: CodeMatrix) -> PsiPpiGrid:
    """Connection-potency grid: grid[j][i] = W[j][i] * mean activity of neuron i."""
    if weights.size != codes.neuron_count:
        raise ShapeError(
            f"{weights.size}x{weights.size} weights vs {codes.neuron_count} code rows"
        )
    activity = codes.mean_activity()
    return PsiPpiGrid(weights.entries * activity[np.newaxis, :])


def fire_step(code_column, weights: WeightMatrix, fire_threshold: float) -> np.ndarray:
    """One firing propagation step: out[j] = 1 iff (W @ column)[j] > fire_threshold."""
    col = np.asarray(code_column, dtype=np.float64)
    if col.ndim != 1 or col.size != weights.size:
        raise ShapeError(f"code column of length {col.size} vs {weights.size} neurons")
    return (weights.entries @ col > fire_threshold).astype(np.uint8)


def write_code_csv(code: CodeMatrix, path) -> None:
    """Export codes with neuron labels as header; one row per time sample."""
    with open(path, "wb") as fh:
        fh.write((",".join(code.neuron_labels) + "\n").encode())
        _csvio.write_rows(fh, ",".join(["%d"] * code.neuron_count) + "\n", *code.entries)


def _ramp_color(frac: float) -> str:
    """Linear light-green to dark-blue ramp (low to high)."""
    lo = (199, 233, 192)
    hi = (8, 48, 107)
    r, g, b = (round(a + frac * (b_ - a)) for a, b_ in zip(lo, hi))
    return f"rgb({r},{g},{b})"


def write_heatmap_svg(grid: PsiPpiGrid, path, labels=None, cell: int = 28) -> None:
    """Standalone SVG heatmap of the grid; output bytes are deterministic."""
    g = grid.grid
    n = g.shape[0]
    labels = labels or [f"n{j + 1}" for j in range(n)]
    lo, hi = float(g.min()), float(g.max())
    span = hi - lo if hi > lo else 1.0
    margin = 90
    width = margin + n * cell + 20
    height = margin + n * cell + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin}" y="20" font-size="13" font-family="sans-serif">'
        "post-synaptic index grid (rows: post, columns: pre)</text>",
    ]
    for j in range(n):
        for i in range(n):
            frac = (float(g[j, i]) - lo) / span
            x = margin + i * cell
            y = margin + j * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_ramp_color(frac)}"><title>{labels[j]} &#8592; {labels[i]}: '
                f"{g[j, i]:.6g}</title></rect>"
            )
    for i, lab in enumerate(labels):
        x = margin + i * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{margin - 8}" font-size="10" font-family="sans-serif" '
            f'text-anchor="middle">{lab}</text>'
        )
        y = margin + i * cell + cell // 2 + 4
        parts.append(
            f'<text x="{margin - 8}" y="{y}" font-size="10" font-family="sans-serif" '
            f'text-anchor="end">{lab}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
