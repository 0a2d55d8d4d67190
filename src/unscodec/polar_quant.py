"""Hybrid polar quantization of complex residual coefficients.

Magnitudes use three regions: an entropy-constrained 8-cell core below 5.056,
a companded (x^(3/4)) mid region, and a uniform outlier region reached through
an escape index.  Phase resolution follows the magnitude index and is halved
in sub-bands whose share of the frequency-envelope peaks falls at or below a
contrast threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import round_half_up, wrap_phase

ECUPQ_RATE = 2.495
ECUPQ_R7 = 5.056
R7_TILDE = 8.5 ** (4.0 / 3.0)
OUTLIER_MIN = 18
OUTLIER_MAX = (1 << 16) - 1
ESCAPE_INDEX = 8
NONLINEAR_SHIFT = 6
DESIGN_BAND = 0.05        # the designed entropy's tolerance around its target, bits
DESIGN_MAX_OUTER = 500    # multiplier bisection steps
LLOYD_ITERS = 300         # Lloyd passes per multiplier


class ConvergenceError(RuntimeError):
    """Table design did not reach its target entropy."""


@dataclass(frozen=True)
class EcupqTable:
    """Quantizer core table: 8 thresholds (7 interior + the 5.056 sentinel)
    and 8 reconstruction levels with a zero deadzone level."""

    thresholds: tuple
    levels: tuple
    design_rate: float = ECUPQ_RATE
    version: str = "rayleigh-2.495-v1"

    def __post_init__(self):
        if len(self.thresholds) != 8 or len(self.levels) != 8:
            raise ValueError("table needs 8 thresholds (incl. sentinel) and 8 levels")
        if self.levels[0] != 0.0:
            raise ValueError("deadzone level must be zero")
        if np.any(np.diff(self.thresholds) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if not self.thresholds[-1] < R7_TILDE:  # else escapes would depend on other magnitudes
            raise ValueError(f"the sentinel must lie below the escape region's {R7_TILDE:.4f}")
        if not self.version.isascii() or len(self.version) > 24:  # the stream header's field
            raise ValueError(f"version must be at most 24 ASCII characters, not {self.version!r}")

    @property
    def r7(self) -> float:
        return self.thresholds[-1]


def compute_fer(env_db: np.ndarray, band_edges) -> np.ndarray:
    """Per-band share of the dB envelope maxima, for the bands ending at
    ``band_edges`` (each row of a stack).

    The dB values are shifted by their minimum over the banded bins so every
    band maximum is non-negative; a flat envelope degenerates to equal shares.
    """
    banded = np.asarray(env_db, dtype=float)[..., :band_edges[-1]]
    shifted = banded - banded.min(axis=-1, keepdims=True)
    maxima = np.maximum.reduceat(shifted, [0, *band_edges[:-1]], axis=-1)
    total = maxima.sum(axis=-1, keepdims=True)
    return np.divide(maxima, total, out=np.full(maxima.shape, 1.0 / len(band_edges)),
                     where=~(total <= 0.0))


def quantize_magnitudes(mags: np.ndarray, table: EcupqTable):
    """Vectorized hybrid magnitude quantization.

    Returns (index1, index2) integer arrays; index2 is only meaningful where
    index1 equals the escape value.
    """
    a = np.asarray(mags, dtype=float)
    if (a < 0).any() or not np.isfinite(a).all():
        raise ValueError("magnitudes must be finite and non-negative")
    idx2 = np.zeros(a.shape, dtype=int)
    outlier = a >= R7_TILDE
    if outlier.any():
        idx2[outlier] = np.clip(round_half_up(a[outlier]), OUTLIER_MIN, OUTLIER_MAX)
    return magnitude_index(a, table).astype(int), idx2


def magnitude_index(a: np.ndarray, table: EcupqTable) -> np.ndarray:
    """Index 1 of each magnitude, unchecked, as int8: the number of interior
    thresholds at or below it, the companded index from r7 on, or the escape
    from R7_TILDE on.  Every value fits in 4 bits (0..15) for any table."""
    idx1 = (a >= table.thresholds[0]).view(np.int8)
    for threshold in table.thresholds[1:7]:
        idx1 += (a >= threshold).view(np.int8)
    companded = a >= table.r7
    if companded.any():  # one full-size mask at a time keeps a chunk's gain search small
        companded &= a < R7_TILDE
        idx1[companded] = np.floor(a[companded] ** 0.75 + 0.5) + NONLINEAR_SHIFT
        idx1[a >= R7_TILDE] = ESCAPE_INDEX  # r7 < R7_TILDE, so these are nonlinear too
    return idx1


def dequantize_magnitudes(idx1: np.ndarray, idx2: np.ndarray, table: EcupqTable) -> np.ndarray:
    """Vectorized inverse of :func:`quantize_magnitudes`.

    The companded region inverts with the 4/3 power, floored at the region
    boundary so every code requantizes to itself.
    """
    i1 = np.asarray(idx1, dtype=int)
    if np.shape(idx2) != i1.shape:
        raise ValueError("index2 must align with index1 (escape codes need it)")
    out = np.asarray(table.levels, dtype=float)[np.clip(i1, 0, 7)]
    nonlinear = i1 > ESCAPE_INDEX
    out[nonlinear] = np.maximum((i1[nonlinear] - NONLINEAR_SHIFT) ** (4.0 / 3.0), table.r7)
    escape = i1 == ESCAPE_INDEX
    out[escape] = np.asarray(idx2, dtype=float)[escape]
    return out


def phase_cells_array(idx1: np.ndarray, high_contrast, cells: np.ndarray) -> np.ndarray:
    """Phase cells per coefficient from a [low, high contrast][min(index1, 7)]
    table; 1 means no phase is sent.  ``high_contrast`` is one flag for every
    coefficient or one flag per coefficient."""
    return cells[np.asarray(high_contrast, dtype=int), np.minimum(np.asarray(idx1, dtype=int), 7)]


def quantize_phase(theta, n_cells):
    """Uniform phase quantization to one of n_cells (a power of two)."""
    n = np.asarray(n_cells, dtype=int)
    if np.any(n < 1):
        raise ValueError("cell count must be at least 1")
    wrapped = wrap_phase(theta)
    return np.floor((wrapped + np.pi) * n / (2.0 * np.pi)).astype(int) % np.maximum(n, 1)


def dequantize_phase(index, n_cells):
    """Cell-center reconstruction; a single cell always decodes to phase 0."""
    n = np.asarray(n_cells, dtype=float)
    if np.any(n < 1):
        raise ValueError("cell count must be at least 1")
    rec = -np.pi + (np.asarray(index, dtype=float) + 0.5) * 2.0 * np.pi / n
    return np.where(n == 1, 0.0, rec)


# --- entropy-constrained table design on the unit-variance-component
# --- complex-Gaussian magnitude density (Rayleigh, sigma = 1), by the Lloyd iteration of
# --- Chou, Lookabaugh and Gray (1989) on all cells at once; libm's exp and erf fix the bits

_exp, _erf = (np.frompyfunc(f, 1, 1) for f in (math.exp, math.erf))


def _cell_stats(edges, levels=None):
    """Cell probabilities, entropy and MSE of the 8 cells between ``edges``
    on the design density; the levels default to the cell centroids, with the
    deadzone level at zero.  Returns (levels, p, entropy, mse).  The cells' moments of order 0,
    1 and 2 are differences of exp(-x^2/2), x exp(-x^2/2) - sqrt(pi/2) erf(x/sqrt(2)) and
    (x^2 + 2) exp(-x^2/2) at their edges."""
    x = np.asarray(edges, dtype=float)
    e = _exp(-x * x / 2.0).astype(float)
    m0, m1, m2 = (f[:-1] - f[1:] for f in (e, x * e, (x * x + 2.0) * e))
    m1 = m1 + math.sqrt(math.pi / 2.0) * np.diff(_erf(x / math.sqrt(2.0)).astype(float))
    if levels is None:
        levels = np.where(m0 > 1e-300, m1 / np.maximum(m0, 1e-300), 0.5 * (x[:-1] + x[1:]))
        levels[0] = 0.0
    mass = m0.sum()
    p = m0 / mass
    entropy = float(-(p * np.log2(np.maximum(p, 1e-300))).sum())
    mse = float(((m2 - 2.0 * levels * m1 + levels ** 2 * m0) / mass).sum())
    return levels, p, entropy, mse


def _lloyd(lam, r7):
    """Lloyd passes at multiplier ``lam`` from evenly spread thresholds below ``r7``, each
    moving all 7 to their levels' midpoints plus ``lam`` times the code-length step over twice
    the level step.  Returns (thresholds, the last pass's centroid levels, their entropy)."""
    eps = 1e-6
    bounds = np.linspace(r7 / 8.0, r7 * 7.0 / 8.0, 7)
    for _ in range(LLOYD_ITERS):
        levels, p, entropy, _ = _cell_stats(np.concatenate([[0.0], bounds, [r7]]))
        # floor the penalty probabilities so a temporarily starved cell is not
        # squeezed out of existence by its own code length
        codelen, dy = -np.log2(np.maximum(p, 1e-3)), np.diff(levels)
        penalty = np.divide(lam * np.diff(codelen), 2.0 * dy, out=np.zeros(7), where=dy > 1e-12)
        new = np.clip(0.5 * (levels[:-1] + levels[1:]) + penalty, eps, r7 - 8 * eps)
        new = np.maximum.accumulate(new)
        for j in range(1, 7):
            if new[j] <= new[j - 1]:
                new[j] = min(new[j - 1] + eps, r7 - (7 - j) * eps)
        bounds, moved = new, np.max(np.abs(new - bounds))
        if moved < 1e-12:
            break
    return bounds, levels, entropy


def design_ecupq_table(rate_target: float = ECUPQ_RATE) -> EcupqTable:
    """Design the 8-cell core by entropy-constrained Lloyd iteration.

    The Lagrange multiplier on code length is bisected until the cell entropy
    lands inside rate_target +/- DESIGN_BAND; the top boundary is pinned at
    ECUPQ_R7 and the deadzone level is held at zero throughout.
    """
    upper = rate_target + DESIGN_BAND
    # bisect for the smallest multiplier whose entropy enters the target band;
    # approaching from below keeps the deadzone as wide as the rate allows
    lam_lo, lam_hi = 0.0, 0.5
    entropy = float("nan")
    for _ in range(DESIGN_MAX_OUTER):
        lam = 0.5 * (lam_lo + lam_hi)
        bounds, levels, entropy = _lloyd(lam, ECUPQ_R7)
        if entropy > upper:
            lam_lo = lam
        else:
            lam_hi = lam
        if lam_hi - lam_lo < 1e-12 and entropy <= upper:
            if abs(entropy - rate_target) <= DESIGN_BAND:
                return EcupqTable(
                    thresholds=tuple(float(v) for v in np.concatenate([bounds, [ECUPQ_R7]])),
                    levels=tuple(float(v) for v in levels),
                    design_rate=rate_target,
                    version=f"rayleigh-{rate_target:g}-v1",
                )
            break
    raise ConvergenceError(f"entropy {entropy:.4f} did not reach {rate_target} +/- {DESIGN_BAND}")


# Frozen output of design_ecupq_table() at the default settings; regenerate
# with the design-ecupq CLI command if the design parameters change.
DEFAULT_ECUPQ_TABLE = EcupqTable(
    thresholds=(
        0.10002145347689399,
        0.5923245576004721,
        1.0158351089207314,
        1.4368262547623647,
        1.8717702824906262,
        2.3459899013972203,
        2.932406802980782,
        5.056,
    ),
    levels=(
        0.0,
        0.39826938550745106,
        0.8108674703325153,
        1.220461352915259,
        1.638045806040988,
        2.078908076238058,
        2.5771120398735383,
        3.2425708120290717,
    ),
    design_rate=2.495,
    version="rayleigh-2.495-v1",
)
