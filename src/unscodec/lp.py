"""Linear prediction: autocorrelation, Levinson-Durbin (real and complex),
bandwidth expansion, LSF conversion, envelope evaluation, and the scalar
quantizers for both LPC parameter sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .util import round_half_up, wrap_phase

# Relative white-noise floor mixed into r[0] before the recursion; keeps
# near-silent frames from producing singular steps.
NOISE_FLOOR = 1e-9
REFLECTION_CLAMP = 0.999


class DegenerateSignalError(ValueError):
    """Raised when the lag-0 autocorrelation is not strictly positive."""


@dataclass
class LpModel:
    """Prediction-error filter A(z) = 1 + sum a_k z^-k.

    Coefficients are real for the spectral-envelope model and complex for the
    temporal model along frequency.
    """

    order: int
    coeffs: np.ndarray
    weight: float = 1.0
    residual_energy: float = float("nan")
    clamped: bool = False


@dataclass
class FrequencyEnvelope:
    """Magnitude envelope 1/|A| sampled on the one-sided bin grid."""

    values: np.ndarray
    values_db: np.ndarray


def autocorr(x, max_lag: int) -> np.ndarray:
    """Autocorrelation r[k] = sum_t x[t] conj(x[t-k]) for k = 0..max_lag."""
    x = np.asarray(x)
    if max_lag >= x.size:
        raise ValueError(f"max_lag {max_lag} must be below signal length {x.size}")
    is_complex = np.iscomplexobj(x)
    r = np.empty(max_lag + 1, dtype=complex if is_complex else float)
    for k in range(max_lag + 1):
        v = np.dot(x[k:], np.conj(x[:x.size - k]))
        r[k] = v if is_complex else v.real
    return r


def levinson(r, order: int):
    """Levinson-Durbin recursion on a (Hermitian) autocorrelation sequence.

    The model's coefficients are complex exactly when ``r`` is.  Reflection
    coefficients with magnitude >= 1 (near-singular steps) are clamped to
    0.999 and the model is flagged.
    """
    r = np.asarray(r)
    if order >= r.size:
        raise ValueError("order must be below len(r)")
    is_complex = np.iscomplexobj(r)
    r0 = r[0].real if is_complex else float(r[0])
    if r0 <= 0.0:
        raise DegenerateSignalError("autocorrelation at lag 0 must be positive")

    dtype = complex if is_complex else float
    a = np.zeros(order + 1, dtype=dtype)
    a[0] = 1.0
    energy = r0 * (1.0 + NOISE_FLOOR)
    clamped = False
    for m in range(1, order + 1):
        acc = r[m] + np.dot(a[1:m], r[1:m][::-1])
        k = -acc / energy
        if abs(k) >= 1.0:
            k = REFLECTION_CLAMP * k / abs(k)
            clamped = True
        prev = a[1:m].copy()
        a[1:m] = prev + k * np.conj(prev[::-1])
        a[m] = k
        energy *= (1.0 - abs(k) ** 2)

    coeffs = a[1:] if is_complex else a[1:].real
    return LpModel(order=order, coeffs=coeffs, residual_energy=float(energy), clamped=clamped)


def bandwidth_expand(model, gamma: float):
    """Scale coefficient k by gamma**k, shrinking every pole radius by gamma."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    scaled = model.coeffs * gamma ** np.arange(1, model.order + 1)
    return LpModel(
        order=model.order,
        coeffs=scaled,
        weight=gamma,
        residual_energy=model.residual_energy,
        clamped=model.clamped,
    )


def _poly_roots_max_radius(coeffs) -> float:
    if np.allclose(coeffs, 0.0):
        return 0.0
    roots = np.roots(np.concatenate([[1.0], np.asarray(coeffs)]))
    return float(np.max(np.abs(roots))) if roots.size else 0.0


def lpc_to_lsf(model: LpModel) -> np.ndarray:
    """Convert an even-order minimum-phase model to line spectral frequencies.

    The symmetric/antisymmetric polynomials P and Q are deflated by their
    trivial roots at z = -1 and z = +1; the remaining unit-circle root angles,
    merged and sorted, are the LSFs (strictly increasing in (0, pi)).
    """
    p = model.order
    if p % 2 != 0:
        raise ValueError("LSF conversion requires an even order")
    if _poly_roots_max_radius(model.coeffs) >= 1.0:
        raise ValueError("model is not minimum phase")
    a = np.concatenate([[1.0], np.asarray(model.coeffs, dtype=float)])
    ext = np.concatenate([a, [0.0]])
    psum = ext + ext[::-1]
    qsum = ext - ext[::-1]

    def deflate(poly, sign):
        # divide by (1 + sign * z^-1) via synthetic division
        out = np.empty(poly.size - 1)
        acc = 0.0
        for i in range(poly.size - 1):
            acc = poly[i] - sign * acc
            out[i] = acc
        return out

    pd = deflate(psum, 1.0)
    qd = deflate(qsum, -1.0)
    angles = []
    for poly in (pd, qd):
        roots = np.roots(poly)
        ang = np.angle(roots)
        angles.append(np.sort(ang[(ang > 1e-9) & (ang < np.pi - 1e-9)]))
    lsf = np.sort(np.concatenate(angles))
    if lsf.size != p:
        raise ValueError(f"expected {p} line spectral frequencies, found {lsf.size}")
    return lsf


def lsf_to_lpc(lsf: np.ndarray) -> LpModel:
    """Rebuild the prediction-error filter from strictly increasing LSFs."""
    lsf = np.asarray(lsf, dtype=float)
    p = lsf.size
    if p % 2 != 0:
        raise ValueError("LSF vector length must be even")

    def expand(angles, edge_sign):
        poly = np.array([1.0, edge_sign])
        for w in angles:
            poly = np.convolve(poly, [1.0, -2.0 * np.cos(w), 1.0])
        return poly

    # sorted LSFs alternate between P-roots (even positions) and Q-roots
    psum = expand(lsf[0::2], 1.0)
    qsum = expand(lsf[1::2], -1.0)
    a = 0.5 * (psum + qsum)
    return LpModel(order=p, coeffs=a[1:p + 1])


def quantize_lsf(lsf: np.ndarray, step: float = 0.01 * np.pi) -> np.ndarray:
    """Uniform scalar quantization of each LSF with the given step; returns
    the integer indices."""
    idx = round_half_up(np.asarray(lsf) / step)
    return np.clip(idx, 0, int(round(np.pi / step)))


def dequantize_lsf(indices: np.ndarray, step: float = 0.01 * np.pi,
                   min_gap: float = 1e-3) -> np.ndarray:
    """Reconstruct LSFs from indices, enforcing order and a minimum gap.

    The gap repair keeps the decoded model minimum phase even when rounding
    collapses neighboring frequencies.
    """
    lsf = np.asarray(indices, dtype=float) * step
    p = lsf.size
    for i in range(p - 1, -1, -1):
        ub = np.pi - min_gap * (p - i)
        if lsf[i] > ub:
            lsf[i] = ub
    prev = 0.0
    for i in range(p):
        if lsf[i] < prev + min_gap:
            lsf[i] = prev + min_gap
        prev = lsf[i]
    return lsf


def quantize_complex_lpc(model: LpModel, mag_step_db: float = 0.5,
                         mag_floor_db: float = -60.0, mag_ceil_db: float = 20.0,
                         phase_cells: int = 64) -> np.ndarray:
    """Per-coefficient polar scalar quantization of a complex model.

    Magnitudes are quantized on a uniform dB grid anchored at ``mag_floor_db``
    (index -1 is the zero cell for anything below the floor); phases are
    quantized uniformly.  Indices come back as an (order, 2) array.
    """
    n_mag = int(round((mag_ceil_db - mag_floor_db) / mag_step_db))
    out = np.zeros((model.order, 2), dtype=int)
    for i, c in enumerate(np.asarray(model.coeffs, dtype=complex)):
        mag = abs(c)
        if mag <= 0.0 or 20.0 * np.log10(mag) < mag_floor_db:
            out[i] = (-1, 0)
            continue
        mag_db = 20.0 * np.log10(mag)
        mi = int(np.clip(round_half_up((mag_db - mag_floor_db) / mag_step_db), 0, n_mag))
        pi_ = int(np.floor((wrap_phase(np.angle(c)) + np.pi) * phase_cells / (2.0 * np.pi))) % phase_cells
        out[i] = (mi, pi_)
    return out


def dequantize_complex_lpc(indices: np.ndarray, mag_step_db: float = 0.5,
                           mag_floor_db: float = -60.0, phase_cells: int = 64,
                           order: int | None = None) -> LpModel:
    """Rebuild the complex model from cell centers, with a stability guard.

    Quantization can push a pole of a marginally stable model onto or over
    the unit circle; the guard contracts such a model so the inverse filter
    is safe to run.  Encoder and decoder both reconstruct through this
    function, so they always agree on the filter actually applied.
    """
    idx = np.asarray(indices, dtype=int)
    p = order if order is not None else idx.shape[0]
    coeffs = np.zeros(p, dtype=complex)
    for i in range(p):
        mi, pi_ = idx[i]
        if mi < 0:
            continue
        mag = 10.0 ** ((mag_floor_db + mi * mag_step_db) / 20.0)
        theta = -np.pi + (pi_ + 0.5) * 2.0 * np.pi / phase_cells
        coeffs[i] = mag * np.exp(1j * theta)
    # quantization scatter can push poles of a marginal model toward or over
    # the unit circle, and the decoder-side inverse filter would resonate on
    # quantization noise; contract such models back near the radius the
    # bandwidth-expanded analysis produces.  Scaling a_k by gamma**k scales
    # every root by gamma, so one contraction puts the largest at 0.92
    radius = _poly_roots_max_radius(coeffs)
    if radius > 0.96:
        coeffs = coeffs * (0.92 / radius) ** np.arange(1, p + 1)
    return LpModel(order=p, coeffs=coeffs)


@functools.lru_cache(maxsize=8)
def _steering(n_bins: int, order: int) -> np.ndarray:
    """exp(-j omega k) for the bins of a 2(n_bins-1) DFT and lags 1..order."""
    omega = 2.0 * np.pi * np.arange(n_bins) / (2 * (n_bins - 1))
    steering = np.exp(-1j * np.outer(omega, np.arange(1, order + 1)))
    steering.flags.writeable = False  # one cached array serves every caller
    return steering


def frequency_envelope(model, n_bins: int = 513) -> FrequencyEnvelope:
    """Evaluate 1/|A| on the one-sided bin grid of a 2(n_bins-1) DFT."""
    a_eval = 1.0 + _steering(n_bins, model.order) @ np.asarray(model.coeffs)
    mag = np.abs(a_eval)
    values = np.where(mag < 1e-12, 1e12, 1.0 / np.where(mag < 1e-12, 1.0, mag))
    return FrequencyEnvelope(values=values, values_db=20.0 * np.log10(values))
