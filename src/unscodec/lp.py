"""Linear prediction: autocorrelation, Levinson-Durbin (real and complex),
bandwidth expansion, LSF conversion, envelope evaluation, and the scalar
quantizers for both LPC parameter sets.

Each function also takes a stack of inputs along the last axis, one per row,
and gives every row exactly, bit for bit, what a call on that row gives.
"""

from __future__ import annotations

import functools

import numpy as np

from .polar_quant import dequantize_phase, quantize_phase
from .util import round_half_up

# Relative white-noise floor mixed into r[0] before the recursion; keeps
# near-silent frames from producing singular steps.
NOISE_FLOOR = 1e-9
REFLECTION_CLAMP = 0.999


class DegenerateSignalError(ValueError):
    """Raised when the lag-0 autocorrelation is not strictly positive."""


def autocorr(x, max_lag: int) -> np.ndarray:
    """Autocorrelation r[k] = sum_t x[t] conj(x[t-k]) for k = 0..max_lag, per row; each lag
    is one ``np.matmul`` of 1 x m by m x 1 products, the BLAS dot ``np.dot`` takes for a row,
    against the rows conjugated once per call."""
    x = np.asarray(x)
    n = x.shape[-1]
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} must be below signal length {n}")
    rows = x.reshape(-1, n)
    conj = np.conj(rows)
    r = [np.matmul(rows[:, None, k:], conj[:, :n - k, None])[:, 0, 0] for k in range(max_lag + 1)]
    return np.stack(r, axis=-1).reshape(x.shape[:-1] + (max_lag + 1,))


def levinson(r, order: int) -> np.ndarray:
    """Levinson-Durbin recursion on a (Hermitian) autocorrelation sequence.

    Returns the coefficients a_1..a_order of the prediction-error filter
    A(z) = 1 + sum a_k z^-k, shaped (..., order), complex exactly when ``r`` is.
    Reflection coefficients with magnitude >= 1 (near-singular steps) are
    scaled back to magnitude REFLECTION_CLAMP.  Each order's inner product is
    one stacked ``np.matmul`` against a contiguous copy of the reversed lags,
    the BLAS dot ``np.dot`` takes for a row, and |k|, |k|**2 are a scalar's
    (hypot, libm pow; numpy's array forms round apart).
    """
    r = np.asarray(r)
    if order >= r.shape[-1]:
        raise ValueError("order must be below len(r)")
    rows = r.reshape(-1, r.shape[-1])
    if np.any(rows[:, 0].real <= 0.0):
        raise DegenerateSignalError("autocorrelation at lag 0 must be positive")

    dtype = complex if np.iscomplexobj(r) else float
    a = np.zeros((len(rows), order + 1), dtype=dtype)
    a[:, 0] = 1.0
    energy = rows[:, 0].real * (1.0 + NOISE_FLOOR)
    for m in range(1, order + 1):
        history = np.ascontiguousarray(rows[:, m - 1:0:-1])
        acc = rows[:, m] + np.matmul(a[:, None, 1:m], history[:, :, None])[:, 0, 0]
        k = -acc / energy
        mag = np.hypot(k.real, k.imag)
        over = mag >= 1.0
        k[over] = REFLECTION_CLAMP * k[over] / mag[over]
        mag[over] = np.hypot(k[over].real, k[over].imag)
        prev = a[:, 1:m].copy()
        a[:, 1:m] = prev + k[:, None] * np.conj(prev[:, ::-1])
        a[:, m] = k
        energy = energy * (1.0 - np.array([x ** 2 for x in mag.tolist()]))
    return a[:, 1:].reshape(r.shape[:-1] + (order,))


def bandwidth_expand(coeffs: np.ndarray, gamma: float) -> np.ndarray:
    """Scale coefficient k by gamma**k, shrinking every pole radius by gamma."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    return coeffs * gamma ** np.arange(1, np.shape(coeffs)[-1] + 1)


def fit(x, order: int, gamma: float = 1.0) -> np.ndarray:
    """The LP model of each row of a (rows, n) stack, bandwidth-expanded by ``gamma``:
    (rows, order) coefficients, all zero for a silent row."""
    r = autocorr(x, order)
    live = r[:, 0].real > 1e-30
    coeffs = np.zeros((len(r), order), dtype=r.dtype)
    coeffs[live] = bandwidth_expand(levinson(r[live], order), gamma)
    return coeffs


def _roots(polys: np.ndarray) -> np.ndarray:
    """``np.roots`` of each row of (rows, n) polynomials with nonzero leading coefficients,
    as (rows, n - 1) complex roots: trailing zero coefficients are stripped and their roots
    returned as 0, then each remaining degree is one batched ``eigvals`` of companions."""
    rows, n = polys.shape
    degree = n - 1 - np.argmax(polys[:, ::-1] != 0, axis=1)
    roots = np.zeros((rows, n - 1), dtype=complex)
    for d in set(degree[degree > 0].tolist()):  # np.unique would import numpy.ma
        sel = np.flatnonzero(degree == d)
        companion = np.zeros((sel.size, d, d), dtype=polys.dtype)
        companion[:, 1:, :-1] = np.eye(d - 1)
        companion[:, 0, :] = -polys[sel, 1:d + 1] / polys[sel, :1]
        roots[sel, :d] = np.linalg.eigvals(companion)
    return roots


def _max_root_radius(rows: np.ndarray) -> np.ndarray:
    """Largest root magnitude of 1 + sum c_k z^-k per row."""
    radius = np.abs(_roots(np.concatenate([np.ones((len(rows), 1)), rows], axis=1)))
    return radius.max(axis=1, initial=0.0)


def _undecided(rows: np.ndarray, rho: float) -> np.ndarray:
    """Indices of the rows of 1 + sum c_k z^-k that the step-down (Schur-Cohn) recursion does not
    clear: a cleared row's model, scaled to radius rho * (1 - 1e-6), has every reflection
    coefficient |k_m| < 1, so every root inside (Markel and Gray, 1976); NaN or inf clears none."""
    p = rows.shape[1]
    cleared = np.ones(len(rows), dtype=bool)
    with np.errstate(all="ignore"):
        a = rows / (rho * (1.0 - 1e-6)) ** np.arange(1, p + 1)
        for m in range(p, 0, -1):
            k = a[:, m - 1:m]
            mag2 = np.abs(k) ** 2
            cleared &= mag2[:, 0] < 1.0
            prev = a[:, :m - 1]
            a = (prev - k * np.conj(prev[:, ::-1])) / (1.0 - mag2)
    return np.flatnonzero(~cleared)


LSF_GRID, LSF_NEWTON_STEPS, LSF_MARGIN = 128, 4, 1e-12  # see lpc_to_lsf


@functools.lru_cache(maxsize=8)
def _cosine_table(m: int) -> np.ndarray:
    """2 cos kw for k = m..1, then 1, on the grid w = 0..pi: d_0..d_m times it is lpc_to_lsf's F."""
    table = np.cos(np.outer(np.arange(m, -1, -1), np.linspace(0.0, np.pi, LSF_GRID + 1)))
    table[:-1] *= 2.0
    table.flags.writeable = False
    return table


def lpc_to_lsf(coeffs: np.ndarray, step: float) -> np.ndarray:
    """Convert an even-order minimum-phase model to line spectral frequencies.

    P and Q, deflated by their trivial roots at z = -1 and +1, are palindromic: on the unit circle
    each is F(w) = d_m + 2 sum_k d_(m-k) cos kw, m = order / 2, and their roots in (0, pi), merged
    and sorted, are the LSFs.  F's sign changes on LSF_GRID intervals of [0, pi] bracket the roots;
    LSF_NEWTON_STEPS Newton steps in x = cos w refine them from the brackets' secant roots (Kabal
    and Ramachandran, 1986).  A row takes ``eigvals`` roots instead unless each F changes sign m
    times and every root converges (last step below 1e-12) inside its bracket and (1e-9, pi - 1e-9),
    LSF_MARGIN * (1 + its condition number) radians or more from every rounding boundary
    (k + 1/2) * ``step``; the two root finders part by some eps times that condition number."""
    coeffs = np.asarray(coeffs, dtype=float)
    p, m = coeffs.shape[-1], coeffs.shape[-1] // 2
    if p % 2 != 0:
        raise ValueError("LSF conversion requires an even order")
    rows = coeffs.reshape(-1, p)
    if not np.all(np.isfinite(rows)):
        raise ValueError("model coefficients must be finite")
    if np.any(_max_root_radius(rows[_undecided(rows, 1.0)]) >= 1.0):
        raise ValueError("model is not minimum phase")
    ext = np.concatenate([np.ones((len(rows), 1)), rows, np.zeros((len(rows), 1))], axis=1)
    sign = np.array([[1.0], [-1.0]])
    alt = (-sign) ** np.arange(p + 1)  # P, Q over (1 + sign z^-1): d_i = p_i - sign d_(i-1)
    d = alt * np.cumsum(alt * (ext[:, None, :-1] + sign * ext[:, None, :0:-1]), axis=-1)
    table = _cosine_table(m)
    f = np.einsum("rsk,kg->rsg", d[..., :m + 1], table)  # gemm would keep 0.3 MB of buffer
    change = np.diff(f < 0.0, axis=-1)
    fast = np.all(np.count_nonzero(change, axis=-1) == m, axis=1)
    j = np.nonzero(change[fast])[-1].reshape(-1, 2, m)  # each polynomial's brackets, in order
    lo, hi, d2 = table[-2, j + 1] / 2, table[-2, j] / 2, 2.0 * d[fast, :, :m + 1, None]
    f_lo, f_hi = np.take_along_axis(f[fast], j + 1, -1), np.take_along_axis(f[fast], j, -1)
    with np.errstate(all="ignore"):  # a degenerate row's non-finite values only fail the checks
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        for _ in range(LSF_NEWTON_STEPS):  # Clenshaw sums: b for F, h for dF/dx halved
            x2, b1, b2, h1, h2 = 2.0 * x, 0.0, 0.0, 0.0, 0.0
            for k in range(m):
                b1, b2, h1, h2 = x2 * b1 - b2 + d2[:, :, k], b1, x2 * h1 - h2 + b1, h1
            slope = b1 + x2 * h1 - 2.0 * h2
            dx = (0.5 * d2[:, :, m] + x * b1 - b2) / slope
            x = x - dx
        w = np.arccos(x)  # each root's condition number: sum |d_i| / |dF/dw|
        cond = np.abs(d[fast]).sum(axis=-1, keepdims=True) / np.abs(slope * np.sin(w))
        near = np.abs(w / step % 1.0 - 0.5) * step < LSF_MARGIN * (1.0 + cond)
        lsf = np.full((len(rows), p), np.nan)
        lsf[fast] = np.sort(w.reshape(-1, p), axis=1)
        fast[fast] = np.all((lo <= x) & (x <= hi) & (np.abs(dx) < 1e-12) & ~near, axis=(1, 2))
        fast &= np.all((lsf > 1e-9) & (lsf < np.pi - 1e-9), axis=1)
    ang = np.angle(_roots(d[~fast].reshape(-1, p + 1))).reshape(-1, 2 * p)
    inside = (ang > 1e-9) & (ang < np.pi - 1e-9)
    found = np.count_nonzero(inside, axis=1)
    if np.any(found != p):
        raise ValueError(f"expected {p} line spectral frequencies, found {found[found != p][0]}")
    lsf[~fast] = np.sort(np.where(inside, ang, np.inf), axis=1)[:, :p]
    return lsf.reshape(coeffs.shape)


def lsf_to_lpc(lsf: np.ndarray) -> np.ndarray:
    """Rebuild the prediction-error filter from strictly increasing LSFs."""
    lsf = np.asarray(lsf, dtype=float)
    p = lsf.shape[-1]
    if p % 2 != 0:
        raise ValueError("LSF vector length must be even")
    # sorted LSFs alternate between P-roots (even positions) and Q-roots; P and
    # Q grow together by 1 - 2cos(w) z^-1 + z^-2 per root, each output summed
    # as np.convolve sums it: poly[m-2] + c*poly[m-1] + poly[m]
    c = -2.0 * np.cos(np.stack([lsf[..., 0::2], lsf[..., 1::2]], axis=-2))
    poly = np.zeros(lsf.shape[:-1] + (2, p + 4))
    poly[..., 2] = 1.0
    poly[..., 3] = (1.0, -1.0)
    for j in range(p // 2):
        n = 2 * j + 4  # the poly's length after this root
        poly[..., 2:n + 2] = (poly[..., :n] + c[..., j, None] * poly[..., 1:n + 1]
                              + poly[..., 2:n + 2])
    a = 0.5 * (poly[..., 0, 2:] + poly[..., 1, 2:])
    return a[..., 1:p + 1]


def lsf_index_max(step: float) -> int:
    """The largest LSF index, the one pi quantizes to: indices run 0..this."""
    return int(round(np.pi / step))


def quantize_lsf(lsf: np.ndarray, step: float) -> np.ndarray:
    """Uniform scalar quantization of each LSF with the given step; returns
    the integer indices."""
    idx = round_half_up(np.asarray(lsf) / step)
    return np.clip(idx, 0, lsf_index_max(step))


def lsf_indices(coeffs: np.ndarray, step: float) -> np.ndarray:
    """A model's coded LSF indices, one ``step`` for the quantizer and lpc_to_lsf's margin."""
    return quantize_lsf(lpc_to_lsf(coeffs, step), step)


def dequantize_lsf(indices: np.ndarray, step: float, min_gap: float) -> np.ndarray:
    """Reconstruct LSFs from indices, enforcing order and a minimum gap.

    The gap repair keeps the decoded model minimum phase even when rounding
    collapses neighboring frequencies.
    """
    p = np.shape(indices)[-1]
    lsf = np.minimum(np.asarray(indices, dtype=float) * step,
                     np.pi - min_gap * np.arange(p, 0, -1))
    floor = np.concatenate([np.zeros(lsf.shape[:-1] + (1,)), lsf[..., :-1]], axis=-1) + min_gap
    if np.any(lsf < floor):  # a gap to repair: raise each LSF above its repaired neighbor
        prev = 0.0
        for i in range(p):
            lsf[..., i] = np.maximum(lsf[..., i], prev + min_gap)
            prev = lsf[..., i]
    return lsf


def clpc_mag_index_max(mag_step_db: float, mag_floor_db: float, mag_ceil_db: float) -> int:
    """The largest CLPC magnitude index, the ceiling's dB-grid cell (-1 is the zero cell)."""
    return int(round((mag_ceil_db - mag_floor_db) / mag_step_db))


def quantize_complex_lpc(coeffs: np.ndarray, mag_step_db: float, mag_floor_db: float,
                         mag_ceil_db: float, phase_cells: int) -> np.ndarray:
    """Per-coefficient polar scalar quantization of a complex model.

    Magnitudes are quantized on a uniform dB grid anchored at ``mag_floor_db``
    (index -1 is the zero cell for anything below the floor); phases go
    through ``quantize_phase``.  Indices come back as an (..., order, 2) array.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    mag = np.hypot(coeffs.real, coeffs.imag)  # a scalar's abs(); the array abs rounds apart
    mag_db = 20.0 * np.log10(np.where(mag > 0.0, mag, 1.0))
    zero = (mag <= 0.0) | (mag_db < mag_floor_db)
    mi = np.clip(round_half_up((mag_db - mag_floor_db) / mag_step_db), 0,
                 clpc_mag_index_max(mag_step_db, mag_floor_db, mag_ceil_db))
    pi_ = quantize_phase(np.angle(coeffs), phase_cells)
    return np.stack([np.where(zero, -1, mi), np.where(zero, 0, pi_)], axis=-1)


def clpc_table_size(largest_index: int) -> int:
    """Cells in the CLPC table for indices up to ``largest_index``, padded to share caches."""
    return 256 * (largest_index // 256 + 1)


def clpc_magnitude(mag_step_db: float, mag_floor_db: float, cell: np.number):
    """CLPC cell ``cell``'s magnitude by numpy scalar power; inf past the float range."""
    return 10.0 ** ((mag_floor_db + cell * mag_step_db) / 20.0)


@functools.lru_cache(maxsize=8)
def _clpc_cells(mag_step_db: float, mag_floor_db: float, phase_cells: int, size: int):
    """Magnitudes and phasors of CLPC cells 0..size-1 by scalar power and exp (arrays differ)."""
    cells = np.arange(size)
    mags = np.array([clpc_magnitude(mag_step_db, mag_floor_db, mi) for mi in cells])
    phasors = np.array([np.exp(1j * t) for t in dequantize_phase(cells, phase_cells)])
    mags.flags.writeable = phasors.flags.writeable = False
    return mags, phasors


def dequantize_complex_lpc(indices: np.ndarray, mag_step_db: float, mag_floor_db: float,
                           phase_cells: int) -> np.ndarray:
    """Rebuild the complex model from cell centers, with a stability guard.

    Quantization can push a pole of a marginally stable model onto or over
    the unit circle; the guard contracts such a model so the inverse filter
    is safe to run.  Encoder and decoder both reconstruct through this
    function, so they always agree on the filter actually applied.
    """
    idx = np.asarray(indices, dtype=int)
    p = idx.shape[-2]
    mi, pi_ = idx[..., 0], idx[..., 1]
    zero = mi < 0
    mags, phasors = _clpc_cells(mag_step_db, mag_floor_db, phase_cells,
                                clpc_table_size(int(idx.max(initial=0))))
    coeffs = np.where(zero, 0.0, mags[np.where(zero, 0, mi)] * phasors[np.where(zero, 0, pi_)])
    # quantization scatter can push poles of a marginal model toward or over
    # the unit circle, and the decoder-side inverse filter would resonate on
    # quantization noise; contract such models back near the radius the
    # bandwidth-expanded analysis produces.  Scaling a_k by gamma**k scales
    # every root by gamma, so one contraction puts the largest at 0.92
    rows = coeffs.reshape(-1, p)
    sel = _undecided(rows, 0.96)
    radius = _max_root_radius(rows[sel])
    wild = radius > 0.96
    rows[sel[wild]] = rows[sel[wild]] * (0.92 / radius[wild, None]) ** np.arange(1, p + 1)
    return coeffs


@functools.lru_cache(maxsize=8)
def _steering(n_bins: int, order: int) -> np.ndarray:
    """exp(-j omega k) for the bins of a 2(n_bins-1) DFT and lags 1..order."""
    omega = 2.0 * np.pi * np.arange(n_bins) / (2 * (n_bins - 1))
    steering = np.exp(-1j * np.outer(omega, np.arange(1, order + 1)))
    steering.flags.writeable = False  # one cached array serves every caller
    return steering


def frequency_envelope(coeffs: np.ndarray, n_bins: int) -> np.ndarray:
    """Evaluate 1/|A| on the one-sided bin grid of a 2(n_bins-1) DFT, as one
    matrix-vector product per row; capped at 1e12 where |A| is near zero."""
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)  # strided or real: slow matmul
    a_eval = (_steering(n_bins, coeffs.shape[-1]) @ coeffs[..., None])[..., 0]
    a_eval += 1.0
    mag = np.abs(a_eval)
    return np.divide(1.0, mag, out=np.full(mag.shape, 1e12), where=~(mag < 1e-12))
