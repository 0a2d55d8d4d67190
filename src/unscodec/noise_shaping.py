"""Spectral and temporal noise shaping on the one-sided DFT.

FDNS divides the spectrum by the reconstructed frequency envelope (the decoder
multiplies back); CTNS runs a complex prediction-error filter along the
frequency axis above a start bin, with the decision to engage it driven by the
measured prediction gain.  Both sides take stacks, one row each.
"""

from __future__ import annotations

import numpy as np

GAIN_FLOOR_DB = -100.0
GAIN_CEIL_DB = 20.0


def fdns_forward(bins: np.ndarray, env_values: np.ndarray) -> np.ndarray:
    """Divide each bin by the (strictly positive) envelope value."""
    env = np.asarray(env_values, dtype=float)
    if np.any(env <= 0.0):
        raise ValueError("envelope must be strictly positive")
    return np.asarray(bins) / env


def fdns_inverse(bins: np.ndarray, env_values: np.ndarray) -> np.ndarray:
    """Multiply each bin by the envelope value (decoder side of FDNS)."""
    env = np.asarray(env_values, dtype=float)
    if np.any(env <= 0.0):
        raise ValueError("envelope must be strictly positive")
    return np.asarray(bins) * env


def prediction_error_filter(x: np.ndarray, coeffs: np.ndarray, start: int, stop: int) -> np.ndarray:
    """FIR e[f] = x[f] + sum_k a_k x[f-k] for f in [start, stop]; copy elsewhere.

    History taps below the start index read from the unfiltered input, and
    taps before index 0 are treated as zero.
    """
    x = np.asarray(x)
    a = np.asarray(coeffs)
    e = x.copy()
    for k in range(1, a.shape[-1] + 1):
        lo = max(start, k)
        if lo > stop:
            continue
        e[..., lo:stop + 1] += a[..., k - 1, None] * x[..., lo - k:stop + 1 - k]
    return e


def inverse_prediction_filter(e: np.ndarray, coeffs: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Recursive inverse of :func:`prediction_error_filter` over [start, stop].

    A stack recurses once over the bins, updating every row per step.  Each
    row's sum is one BLAS dot of its taps against its reversed history, as
    ``np.dot`` rounds one row's, so the rows are kept reversed to make that
    history a contiguous slice.
    """
    a = np.asarray(coeffs)[..., None, :]
    y = np.asarray(e)[..., ::-1].copy()  # bin f at y[..., n - 1 - f]
    n, p = y.shape[-1], a.shape[-1]
    for f in range(start, stop + 1):
        lo = max(0, f - p)
        y[..., n - 1 - f] -= np.matmul(a[..., :f - lo], y[..., n - f:n - lo, None])[..., 0, 0]
    return y[..., ::-1].copy()


def ctns_filter(res: np.ndarray, coeffs: np.ndarray, start_bin: int) -> np.ndarray:
    """Complex prediction-error filtering along frequency.

    Operates on a one-sided spectrum; the last bin (Nyquist) always passes
    through untouched and bins below ``start_bin`` serve only as history.
    """
    return prediction_error_filter(res, coeffs, start_bin, np.shape(res)[-1] - 2)


def ctns_unfilter(filtered: np.ndarray, coeffs: np.ndarray, start_bin: int) -> np.ndarray:
    """Inverse CTNS filtering (decoder side)."""
    return inverse_prediction_filter(filtered, coeffs, start_bin, np.shape(filtered)[-1] - 2)


def prediction_gain(x_fd: np.ndarray, x_ct: np.ndarray, start_bin: int,
                    threshold_db: float):
    """Energy ratio of the predicted component against the unfiltered residual,
    as (gain_db, active).

    G = 10 log10( sum |x_fd - x_ct|^2 / sum |x_fd|^2 ) over the filtered bins;
    the filter engages when G exceeds the threshold.  Degenerate frames
    (silent band, or nothing predicted) clamp to the floor and stay inactive.
    """
    x_fd, x_ct = np.asarray(x_fd), np.asarray(x_ct)
    if x_fd.shape[-1] != x_ct.shape[-1]:
        raise ValueError("residual sequences must have equal length")
    fd, ct = x_fd[..., start_bin:-1], x_ct[..., start_bin:-1]
    den = np.sum(np.abs(fd) ** 2, axis=-1)
    num = np.sum(np.abs(fd - ct) ** 2, axis=-1)
    live = ~((den <= 0.0) | (num <= 0.0))
    ratio = np.where(live, num, 1.0) / np.where(live, den, 1.0)
    gain = np.where(live, np.clip(10.0 * np.log10(ratio), GAIN_FLOOR_DB, GAIN_CEIL_DB),
                    GAIN_FLOOR_DB)
    return gain, live & (gain > threshold_db)
