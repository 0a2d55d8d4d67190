"""Framing, tapered windowing, overlap-add, and the MDCT block transform.

The analysis window is a raised-cosine taper with a flat middle.  Only the
analysis side is windowed; synthesis is plain overlap-add, which reconstructs
exactly because the rising and falling tapers of adjacent frames sum to one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class WindowSpec:
    """Frame geometry plus the taper's edge value.

    ``edge`` is the window height at the very first and last sample.  A
    strictly positive edge keeps the frame from carrying a fake attack/decay
    envelope of its own, which would otherwise leak into the temporal
    prediction gain of every frame.
    """

    frame_len: int
    overlap_len: int
    edge: float

    def __post_init__(self):
        if self.frame_len <= 0 or self.overlap_len <= 0:
            raise ValueError("frame_len and overlap_len must be positive")
        if 2 * self.overlap_len > self.frame_len:
            raise ValueError(
                f"overlap_len {self.overlap_len} exceeds half of frame_len {self.frame_len}"
            )
        if not 0.0 <= self.edge < 0.5:
            raise ValueError("edge must lie in [0, 0.5)")

    @property
    def hop(self) -> int:
        return self.frame_len - self.overlap_len


def make_window(spec: WindowSpec) -> np.ndarray:
    """Build the raised-cosine tapered window.

    The rise spans [edge, 1 - edge] on a half-sample grid, the middle is flat
    one, and the fall mirrors the rise; adjacent frames therefore satisfy
    w[i] + w[hop + i] = 1 over the overlap with no zero-valued sides.
    """
    n, ov = spec.frame_len, spec.overlap_len
    i = np.arange(ov)
    rise = spec.edge + (1.0 - 2.0 * spec.edge) * (0.5 - 0.5 * np.cos(np.pi * (i + 0.5) / ov))
    w = np.ones(n)
    w[:ov] = rise
    w[n - ov:] = rise[::-1]
    return w


def frame_count(n_samples: int, spec: WindowSpec) -> int:
    """Frames needed to cover ``n_samples`` samples; none for an empty signal."""
    if n_samples == 0:
        return 0
    return max(0, -(-(n_samples - spec.frame_len) // spec.hop)) + 1


def frame_signal(pcm: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """The signal's hop-advanced windowed frames, one row each of a
    (frames, frame_len) stack.

    The final frame is zero-padded so the whole signal is covered; an empty
    input yields no rows.  Each row is its samples times the window,
    elementwise.
    """
    pcm = np.asarray(pcm, dtype=float)
    n, count = spec.frame_len, frame_count(pcm.size, spec)
    padded = np.zeros(max(count - 1, 0) * spec.hop + n)
    padded[:pcm.size] = pcm
    return sliding_window_view(padded, n)[::spec.hop][:count] * make_window(spec)


def overlap_add(frames: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """Plain overlap-add of the rows of a (frames, frame_len) stack at the frame hop.

    Each sample adds at most two rows, the earlier row's tail before the later
    row's head, as a loop over the rows would.
    """
    frames = np.reshape(frames, (-1, spec.frame_len))
    hop, count = spec.hop, len(frames)
    out = np.zeros((count + 1, hop))  # row k holds samples k * hop ... (k + 1) * hop - 1
    out[1:, :spec.overlap_len] += frames[:, hop:]
    out[:-1] += frames[:, :hop]
    total = count * hop + spec.overlap_len if count else 0
    return out.ravel()[:total]


def sine_window(n: int) -> np.ndarray:
    """Half-sine window of length n; TDAC-compliant for 50% overlap MDCT."""
    return np.sin(np.pi * (np.arange(n) + 0.5) / n)


@functools.lru_cache(maxsize=8)
def _mdct_basis(half: int) -> np.ndarray:
    n = np.arange(2 * half)[:, None]
    k = np.arange(half)[None, :]
    basis = np.cos(np.pi / half * (n + 0.5 + half / 2.0) * (k + 0.5))
    basis.flags.writeable = False  # one cached array serves every caller
    return basis


def mdct(x: np.ndarray) -> np.ndarray:
    """MDCT of a 2N-sample block to N real coefficients, along the last axis."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2 != 0:
        raise ValueError("MDCT input length must be even")
    return x @ _mdct_basis(x.shape[-1] // 2)


def imdct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse MDCT to a 2N-sample block, aliased until overlap-added, along the last axis."""
    coeffs = np.asarray(coeffs, dtype=float)
    half = coeffs.shape[-1]
    return (2.0 / half) * (coeffs @ _mdct_basis(half).T)
