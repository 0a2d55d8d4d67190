"""Framing, tapered windowing, overlap-add, and the MDCT block transform.

The analysis window is a raised-cosine taper with a flat middle.  Only the
analysis side is windowed; synthesis is plain overlap-add, which reconstructs
exactly because the rising and falling tapers of adjacent frames sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_FRAME_LEN = 1024
DEFAULT_OVERLAP_LEN = 256


DEFAULT_EDGE = 0.15


@dataclass(frozen=True)
class WindowSpec:
    """Frame geometry plus the taper's edge value.

    ``edge`` is the window height at the very first and last sample.  A
    strictly positive edge keeps the frame from carrying a fake attack/decay
    envelope of its own, which would otherwise leak into the temporal
    prediction gain of every frame.
    """

    frame_len: int = DEFAULT_FRAME_LEN
    overlap_len: int = DEFAULT_OVERLAP_LEN
    edge: float = DEFAULT_EDGE

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


@dataclass
class AnalysisFrame:
    """One windowed block of time-domain audio."""

    index: int
    samples: np.ndarray


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


def frame_signal(pcm: np.ndarray, spec: WindowSpec) -> list[AnalysisFrame]:
    """Split a signal into hop-advanced windowed frames.

    The final frame is zero-padded so the whole signal is covered; an empty
    input yields an empty list.
    """
    pcm = np.asarray(pcm, dtype=float)
    n, hop = spec.frame_len, spec.hop
    w = make_window(spec)
    frames = []
    for k in range(frame_count(pcm.size, spec)):
        start = k * hop
        chunk = pcm[start:start + n]
        if chunk.size < n:
            chunk = np.concatenate([chunk, np.zeros(n - chunk.size)])
        frames.append(AnalysisFrame(index=k, samples=chunk * w))
    return frames


def overlap_add(frames: list[np.ndarray], spec: WindowSpec, length: int | None = None) -> np.ndarray:
    """Plain overlap-add of time-domain frame contributions at the frame hop."""
    if not frames:
        return np.zeros(0)
    n, hop = spec.frame_len, spec.hop
    total = (len(frames) - 1) * hop + n
    out = np.zeros(total)
    for k, fr in enumerate(frames):
        out[k * hop:k * hop + n] += fr
    if length is not None:
        out = out[:length]
    return out


def sine_window(n: int) -> np.ndarray:
    """Half-sine window of length n; TDAC-compliant for 50% overlap MDCT."""
    return np.sin(np.pi * (np.arange(n) + 0.5) / n)


_MDCT_BASIS: dict[int, np.ndarray] = {}


def _mdct_basis(half: int) -> np.ndarray:
    basis = _MDCT_BASIS.get(half)
    if basis is None:
        n = np.arange(2 * half)[:, None]
        k = np.arange(half)[None, :]
        basis = np.cos(np.pi / half * (n + 0.5 + half / 2.0) * (k + 0.5))
        _MDCT_BASIS[half] = basis
    return basis


def mdct(x: np.ndarray, window: np.ndarray | None = None) -> np.ndarray:
    """MDCT of one 2N-sample block to N real coefficients."""
    x = np.asarray(x, dtype=float)
    if x.size % 2 != 0:
        raise ValueError("MDCT input length must be even")
    if window is not None:
        x = x * window
    half = x.size // 2
    return x @ _mdct_basis(half)


def imdct(coeffs: np.ndarray, window: np.ndarray | None = None) -> np.ndarray:
    """Inverse MDCT back to one 2N-sample block (aliased until overlap-added)."""
    coeffs = np.asarray(coeffs, dtype=float)
    half = coeffs.size
    y = (2.0 / half) * (_mdct_basis(half) @ coeffs)
    if window is not None:
        y = y * window
    return y
