"""Polyphase windowed-sinc resampling to the 12.8 kHz core rate."""

from __future__ import annotations

import math

import numpy as np

CORE_RATE = 12800
TAPS_PER_PHASE = 64
KAISER_BETA = 8.0


def resample_to_core(pcm: np.ndarray, in_rate: int) -> np.ndarray:
    """Rational-ratio resampling with a Kaiser-windowed sinc prototype.

    The prototype has odd length so its group delay is an integer number of
    upsampled samples, letting the output align exactly with the input time
    grid.  Each polyphase branch is normalized to unit DC gain.
    """
    if not 8000 <= in_rate <= 48000:
        raise ValueError(f"unsupported input rate {in_rate}")
    pcm = np.asarray(pcm, dtype=float)
    if in_rate == CORE_RATE or pcm.size == 0:
        return pcm.copy()

    g = math.gcd(in_rate, CORE_RATE)
    up, down = CORE_RATE // g, in_rate // g
    n_taps = TAPS_PER_PHASE * up + 1
    center = (n_taps - 1) // 2  # = 32 * up
    cutoff = min(1.0 / up, 1.0 / down)  # fraction of the upsampled Nyquist
    k = np.arange(n_taps) - center
    proto = cutoff * np.sinc(cutoff * k) * np.kaiser(n_taps, KAISER_BETA)

    # branch p holds taps p, p+up, p+2*up, ... ; lengths differ by at most one
    max_len = (n_taps + up - 1) // up
    branches = np.zeros((up, max_len))
    for p in range(up):
        taps = proto[p::up]
        s = taps.sum()
        branches[p, :taps.size] = taps / s if abs(s) > 1e-12 else taps

    n_out = int(math.ceil(pcm.size * up / down))
    pad = max_len + 1
    padded = np.concatenate([np.zeros(pad), pcm, np.zeros(pad + max_len)])
    out = np.empty(n_out)
    n = np.arange(n_out)
    m = n * down + center  # upsampled-domain tap anchor, delay compensated
    base = m // up + pad
    phase = m % up
    offsets = np.arange(max_len)
    for p in range(up):
        sel = np.nonzero(phase == p)[0]
        if sel.size == 0:
            continue
        idx = base[sel][:, None] - offsets[None, :]
        out[sel] = padded[idx] @ branches[p]
    return out
