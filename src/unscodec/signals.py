"""Deterministic synthetic test signals.

Everything the metrics, experiments, and acceptance tests need is generated
here from fixed seeds at the core rate, so no recorded material ships with the repo.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .resample import CORE_RATE


def tone(freq_hz: float, seconds: float, amp: float = 0.5) -> np.ndarray:
    t = np.arange(int(seconds * CORE_RATE)) / CORE_RATE
    return amp * np.sin(2.0 * np.pi * freq_hz * t)


def harmonic_tone(f0_hz: float, seconds: float, n_partials: int = 8,
                  vibrato_hz: float = 5.0) -> np.ndarray:
    """Sustained harmonic note with mild vibrato; music-like sustained content."""
    n = int(seconds * CORE_RATE)
    t = np.arange(n) / CORE_RATE
    phase = 2.0 * np.pi * f0_hz * (t + 0.002 * np.sin(2.0 * np.pi * vibrato_hz * t) / vibrato_hz)
    x = np.zeros(n)
    for k in range(1, n_partials + 1):
        if k * f0_hz >= CORE_RATE / 2:
            break
        x += np.sin(k * phase + 0.7 * k) / k
    return 0.6 * x / np.abs(x).max()


def click_train(seconds: float, period_s: float = 0.25, amp: float = 0.9, seed: int = 11,
                start_s: float = 0.1):
    """Castanet-style percussive bursts.

    Each burst mixes noise with two randomly placed resonant rings under a
    three-rate decay envelope, so the bursts carry a strong temporal envelope
    without being an exactly low-order-predictable process.  Returns
    (signal, attack_sample_indices).
    """
    rng = np.random.default_rng(seed)
    n = int(seconds * CORE_RATE)
    x = np.zeros(n)
    attacks = []
    s = int(start_s * CORE_RATE)
    t = np.arange(1200) / CORE_RATE  # one burst
    env = np.exp(-t / 0.002) + 0.5 * np.exp(-t / 0.015) + 0.25 * np.exp(-t / 0.08)
    while s + t.size < n:
        f1 = rng.uniform(1200.0, 2800.0)
        f2 = rng.uniform(3200.0, 5600.0)
        ring = (0.7 * np.sin(2.0 * np.pi * f1 * t + rng.uniform(0, 6))
                + 0.4 * np.sin(2.0 * np.pi * f2 * t + rng.uniform(0, 6)))
        x[s:s + t.size] += env * (0.6 * rng.standard_normal(t.size) + ring)
        attacks.append(s)
        s += int(period_s * CORE_RATE)
    peak = np.abs(x).max()
    if peak > 0:
        x *= amp / peak
    return x, attacks


def speechish(seconds: float, seed: int = 5) -> np.ndarray:
    """Amplitude-modulated low-passed noise plus a wandering buzz; rough vocal
    texture with syllabic energy bursts."""
    rng = np.random.default_rng(seed)
    n = int(seconds * CORE_RATE)
    t = np.arange(n) / CORE_RATE
    # crude one-pole lowpass, voicy tilt; the scan runs over a view, not n float objects
    lp = np.fromiter(accumulate(memoryview(0.18 * rng.standard_normal(n)),
                                lambda acc, x: 0.82 * acc + x), float, n)
    syllables = np.clip(np.sin(2.0 * np.pi * 3.1 * t) + 0.4 * np.sin(2.0 * np.pi * 0.7 * t), 0.0, None)
    buzz = 0.35 * np.sin(2.0 * np.pi * (120.0 + 25.0 * np.sin(2.0 * np.pi * 0.5 * t)) * t)
    x = (lp + buzz) * syllables
    return 0.55 * x / np.abs(x).max()


def organ_chord(seconds: float) -> np.ndarray:
    """Three-voice sustained chord with slow tremolo and a soft breath floor."""
    n = int(seconds * CORE_RATE)
    t = np.arange(n) / CORE_RATE
    x = np.zeros(n)
    for f0, w in ((196.0, 1.0), (247.0, 0.8), (311.0, 0.65)):
        trem = 1.0 + 0.12 * np.sin(2.0 * np.pi * (4.5 + f0 / 200.0) * t)
        for k in (1, 2, 3, 4):
            x += w * trem * np.sin(2.0 * np.pi * k * f0 * t + 1.3 * k) / (k * k)
    rng = np.random.default_rng(17)
    x += 0.004 * rng.standard_normal(n)
    return 0.6 * x / np.abs(x).max()


def mixed_corpus(seconds_total: float = 30.0):
    """Named corpus items totalling roughly ``seconds_total`` seconds."""
    per = seconds_total / 5.0
    items = {
        "harmonic_low": harmonic_tone(165.0, per),
        "harmonic_high": harmonic_tone(392.0, per, n_partials=10, vibrato_hz=6.5),
        "speechish": speechish(per),
        "castanet": click_train(per)[0],
        "organ_chord": organ_chord(per),
    }
    return items
