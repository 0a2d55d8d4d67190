"""Sub-band partitioning, bit estimation, and per-band scale-factor search.

Each band's gain is a divisor expressed in integer dB; the search picks the
smallest (finest) gain whose estimated coding cost still fits the band's bit
budget, so more allocated bits always buy finer effective resolution.

The estimated cost is a relative proxy that the search compares with the band
budgets, not a prediction of the coded rate: its magnitude term counts 0 bits
for four equal indices and sits about 2.4x below the magnitude bits the range
coder actually spends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polar_quant
from .util import round_half_up

DEFAULT_UPPER_EDGES = (40, 90, 140, 200, 260, 330, 410, 512)
MODE_BUDGETS = {
    "12k": (45, 34, 30, 23, 19, 16, 16, 16),
    "16k": (67, 50, 45, 34, 29, 23, 23, 23),
}
SF_MIN_DB = -60
SF_MAX_DB = 60
SF_SEARCH_ITERS = 24


@dataclass(frozen=True)
class BandLayout:
    upper_edges: tuple = DEFAULT_UPPER_EDGES

    def __post_init__(self):
        edges = np.asarray(self.upper_edges)
        if np.any(np.diff(edges) <= 0) or edges[0] <= 0:
            raise ValueError("band edges must be strictly increasing and positive")

    @property
    def n_bands(self) -> int:
        return len(self.upper_edges)

    def ranges(self):
        lo = 0
        for hi in self.upper_edges:
            yield lo, hi
            lo = hi

    @property
    def widths(self) -> tuple:
        return tuple(hi - lo for lo, hi in self.ranges())


def split_bands(res: np.ndarray, layout: BandLayout) -> list[np.ndarray]:
    """Partition the banded bins into the layout's sub-bands."""
    res = np.asarray(res)
    if res.size != layout.upper_edges[-1]:
        raise ValueError(f"expected {layout.upper_edges[-1]} bins, got {res.size}")
    return [res[lo:hi] for lo, hi in layout.ranges()]


def sample_entropy_bits(indices: np.ndarray) -> float:
    """Empirical-entropy bit count over consecutive blocks of four indices.

    Each block is costed with its own empirical symbol distribution; a short
    trailing block uses its actual length.  Nothing is paid for telling the
    decoder which indices a block holds, so ``[3, 3, 3, 3]`` costs 0 bits:
    this is a relative cost for the gain search, not an achievable rate.
    """
    idx = np.asarray(indices, dtype=int)
    n = idx.size
    if n == 0:
        return 0.0
    bits = 0.0
    nfull = n // 4
    if nfull:
        blocks = idx[:nfull * 4].reshape(nfull, 4)
        span = int(blocks.max()) + 1
        flat = (np.arange(nfull)[:, None] * span + blocks).ravel()
        counts = np.bincount(flat, minlength=nfull * span)
        c = counts[counts > 0].astype(float)
        bits += float(np.sum(c * np.log2(4.0 / c)))
    rem = idx[nfull * 4:]
    if rem.size:
        c = np.bincount(rem).astype(float)
        c = c[c > 0]
        bits += float(np.sum(c * np.log2(rem.size / c)))
    return bits


def estimate_bits(index1_seq: np.ndarray, phase_bits: float) -> float:
    """Gain-search cost: block-entropy magnitude proxy plus exact phase bits.

    Only comparisons against band budgets are meaningful; the magnitude term
    sits about 2.4x below the bits the range coder spends on the same indices.
    """
    return sample_entropy_bits(index1_seq) + phase_bits


@dataclass
class BandQuantContext:
    """Everything the bit estimator needs to cost one band at a given gain."""

    table: polar_quant.EcupqTable
    high_contrast: bool
    sets: polar_quant.PhaseCellSets = polar_quant.DEFAULT_PHASE_SETS
    real_mask: np.ndarray | None = None  # coefficients carried as magnitude+sign


def band_cost_bits(band: np.ndarray, gain_db: float, ctx: BandQuantContext) -> float:
    """Estimated bits to code the band after division by the gain."""
    mags = np.abs(np.asarray(band)) / 10.0 ** (gain_db / 20.0)
    idx1, _ = polar_quant.quantize_magnitudes(mags, ctx.table)
    cells = polar_quant.phase_cells_array(idx1, ctx.high_contrast, ctx.sets)
    phase_bits = np.log2(cells.astype(float))
    if ctx.real_mask is not None:
        # real-valued coefficients cost one sign bit instead of a phase
        phase_bits = np.where(ctx.real_mask, (idx1 > 0).astype(float), phase_bits)
    return estimate_bits(idx1, float(phase_bits.sum()))


def find_scale_factor(band: np.ndarray, target_bits: int, ctx: BandQuantContext):
    """Search the per-band divisor gain against the bit budget.

    Bisection over the continuous dB range followed by a snap to the integer
    grid; returns (gain_db, overflow) where overflow marks a band that busts
    the budget even at the maximum divisor.
    """
    if target_bits <= 0:
        raise ValueError("target_bits must be positive")
    lo, hi = float(SF_MIN_DB), float(SF_MAX_DB)
    if band_cost_bits(band, lo, ctx) <= target_bits:
        return SF_MIN_DB, False
    if band_cost_bits(band, hi, ctx) > target_bits:
        return SF_MAX_DB, True
    for _ in range(SF_SEARCH_ITERS):
        mid = 0.5 * (lo + hi)
        if band_cost_bits(band, mid, ctx) <= target_bits:
            hi = mid
        else:
            lo = mid
    g = int(round_half_up(hi))
    while g < SF_MAX_DB and band_cost_bits(band, g, ctx) > target_bits:
        g += 1
    while g > SF_MIN_DB and band_cost_bits(band, g - 1, ctx) <= target_bits:
        g -= 1
    return g, False
