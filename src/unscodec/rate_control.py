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
SF_SEARCH_ITERS = 24   # bisection depth cap
SF_BATCH_LEVELS = 3    # bisection levels costed per call


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


# Cost of a block by its number of equal index pairs: a block of four with
# 0, 1, 2, 3 or 6 pairs holds the counts 1111, 211, 22, 31 or 4; a trailing
# block of three with 0, 1 or 3 pairs holds 111, 21 or 3, one of two 11 or 2.
_BLOCK_BITS = np.array([8.0, 6.0, 4.0, 2.0 + 3.0 * np.log2(4.0 / 3.0), 0.0, 0.0, 0.0])
_TAIL_BITS = {2: np.array([2.0, 0.0]),
              3: np.array([3.0 * np.log2(3.0),
                           2.0 * np.log2(1.5) + np.log2(3.0), 0.0, 0.0])}
_PAIRS = {size: np.triu_indices(size, 1) for size in (2, 3, 4)}


def _equal_pairs(blocks: np.ndarray) -> np.ndarray:
    i, j = _PAIRS[blocks.shape[-1]]
    return np.count_nonzero(blocks[..., i] == blocks[..., j], axis=-1)


def sample_entropy_bits(indices: np.ndarray):
    """Empirical-entropy bit count over consecutive blocks of four indices.

    Each block is costed with its own empirical symbol distribution; a short
    trailing block uses its actual length.  Nothing is paid for telling the
    decoder which indices a block holds, so ``[3, 3, 3, 3]`` costs 0 bits:
    this is a relative cost for the gain search, not an achievable rate.
    A 2-D array is costed row by row.
    """
    idx = np.asarray(indices, dtype=int)
    n = idx.shape[-1]
    nfull = n // 4
    blocks = idx[..., :nfull * 4].reshape(idx.shape[:-1] + (nfull, 4))
    bits = _BLOCK_BITS[_equal_pairs(blocks)].sum(axis=-1)
    if n % 4 > 1:
        bits = bits + _TAIL_BITS[n % 4][_equal_pairs(idx[..., nfull * 4:])]
    return float(bits) if idx.ndim == 1 else bits


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


def band_cost_bits(band: np.ndarray, gain_db, ctx: BandQuantContext):
    """Estimated bits to code the band after division by the gain; a 1-D
    array of gains gives one cost per gain, each equal to its scalar call's."""
    gains = np.atleast_1d(np.asarray(gain_db, dtype=float)).tolist()
    # Python's float power for every gain, so an array's costs equal the scalar calls'
    mags = np.abs(np.asarray(band)) / np.array([10.0 ** (g / 20.0) for g in gains])[:, None]
    idx1, _ = polar_quant.quantize_magnitudes(mags, ctx.table)
    phase_bits = np.log2(polar_quant.phase_cells_array(idx1, ctx.high_contrast, ctx.sets))
    if ctx.real_mask is not None:
        # real-valued coefficients cost one sign bit instead of a phase
        phase_bits[..., ctx.real_mask] = idx1[..., ctx.real_mask] > 0
    bits = estimate_bits(idx1, phase_bits.sum(axis=-1))
    return float(bits[0]) if np.ndim(gain_db) == 0 else bits


def find_scale_factor(band: np.ndarray, target_bits: int, ctx: BandQuantContext):
    """Search the per-band divisor gain against the bit budget.

    Bisection over the continuous dB range followed by a snap to the integer
    grid; returns (gain_db, overflow, bits): overflow marks a band that busts
    the budget even at the maximum divisor, bits is the band's cost at the
    returned gain.  Each cost call prices every midpoint the next
    SF_BATCH_LEVELS halvings could visit, and halving stops once the rounded
    upper end is settled: later upper ends stay in (lo, hi] and rounding is
    monotone.  One call prices the snap's integers near g.
    """
    if target_bits <= 0:
        raise ValueError("target_bits must be positive")
    lo, hi = float(SF_MIN_DB), float(SF_MAX_DB)
    known = dict(zip((lo, hi), band_cost_bits(band, np.array([lo, hi]), ctx)))
    if known[lo] <= target_bits:
        return SF_MIN_DB, False, float(known[lo])
    if known[hi] > target_bits:
        return SF_MAX_DB, True, float(known[hi])
    left = SF_SEARCH_ITERS
    while left and round_half_up(np.nextafter(lo, np.inf)) != round_half_up(hi):
        levels = min(SF_BATCH_LEVELS, left)
        spans, mids = [(lo, hi)], []  # node i splits spans[i]; children 2i+1, 2i+2
        for a, b in (spans[i] for i in range(2 ** levels - 1)):
            mids.append(0.5 * (a + b))
            spans += [(a, mids[-1]), (mids[-1], b)]
        costs = band_cost_bits(band, np.array(mids), ctx)
        known.update(zip(mids, costs))
        node = 0
        for _ in range(levels):
            if costs[node] <= target_bits:
                hi, node = mids[node], 2 * node + 1
            else:
                lo, node = mids[node], 2 * node + 2
        left -= levels
    g = int(round_half_up(hi))
    window = [x for x in range(g - 2, g + 3) if SF_MIN_DB <= x <= SF_MAX_DB and x not in known]
    known.update(zip(window, band_cost_bits(band, np.array(window, dtype=float), ctx)))

    def fits(gain):
        if gain not in known:
            known[gain] = band_cost_bits(band, gain, ctx)
        return known[gain] <= target_bits

    while g < SF_MAX_DB and not fits(g):
        g += 1
    while g > SF_MIN_DB and fits(g - 1):
        g -= 1
    return g, False, float(known[g])
