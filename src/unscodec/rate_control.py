"""Bit estimation and per-band scale-factor search.

The band edges and each mode's band bit budgets are ``CodecConfig`` fields.
Each band's gain is a divisor expressed in integer dB; the search picks the
smallest (finest) gain whose estimated coding cost still fits the band's bit
budget, so more allocated bits always buy finer effective resolution.

The estimated cost is a relative proxy that the search compares with the band
budgets, not a prediction of the coded rate: its magnitude term counts 0 bits
for four equal indices and sits about 2.4x below the magnitude bits the range
coder actually spends.

A cost call looks each full block of four indices up by its 16-bit code in a
table of equal-pair counts, and each raw field up in the frame layout's
``raw_widths``, the table pack and unpack read too, at its bin's given row
start: it counts no pair, builds no field and knows no contrast flag.
"""

from __future__ import annotations

import numpy as np

from . import polar_quant
from .util import round_half_up

SF_MIN_DB = -60
SF_MAX_DB = 60
SF_SEARCH_ITERS = 24   # bisection depth cap
# the divisor of each integer gain SF_MIN_DB..SF_MAX_DB, by Python's float
# power as band_cost_bits prices it (numpy's array power rounds a few apart)
GAIN_DIVISORS = np.array([10.0 ** (g / 20.0) for g in range(SF_MIN_DB, SF_MAX_DB + 1)])


# Cost of a block by its number of equal index pairs: a block of four with
# 0, 1, 2, 3 or 6 pairs holds the counts 1111, 211, 22, 31 or 4; a trailing
# block of three with 0, 1 or 3 pairs holds 111, 21 or 3, one of two 11 or 2.
_BLOCK_BITS = np.array([8.0, 6.0, 4.0, 2.0 + 3.0 * np.log2(4.0 / 3.0), 0.0, 0.0, 0.0])
_TAIL_BITS = {2: np.array([2.0, 0.0]),
              3: np.array([3.0 * np.log2(3.0),
                           2.0 * np.log2(1.5) + np.log2(3.0), 0.0, 0.0])}
_PAIRS = {size: np.triu_indices(size, 1) for size in (2, 3, 4)}


def _equal_pairs(blocks: np.ndarray) -> np.ndarray:
    # one comparison of two columns per pair: no copy of the blocks
    return sum(blocks[..., i] == blocks[..., j] for i, j in zip(*_PAIRS[blocks.shape[-1]]))


# the equal index pairs of every block of four indices of 0..15, by its code with one index
# a nibble (the count is the same for any order of the four, so a block may be packed in any
# nibble order); built 4,096 codes at a time: freeing a one-shot build's half-megabyte
# temporaries at import raised later round trips' peak RSS by about 0.6 MB under glibc
_CODE_PAIRS = np.concatenate([
    _equal_pairs(np.arange(k, k + 4096)[:, None] >> np.arange(0, 16, 4) & 15).astype(np.uint8)
    for k in range(0, 1 << 16, 4096)])


def sample_entropy_bits(indices: np.ndarray):
    """Empirical-entropy bit count over consecutive blocks of four indices of
    0..15, the range of index 1.

    Each block is costed with its own empirical symbol distribution; a short
    trailing block uses its actual length.  Nothing is paid for telling the
    decoder which indices a block holds, so ``[3, 3, 3, 3]`` costs 0 bits:
    this is a relative cost for the gain search, not an achievable rate.
    A 2-D array is costed row by row.
    """
    idx = np.asarray(indices, dtype=np.int8)
    n = idx.shape[-1]
    # two indices to each uint16, so a block's two pairs, one shifted, fill four nibbles
    pairs = np.ascontiguousarray(idx[..., :n - n % 4]).view(np.uint16)
    bits = _BLOCK_BITS.take(_CODE_PAIRS.take(pairs[..., ::2] | pairs[..., 1::2] << 4)).sum(axis=-1)
    if n % 4 > 1:
        bits = bits + _TAIL_BITS[n % 4][_equal_pairs(idx[..., n - n % 4:])]
    return bits


def band_cost_bits(band: np.ndarray, gain_db, offsets: np.ndarray, layout):
    """Estimated bits to code the band after division by the gain: the
    block-entropy magnitude proxy plus the exact raw (phase and sign) bits, read
    from ``layout.raw_widths`` at each bin's row start: ``offsets``, of the
    bands' shape, is the band's slice of its frame's ``layout.raw_offsets``.

    A 1-D band and a 1-D array of gains give one cost per gain; a stack of
    bands of shape (rows, w) and gains of shape (rows, G) give costs of shape
    (rows, G).  Each entry equals its row's scalar call exactly: the divisors
    come from Python's float power and no sum runs across rows or gains.  A
    band of magnitudes costs what its complex values do; neither is checked.
    """
    gains = np.atleast_1d(np.asarray(gain_db, dtype=float))
    div = np.array([10.0 ** (g / 20.0) for g in gains.ravel().tolist()]).reshape(gains.shape)
    idx1 = polar_quant.magnitude_index(np.abs(band)[..., None, :] / div[..., None], layout.table)
    raw = layout.raw_widths.take(idx1 + offsets[..., None, :]).sum(axis=-1)
    bits = sample_entropy_bits(idx1) + raw
    return float(bits[0]) if np.ndim(gain_db) == 0 else bits


def bracket_scale_factors(bands: np.ndarray, target_bits, offsets: np.ndarray, layout):
    """Bisect the gain of every row of a (rows, w) stack of bands at once;
    returns each row's bracket upper end for :func:`snap_window`.

    The budgets are one per row, or one for all, and the offsets one row per
    band.  A row whose finest gain fits ends at SF_MIN_DB, and one that busts
    its budget even at the coarsest gain ends at SF_MAX_DB.  Every other row
    is halved over the continuous dB range, SF_SEARCH_ITERS times at most, each cost
    call pricing one midpoint per open row; a row leaves once its rounded
    upper end is settled (later upper ends stay in (lo, hi] and rounding is
    monotone).  Rows are independent, so each row ends where a search of that
    row alone would.
    """
    rows = len(bands)
    targets = np.broadcast_to(target_bits, (rows,))
    lo, hi = np.full(rows, float(SF_MIN_DB)), np.full(rows, float(SF_MAX_DB))
    ends = band_cost_bits(bands, np.tile([float(SF_MIN_DB), float(SF_MAX_DB)], (rows, 1)),
                          offsets, layout)
    hi[ends[:, 0] <= targets] = SF_MIN_DB
    open_ = (ends[:, 0] > targets) & (ends[:, 1] <= targets)
    for _ in range(SF_SEARCH_ITERS):
        open_ &= round_half_up(np.nextafter(lo, np.inf)) != round_half_up(hi)
        live = np.flatnonzero(open_)
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        costs = band_cost_bits(bands[live], mid[:, None], offsets[live], layout)[:, 0]
        fit = costs <= targets[live]
        hi[live[fit]] = mid[fit]
        lo[live[~fit]] = mid[~fit]
    return hi


def snap_window(upper) -> np.ndarray:
    """The integer gains g-2 ... g+2 around the rounding g of each bracket upper
    end, clipped to [SF_MIN_DB, SF_MAX_DB]: one row of five per upper end."""
    window = round_half_up(upper)[..., None] + np.arange(-2, 3)
    return np.minimum(np.maximum(window, SF_MIN_DB), SF_MAX_DB)  # np.clip's call costs more


def find_scale_factor(band: np.ndarray, target_bits: int, offsets: np.ndarray, layout,
                      window, window_costs):
    """Snap one band to the integer grid; returns (gain_db, overflow, bits).

    ``window`` is the band's :func:`snap_window` row and ``window_costs`` its
    costs there; a gain outside it is priced on demand.  Overflow marks a band
    that busts the budget even at the maximum divisor (its upper end is
    SF_MAX_DB); bits is the band's cost at the returned gain.
    """
    if target_bits <= 0:
        raise ValueError("target_bits must be positive")
    known = dict(zip(window, window_costs))
    if SF_MAX_DB in known and known[SF_MAX_DB] > target_bits:
        return SF_MAX_DB, True, known[SF_MAX_DB]

    def cost(gain):
        if gain not in known:
            known[gain] = band_cost_bits(band, gain, offsets, layout)
        return known[gain]

    g = window[2]  # the rounded upper end itself
    while g < SF_MAX_DB and cost(g) > target_bits:
        g += 1
    while g > SF_MIN_DB and cost(g - 1) <= target_bits:
        g -= 1
    return g, False, cost(g)


def search_scale_factors(bands: np.ndarray, target_bits, offsets: np.ndarray, layout):
    """The gain search of every row of a (rows, w) stack of bands, with a budget
    per row or one for all and a row of offsets per band: one stacked bracket,
    one stacked call pricing every row's snap window, then each row's snap.
    Returns the rows' (gain_db, overflow, bits) as three arrays."""
    rows = len(bands)
    targets = np.broadcast_to(target_bits, (rows,))
    windows = snap_window(bracket_scale_factors(bands, targets, offsets, layout))
    window_costs = band_cost_bits(bands, windows, offsets, layout)
    found = list(map(find_scale_factor, bands, targets.tolist(), offsets, [layout] * rows,
                     windows.tolist(), window_costs.tolist()))
    gains, overflow, bits = np.array(found, dtype=float).reshape(rows, 3).T
    return gains.astype(int), overflow.astype(bool), bits
