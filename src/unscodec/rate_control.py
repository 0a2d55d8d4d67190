"""Bit estimation and per-band scale-factor search.

The band edges and each mode's band bit budgets are ``CodecConfig`` fields.
Each band's gain is a divisor expressed in integer dB; the search picks the
smallest (finest) gain whose estimated coding cost still fits the band's bit
budget, so more allocated bits always buy finer effective resolution.

The estimated cost is a relative proxy that the search compares with the band
budgets, not a prediction of the coded rate: its magnitude term counts 0 bits
for four equal indices and sits about 2.4x below the magnitude bits the range
coder actually spends.

The search runs on a chunk's every band at once: each bisection level is priced
by one cost call for every band of the frames with a band still open, and one
more prices the windows of the frames with a band the ends call left open, so a
chunk makes at most 2 + SF_SEARCH_ITERS cost calls, plus a rare walk past one.

A cost call looks each full block of four indices, counted from its band's
first bin, up by its 16-bit code in a table of equal-pair counts, and each raw
field up in the frame layout's ``raw_widths``, the table pack and unpack read
too, at its bin's given row start: it counts no pair, builds no field and knows
no contrast flag.
"""

from __future__ import annotations

import functools

import numpy as np

from . import polar_quant
from .util import round_half_up

SF_MIN_DB = -60
SF_MAX_DB = 60
SF_SEARCH_ITERS = 24   # bisection depth cap
# the divisor of each integer gain SF_MIN_DB..SF_MAX_DB, by Python's float power, which
# band_cost_bits takes for a fractional gain (numpy's array power rounds a few apart)
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


@functools.lru_cache(maxsize=16)
def _band_blocks(sizes: tuple):
    """The blocks of bands of ``sizes`` bins: the bins of every band's full blocks of four,
    counted from the band's own start, in band order; each band's (first, end) block; each
    band's first bin; and (band, bins) of each band's trailing block of 2 or 3 bins."""
    starts = np.cumsum([0, *sizes]).tolist()
    bins = np.concatenate([np.arange(s, s + n - n % 4) for s, n in zip(starts, sizes)])
    blocks = np.cumsum([0, *(n // 4 for n in sizes)]).tolist()
    tails = [(b, np.arange(s + n - n % 4, s + n)) for b, (s, n) in enumerate(zip(starts, sizes))
             if n % 4 > 1]
    return bins, list(zip(blocks, blocks[1:])), starts[:-1], tails


def band_cost_bits(mags: np.ndarray, gains, offsets: np.ndarray, layout):
    """Estimated bits to code each band of a chunk after division by each of its gains: the
    block-entropy magnitude proxy plus the exact raw (phase and sign) bits, read from
    ``layout.raw_widths`` at each bin's row start.

    ``mags`` holds a chunk's coded magnitudes (rows, bins), ``offsets`` its
    ``layout.raw_offsets`` (rows, bins) and ``gains`` dB gains in [SF_MIN_DB, SF_MAX_DB]
    (rows, bands, G); returns the costs (rows, bands, G).  Each cost is the float a call on
    its band alone gave: a whole gain's divisor is read from ``GAIN_DIVISORS`` and a
    fractional one is Python's float power, each band's block costs are summed by a ``.sum``
    of their own (numpy's pairwise order) before its trailing block is added, and its raw
    bits are summed as integers.  No sum runs across rows or gains.
    """
    bins, blocks, starts, tails = _band_blocks(layout.band_sizes)
    gains = np.asarray(gains, dtype=float)
    whole = np.floor(gains)
    div = GAIN_DIVISORS[whole.astype(int) - SF_MIN_DB]
    fractional = gains != whole
    div[fractional] = [10.0 ** (g / 20.0) for g in gains[fractional].tolist()]
    rows, count = gains.shape[:-2], gains.shape[-1]
    idx1 = np.empty(rows + (count, mags.shape[-1]), dtype=np.int8)
    raw = np.empty(rows + (count, len(starts)), dtype=np.int64)
    # a gain at a time: freeing a (rows, G, bins) stack of floats, or reduceat's int64 copy
    # of one, raised peak RSS by about 1 MB under glibc
    for k in range(count):
        scaled = div[..., k][..., layout.band_of]
        idx1[..., k, :] = polar_quant.magnitude_index(np.divide(mags, scaled, out=scaled),
                                                      layout.table)
        widths = layout.raw_widths.take(idx1[..., k, :] + offsets)
        raw[..., k, :] = np.add.reduceat(widths, starts, axis=-1)
    # two indices to each uint16, so a block's two pairs, one shifted, fill four nibbles
    pairs = idx1.take(bins, axis=-1).view(np.uint16)
    block_bits = _BLOCK_BITS.take(_CODE_PAIRS.take(pairs[..., ::2] | pairs[..., 1::2] << 4))
    bits = np.empty(raw.shape)
    for b, (first, end) in enumerate(blocks):  # np.add.reduceat would sum them in sequence
        bits[..., b] = block_bits[..., first:end].sum(axis=-1)
    for b, tail in tails:
        bits[..., b] += _TAIL_BITS[tail.size][_equal_pairs(idx1[..., tail])]
    return (bits + raw).swapaxes(-1, -2)


def bracket_scale_factors(mags: np.ndarray, target_bits, offsets: np.ndarray, layout):
    """Bisect the gain of every band of every row of a chunk at once; returns each (row, band)
    pair's bracket upper end (rows, bands) for :func:`snap_window`, and the ends call's costs.

    The budgets are one per band, or one per pair.  A pair whose finest gain fits ends at
    SF_MIN_DB, and one that busts its budget even at the coarsest gain ends at SF_MAX_DB.
    Every other pair is halved over the continuous dB range, SF_SEARCH_ITERS times at most,
    each cost call pricing one midpoint for each band of every row with a pair still open;
    a pair leaves once its rounded upper end is settled (later upper ends stay in (lo, hi]
    and rounding is monotone), and only open pairs move.  Pairs are independent, so each
    ends where a search of that band alone would.
    """
    rows, bands = len(mags), len(layout.band_sizes)
    targets = np.broadcast_to(target_bits, (rows, bands))
    lo, hi = np.full((rows, bands), float(SF_MIN_DB)), np.full((rows, bands), float(SF_MAX_DB))
    ends = band_cost_bits(mags, np.tile([SF_MIN_DB, SF_MAX_DB], (rows, bands, 1)), offsets,
                          layout)
    hi[ends[..., 0] <= targets] = SF_MIN_DB
    open_ = (ends[..., 0] > targets) & (ends[..., 1] <= targets)
    for _ in range(SF_SEARCH_ITERS):
        open_ &= round_half_up(np.nextafter(lo, np.inf)) != round_half_up(hi)
        live = np.flatnonzero(open_.any(axis=1))
        if not live.size:
            break
        moving = open_[live]
        mid = np.where(moving, 0.5 * (lo[live] + hi[live]), 0.0)  # 0 dB, a whole gain, if closed
        costs = band_cost_bits(mags[live], mid[..., None], offsets[live], layout)[..., 0]
        fit = moving & (costs <= targets[live])
        hi[live] = np.where(fit, mid, hi[live])
        lo[live] = np.where(moving & ~fit, mid, lo[live])
    return hi, ends


def snap_window(upper) -> np.ndarray:
    """The integer gains g-2 ... g+2 around the rounding g of each bracket upper
    end, clipped to [SF_MIN_DB, SF_MAX_DB]: one row of five per upper end."""
    window = round_half_up(upper)[..., None] + np.arange(-2, 3)
    return np.minimum(np.maximum(window, SF_MIN_DB), SF_MAX_DB)  # np.clip's call costs more


def find_scale_factor(mags: np.ndarray, band: int, target_bits: int, offsets: np.ndarray,
                      layout, window, window_costs):
    """Snap band ``band`` of one row, its chunk row's ``mags`` and ``offsets``, to the integer
    grid; returns (gain_db, overflow, bits).

    ``window`` is the band's :func:`snap_window` row, or the end it closed at, and
    ``window_costs`` its costs there; a gain outside it is priced on demand.  Overflow
    marks a band that busts the budget even at the maximum divisor (its upper end is
    SF_MAX_DB); bits is the band's cost at the returned gain.
    """
    if target_bits <= 0:
        raise ValueError("target_bits must be positive")
    known = dict(zip(window, window_costs))
    if SF_MAX_DB in known and known[SF_MAX_DB] > target_bits:
        return SF_MAX_DB, True, known[SF_MAX_DB]

    def cost(gain):
        if gain not in known:
            gains = np.full((1, len(layout.band_sizes), 1), gain)  # the row's every band
            costs = band_cost_bits(mags[None], gains, offsets[None], layout)
            known[gain] = float(costs[0, band, 0])
        return known[gain]

    g = window[2]  # the rounded upper end itself
    while g < SF_MAX_DB and cost(g) > target_bits:
        g += 1
    while g > SF_MIN_DB and cost(g - 1) <= target_bits:
        g -= 1
    return g, False, cost(g)


def search_scale_factors(mags: np.ndarray, target_bits, offsets: np.ndarray, layout):
    """The gain search of every band of every row of a chunk, its magnitudes and raw offsets
    (rows, bins), with a budget per band or per (row, band): one bracket of every band, one
    call pricing the snap windows of the rows the ends call left a pair open in, then each
    pair's snap.  Returns (gain_db, overflow, bits) as three (rows, bands) arrays."""
    rows, bands = len(mags), len(layout.band_sizes)
    targets = np.broadcast_to(target_bits, (rows, bands))
    upper, ends = bracket_scale_factors(mags, targets, offsets, layout)
    closed = (ends[..., 0] <= targets) | (ends[..., 1] > targets)  # upper is the end it closed at
    windows = np.where(closed[..., None], round_half_up(upper)[..., None], snap_window(upper))
    window_costs = np.where(upper == SF_MIN_DB, ends[..., 0], ends[..., 1])[..., None].repeat(5, -1)
    live = ~closed.all(axis=1)
    if live.any():
        live = slice(None) if live.all() else live  # no copy of a chunk's magnitudes
        window_costs[live] = band_cost_bits(mags[live], windows[live], offsets[live], layout)
    found = [find_scale_factor(m, b, t, o, layout, w, c)
             for m, o, *row in zip(mags, offsets, targets.tolist(), windows.tolist(),
                                   window_costs.tolist())
             for b, (t, w, c) in enumerate(zip(*row))]
    gains, overflow, bits = np.array(found, dtype=float).reshape(rows, bands, 3).transpose(2, 0, 1)
    return gains.astype(int), overflow.astype(bool), bits
