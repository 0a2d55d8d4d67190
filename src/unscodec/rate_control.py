"""Bit estimation and per-band scale-factor search.

The band edges and each mode's band bit budgets are ``CodecConfig`` fields.
Each band's gain is a divisor expressed in integer dB; the search picks, by
bisection of the integer gains, a gain whose estimated coding cost fits the
band's bit budget where the next finer gain's does not, so more allocated bits
buy finer effective resolution.

The estimated cost is a relative proxy that the search compares with the band
budgets, not a prediction of the coded rate: its magnitude term counts 0 bits
for four equal indices and sits about 2.4x below the magnitude bits the range
coder actually spends.  It is not monotone in the gain, so a band may fit at
more than one such crossing; the bisection's path picks one.

The search runs on a chunk's every band at once: one cost call prices both ends
of the gain range, and each bisection level is priced by one cost call for every
band of the frames with a band still open, so a chunk makes at most 8 cost calls.

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

SF_MIN_DB = -60
SF_MAX_DB = 60
# the divisor of each integer gain SF_MIN_DB..SF_MAX_DB, by Python's float power (numpy's
# array power rounds a few apart): the gain search prices with it, and the decoder divides by it
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
    ``layout.raw_offsets`` (rows, bins) and ``gains`` integer dB gains in
    [SF_MIN_DB, SF_MAX_DB] (rows, bands, G); returns the costs (rows, bands, G).  Each cost
    is the float a call on its band alone gave: each gain's divisor is read from
    ``GAIN_DIVISORS``, each band's block costs are summed by a ``.sum`` of their own (numpy's
    pairwise order) before its trailing block is added, and its raw bits are summed as
    integers.  No sum runs across rows or gains.
    """
    bins, blocks, starts, tails = _band_blocks(layout.band_sizes)
    div = GAIN_DIVISORS[np.subtract(gains, SF_MIN_DB)]
    rows, count = div.shape[:-2], div.shape[-1]
    idx1 = np.empty(rows + (count, mags.shape[-1]), dtype=np.int8)
    raw = np.empty(rows + (count, len(starts)), dtype=np.int64)
    # a gain at a time, so a call holds one (rows, bins) stack of divided magnitudes: freeing
    # a (rows, G, bins) stack of floats for five gains a band, or reduceat's int64 copy of
    # one, raised peak RSS by about 1 MB under glibc
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


def find_scale_factor(gain_db: int, bits: float, target_bits) -> tuple:
    """One (row, band) pair's verdict from the search: (gain_db, overflow, bits), where
    overflow marks a pair whose cost ``bits`` at its gain still busts ``target_bits``, which
    only the coarsest gain SF_MAX_DB can leave."""
    if target_bits <= 0:
        raise ValueError("target_bits must be positive")
    return gain_db, bits > target_bits, bits


def search_scale_factors(mags: np.ndarray, target_bits, offsets: np.ndarray, layout):
    """The gain search of every band of every row of a chunk, its magnitudes and raw offsets
    (rows, bins), with a budget per band or per (row, band); returns (gain_db, overflow, bits)
    as three (rows, bands) arrays.

    One cost call prices SF_MIN_DB and SF_MAX_DB for every pair: a pair that fits at the
    finest gain ends there, and one that busts at the coarsest ends there with overflow.
    Every other pair bisects the integer gains between a busting ``lo`` and a fitting ``hi``,
    each cost call pricing the midpoint of every band of the rows with a pair still open,
    until ``hi - lo == 1``: then cost(hi) fits and cost(hi - 1) does not.  120 gains take 7
    levels, so a chunk makes at most 8 cost calls.  Pairs are independent, so each ends where
    a bisection of that band alone would.
    """
    rows, bands = len(mags), len(layout.band_sizes)
    targets = np.broadcast_to(target_bits, (rows, bands))
    ends = band_cost_bits(mags, np.tile([SF_MIN_DB, SF_MAX_DB], (rows, bands, 1)), offsets,
                          layout)
    fits = ends[..., 0] <= targets
    hi, bits = np.where(fits, SF_MIN_DB, SF_MAX_DB), np.where(fits, ends[..., 0], ends[..., 1])
    lo = np.where(fits | (ends[..., 1] > targets), hi, SF_MIN_DB)  # closed pairs: lo == hi
    while (live := np.flatnonzero((hi - lo > 1).any(axis=1))).size:
        open_ = hi[live] - lo[live] > 1
        mid = (lo[live] + hi[live]) // 2  # priced for a closed pair too, and not used
        costs = band_cost_bits(mags[live], mid[..., None], offsets[live], layout)[..., 0]
        fit = open_ & (costs <= targets[live])
        hi[live], bits[live] = np.where(fit, mid, hi[live]), np.where(fit, costs, bits[live])
        lo[live] = np.where(open_ & ~fit, mid, lo[live])
    found = [find_scale_factor(*pair) for pair in zip(
        hi.ravel().tolist(), bits.ravel().tolist(), targets.ravel().tolist())]
    gains, overflow, bits = np.array(found, dtype=float).reshape(rows, bands, 3).transpose(2, 0, 1)
    return gains.astype(int), overflow.astype(bool), bits
