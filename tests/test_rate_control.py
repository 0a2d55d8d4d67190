import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unscodec import polar_quant as pq
from unscodec import rate_control as rc
from unscodec.config import CodecConfig
from unscodec.entropy_bitstream import FramePayload, pack_frame, wire_fields

from test_entropy_bitstream import band_slices

CTX = CodecConfig().layout
BANDS, N_BINS = len(CTX.band_sizes), CTX.real_mask.size
HIGH = np.ones((1, BANDS), dtype=bool)  # a frame whose bands are all high-contrast
WIDE_PHASE_LAYOUT = CodecConfig(phase_cells_high=(1, 8, 16, 16, 32, 32, 64, 128)).layout
# band starts at odd bins, and bands of 1, 2 and 3 bins past their last full block
ODD_EDGES_LAYOUT = CodecConfig(band_edges=(37, 91, 140, 203, 260, 331, 409, 512)).layout


def sample_entropy_bits(indices: np.ndarray):
    """Empirical-entropy bit count over consecutive blocks of four indices of 0..15, the band
    cost's magnitude term for one band alone, from the gain search's tables.

    Each block is costed with its own empirical symbol distribution; a short trailing block
    uses its actual length.  Nothing is paid for telling the decoder which indices a block
    holds, so ``[3, 3, 3, 3]`` costs 0 bits.  A 2-D array is costed row by row.
    """
    idx = np.asarray(indices, dtype=np.int8)
    n = idx.shape[-1]
    # two indices to each uint16, so a block's two pairs, one shifted, fill four nibbles
    pairs = np.ascontiguousarray(idx[..., :n - n % 4]).view(np.uint16)
    bits = rc._BLOCK_BITS.take(rc._CODE_PAIRS.take(pairs[..., ::2] | pairs[..., 1::2] << 4))
    bits = bits.sum(axis=-1)
    if n % 4 > 1:
        bits = bits + rc._TAIL_BITS[n % 4][rc._equal_pairs(idx[..., n - n % 4:])]
    return bits


def band_cost(band, gain_db, offsets, layout=CTX):
    """The cost of one band alone, as the gain search priced it one band at a time: ``band``
    holds its magnitudes (or a stack of bands, one a row), ``offsets`` its bins' slice of
    ``layout.raw_offsets`` and ``gain_db`` a gain (or one row of gains per band); every
    divisor is Python's float power."""
    gains = np.atleast_1d(np.asarray(gain_db, dtype=float))
    div = np.array([10.0 ** (g / 20.0) for g in gains.ravel().tolist()]).reshape(gains.shape)
    idx1 = pq.magnitude_index(np.abs(band)[..., None, :] / div[..., None], layout.table)
    raw = layout.raw_widths.take(idx1 + offsets[..., None, :]).sum(axis=-1)
    bits = sample_entropy_bits(idx1) + raw
    return float(bits[0]) if np.ndim(gain_db) == 0 else bits


def frame_with(band):
    """One frame's magnitudes (1, bins) holding ``band`` as the band of its width, zero
    elsewhere, and that band's number: the default layout's bands 1-6 hold no real bin."""
    b = CTX.band_sizes.index(band.size, 1)
    mags = np.zeros((1, N_BINS))
    mags[0, band_slices(CTX)[b]] = np.abs(band)
    return mags, b


def search_band(band, target_bits):
    """One high-contrast band's (gain, overflow, bits), searched as the band of its width in
    a frame whose other bands are silent; every band has the budget ``target_bits``."""
    mags, b = frame_with(band)
    gains, overflow, bits = rc.search_scale_factors(mags, target_bits, CTX.raw_offsets(HIGH), CTX)
    return gains[0, b], overflow[0, b], bits[0, b]


def frame_cost(band, gain_db):
    """The cost ``search_band`` prices the band with at one gain, from one chunk cost call."""
    mags, b = frame_with(band)
    gains = np.full((1, BANDS, 1), gain_db)
    return rc.band_cost_bits(mags, gains, CTX.raw_offsets(HIGH), CTX)[0, b, 0]


def band_widths(ctx):
    """Band widths of a pack context without the Nyquist bin the last band carries."""
    return (*ctx.band_sizes[:-1], ctx.band_sizes[-1] - 1)


def test_band_layout_widths():
    layout = CodecConfig().layout
    assert band_widths(layout) == (40, 50, 50, 60, 60, 70, 80, 102)
    assert len(band_slices(layout)) == 8


def fer_bands(cfg):
    """The bins each FER band spans, found by raising one bin at a time."""
    ends = []
    for k in range(cfg.frame_len // 2):
        env_db = np.zeros(cfg.n_bins)
        env_db[k] = 1.0
        ends.append(int(np.argmax(pq.compute_fer(env_db, cfg.band_edges))))
    return tuple(np.bincount(ends).tolist())


def test_config_band_layout_follows_its_edges():
    # equal configs give equal layouts, and a config built with other edges
    # (and one budget per band) gets the FER bands and pack-context slices of its edges
    cfg = CodecConfig()
    assert cfg.layout.band_sizes == CTX.band_sizes
    cfg = CodecConfig(band_edges=(64, 128, 256, 512), bits_12k=(40,) * 4, bits_16k=(60,) * 4)
    assert band_widths(cfg.layout) == (64, 64, 128, 256)
    assert fer_bands(cfg) == (64, 64, 128, 256)
    cfg = CodecConfig(band_edges=[100, 512], bits_12k=(80, 80), bits_16k=(120, 120))
    assert band_widths(cfg.layout) == (100, 412)
    assert fer_bands(cfg) == (100, 412)


def test_split_bands_edges():
    ctx = CodecConfig().layout
    x = np.arange(513, dtype=complex)
    bands = [x[s] for s in band_slices(ctx)]
    assert bands[0][0] == 0 and bands[0][-1] == 39
    assert bands[7][0] == 410 and bands[7][-1] == 512  # the Nyquist bin ends the last band
    assert np.array_equal(np.concatenate(bands), x)
    assert np.flatnonzero(ctx.real_mask).tolist() == [0, 512]


def test_budget_tables():
    cfg = CodecConfig()
    assert cfg.bits_12k == (45, 34, 30, 23, 19, 16, 16, 16)
    assert cfg.bits_16k == (67, 50, 45, 34, 29, 23, 23, 23)
    assert sum(cfg.bits_12k) == 199
    assert sum(cfg.bits_16k) == 294


def test_entropy_of_constant_block():
    assert sample_entropy_bits(np.array([3, 3, 3, 3])) == 0.0


def test_entropy_of_half_half_block():
    assert abs(sample_entropy_bits(np.array([0, 0, 1, 1])) - 4.0) < 1e-12


def test_entropy_short_trailing_block():
    # blocks [1,1,2,2] -> 4 bits, then [5] alone -> 0 bits
    bits = sample_entropy_bits(np.array([1, 1, 2, 2, 5]))
    assert abs(bits - 4.0) < 1e-12


def frame_at_gain_0(bins, value):
    """Band 0's cost at gain 0 in a high-contrast frame that holds ``value`` at ``bins``."""
    mags = np.zeros((1, N_BINS))
    mags[0, bins] = value
    gains = np.zeros((1, BANDS, 1), dtype=int)
    return rc.band_cost_bits(mags, gains, CTX.raw_offsets(HIGH), CTX)[0, 0, 0]


def test_estimate_adds_exact_phase_bits():
    # four equal indices cost 0 magnitude bits, as do the silent bins' blocks around them:
    # the cost is the exact raw bits
    band = np.full(4, 3.0, dtype=complex)
    i1 = pq.quantize_magnitudes(np.abs(band), pq.DEFAULT_ECUPQ_TABLE)[0]
    phase_bits = np.log2(pq.phase_cells_array(i1, True, CTX.phase_cells)).sum()
    assert frame_at_gain_0(slice(4, 8), 3.0) == phase_bits == 4 * 6.0


def test_scale_factor_all_zero_band():
    g, over, _ = search_band(np.zeros(50, dtype=complex), 30)
    assert g == rc.SF_MIN_DB
    assert not over


def test_scale_factor_matches_grid_sweep_oracle():
    # against an exhaustive integer-dB sweep, every gain is a crossing of its band's cost: it
    # fits the budget where the next finer gain does not, or is the finest gain; the search does
    # not promise the smallest fitting gain, since the cost can rise with the gain, so that holds
    # only for bands whose cost the sweep shows never to rise, as with equal magnitudes, whose
    # indices all fall at once as the gain grows
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(12):
        band = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * rng.uniform(0.5, 30)
        cases.append((band, int(rng.integers(15, 60))))
    for scale in (0.9, 7.0, 40.0):
        cases.append((scale * np.exp(2j * np.pi * rng.random(50)), int(rng.integers(15, 60))))
    never_rising = 0
    for band, target in cases:
        g, over, bits = search_band(band, target)
        assert not over
        assert bits == frame_cost(band, g)
        cost = {gg: frame_cost(band, gg) for gg in range(rc.SF_MIN_DB, rc.SF_MAX_DB + 1)}
        assert cost[g] <= target and (g == rc.SF_MIN_DB or cost[g - 1] > target)
        if all(cost[gg + 1] <= cost[gg] for gg in range(rc.SF_MIN_DB, rc.SF_MAX_DB)):
            never_rising += 1
            assert g == min(gg for gg in cost if cost[gg] <= target)
    assert never_rising >= 3


def test_scale_factor_shift_equivariance():
    rng = np.random.default_rng(21)
    band = (rng.standard_normal(60) + 1j * rng.standard_normal(60)) * 4.0
    g1 = search_band(band, 30)[0]
    g2 = search_band(2.0 * band, 30)[0]
    assert abs((g2 - g1) - 6.0) <= 1.0


def test_scale_factor_fixpoint():
    rng = np.random.default_rng(22)
    band = (rng.standard_normal(60) + 1j * rng.standard_normal(60)) * 8.0
    g = search_band(band, 25)[0]
    g2 = search_band(band / 10.0 ** (g / 20.0), 25)[0]
    assert abs(g2) <= 1


def test_scale_factor_monotone_in_budget():
    rng = np.random.default_rng(23)
    for _ in range(6):
        band = (rng.standard_normal(70) + 1j * rng.standard_normal(70)) * rng.uniform(1, 20)
        gains = [search_band(band, t)[0] for t in (12, 20, 32, 48, 64)]
        assert all(b <= a for a, b in zip(gains, gains[1:]))


def test_scale_factor_overflow_flag():
    # budget of 1 bit cannot absorb a hot band even at max attenuation
    rng = np.random.default_rng(24)
    band = (rng.standard_normal(80) + 1j * rng.standard_normal(80)) * 1e6
    g, over, _ = search_band(band, 1)
    assert over
    assert g == rc.SF_MAX_DB


def test_scale_factors_dequantize_exactly():
    # a gain index is exactly that many dB: the decoder's divisor for it is the one the gain
    # search costs the band with, read from one table of Python's float power
    indices = np.arange(rc.SF_MIN_DB, rc.SF_MAX_DB + 1)
    assert rc.GAIN_DIVISORS.tolist() == [10.0 ** (g / 20.0) for g in indices.tolist()]
    assert rc.GAIN_DIVISORS.tolist() == [10.0 ** (float(g) / 20.0) for g in indices.tolist()]
    assert np.allclose(20.0 * np.log10(rc.GAIN_DIVISORS), indices, rtol=0.0, atol=1e-12)


def test_real_mask_costs_sign_bit():
    band = np.array([3.0, 3.0, 3.0, 3.0], dtype=complex)
    # same magnitudes: the block at the real DC bin replaces one phase cost with one sign bit
    cost_plain = frame_at_gain_0(slice(4, 8), np.abs(band))
    cost_masked = frame_at_gain_0(slice(0, 4), np.abs(band))
    i1, _ = pq.quantize_magnitudes(np.abs(band), pq.DEFAULT_ECUPQ_TABLE)
    cells = pq.phase_cells_array(i1, True, CTX.phase_cells)
    assert abs((cost_plain - cost_masked) - (np.log2(cells[0]) - 1.0)) < 1e-12


# --- the chunk's gain search against the sequential search of each band alone

def sequential_search(cost, target_bits):
    """Oracle: the integer bisection of one band alone, one ``cost(gain)`` call a step; the
    decision the streams are encoded with."""
    lo, hi = rc.SF_MIN_DB, rc.SF_MAX_DB
    if cost(lo) <= target_bits:
        return rc.SF_MIN_DB, False
    if cost(hi) > target_bits:
        return rc.SF_MAX_DB, True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cost(mid) <= target_bits:
            hi = mid
        else:
            lo = mid
    return hi, False


def bincount_entropy_bits(indices):
    """The block-of-four cost as first written, with one bincount per call."""
    idx = np.asarray(indices, dtype=int)
    bits, nfull = 0.0, idx.size // 4
    if nfull:
        blocks = idx[:nfull * 4].reshape(nfull, 4)
        span = int(blocks.max()) + 1
        counts = np.bincount((np.arange(nfull)[:, None] * span + blocks).ravel())
        c = counts[counts > 0].astype(float)
        bits += float(np.sum(c * np.log2(4.0 / c)))
    rem = idx[nfull * 4:]
    if rem.size:
        c = np.bincount(rem).astype(float)
        c = c[c > 0]
        bits += float(np.sum(c * np.log2(rem.size / c)))
    return bits


SCALES = [0.0, 1e-12, 1e-3, 1.0, 30.0, 3e3, 3e5]


@st.composite
def drawn_chunks(draw, layout=CTX):
    """The coded values (rows, bins) and contrast flags (rows, bands) of a chunk of 1-3
    frames.  Each frame is silent, tiny, ordinary, loud or huge enough to overflow every gain
    (3e3 and up escape at every gain up to 0 dB) as a whole, or band by band; the values
    sometimes run in equal magnitudes (equal index blocks make the block cost jump as the
    gain moves); the real DC and Nyquist bins take either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, bands, n = draw(st.integers(1, 3)), len(layout.band_sizes), layout.real_mask.size
    scales = np.reshape(draw(st.lists(st.sampled_from(SCALES), min_size=rows * bands,
                                      max_size=rows * bands)), (rows, bands))
    for r, scale in enumerate(draw(st.lists(st.sampled_from([None, *SCALES]), min_size=rows,
                                            max_size=rows))):
        if scale is not None:
            scales[r] = scale
    coded = (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    coded *= scales[:, layout.band_of]
    if draw(st.booleans()):
        coded = np.repeat(coded[:, ::4], 4, axis=1)[:, :n]
    coded[:, layout.real_mask] = coded[:, layout.real_mask].real
    contrast = draw(st.lists(st.booleans(), min_size=rows * bands, max_size=rows * bands))
    return coded, np.reshape(contrast, (rows, bands))


def drawn_targets(data, rows, bands=BANDS):
    """A budget of 1-70 bits for each (row, band) pair."""
    targets = data.draw(st.lists(st.integers(1, 70), min_size=rows * bands,
                                 max_size=rows * bands))
    return np.reshape(targets, (rows, bands))


def band_alone(mags, offs, r, b, layout=CTX):
    """Band ``b`` of row ``r``'s cost as a function of its gain, priced alone."""
    bins = band_slices(layout)[b]
    return functools.partial(band_cost, mags[r, bins], offsets=offs[r, bins], layout=layout)


def chunk_with_silent_and_loud_rows(data, layout):
    """A drawn chunk's magnitudes, raw offsets and budgets, with two rows appended: a silent
    one, which fits at the finest gain, and a loud one, which busts 1-bit budgets at every
    gain."""
    coded, contrast = data.draw(drawn_chunks(layout))
    coded = np.vstack([coded, np.zeros(coded.shape[1]), np.full(coded.shape[1], 3e5 + 3e5j)])
    contrast = np.vstack([contrast, contrast[:1], ~contrast[:1]])
    targets = drawn_targets(data, *contrast.shape)
    targets[-1] = 1
    return np.abs(coded), layout.raw_offsets(contrast), targets


@given(data=st.data(), layout=st.sampled_from([CTX, ODD_EDGES_LAYOUT]))
def test_batched_search_matches_sequential_search(data, layout):
    mags, offs, targets = chunk_with_silent_and_loud_rows(data, layout)
    gains, overflow, bits = rc.search_scale_factors(mags, targets, offs, layout)
    assert (gains[-2] == rc.SF_MIN_DB).all() and not overflow[-2].any() and overflow[-1].all()
    for r, b in np.ndindex(targets.shape):
        cost = band_alone(mags, offs, r, b, layout)
        assert (gains[r, b], overflow[r, b]) == sequential_search(cost, targets[r, b])
        assert bits[r, b] == cost(gains[r, b])


@given(data=st.data(), layout=st.sampled_from([CTX, ODD_EDGES_LAYOUT]))
def test_every_gain_is_a_crossing_of_its_pairs_cost(data, layout):
    # whatever the search, each pair's gain fits its budget where the next finer gain does not,
    # or is the finest gain, or is the coarsest gain and overflows: silent rows fit at the
    # finest gain, loud rows bust at every gain, and drawn bands, some in runs of equal
    # magnitudes, cost more at some coarser gains than at finer ones
    mags, offs, targets = chunk_with_silent_and_loud_rows(data, layout)
    gains, overflow, bits = rc.search_scale_factors(mags, targets, offs, layout)
    for r, b in np.ndindex(targets.shape):
        cost, g, budget = band_alone(mags, offs, r, b, layout), int(gains[r, b]), targets[r, b]
        assert bits[r, b] == cost(g)
        if overflow[r, b]:
            assert g == rc.SF_MAX_DB and cost(g) > budget
        else:
            assert cost(g) <= budget and (g == rc.SF_MIN_DB or cost(g - 1) > budget)
    assert overflow[-1].all() and (gains[-2] == rc.SF_MIN_DB).all()


def pair_search(cost, targets):
    """Search a chunk under a stand-in for ``rc.band_cost_bits``: ``cost(pairs, gains)`` prices
    each gain of (rows, bands, G) by its (row, band) pair's number, row * BANDS + band.  Checks
    every pair's (gain, overflow) against its sequential search and its bits against its cost;
    returns the shapes of the gains the search priced, one per call."""
    rows, calls = len(targets), []

    def chunk_cost(mags, gains, offs, layout):
        calls.append(np.shape(gains))
        pairs = mags[..., :1].astype(int) * BANDS + np.arange(BANDS)  # each row holds its number
        return cost(pairs, np.asarray(gains, dtype=float))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rc, "band_cost_bits", chunk_cost)
        mags = np.repeat(np.arange(rows, dtype=float)[:, None], N_BINS, axis=1)
        gains, overflow, bits = rc.search_scale_factors(
            mags, targets, CTX.raw_offsets(np.ones((rows, BANDS), dtype=bool)), CTX)
    for r, b in np.ndindex(rows, BANDS):
        def alone(g, pair=r * BANDS + b):
            return float(cost(np.array([[pair]]), np.array([[[g]]], dtype=float))[0, 0, 0])

        assert (gains[r, b], overflow[r, b]) == sequential_search(alone, targets[r, b])
        assert bits[r, b] == alone(gains[r, b])
    return calls


@given(rows=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
       roughness=st.sampled_from([0.0, 2.0, 20.0, 200.0]))
def test_batched_search_matches_sequential_search_on_non_monotone_costs(rows, seed, data,
                                                                        roughness):
    # a falling staircase per pair with steps at random gains and random
    # bumps: the cost rises again with the gain in places, so a pair may fit
    # at more than one crossing; low budgets overflow and high ones fit at the
    # finest gain
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.uniform(rc.SF_MIN_DB, rc.SF_MAX_DB, (rows * BANDS, 400)), axis=-1)
    steps = np.linspace(90.0, 0.0, 401) + roughness * rng.random((rows * BANDS, 401))

    def staircase_cost(pairs, g):
        # searchsorted per pair: the number of the pair's edges below each gain
        return np.take_along_axis(steps[pairs], (edges[pairs][..., None, :] < g[..., None]).sum(-1),
                                  axis=-1)

    pair_search(staircase_cost, drawn_targets(data, rows))


@given(rows=st.integers(1, 2), data=st.data())
def test_batched_search_matches_sequential_search_near_rounding_edges(rows, data):
    # each pair's cost fits from a crossing gain halfway between two integers
    # on, except at the integer gains around it, which fit or miss at random:
    # the last levels land on either side of the crossing
    pairs = rows * BANDS
    wholes = np.array(data.draw(st.lists(st.integers(-58, 58), min_size=pairs, max_size=pairs)))
    fracs = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=pairs, max_size=pairs))
    targets = data.draw(st.lists(st.sampled_from([5, 30, 70]), min_size=pairs, max_size=pairs))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    crossing = wholes + 0.5 + np.array(fracs)
    near = wholes[:, None] + np.arange(-3.0, 5.0)
    near_fits = rng.random(near.shape) < 0.5

    def bumpy_cost(pairs, g):
        hit = g[..., None] == near[pairs][..., None, :]
        fits = np.where(hit.any(-1), (hit & near_fits[pairs][..., None, :]).any(-1),
                        g >= crossing[pairs][..., None])
        return np.where(fits, 10.0, 50.0)

    pair_search(bumpy_cost, np.reshape(targets, (rows, BANDS)))


def test_chunk_search_with_one_pair_open_at_the_last_level():
    # every pair fits from 1 dB on, which the bisection reaches in 6 levels (0, 30, 15, 7, 3,
    # 1 dB), except one pair, which fits from 13 dB on and takes a seventh (0, 30, 15, 7, 11,
    # 13, 12 dB): its row alone is priced at the last level
    rows = 3
    crossing = np.full(rows * BANDS, 0.5)
    crossing[1 * BANDS + 5] = 12.5

    def cost(pairs, g):
        return np.where(g >= crossing[pairs][..., None], 10.0, 50.0)

    calls = pair_search(cost, np.full((rows, BANDS), 30))
    assert calls == [(rows, BANDS, 2)] + [(rows, BANDS, 1)] * 6 + [(1, BANDS, 1)]


def test_snap_walks_up_to_the_coarsest_gain(monkeypatch):
    # every gain but SF_MAX_DB busts: the ends call leaves the pair open, since it fits there,
    # and every level moves its lower end up, so it ends at SF_MAX_DB with no overflow, where
    # a budget it busts even there ends it at SF_MAX_DB with overflow
    def cost(mags, gain_db, offs, layout):
        return np.where(np.asarray(gain_db) == rc.SF_MAX_DB, 10.0, 50.0)

    monkeypatch.setattr(rc, "band_cost_bits", cost)
    assert search_band(np.zeros(50, dtype=complex), 30) == (rc.SF_MAX_DB, False, 10.0)
    assert search_band(np.zeros(50, dtype=complex), 5) == (rc.SF_MAX_DB, True, 10.0)
    assert sequential_search(lambda g: float(cost(None, g, None, CTX)), 30) == (rc.SF_MAX_DB,
                                                                               False)


def test_a_pair_bisected_up_to_the_coarsest_gain_keeps_its_window():
    # band 0 fits only at SF_MAX_DB itself and every other band at SF_MIN_DB: the ends call
    # leaves band 0 open, so its row is priced at each of the 7 levels that close the window
    # (SF_MIN_DB, SF_MAX_DB] down to SF_MAX_DB, with no overflow
    def cost(pairs, gains):
        return np.where((pairs[..., None] == 0) & (gains < rc.SF_MAX_DB), 100.0, 0.0)

    calls = pair_search(cost, np.full((1, BANDS), 10))
    assert calls == [(1, BANDS, 2)] + [(1, BANDS, 1)] * 7


@given(chunk=drawn_chunks(),
       gains=st.lists(st.integers(rc.SF_MIN_DB, rc.SF_MAX_DB), min_size=1, max_size=9))
def test_vectorized_cost_equals_scalar_cost(chunk, gains):
    coded, contrast = chunk
    rows, mags, offs = len(coded), np.abs(coded), CTX.raw_offsets(contrast)
    # each (row, band) pair prices the drawn gains in its own order
    grid = np.array([[np.roll(gains, r * BANDS + b) for b in range(BANDS)] for r in range(rows)])
    costs = rc.band_cost_bits(mags, grid, offs, CTX)
    assert costs.shape == grid.shape
    for r in range(rows):
        # and each gain of the row in a call of its own
        alone = [rc.band_cost_bits(mags[r:r + 1], grid[r:r + 1, :, k:k + 1], offs[r:r + 1],
                                   CTX)[0, :, 0] for k in range(len(gains))]
        for b in range(BANDS):
            cost = band_alone(mags, offs, r, b)
            scalar = [cost(g) for g in grid[r, b].tolist()]
            assert costs[r, b].tolist() == scalar
            assert cost(grid[r, b]).tolist() == scalar
            assert [float(bits[b]) for bits in alone] == scalar


def test_sample_entropy_matches_bincount_formula():
    # both sum the same exact per-symbol terms, in a different order, so they
    # agree to rounding; rows of a 2-D array equal their 1-D calls exactly
    rng = np.random.default_rng(25)
    for n in range(1, 104):
        rows = rng.integers(0, rng.integers(1, 15, size=(40, 1)), size=(40, n))
        batched = sample_entropy_bits(rows)
        for row, bits in zip(rows, batched):
            assert abs(sample_entropy_bits(row) - bincount_entropy_bits(row)) < 1e-9
            assert bits == sample_entropy_bits(row)
    assert sample_entropy_bits(np.zeros(0, dtype=int)) == 0.0


# --- the table-driven band cost against the formula it replaces

# a core table whose companded region starts at 0.4, where it gives the
# indices 7 and 8 that also name a core cell and the escape; the default
# table's companded indices start at 9
SMALL_R7_TABLE = pq.EcupqTable(thresholds=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4),
                               levels=(0.0, 0.07, 0.12, 0.17, 0.22, 0.27, 0.32, 0.37),
                               version="small-r7")
SMALL_R7_LAYOUT = CodecConfig(ecupq=SMALL_R7_TABLE).layout


def test_table_refuses_a_sentinel_in_the_escape_region():
    # a sentinel at or above R7_TILDE leaves no companded region, and index 1
    # of a magnitude in [R7_TILDE, r7) would depend on whether another
    # magnitude of the same call reached r7 (searchsorted_index1 below)
    for r7 in (pq.R7_TILDE, 20.0):
        with pytest.raises(ValueError, match="escape region"):
            pq.EcupqTable(thresholds=(0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, r7),
                          levels=(0.0, 0.3, 0.7, 1.2, 1.7, 2.2, 2.7, 3.2))


def searchsorted_index1(a, table):
    """Index 1 as quantize_magnitudes first computed it: a binary search over
    the interior thresholds, then the companded and escape regions."""
    idx1 = np.searchsorted(np.asarray(table.thresholds[:7]), a, side="right")
    nonlinear = a >= table.r7
    if nonlinear.any():
        idx1[nonlinear] = (np.floor(a[nonlinear] ** 0.75 + 0.5) + pq.NONLINEAR_SHIFT).astype(int)
        idx1[a >= pq.R7_TILDE] = pq.ESCAPE_INDEX
    return idx1


PAIRS = {size: np.triu_indices(size, 1) for size in (2, 3, 4)}
BLOCK_BITS = np.array([8.0, 6.0, 4.0, 2.0 + 3.0 * np.log2(4.0 / 3.0), 0.0, 0.0, 0.0])
TAIL_BITS = {2: np.array([2.0, 0.0]),
             3: np.array([3.0 * np.log2(3.0), 2.0 * np.log2(1.5) + np.log2(3.0), 0.0, 0.0])}


def pair_count_entropy_bits(indices):
    """sample_entropy_bits as it counted each block's equal pairs on every call."""
    def equal_pairs(blocks):
        return sum(blocks[..., i] == blocks[..., j] for i, j in zip(*PAIRS[blocks.shape[-1]]))

    idx = np.asarray(indices, dtype=int)
    n = idx.shape[-1]
    nfull = n // 4
    blocks = idx[..., :nfull * 4].reshape(idx.shape[:-1] + (nfull, 4))
    bits = BLOCK_BITS[equal_pairs(blocks)].sum(axis=-1)
    if n % 4 > 1:
        bits = bits + TAIL_BITS[n % 4][equal_pairs(idx[..., nfull * 4:])]
    return bits


def test_sample_entropy_equals_pair_count():
    # every block of four indices of 0..15 once, then rows of every width
    # with index runs, where the full-block sum and the tail's addition round
    blocks = np.indices((16,) * 4).reshape(4, -1).T
    assert sample_entropy_bits(blocks).tolist() == pair_count_entropy_bits(blocks).tolist()
    rng = np.random.default_rng(27)
    for n in range(0, 104):
        rows = np.repeat(rng.integers(0, 16, size=(30, n)), rng.integers(1, 4), axis=1)[:, :n]
        assert sample_entropy_bits(rows).tolist() == pair_count_entropy_bits(rows).tolist()


def reference_cost(band, gain, high, real, layout):
    """One band's cost at one gain by the formula the tables replace: index 1,
    then its pair-counted block entropy plus the sum of its raw bits: a sign
    bit where index 1 is nonzero at the bins ``real`` marks (DC and Nyquist),
    else log2 of the [contrast][min(index1, 7)] phase cells."""
    mags = np.abs(band) / 10.0 ** (gain / 20.0)
    idx1 = searchsorted_index1(mags, layout.table)
    assert pq.quantize_magnitudes(mags, layout.table)[0].tolist() == idx1.tolist()
    raw = np.where(real, idx1 > 0,
                   np.log2(layout.phase_cells[int(high), np.minimum(idx1, 7)]).astype(int))
    return float(pair_count_entropy_bits(idx1) + raw.sum())


def edge_magnitudes(table):
    """Every threshold, the companded region's rounding steps, R7_TILDE and
    one ulp either side of each."""
    edges = np.array([*table.thresholds, *(np.arange(1, 9) - 0.5) ** (4 / 3), pq.R7_TILDE])
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


@given(chunk=drawn_chunks(), data=st.data(), layout=st.sampled_from([CTX, SMALL_R7_LAYOUT]),
       gains=st.lists(st.just(0) | st.integers(rc.SF_MIN_DB, rc.SF_MAX_DB), min_size=1,
                      max_size=5))
def test_band_cost_equals_reference_formula(chunk, data, layout, gains):
    # gain 0 divides by exactly 1, so edge magnitudes are priced as drawn;
    # scales of 3e3 and up escape at every gain up to 0 dB
    coded, contrast = chunk
    if data.draw(st.booleans()):
        edges = edge_magnitudes(layout.table)
        coded[0] = edges[np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).integers(
            0, edges.size, N_BINS)]
    rows = len(coded)
    want = [[[reference_cost(coded[r, bins], g, contrast[r, b], layout.real_mask[bins], layout)
              for g in gains] for b, bins in enumerate(band_slices(layout))] for r in range(rows)]
    costs = rc.band_cost_bits(np.abs(coded), np.tile(gains, (rows, BANDS, 1)),
                              layout.raw_offsets(contrast), layout)
    assert costs.tolist() == want


@given(data=st.data(), width=st.sampled_from([1, 2, 5]),
       layout=st.sampled_from([CTX, WIDE_PHASE_LAYOUT, SMALL_R7_LAYOUT, ODD_EDGES_LAYOUT]))
def test_chunk_cost_equals_each_bands_reference(data, width, layout):
    # every (row, band, gain) cost is, to the last bit, what the band costs priced alone:
    # silent, loud and escape-heavy rows, either contrast flag, real DC and Nyquist bins of
    # either sign, one, two or five gains a band
    coded, contrast = data.draw(drawn_chunks(layout))
    shape = contrast.shape + (width,)
    size = int(np.prod(shape))
    gains = np.reshape(data.draw(st.lists(st.integers(rc.SF_MIN_DB, rc.SF_MAX_DB),
                                          min_size=size, max_size=size)), shape)
    mags, offs = np.abs(coded), layout.raw_offsets(contrast)
    costs = rc.band_cost_bits(mags, gains, offs, layout)
    assert costs.shape == shape
    for r, b in np.ndindex(contrast.shape):
        want = band_alone(mags, offs, r, b, layout)(gains[r, b])
        assert [c.hex() for c in costs[r, b].tolist()] == [c.hex() for c in want.tolist()]


def test_search_needs_few_cost_calls(monkeypatch):
    rng = np.random.default_rng(26)
    rows = 50
    scales = rng.uniform(1, 50, size=(rows, BANDS))[:, CTX.band_of]
    mags = np.abs((rng.standard_normal((rows, N_BINS)) + 1j * rng.standard_normal((rows, N_BINS)))
                  * scales)
    targets = rng.integers(15, 60, size=(rows, BANDS))
    cost, calls = rc.band_cost_bits, []

    def counted(mags, gains, offs, layout):
        calls.append(np.shape(gains))
        return cost(mags, gains, offs, layout)

    monkeypatch.setattr(rc, "band_cost_bits", counted)
    rc.search_scale_factors(mags, targets, CTX.raw_offsets(np.ones((rows, BANDS), dtype=bool)),
                            CTX)
    # for the whole chunk, not per band: the ends call, then one call per level pricing one
    # midpoint for every band of each row with a pair still open; 120 gains take 7 levels
    assert 1 < len(calls) <= 1 + 7
    assert calls[0] == (rows, BANDS, 2)
    assert all(shape[0] <= rows and shape[1:] == (BANDS, 1) for shape in calls[1:])


def test_each_pair_gets_one_verdict_with_a_bool_overflow(monkeypatch):
    # the search hands each (row, band) pair to find_scale_factor once, through the module, so
    # a wrapper of it sees every pair; its result[1] is the pair's overflow as a Python bool
    verdict, seen = rc.find_scale_factor, []

    def counted(*pair):
        seen.append(verdict(*pair))
        return seen[-1]

    monkeypatch.setattr(rc, "find_scale_factor", counted)
    mags = np.vstack([np.zeros(N_BINS), np.full(N_BINS, 3e5),
                      np.abs(np.random.default_rng(28).standard_normal(N_BINS)) * 10.0])
    targets, offs = np.full((3, BANDS), 30), CTX.raw_offsets(np.ones((3, BANDS), dtype=bool))
    targets[1] = 1
    gains, overflow, bits = rc.search_scale_factors(mags, targets, offs, CTX)
    assert [type(v[1]) for v in seen] == [bool] * (3 * BANDS)
    assert [v[1] for v in seen] == overflow.ravel().tolist()
    assert overflow.tolist() == [[False] * BANDS, [True] * BANDS, [False] * BANDS]
    assert [v[0] for v in seen] == gains.ravel().tolist()
    assert [v[2] for v in seen] == bits.ravel().tolist()
    with pytest.raises(ValueError, match="target_bits must be positive"):
        rc.search_scale_factors(mags, 0, offs, CTX)


@given(data=st.data(), kinds=st.lists(st.sampled_from(["silent", "loud", "drawn"]), min_size=1,
                                      max_size=5))
def test_snap_windows_are_priced_only_for_rows_left_open(data, kinds):
    # a silent row fits at SF_MIN_DB in every band and a loud one busts its 1-bit budgets at
    # SF_MAX_DB, so the ends call closes their every pair: a chunk of only such rows makes
    # that call alone, and each level prices only rows with a pair still open, every pair
    # still its sequential search
    coded, contrast = data.draw(drawn_chunks())
    rows = len(kinds)
    pick = np.arange(rows) % len(coded)
    mags, contrast, targets = np.abs(coded[pick]), contrast[pick], drawn_targets(data, rows)
    for r, kind in enumerate(kinds):
        if kind == "silent":
            mags[r] = 0.0
        elif kind == "loud":
            mags[r], targets[r] = 3e5, 1
    offs = CTX.raw_offsets(contrast)
    cost, priced = rc.band_cost_bits, []

    def counted(mags, gains, offs, layout):
        priced.append(mags)
        return cost(mags, gains, offs, layout)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rc, "band_cost_bits", counted)
        gains, overflow, bits = rc.search_scale_factors(mags, targets, offs, CTX)
    ends = cost(mags, np.tile([rc.SF_MIN_DB, rc.SF_MAX_DB], (rows, BANDS, 1)), offs, CTX)
    left_open = ((ends[..., 0] > targets) & (ends[..., 1] <= targets)).any(axis=1)
    assert np.array_equal(priced[0], mags) and len(priced) <= 1 + 7
    if "drawn" not in kinds:
        assert len(priced) == 1
    if len(priced) > 1:
        assert np.array_equal(priced[1], mags[left_open])
    assert all(any(np.array_equal(row, open_row) for open_row in mags[left_open])
               for level in priced[1:] for row in level)
    for r, b in np.ndindex(rows, BANDS):
        cost_rb = band_alone(mags, offs, r, b)
        assert (gains[r, b], overflow[r, b]) == sequential_search(cost_rb, targets[r, b])
        assert bits[r, b] == cost_rb(gains[r, b])


def test_a_silent_chunk_prices_no_snap_window():
    # every pair of a silent chunk fits at SF_MIN_DB, so the ends call closes them all and no
    # level is priced
    rows, cost, priced = 3, rc.band_cost_bits, []

    def counted(mags, gains, offs, layout):
        priced.append(np.shape(gains))
        return cost(mags, gains, offs, layout)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rc, "band_cost_bits", counted)
        gains, overflow, bits = rc.search_scale_factors(
            np.zeros((rows, N_BINS)), np.ones((rows, BANDS), dtype=int),
            CTX.raw_offsets(np.ones((rows, BANDS), dtype=bool)), CTX)
    assert priced == [(rows, BANDS, 2)]
    assert (gains == rc.SF_MIN_DB).all() and not overflow.any() and (bits == 0.0).all()


# --- the gain search prices the raw fields pack writes


@given(data=st.data(), layout=st.sampled_from([CTX, WIDE_PHASE_LAYOUT]),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 3e3, 3e5]),
       gains=st.lists(st.integers(rc.SF_MIN_DB, rc.SF_MAX_DB), min_size=1, max_size=5))
def test_search_prices_exactly_the_widths_pack_writes(data, layout, scale, gains):
    # a band's cost is the block entropy of its index 1 plus exactly the raw bits pack writes
    # for that index 1, under either contrast flag and in the first and last band, which hold
    # the real-valued DC and Nyquist bins; the band's offsets are its slice of the frame's
    last = len(layout.band_sizes) - 1
    b = data.draw(st.sampled_from([0, last]) | st.integers(0, last))
    contrast = np.array(data.draw(st.lists(st.booleans(), min_size=last + 1, max_size=last + 1)))
    bins, width = band_slices(layout)[b], layout.band_sizes[b]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    band = (rng.standard_normal(width) + 1j * rng.standard_normal(width)) * scale
    mags = np.zeros((1, layout.real_mask.size))
    mags[0, bins] = np.abs(band)
    for g in gains:
        idx1 = pq.magnitude_index(np.abs(band) / 10.0 ** (g / 20.0), layout.table)
        record = FramePayload.zeros(1, layout)  # the band's index 1 in an otherwise zero frame
        record.index1[0, bins], record.contrast[0] = idx1, contrast
        record.index2[0] = np.where(record.index1[0] == pq.ESCAPE_INDEX, pq.OUTLIER_MIN, 0)
        offsets = layout.raw_offsets(record.contrast)
        widths = layout.raw_widths.take(offsets[0] + record.index1[0])
        stats = {}
        pack_frame(wire_fields(record, offsets, layout)[0], layout, stats)
        assert stats["phase"] + stats["sign"] == widths.sum() == widths[bins].sum()
        cost = rc.band_cost_bits(mags, np.full((1, last + 1, 1), g),
                                 layout.raw_offsets(contrast[None]), layout)[0, b, 0]
        assert cost == sample_entropy_bits(idx1) + int(widths.sum())
