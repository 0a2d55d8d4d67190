import numpy as np
import pytest
from hypothesis import given, strategies as st

from unscodec import polar_quant as pq
from unscodec import rate_control as rc
from unscodec.config import CodecConfig
from unscodec.entropy_bitstream import FramePayload, pack_frame
from unscodec.util import round_half_up

CTX = CodecConfig().layout


def offsets(high, width, real=(), layout=CTX):
    """Each bin's row start in ``layout.raw_widths`` for bands of ``width`` bins, with one
    contrast flag for every row or one per row and real-valued bins at the positions ``real``:
    read off the layout's own offsets of a frame, whose bin 0 is real and bin 1 is not."""
    frame = layout.raw_offsets(np.repeat([[False], [True]], len(layout.band_sizes), axis=1))
    rows = np.where(np.asarray(high)[..., None], frame[1, 1], frame[0, 1]).repeat(width, axis=-1)
    rows[..., list(real)] = frame[0, 0]
    return rows


def stack_offsets(stack, highs, real):
    """The offsets of a stack of bands, one contrast flag per row; ``real`` makes the first and
    last bin of every row real-valued, as DC and Nyquist are."""
    return offsets(np.array(highs), stack.shape[1], [0, -1] if real else ())


def search_band(band, target_bits):
    """One high-contrast band's (gain, overflow, bits), searched as a stack of one row."""
    gains, overflow, bits = rc.search_scale_factors(band[None, :], target_bits,
                                                    offsets([True], band.size), CTX)
    return gains[0], overflow[0], bits[0]


def search_rows(stack, targets, offs):
    """Every row's (gain, overflow, bits) from one search of the stack."""
    return zip(*rc.search_scale_factors(stack, targets, offs, CTX))


def band_widths(ctx):
    """Band widths of a pack context without the Nyquist bin the last band carries."""
    sizes = [s.stop - s.start for s in ctx.band_slices]
    return tuple(sizes[:-1] + [sizes[-1] - 1])


def test_band_layout_widths():
    layout = CodecConfig().layout
    assert band_widths(layout) == (40, 50, 50, 60, 60, 70, 80, 102)
    assert len(layout.band_slices) == 8


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
    bands = [x[s] for s in ctx.band_slices]
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
    assert rc.sample_entropy_bits(np.array([3, 3, 3, 3])) == 0.0


def test_entropy_of_half_half_block():
    assert abs(rc.sample_entropy_bits(np.array([0, 0, 1, 1])) - 4.0) < 1e-12


def test_entropy_short_trailing_block():
    # blocks [1,1,2,2] -> 4 bits, then [5] alone -> 0 bits
    bits = rc.sample_entropy_bits(np.array([1, 1, 2, 2, 5]))
    assert abs(bits - 4.0) < 1e-12


def test_estimate_adds_exact_phase_bits():
    # four equal indices cost 0 magnitude bits: the cost is the exact raw bits
    band = np.full(4, 3.0, dtype=complex)
    i1 = pq.quantize_magnitudes(np.abs(band), pq.DEFAULT_ECUPQ_TABLE)[0]
    phase_bits = np.log2(pq.phase_cells_array(i1, True, CTX.phase_cells)).sum()
    assert rc.band_cost_bits(band, 0, offsets(True, 4), CTX) == phase_bits == 4 * 6.0


def test_scale_factor_all_zero_band():
    g, over, _ = search_band(np.zeros(50, dtype=complex), 30)
    assert g == rc.SF_MIN_DB
    assert not over


def test_scale_factor_matches_grid_sweep_oracle():
    rng = np.random.default_rng(20)
    offs = offsets(True, 50)
    for _ in range(12):
        band = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * rng.uniform(0.5, 30)
        target = int(rng.integers(15, 60))
        g, over, bits = search_band(band, target)
        assert not over
        assert bits == rc.band_cost_bits(band, g, offs, CTX)
        # oracle: exhaustive integer-dB sweep for the smallest feasible gain
        feasible = [gg for gg in range(rc.SF_MIN_DB, rc.SF_MAX_DB + 1)
                    if rc.band_cost_bits(band, gg, offs, CTX) <= target]
        assert g == min(feasible)
        assert rc.band_cost_bits(band, g, offs, CTX) <= target
        if g > rc.SF_MIN_DB:
            assert rc.band_cost_bits(band, g - 1, offs, CTX) > target


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
    # a gain index is exactly that many dB: the decoder's divisor for it is
    # the one the gain search costs the band with
    indices = np.arange(rc.SF_MIN_DB, rc.SF_MAX_DB + 1)
    assert rc.GAIN_DIVISORS.tolist() == [10.0 ** (g / 20.0) for g in indices.tolist()]
    assert np.allclose(20.0 * np.log10(rc.GAIN_DIVISORS), indices, rtol=0.0, atol=1e-12)


def test_real_mask_costs_sign_bit():
    band = np.array([3.0, 3.0, 3.0, 3.0], dtype=complex)
    # same magnitudes: masked variant replaces one phase cost with one sign bit
    cost_plain = rc.band_cost_bits(band, 0, offsets(True, 4), CTX)
    cost_masked = rc.band_cost_bits(band, 0, offsets(True, 4, real=[0]), CTX)
    i1, _ = pq.quantize_magnitudes(np.abs(band), pq.DEFAULT_ECUPQ_TABLE)
    cells = pq.phase_cells_array(i1, True, CTX.phase_cells)
    assert abs((cost_plain - cost_masked) - (np.log2(cells[0]) - 1.0)) < 1e-12


# --- the batched gain search against the sequential one it replaces

def sequential_search(band, target_bits, offs):
    """Oracle: 24 sequential bisection steps, one cost call each, then the
    two snap loops; the decision the pinned streams were encoded with."""
    def cost(gain):
        return rc.band_cost_bits(band, gain, offs, CTX)

    lo, hi = float(rc.SF_MIN_DB), float(rc.SF_MAX_DB)
    if cost(lo) <= target_bits:
        return rc.SF_MIN_DB, False
    if cost(hi) > target_bits:
        return rc.SF_MAX_DB, True
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if cost(mid) <= target_bits:
            hi = mid
        else:
            lo = mid
    g = int(round_half_up(hi))
    while g < rc.SF_MAX_DB and cost(g) > target_bits:
        g += 1
    while g > rc.SF_MIN_DB and cost(g - 1) <= target_bits:
        g -= 1
    return g, False


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


@st.composite
def stacks(draw):
    """1-9 bands of one width, 1-103 coefficients: each row silent, tiny,
    ordinary or huge enough to overflow every gain, sometimes with runs of
    equal magnitudes (equal index blocks make the block cost jump as the gain
    moves)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, rows = draw(st.integers(1, 103)), draw(st.integers(1, 9))
    scales = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 30.0, 3e3, 3e5]),
                           min_size=rows, max_size=rows))
    stack = (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    stack *= np.array(scales)[:, None]
    if draw(st.booleans()):
        stack = np.repeat(stack[:, ::4], 4, axis=1)[:, :n]
    if draw(st.booleans()):
        stack[:, 0] = stack[:, 0].real  # a real coefficient, like DC and Nyquist
    return stack


def row_stack(rows):
    """Bands that carry their row number, for costs drawn per row."""
    return np.repeat(np.arange(rows, dtype=complex)[:, None], 4, axis=1)


def row_of(band):
    """The row number a band of ``row_stack`` carries; one per row of a stack."""
    return np.asarray(band)[..., 0].real.astype(int)


@given(data=st.data(), stack=stacks(), real=st.booleans())
def test_batched_search_matches_sequential_search(data, stack, real):
    rows = len(stack)
    targets = data.draw(st.lists(st.integers(1, 70), min_size=rows, max_size=rows))
    highs = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    offs = stack_offsets(stack, highs, real)
    for r, (g, over, bits) in enumerate(search_rows(stack, targets, offs)):
        assert (g, over) == sequential_search(stack[r], targets[r], offs[r])
        assert bits == rc.band_cost_bits(stack[r], g, offs[r], CTX)


@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=9),
       data=st.data(), roughness=st.sampled_from([0.0, 2.0, 20.0, 200.0]))
def test_batched_search_matches_sequential_search_on_non_monotone_costs(seeds, data, roughness):
    # a falling staircase per row with steps at random gains and random
    # bumps: the cost rises again with the gain in places, so the snap loops
    # must walk; low budgets overflow and high ones fit at the finest gain
    rows = len(seeds)
    targets = data.draw(st.lists(st.integers(1, 70), min_size=rows, max_size=rows))
    edges = np.array([np.sort(np.random.default_rng(s).uniform(rc.SF_MIN_DB, rc.SF_MAX_DB, 400))
                      for s in seeds])
    steps = np.linspace(90.0, 0.0, 401) + roughness * np.array(
        [np.random.default_rng(s + 1).random(401) for s in seeds])

    def staircase_cost(band, gain_db, offs, layout):
        r, g = row_of(band), np.atleast_1d(np.asarray(gain_db, dtype=float))
        # searchsorted per row: the number of the row's edges below each gain
        cost = np.take_along_axis(steps[r], (edges[r][..., None, :] < g[..., None]).sum(-1),
                                  axis=-1)
        return float(cost[0]) if np.ndim(gain_db) == 0 else cost

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rc, "band_cost_bits", staircase_cost)
        stack, offs = row_stack(rows), offsets(np.ones(rows, dtype=bool), 4)
        for r, (g, over, bits) in enumerate(search_rows(stack, targets, offs)):
            assert (g, over) == sequential_search(stack[r], targets[r], offs[r])
            assert bits == staircase_cost(stack[r], g, offs[r], CTX)


@given(wholes=st.lists(st.integers(-58, 58), min_size=1, max_size=9), data=st.data())
def test_batched_search_matches_sequential_search_near_rounding_edges(wholes, data):
    # each row's cost fits from a crossing gain near a rounding edge on,
    # except at the integer gains around it, which fit or miss at random:
    # where the bisection ends relative to the edge decides where the snap
    # loops start
    rows = len(wholes)
    fracs = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=rows, max_size=rows))
    targets = data.draw(st.lists(st.sampled_from([5, 30, 70]), min_size=rows, max_size=rows))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    crossing = np.array(wholes) + 0.5 + np.array(fracs)
    near = np.array(wholes)[:, None] + np.arange(-3.0, 5.0)
    near_fits = rng.random(near.shape) < 0.5

    def bumpy_cost(band, gain_db, offs, layout):
        r, g = row_of(band), np.atleast_1d(np.asarray(gain_db, dtype=float))
        hit = g[..., None] == near[r][..., None, :]
        fits = np.where(hit.any(-1), (hit & near_fits[r][..., None, :]).any(-1),
                        g >= crossing[r][..., None])
        cost = np.where(fits, 10.0, 50.0)
        return float(cost[0]) if np.ndim(gain_db) == 0 else cost

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rc, "band_cost_bits", bumpy_cost)
        stack, offs = row_stack(rows), offsets(np.ones(rows, dtype=bool), 4)
        for r, (g, over, bits) in enumerate(search_rows(stack, targets, offs)):
            assert (g, over) == sequential_search(stack[r], targets[r], offs[r])
            assert bits == bumpy_cost(stack[r], g, offs[r], CTX)


def test_snap_walks_up_to_the_coarsest_gain(monkeypatch):
    # every gain from 10 dB up fits except the integers below 60, so the
    # bisection ends near 10 and the snap walks up to 60, the one integer
    # its window did not price
    def cost(band, gain_db, offs, layout):
        g = np.asarray(gain_db, dtype=float)
        bits = np.where((g >= 10.0) & ((g != np.round(g)) | (g == 60.0)), 10.0, 50.0)
        return float(bits) if bits.ndim == 0 else bits

    monkeypatch.setattr(rc, "band_cost_bits", cost)
    band = np.zeros(4, dtype=complex)
    assert search_band(band, 30) == (rc.SF_MAX_DB, False, 10.0)
    assert sequential_search(band, 30, offsets(True, 4)) == (rc.SF_MAX_DB, False)


@given(stack=stacks(), data=st.data(), real=st.booleans(),
       gains=st.lists(st.floats(rc.SF_MIN_DB, rc.SF_MAX_DB) | st.integers(-60, 60),
                      min_size=1, max_size=9))
def test_vectorized_cost_equals_scalar_cost(stack, data, real, gains):
    rows = len(stack)
    highs = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    offs = stack_offsets(stack, highs, real)
    # each row prices the drawn gains in its own order
    grid = np.array([np.roll(gains, r) for r in range(rows)], dtype=float)
    costs = rc.band_cost_bits(stack, grid, offs, CTX)
    assert costs.shape == grid.shape
    for r in range(rows):
        scalar = [rc.band_cost_bits(stack[r], g, offs[r], CTX) for g in grid[r].tolist()]
        assert costs[r].tolist() == scalar
        assert rc.band_cost_bits(stack[r], grid[r], offs[r], CTX).tolist() == scalar


def test_sample_entropy_matches_bincount_formula():
    # both sum the same exact per-symbol terms, in a different order, so they
    # agree to rounding; rows of a 2-D array equal their 1-D calls exactly
    rng = np.random.default_rng(25)
    for n in range(1, 104):
        rows = rng.integers(0, rng.integers(1, 15, size=(40, 1)), size=(40, n))
        batched = rc.sample_entropy_bits(rows)
        for row, bits in zip(rows, batched):
            assert abs(rc.sample_entropy_bits(row) - bincount_entropy_bits(row)) < 1e-9
            assert bits == rc.sample_entropy_bits(row)
    assert rc.sample_entropy_bits(np.zeros(0, dtype=int)) == 0.0


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
    assert rc.sample_entropy_bits(blocks).tolist() == pair_count_entropy_bits(blocks).tolist()
    rng = np.random.default_rng(27)
    for n in range(0, 104):
        rows = np.repeat(rng.integers(0, 16, size=(30, n)), rng.integers(1, 4), axis=1)[:, :n]
        assert rc.sample_entropy_bits(rows).tolist() == pair_count_entropy_bits(rows).tolist()


def reference_cost(band, gain, high, real, layout):
    """One band's cost at one gain by the formula the tables replace: index 1,
    then its pair-counted block entropy plus the sum of its raw bits: a sign
    bit where index 1 is nonzero at the first and last bin of a ``real`` band,
    else log2 of the [contrast][min(index1, 7)] phase cells."""
    mags = np.abs(band) / 10.0 ** (gain / 20.0)
    idx1 = searchsorted_index1(mags, layout.table)
    assert pq.quantize_magnitudes(mags, layout.table)[0].tolist() == idx1.tolist()
    real_mask = np.zeros(idx1.size, dtype=bool)
    real_mask[[0, -1]] = real
    raw = np.where(real_mask, idx1 > 0,
                   np.log2(layout.phase_cells[int(high), np.minimum(idx1, 7)]).astype(int))
    return float(pair_count_entropy_bits(idx1) + raw.sum())


def edge_magnitudes(table):
    """Every threshold, the companded region's rounding steps, R7_TILDE and
    one ulp either side of each."""
    edges = np.array([*table.thresholds, *(np.arange(1, 9) - 0.5) ** (4 / 3), pq.R7_TILDE])
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


@given(stack=stacks(), data=st.data(), real=st.booleans(), as_mags=st.booleans(),
       layout=st.sampled_from([CTX, SMALL_R7_LAYOUT]),
       gains=st.lists(st.just(0) | st.floats(rc.SF_MIN_DB, rc.SF_MAX_DB) | st.integers(-60, 60),
                      min_size=1, max_size=5))
def test_band_cost_equals_reference_formula(stack, data, real, as_mags, layout, gains):
    # gain 0 divides by exactly 1, so edge magnitudes are priced as drawn;
    # scales of 3e3 and up escape at every gain up to 0 dB
    rows, width = stack.shape
    if data.draw(st.booleans()):
        edges = edge_magnitudes(layout.table)
        picks = data.draw(st.lists(st.integers(0, edges.size - 1), min_size=width,
                                   max_size=width))
        stack[0] = edges[picks]
    highs = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    offs = offsets(np.array(highs), width, [0, -1] if real else (), layout)
    bands = np.abs(stack) if as_mags else stack
    want = [[reference_cost(stack[r], g, highs[r], real, layout) for g in gains]
            for r in range(rows)]
    assert rc.band_cost_bits(bands, np.tile(gains, (rows, 1)), offs, layout).tolist() == want
    assert rc.band_cost_bits(bands[0], np.array(gains), offs[0], layout).tolist() == want[0]
    assert [rc.band_cost_bits(bands[0], g, offs[0], layout) for g in gains] == want[0]


def test_search_needs_few_cost_calls(monkeypatch):
    rng = np.random.default_rng(26)
    scales = rng.uniform(1, 50, size=(50, 1))
    stack = (rng.standard_normal((50, 60)) + 1j * rng.standard_normal((50, 60))) * scales
    targets = rng.integers(15, 60, size=50)
    cost, calls = rc.band_cost_bits, []

    def counted(band, gain_db, offs, layout):
        calls.append(gain_db)
        return cost(band, gain_db, offs, layout)

    monkeypatch.setattr(rc, "band_cost_bits", counted)
    rc.search_scale_factors(stack, targets, offsets(np.ones(50, dtype=bool), 60), CTX)
    # the bracket's ends call, one midpoint per open row per halving, then
    # one call for every row's snap window; the snap read only gains its
    # window priced, so it made no call of its own
    assert len(calls) <= 2 + rc.SF_SEARCH_ITERS
    assert all(np.shape(gains)[1:] == (1,) for gains in calls[1:-1])
    assert np.shape(calls[-1]) == (len(stack), 5)
    assert all(np.ndim(gains) == 2 for gains in calls)  # none priced one gain on demand
    assert sum(np.size(gains) for gains in calls) / len(stack) <= 20


@given(stack=stacks(), data=st.data(), real=st.booleans())
def test_stacked_snap_windows_equal_each_rows_call(stack, data, real):
    # a silent row fits at the finest gain and a loud one at a budget of 1
    # busts even the coarsest, so their windows are clipped at either end
    n = stack.shape[1]
    stack = np.vstack([stack, np.zeros(n), np.full(n, 3e5 + 3e5j)])
    rows = len(stack)
    targets = data.draw(st.lists(st.integers(1, 70), min_size=rows, max_size=rows))
    targets[-1] = 1
    highs = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    offs = stack_offsets(stack, highs, real and n > 1)  # a lone real bin costs at most 1 bit
    uppers = rc.bracket_scale_factors(stack, targets, offs, CTX)
    assert uppers[-2] == rc.SF_MIN_DB and uppers[-1] == rc.SF_MAX_DB
    windows = rc.snap_window(uppers)
    costs = rc.band_cost_bits(stack, windows, offs, CTX)
    assert costs.shape == windows.shape == (rows, 5)
    for r in range(rows):
        g = int(round_half_up(uppers[r]))
        gains = [x for x in range(g - 2, g + 3) if rc.SF_MIN_DB <= x <= rc.SF_MAX_DB]
        assert sorted(set(windows[r].tolist())) == gains
        scalar = dict(zip(gains, rc.band_cost_bits(stack[r], np.array(gains, dtype=float),
                                                   offs[r], CTX).tolist()))
        assert costs[r].tolist() == [scalar[x] for x in windows[r].tolist()]


# --- the gain search prices the raw fields pack writes

WIDE_PHASE_LAYOUT = CodecConfig(phase_cells_high=(1, 8, 16, 16, 32, 32, 64, 128)).layout


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
    bins, width = layout.band_slices[b], layout.band_sizes[b]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    band = (rng.standard_normal(width) + 1j * rng.standard_normal(width)) * scale
    offs = layout.raw_offsets(contrast)[bins]
    for g in gains:
        idx1 = pq.magnitude_index(np.abs(band) / 10.0 ** (g / 20.0), layout.table)
        record = FramePayload.zeros(1, layout)  # the band's index 1 in an otherwise zero frame
        record.index1[0, bins], record.contrast[0] = idx1, contrast
        record.index2[0] = np.where(record.index1[0] == pq.ESCAPE_INDEX, pq.OUTLIER_MIN, 0)
        widths = layout.field_widths(record.index1[0], contrast)
        stats = {}
        pack_frame(record, 0, layout, stats)
        assert stats["phase"] + stats["sign"] == widths.sum() == widths[bins].sum()
        cost = rc.band_cost_bits(band, g, offs, layout)
        assert cost == rc.sample_entropy_bits(idx1) + int(widths.sum())
