import numpy as np
import pytest

from unscodec import polar_quant as pq
from unscodec import rate_control as rc
from unscodec.util import db_to_lin


def make_ctx(high=True, real_mask=None):
    return rc.BandQuantContext(table=pq.DEFAULT_ECUPQ_TABLE, high_contrast=high,
                               real_mask=real_mask)


def test_band_layout_widths():
    layout = rc.BandLayout()
    assert layout.widths == (40, 50, 50, 60, 60, 70, 80, 102)
    assert layout.n_bands == 8


def test_split_bands_edges():
    layout = rc.BandLayout()
    x = np.arange(512, dtype=complex)
    bands = rc.split_bands(x, layout)
    assert bands[0][0] == 0 and bands[0][-1] == 39
    assert bands[7][0] == 410 and bands[7][-1] == 511
    assert np.array_equal(np.concatenate(bands), x)


def test_split_bands_rejects_wrong_size():
    with pytest.raises(ValueError):
        rc.split_bands(np.zeros(513, dtype=complex), rc.BandLayout())


def test_budget_tables():
    assert rc.MODE_BUDGETS["12k"] == (45, 34, 30, 23, 19, 16, 16, 16)
    assert rc.MODE_BUDGETS["16k"] == (67, 50, 45, 34, 29, 23, 23, 23)
    assert sum(rc.MODE_BUDGETS["12k"]) == 199
    assert sum(rc.MODE_BUDGETS["16k"]) == 294


def test_entropy_of_constant_block():
    assert rc.sample_entropy_bits(np.array([3, 3, 3, 3])) == 0.0


def test_entropy_of_half_half_block():
    assert abs(rc.sample_entropy_bits(np.array([0, 0, 1, 1])) - 4.0) < 1e-12


def test_entropy_short_trailing_block():
    # blocks [1,1,2,2] -> 4 bits, then [5] alone -> 0 bits
    bits = rc.sample_entropy_bits(np.array([1, 1, 2, 2, 5]))
    assert abs(bits - 4.0) < 1e-12


def test_estimate_adds_exact_phase_bits():
    assert rc.estimate_bits(np.array([3, 3, 3, 3]), 8.0) == 8.0


def test_scale_factor_all_zero_band():
    g, over = rc.find_scale_factor(np.zeros(50, dtype=complex), 30, make_ctx())
    assert g == rc.SF_MIN_DB
    assert not over


def test_scale_factor_matches_grid_sweep_oracle():
    rng = np.random.default_rng(20)
    ctx = make_ctx()
    for _ in range(12):
        band = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * rng.uniform(0.5, 30)
        target = int(rng.integers(15, 60))
        g, over = rc.find_scale_factor(band, target, ctx)
        assert not over
        # oracle: exhaustive integer-dB sweep for the smallest feasible gain
        feasible = [gg for gg in range(rc.SF_MIN_DB, rc.SF_MAX_DB + 1)
                    if rc.band_cost_bits(band, gg, ctx) <= target]
        assert g == min(feasible)
        assert rc.band_cost_bits(band, g, ctx) <= target
        if g > rc.SF_MIN_DB:
            assert rc.band_cost_bits(band, g - 1, ctx) > target


def test_scale_factor_shift_equivariance():
    rng = np.random.default_rng(21)
    ctx = make_ctx()
    band = (rng.standard_normal(60) + 1j * rng.standard_normal(60)) * 4.0
    g1, _ = rc.find_scale_factor(band, 30, ctx)
    g2, _ = rc.find_scale_factor(2.0 * band, 30, ctx)
    assert abs((g2 - g1) - 6.0) <= 1.0


def test_scale_factor_fixpoint():
    rng = np.random.default_rng(22)
    ctx = make_ctx()
    band = (rng.standard_normal(60) + 1j * rng.standard_normal(60)) * 8.0
    g, _ = rc.find_scale_factor(band, 25, ctx)
    g2, _ = rc.find_scale_factor(band / 10.0 ** (g / 20.0), 25, ctx)
    assert abs(g2) <= 1


def test_scale_factor_monotone_in_budget():
    rng = np.random.default_rng(23)
    ctx = make_ctx()
    for _ in range(6):
        band = (rng.standard_normal(70) + 1j * rng.standard_normal(70)) * rng.uniform(1, 20)
        gains = [rc.find_scale_factor(band, t, ctx)[0] for t in (12, 20, 32, 48, 64)]
        assert all(b <= a for a, b in zip(gains, gains[1:]))


def test_scale_factor_overflow_flag():
    # budget of 1 bit cannot absorb a hot band even at max attenuation
    rng = np.random.default_rng(24)
    band = (rng.standard_normal(80) + 1j * rng.standard_normal(80)) * 1e6
    g, over = rc.find_scale_factor(band, 1, make_ctx())
    assert over
    assert g == rc.SF_MAX_DB


def test_scale_factors_dequantize_exactly():
    # a gain index is exactly that many dB: the decoder's divisor for it is
    # the one the gain search costs the band with
    indices = np.array([-3, 0, 7, 60, -60, 1, 2, 3])
    assert np.array_equal(db_to_lin(indices), 10.0 ** (indices.astype(float) / 20.0))
    assert np.allclose(20.0 * np.log10(db_to_lin(indices)), indices, rtol=0.0, atol=1e-12)


def test_real_mask_costs_sign_bit():
    ctx_plain = make_ctx()
    mask = np.zeros(4, dtype=bool)
    mask[0] = True
    ctx_masked = rc.BandQuantContext(table=pq.DEFAULT_ECUPQ_TABLE, high_contrast=True,
                                     real_mask=mask)
    band = np.array([3.0, 3.0, 3.0, 3.0], dtype=complex)
    # same magnitudes: masked variant replaces one phase cost with one sign bit
    cost_plain = rc.band_cost_bits(band, 0, ctx_plain)
    cost_masked = rc.band_cost_bits(band, 0, ctx_masked)
    i1, _ = pq.quantize_magnitudes(np.abs(band), pq.DEFAULT_ECUPQ_TABLE)
    cells = pq.phase_cells_array(i1, True)
    assert abs((cost_plain - cost_masked) - (np.log2(cells[0]) - 1.0)) < 1e-12
