import hashlib

import numpy as np
import pytest

from unscodec import polar_quant as pq
from unscodec.config import CodecConfig

TABLE = pq.DEFAULT_ECUPQ_TABLE
CFG = CodecConfig()
CELLS = CFG.layout.phase_cells
EDGES = CFG.band_edges
BAND_RANGES = list(zip((0,) + EDGES[:-1], EDGES))


def table_entropy_and_mse(table):
    """Cell entropy and in-region MSE of a table on the design density."""
    edges = np.concatenate([[0.0], np.asarray(table.thresholds)])
    return pq._cell_stats(edges, np.asarray(table.levels))[2:]


def uniform_quantizer_mse():
    """MSE of the midpoint-reconstruction uniform 8-cell quantizer on [0, ECUPQ_R7]."""
    edges = np.linspace(0.0, pq.ECUPQ_R7, 9)
    return pq._cell_stats(edges, 0.5 * (edges[:-1] + edges[1:]))[3]


def fer_of(values_db):
    return pq.compute_fer(values_db, EDGES)


def test_table_shape_invariants():
    assert len(TABLE.thresholds) == 8
    assert len(TABLE.levels) == 8
    assert TABLE.levels[0] == 0.0
    assert TABLE.thresholds[-1] == 5.056
    assert np.all(np.diff(TABLE.thresholds) > 0)
    assert np.all(np.diff(TABLE.levels) > 0)
    # interior levels sit inside their cells
    edges = np.concatenate([[0.0], TABLE.thresholds])
    for j, y in enumerate(TABLE.levels):
        assert edges[j] <= y < edges[j + 1]


def quantize_one(a):
    """(index1, index2) of one magnitude through the vectorized quantizer."""
    i1, i2 = pq.quantize_magnitudes(np.array([a]), TABLE)
    return int(i1[0]), int(i2[0])


def dequantize_one(i1, i2=0):
    return float(pq.dequantize_magnitudes(np.array([i1]), np.array([i2]), TABLE)[0])


def test_quantize_zero_hits_deadzone():
    i1, i2 = quantize_one(0.0)
    assert i1 == 0
    assert i2 == 0  # index2 carries nothing outside the escape region
    assert dequantize_one(i1, i2) == 0.0


def test_quantize_companded_example():
    i1, i2 = quantize_one(10.0)
    assert i1 == 12
    rec = dequantize_one(i1, i2)
    assert abs(rec - 6.0 ** (4.0 / 3.0)) < 1e-12
    assert abs(rec - 10.9027) < 1e-3


def test_quantize_outlier_example():
    i1, i2 = quantize_one(20.0)
    assert i1 == 8
    assert i2 == 20
    assert dequantize_one(i1, i2) == 20.0


def test_region_boundaries():
    just_below = np.nextafter(5.056, 0.0)
    assert quantize_one(just_below)[0] == 7
    assert quantize_one(5.056)[0] == 9  # floor(5.056^0.75+0.5)+6
    r7t = 8.5 ** (4.0 / 3.0)
    assert quantize_one(np.nextafter(r7t, 0.0))[0] == 14
    assert quantize_one(r7t)[0] == 8


def test_dequantize_rejects_escape_without_index2():
    with pytest.raises(ValueError):
        pq.dequantize_magnitudes(np.array([8]), None, TABLE)


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize_one(-0.5)
    with pytest.raises(ValueError):
        quantize_one(float("nan"))


def test_requantization_fixpoint_all_codes():
    for i1 in range(15):
        if i1 == 8:
            for i2 in (18, 25, 1000, 65535):
                rec = pq.dequantize_magnitudes(np.array([8]), np.array([i2]), TABLE)
                j1, j2 = pq.quantize_magnitudes(rec, TABLE)
                assert j1[0] == 8 and j2[0] == i2
        else:
            rec = pq.dequantize_magnitudes(np.array([i1]), np.array([0]), TABLE)
            j1, _ = pq.quantize_magnitudes(rec, TABLE)
            assert j1[0] == i1, f"index {i1} decoded to {rec[0]} requantized {j1[0]}"


def test_roundtrip_error_bounds_random():
    rng = np.random.default_rng(30)
    mags = np.concatenate([
        rng.uniform(0.0, 5.056, 20000),
        rng.uniform(5.056, 8.5 ** (4.0 / 3.0), 20000),
        rng.uniform(18.0, 400.0, 20000),
    ])
    i1, i2 = pq.quantize_magnitudes(mags, TABLE)
    rec = pq.dequantize_magnitudes(i1, i2, TABLE)
    err = np.abs(rec - mags)
    edges = np.concatenate([[0.0], TABLE.thresholds])
    core = i1 <= 7
    widths = np.diff(edges)[i1[core]]
    assert np.all(err[core] <= widths + 1e-12)
    comp = i1 > 8
    raw = i1[comp] - 6
    assert np.all(err[comp] <= (4.0 / 3.0) * (raw + 0.5) ** (1.0 / 3.0))
    outl = i1 == 8
    assert np.all(err[outl] <= 0.5 + 1e-9)


def test_outlier_clamp_sliver():
    # values in [r7_tilde, 17.5) clamp up to 18; worst error is 18 - r7_tilde
    r7t = 8.5 ** (4.0 / 3.0)
    mags = np.linspace(r7t, 17.4999, 100)
    i1, i2 = pq.quantize_magnitudes(mags, TABLE)
    rec = pq.dequantize_magnitudes(i1, i2, TABLE)
    assert np.all(i2 == 18)
    assert np.max(np.abs(rec - mags)) <= 18.0 - r7t + 1e-12


def test_phase_cells_entries():
    idx1 = np.array([0, 7, 12, 8])
    assert pq.phase_cells_array(idx1, True, CELLS).tolist() == [1, 64, 64, 64]
    assert pq.phase_cells_array(idx1, False, CELLS).tolist() == [1, 32, 32, 32]


def test_phase_cell_sets_relationship():
    high, low = CFG.phase_cells_high, CFG.phase_cells_low
    assert high == (1, 8, 16, 16, 32, 32, 64, 64)
    assert low == (1, 4, 8, 8, 16, 16, 32, 32)
    assert CELLS.tolist() == [list(low), list(high)]
    for h, l in zip(high[1:], low[1:]):
        assert l * 2 == h
    for v in high + low:
        assert v & (v - 1) == 0  # powers of two


def test_phase_quantizer_single_cell():
    assert pq.quantize_phase(1.3, 1) == 0
    assert pq.dequantize_phase(0, 1) == 0.0


def test_phase_quantizer_example():
    idx = pq.quantize_phase(0.0, 16)
    assert idx == 8
    rec = pq.dequantize_phase(idx, 16)
    assert abs(rec - np.pi / 16.0) < 1e-12


def test_phase_error_bound():
    rng = np.random.default_rng(31)
    thetas = rng.uniform(-20.0, 20.0, 5000)
    for n in (4, 8, 16, 32, 64):
        idx = pq.quantize_phase(thetas, np.full(thetas.size, n))
        rec = pq.dequantize_phase(idx, np.full(thetas.size, n))
        wrapped = np.angle(np.exp(1j * thetas))
        err = np.abs(np.angle(np.exp(1j * (rec - wrapped))))
        assert np.max(err) <= np.pi / n + 1e-12


def test_phase_rejects_bad_cell_count():
    with pytest.raises(ValueError):
        pq.quantize_phase(0.0, 0)


def test_fer_flat_envelope():
    fer = fer_of(np.zeros(513))
    assert np.allclose(fer, 0.125)
    assert not np.any(fer > CFG.fer_threshold)


def test_fer_single_dominant_band():
    vdb = np.zeros(513)
    vdb[10] = 70.0
    fer = fer_of(vdb)
    assert abs(fer[0] - 1.0) < 1e-12
    assert np.allclose(fer[1:], 0.0)
    assert list(fer > CFG.fer_threshold) == [True] + [False] * 7


def test_fer_sums_to_one_random():
    rng = np.random.default_rng(32)
    for _ in range(20):
        vdb = rng.standard_normal(513) * 12.0
        fer = fer_of(vdb)
        assert abs(fer.sum() - 1.0) < 1e-9
        assert np.all(fer >= 0.0)


def test_fer_permutation_equivariance():
    rng = np.random.default_rng(33)
    base = rng.uniform(1.0, 40.0, 8)
    vdb = np.zeros(513)
    for b, (lo, hi) in enumerate(BAND_RANGES):
        vdb[lo:hi] = base[b]
    ref = fer_of(vdb)
    perm = np.array([3, 1, 0, 2, 7, 6, 5, 4])
    vdb2 = np.zeros(513)
    for b, (lo, hi) in enumerate(BAND_RANGES):
        vdb2[lo:hi] = base[perm[b]]
    out = fer_of(vdb2)
    assert np.allclose(out, ref[perm], atol=1e-12)


def test_design_regenerates_frozen_table():
    assert pq.design_ecupq_table() == TABLE


@pytest.mark.parametrize("rate, digest", [
    (1.5, "bccb848c17eb8d55f16bc61c687144e838a0c879149d3c2e6e6587d38032faea"),
    (2.0, "d5fa7fe506bf6f0b8235994fb59f21fa64f6cdff75c1a176fca68e2e1fa50ad7"),
])
def test_design_is_pinned_at_other_rates(rate, digest):
    # the tables away from the default rate, bit for bit
    table = pq.design_ecupq_table(rate)
    assert hashlib.sha256(repr((table.thresholds, table.levels)).encode()).hexdigest() == digest


def test_design_refuses_an_unreachable_rate():
    # 8 cells carry at most 3 bits, and the multiplier's lower end, the plain
    # Lloyd quantizer, reaches only 2.7486 of them
    for rate in ("3.0", "3.5"):
        with pytest.raises(pq.ConvergenceError, match=rf"^entropy 2\.7486 did not reach {rate} "):
            pq.design_ecupq_table(float(rate))


def test_design_entropy_band_and_mse():
    entropy, mse = table_entropy_and_mse(TABLE)
    assert abs(entropy - 2.495) <= 0.05
    assert mse <= uniform_quantizer_mse()
