import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from unscodec import lp
from unscodec.config import CodecConfig

from test_analysis_stack import ref_autocorr

CFG = CodecConfig()
LSF = (CFG.lsf_step,)
LSF_REC = (CFG.lsf_step, CFG.lsf_min_gap)
CLPC_Q = (CFG.clpc_mag_step_db, CFG.clpc_mag_floor_db, CFG.clpc_mag_ceil_db,
          CFG.clpc_phase_cells)
CLPC_REC = (CFG.clpc_mag_step_db, CFG.clpc_mag_floor_db, CFG.clpc_phase_cells)


def hermitian_toeplitz_solve(r, order):
    """Direct normal-equation solve; the oracle the recursion must match."""
    R = np.empty((order, order), dtype=complex if np.iscomplexobj(r) else float)
    for i in range(order):
        for j in range(order):
            lag = i - j
            R[i, j] = r[lag] if lag >= 0 else np.conj(r[-lag])
    return np.linalg.solve(R, -np.asarray(r[1:order + 1]))


def random_stable_model(rng, order=16, max_k=0.9):
    """Model built from bounded reflection coefficients, guaranteed stable."""
    r = np.zeros(order + 1)
    # synthesize via reverse Levinson from random reflections
    ks = rng.uniform(-max_k, max_k, order)
    a = np.zeros(0)
    for k in ks:
        a = np.concatenate([a + k * a[::-1], [k]]) if a.size else np.array([k])
    return a


def test_autocorr_of_delta():
    x = np.zeros(64)
    x[0] = 1.0
    r = lp.autocorr(x, 5)
    assert np.allclose(r, [1, 0, 0, 0, 0, 0])


def test_autocorr_rejects_long_lag():
    with pytest.raises(ValueError):
        lp.autocorr(np.ones(4), 4)


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.sampled_from([None, 1, 2, 7, 70]),
       n=st.integers(1, 300), lag=st.integers(0, 16), complex_=st.booleans(),
       scale=st.sampled_from([1e-150, 1e-6, 1.0, 1e6, 1e150]), cut=st.integers(0, 3))
@example(seed=0, rows=None, n=17, lag=16, complex_=False, scale=1.0, cut=0)  # 1-D, lag n - 1
@example(seed=1, rows=1, n=17, lag=16, complex_=True, scale=1.0, cut=0)     # one complex row
def test_stacked_autocorr_equals_per_row_dot(seed, rows, n, lag, complex_, scale, cut):
    # the stacked products round as each row's own np.dot per lag: every bit
    # equal, also on rows cut from wider ones, as the codec's residuals are
    lag = min(lag, n - 1)
    rng = np.random.default_rng(seed)
    shape = (n + cut,) if rows is None else (rows, n + cut)
    x = rng.standard_normal(shape) * scale
    if complex_:
        x = x + 1j * rng.standard_normal(shape) * scale
    x = x[..., :n]
    got = lp.autocorr(x, lag)
    want = np.array([ref_autocorr(row, lag) for row in x.reshape(-1, n)]).reshape(got.shape)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_autocorr_ar1_ratio():
    rng = np.random.default_rng(10)
    x = np.empty(10 ** 6)
    x[0] = 0.0
    noise = rng.standard_normal(x.size)
    for t in range(1, x.size):
        x[t] = 0.9 * x[t - 1] + noise[t]
    r = lp.autocorr(x, 1)
    assert abs(r[1] / r[0] - 0.9) < 0.02


def test_autocorr_unit_modulus_exponential():
    t = np.arange(256)
    x = np.exp(1j * 0.37 * t)
    r = lp.autocorr(x, 8)
    # magnitudes shrink only through the window length, stay near r[0]
    assert np.all(np.abs(np.abs(r) / r[0].real - (1 - np.arange(9) / 256)) < 1e-9)


def test_levinson_white_input():
    assert np.allclose(lp.levinson(np.array([1.0, 0.0, 0.0, 0.0]), 3), 0.0, atol=1e-9)


def test_levinson_ar1():
    r = 0.9 ** np.arange(9)
    a = lp.levinson(r, 8)
    oracle = hermitian_toeplitz_solve(r, 8)
    assert np.allclose(a, oracle, atol=1e-6)
    assert abs(a[0] + 0.9) < 1e-6
    assert np.max(np.abs(a[1:])) < 1e-6


def test_levinson_matches_oracle_complex():
    rng = np.random.default_rng(11)
    theta = 0.8
    x = np.zeros(200000, dtype=complex)
    drive = (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)) / np.sqrt(2)
    for t in range(1, x.size):
        x[t] = 0.9 * np.exp(1j * theta) * x[t - 1] + drive[t]
    r = lp.autocorr(x, 6)
    a = lp.levinson(r, 6)
    oracle = hermitian_toeplitz_solve(r, 6)
    assert np.max(np.abs(a - oracle)) < 1e-6
    assert abs(a[0] - (-0.9 * np.exp(1j * theta))) < 0.02


def test_levinson_matches_oracle_order_16():
    rng = np.random.default_rng(27)
    # real: colored noise through a short FIR
    y = np.convolve(rng.standard_normal(60000), [1.0, -0.6, 0.25, 0.1], mode="same")
    r = lp.autocorr(y, 16)
    assert np.max(np.abs(lp.levinson(r, 16) - hermitian_toeplitz_solve(r, 16))) < 1e-8
    # complex: two-pole rotated process
    x = np.zeros(60000, dtype=complex)
    drive = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    p1, p2 = 0.8 * np.exp(0.5j), 0.5 * np.exp(-1.7j)
    for t in range(2, x.size):
        x[t] = (p1 + p2) * x[t - 1] - p1 * p2 * x[t - 2] + drive[t]
    rc_ = lp.autocorr(x, 16)
    assert np.max(np.abs(lp.levinson(rc_, 16) - hermitian_toeplitz_solve(rc_, 16))) < 1e-8


def test_levinson_energy_non_increasing_in_order():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(4096)
    y = np.convolve(x, [1.0, 0.5, -0.3, 0.2], mode="full")[:4096]
    r = lp.autocorr(y, 12)
    # the prediction-error power r[0] + sum a_k r[k] of each order's filter
    energies = [r[0] + lp.levinson(r, p) @ r[1:p + 1] for p in range(1, 13)]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_levinson_rejects_degenerate():
    with pytest.raises(lp.DegenerateSignalError):
        lp.levinson(np.zeros(5), 4)


def test_bandwidth_expand_identity():
    a = np.array([-0.9, 0.2])
    assert np.allclose(lp.bandwidth_expand(a, 1.0), a)


def test_bandwidth_expand_arithmetic():
    assert abs(lp.bandwidth_expand(np.array([-0.9]), 0.98)[0] + 0.882) < 1e-12


def test_bandwidth_expand_scales_pole_radii():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = random_stable_model(rng, order=6, max_k=0.8)
        roots = np.roots(np.concatenate([[1.0], m]))
        roots2 = np.roots(np.concatenate([[1.0], lp.bandwidth_expand(m, 0.9)]))
        assert np.allclose(np.sort(np.abs(roots2)), 0.9 * np.sort(np.abs(roots)), atol=1e-8)


def test_lsf_of_flat_order2_model():
    lsf = lp.lpc_to_lsf(np.zeros(2))
    assert np.allclose(lsf, [np.pi / 3.0, 2.0 * np.pi / 3.0], atol=1e-9)


def test_lsf_monotone_and_roundtrip():
    rng = np.random.default_rng(14)
    for _ in range(20):
        m = random_stable_model(rng)
        lsf = lp.lpc_to_lsf(m)
        assert np.all(np.diff(lsf) > 0)
        assert lsf[0] > 0 and lsf[-1] < np.pi
        rec = lp.lsf_to_lpc(lsf)
        assert np.sqrt(np.mean((rec - m) ** 2)) < 1e-8


def test_lsf_rejects_unstable_model():
    with pytest.raises(ValueError):
        lp.lpc_to_lsf(np.array([-2.5, 1.4]))


def test_quantize_lsf_example():
    q = lp.quantize_lsf(np.array([0.505 * np.pi]), *LSF)
    assert q[0] == 51
    rec = lp.dequantize_lsf(q, *LSF_REC)
    assert abs(rec[0] - 0.51 * np.pi) < 1e-12


def test_lsf_quantization_idempotent():
    rng = np.random.default_rng(15)
    for _ in range(20):
        m = random_stable_model(rng)
        q1 = lp.quantize_lsf(lp.lpc_to_lsf(m), *LSF)
        rec = lp.dequantize_lsf(q1, *LSF_REC)
        q2 = lp.quantize_lsf(rec, *LSF)
        assert np.array_equal(q1, q2)


def test_decoded_lsf_model_always_minimum_phase():
    rng = np.random.default_rng(16)
    for _ in range(30):
        m = random_stable_model(rng, max_k=0.97)
        rec = lp.lsf_to_lpc(lp.dequantize_lsf(lp.quantize_lsf(lp.lpc_to_lsf(m), *LSF), *LSF_REC))
        radius = np.max(np.abs(np.roots(np.concatenate([[1.0], rec]))))
        assert radius < 1.0


def test_all_zero_lsf_roundtrip():
    # the flat model's frequencies are not on the quantizer grid, so the
    # reconstruction is near-flat and the index fixpoint is exact
    q1 = lp.quantize_lsf(lp.lpc_to_lsf(np.zeros(16)), *LSF)
    rec = lp.lsf_to_lpc(lp.dequantize_lsf(q1, *LSF_REC))
    assert np.max(np.abs(rec)) < 0.1
    q2 = lp.quantize_lsf(lp.lpc_to_lsf(rec), *LSF)
    assert np.array_equal(q1, q2)


def test_complex_lpc_quantizer_zero_coefficient():
    q = lp.quantize_complex_lpc(np.array([0.0 + 0.0j, 0.5]), *CLPC_Q)
    assert tuple(q[0]) == (-1, 0)
    assert lp.dequantize_complex_lpc(q, *CLPC_REC)[0] == 0.0


def test_complex_lpc_magnitude_index_at_unity():
    assert lp.quantize_complex_lpc(np.array([1.0 + 0.0j]), *CLPC_Q)[0][0] == 120


def test_complex_lpc_phase_error_bound():
    rng = np.random.default_rng(17)
    mags = rng.uniform(0.01, 2.0, 50)
    phases = rng.uniform(-np.pi, np.pi, 50)
    a = mags * np.exp(1j * phases)
    rec = lp.dequantize_complex_lpc(lp.quantize_complex_lpc(a, *CLPC_Q), *CLPC_REC)
    err = np.abs(np.angle(rec * np.conj(a)))
    assert np.max(err) <= np.pi / 64 + 1e-9


def test_complex_lpc_quantization_idempotent():
    rng = np.random.default_rng(18)
    x = np.zeros(20000, dtype=complex)
    drive = (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    p1, p2 = 0.7 * np.exp(1j * 1.0), 0.6 * np.exp(-2.0j)
    for t in range(2, x.size):
        x[t] = (p1 + p2) * x[t - 1] - p1 * p2 * x[t - 2] + drive[t]
    m = lp.bandwidth_expand(lp.levinson(lp.autocorr(x, 16), 16), 0.9)
    q1 = lp.quantize_complex_lpc(m, *CLPC_Q)
    rec = lp.dequantize_complex_lpc(q1, *CLPC_REC)
    q2 = lp.quantize_complex_lpc(rec, *CLPC_Q)
    assert np.array_equal(q1, q2)


def test_frequency_envelope_flat_model():
    env = lp.frequency_envelope(np.zeros(16), CFG.n_bins)
    assert env.shape == (513,)
    assert np.allclose(env, 1.0)


def test_frequency_envelope_one_pole():
    env = lp.frequency_envelope(np.array([-0.9]), CFG.n_bins)
    assert abs(env[0] - 10.0) < 1e-9
    assert abs(env[512] - 1.0 / 1.9) < 1e-9


def test_frequency_envelope_matches_direct_evaluation():
    # the cached steering matrix must give exactly the values of evaluating
    # exp(-j omega k) afresh on every call, as the envelope once did
    rng = np.random.default_rng(20)
    for n_bins, order in ((513, 16), (513, 16), (257, 8), (513, 4)):
        m = random_stable_model(rng, order=order, max_k=0.9)
        omega = 2.0 * np.pi * np.arange(n_bins) / (2 * (n_bins - 1))
        direct = 1.0 + np.exp(-1j * np.outer(omega, np.arange(1, order + 1))) @ m
        assert np.array_equal(lp.frequency_envelope(m, n_bins), 1.0 / np.abs(direct))


def test_frequency_envelope_smoother_when_expanded():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = random_stable_model(rng, order=8, max_k=0.9)
        ratios = []
        for g in (1.0, 0.95, 0.9, 0.8):
            env = lp.frequency_envelope(lp.bandwidth_expand(m, g), CFG.n_bins)
            ratios.append(env.max() / env.min())
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("poles, radius", [
    ((0.7 * np.exp(1.0j), 0.6 * np.exp(-2.0j)), None),   # stable: left as quantized
    ((1.1 * np.exp(0.5j), 0.5 * np.exp(-1.0j)), 0.92),   # outside the unit circle
])
def test_complex_lpc_stability_guard(poles, radius):
    # one contraction by gamma scales every root by gamma, so an unstable
    # model comes back with its largest root exactly at 0.92
    p1, p2 = poles
    rec = lp.dequantize_complex_lpc(
        lp.quantize_complex_lpc(np.array([-(p1 + p2), p1 * p2]), *CLPC_Q), *CLPC_REC)
    got = np.max(np.abs(np.roots(np.concatenate([[1.0], rec]))))
    if radius is None:
        assert abs(got - 0.7) < 0.05
    else:
        assert abs(got - radius) < 1e-9
