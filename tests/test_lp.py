from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, strategies as st

from unscodec import codec, lp, signals
from unscodec.config import CodecConfig

from test_analysis_stack import ref_autocorr, ref_dequantize_clpc, ref_lpc_to_lsf

CFG = CodecConfig()
ORDER = CFG.lpc_order
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
    lsf = lp.lpc_to_lsf(np.zeros(2), *LSF)
    assert np.allclose(lsf, [np.pi / 3.0, 2.0 * np.pi / 3.0], atol=1e-9)


def test_lsf_monotone_and_roundtrip():
    rng = np.random.default_rng(14)
    for _ in range(20):
        m = random_stable_model(rng)
        lsf = lp.lpc_to_lsf(m, *LSF)
        assert np.all(np.diff(lsf) > 0)
        assert lsf[0] > 0 and lsf[-1] < np.pi
        rec = lp.lsf_to_lpc(lsf)
        assert np.sqrt(np.mean((rec - m) ** 2)) < 1e-8


def test_lsf_rejects_unstable_model():
    with pytest.raises(ValueError):
        lp.lpc_to_lsf(np.array([-2.5, 1.4]), *LSF)


def test_quantize_lsf_example():
    q = lp.quantize_lsf(np.array([0.505 * np.pi]), *LSF)
    assert q[0] == 51
    rec = lp.dequantize_lsf(q, *LSF_REC)
    assert abs(rec[0] - 0.51 * np.pi) < 1e-12


def test_lsf_quantization_idempotent():
    rng = np.random.default_rng(15)
    for _ in range(20):
        m = random_stable_model(rng)
        q1 = lp.lsf_indices(m, *LSF)
        rec = lp.dequantize_lsf(q1, *LSF_REC)
        q2 = lp.quantize_lsf(rec, *LSF)
        assert np.array_equal(q1, q2)


def test_decoded_lsf_model_always_minimum_phase():
    rng = np.random.default_rng(16)
    for _ in range(30):
        m = random_stable_model(rng, max_k=0.97)
        rec = lp.lsf_to_lpc(lp.dequantize_lsf(lp.lsf_indices(m, *LSF), *LSF_REC))
        radius = np.max(np.abs(np.roots(np.concatenate([[1.0], rec]))))
        assert radius < 1.0


def test_all_zero_lsf_roundtrip():
    # the flat model's frequencies are not on the quantizer grid, so the
    # reconstruction is near-flat and the index fixpoint is exact
    q1 = lp.lsf_indices(np.zeros(16), *LSF)
    rec = lp.lsf_to_lpc(lp.dequantize_lsf(q1, *LSF_REC))
    assert np.max(np.abs(rec)) < 0.1
    q2 = lp.lsf_indices(rec, *LSF)
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


# relative distances of the largest root from the stability thresholds, on both
# sides: the step-down screen clears a row only below threshold * (1 - 1e-6), so
# the rows at 1e-6 and closer are decided by their roots
DELTAS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


def np_roots_radius(coeffs):
    return np.max(np.abs(np.roots(np.concatenate([[1.0], coeffs]))))


def real_model_with_root(rng, radius):
    """A real model whose largest conjugate root pair lies at ``radius``, the rest well inside."""
    r = np.concatenate([[radius], rng.uniform(0.2, 0.9, ORDER // 2 - 1)])
    roots = r * np.exp(1j * rng.uniform(0.1, np.pi - 0.1, ORDER // 2))
    return np.poly(np.concatenate([roots, roots.conj()])).real[1:]


@pytest.fixture
def radius_rows(monkeypatch):
    """Counts the rows that reach the root-finding radius check."""
    seen = []
    radius = lp._max_root_radius
    monkeypatch.setattr(lp, "_max_root_radius", lambda rows: seen.append(len(rows)) or radius(rows))
    return seen


@pytest.mark.parametrize("delta", DELTAS)
def test_minimum_phase_check_decides_as_np_roots_at_the_unit_circle(delta, radius_rows):
    rng = np.random.default_rng(int(-np.log10(delta)))
    for sign in (-1.0, 1.0):
        for _ in range(4):
            m = real_model_with_root(rng, 1.0 + sign * delta)
            if np_roots_radius(m) >= 1.0:
                with pytest.raises(ValueError, match="not minimum phase"):
                    lp.lpc_to_lsf(m, *LSF)
                with pytest.raises(ValueError, match="not minimum phase"):
                    lp.lpc_to_lsf(np.stack([np.zeros(ORDER), m]), *LSF)
            else:
                assert lp.lpc_to_lsf(np.stack([np.zeros(ORDER), m]), *LSF)[1].tobytes() == \
                    lp.lpc_to_lsf(m, *LSF).tobytes()
        if sign < 0 and delta >= 1e-4:  # the screen clears every row well inside
            assert sum(radius_rows) == 0


def clpc_cells_with_root(rng, target):
    """CLPC cells and the magnitude floor (dB) that puts their cell centers' largest root at
    ``target``: a floor moves every magnitude by one factor, and bisection finds it."""
    step, cells = CFG.clpc_mag_step_db, CFG.clpc_phase_cells
    idx = np.stack([rng.integers(0, 161, ORDER), rng.integers(0, cells, ORDER)], axis=-1)
    idx[rng.random(ORDER) < 0.25] = (-1, 0)

    def radius(floor_db):
        theta = -np.pi + (idx[:, 1] + 0.5) * 2.0 * np.pi / cells
        return np_roots_radius(np.where(idx[:, 0] < 0, 0.0, 10.0 ** (
            (floor_db + idx[:, 0] * step) / 20.0) * np.exp(1j * theta)))

    lo, hi = -400.0, 0.0
    while radius(hi) <= target:
        hi += 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radius(mid) <= target else (lo, mid)
    return idx, hi


@pytest.mark.parametrize("delta", DELTAS)
def test_clpc_stability_guard_equals_the_root_radius_guard_at_its_threshold(delta, radius_rows):
    rng = np.random.default_rng(100 + int(-np.log10(delta)))
    for sign in (-1.0, 1.0):
        for _ in range(4):
            idx, floor_db = clpc_cells_with_root(rng, 0.96 * (1.0 + sign * delta))
            inside = np.stack([idx[:, 0] - 40, idx[:, 1]], axis=-1)  # every magnitude -20 dB
            stack = np.stack([idx, np.tile((-1, 0), (ORDER, 1)), np.maximum(inside, -1)])
            args = (CFG.clpc_mag_step_db, floor_db, CFG.clpc_phase_cells)
            got = lp.dequantize_complex_lpc(stack, *args)
            for row, cells in enumerate(stack):
                want = ref_dequantize_clpc(cells, *args, ORDER)
                assert got[row].tobytes() == want.tobytes(), (sign, row)
        if sign < 0 and delta >= 1e-4:  # the screen clears every row well inside
            assert sum(radius_rows) == 0


def test_clpc_stability_guard_on_overflowing_cells():
    # a +20 dB floor puts the top of a 12,288-cell table at 1.5e308, so
    # magnitudes reach the largest finite ones: the scaling and the step-down
    # recursion overflow, their rows fall through to the root radius, and
    # nothing warns
    args = (CFG.clpc_mag_step_db, 20.0, CFG.clpc_phase_cells)
    rng = np.random.default_rng(21)
    idx = np.stack([rng.integers(-1, 12288, (6, ORDER)), rng.integers(0, 64, (6, ORDER))], -1)
    idx[0, :, 0] = -1
    idx[1, 1:, 0] = -1
    idx[2, -1, 0] = 12287
    got = lp.dequantize_complex_lpc(idx, *args)
    for row, cells in enumerate(idx):
        assert got[row].tobytes() == ref_dequantize_clpc(cells, *args, ORDER).tobytes(), row


# ---- LSFs by the Chebyshev grid search, against the eigvals path -------------

STEP = CFG.lsf_step


@pytest.fixture
def eigvals_rows(monkeypatch, radius_rows):
    """Counts the rows lpc_to_lsf hands to eigvals: each sends its two deflated polynomials to
    ``_roots``, beside the one polynomial per row the minimum-phase screen sends there."""
    polys = []
    roots = lp._roots
    monkeypatch.setattr(lp, "_roots", lambda p: polys.append(len(p)) or roots(p))
    return lambda: (sum(polys) - sum(radius_rows)) // 2


def eigvals_lsf(coeffs, step=STEP):
    """lpc_to_lsf's eigvals path alone: with an infinite margin every row falls back."""
    with mock.patch.object(lp, "LSF_MARGIN", np.inf):
        return lp.lpc_to_lsf(coeffs, step)


def lsf_condition(coeffs, lsf):
    """Each LSF's root condition number in its deflated polynomial d: sum |d_i| / |d'(z)| at
    z = exp(j lsf), so eps times it bounds how far a backward-stable root finder may stray."""
    ext = np.concatenate([[1.0], coeffs, [0.0]])
    polys = []
    for sign in (1.0, -1.0):
        d, acc = [], 0.0
        for c in ext + sign * ext[::-1]:
            acc = c - sign * acc
            d.append(acc)
        polys.append(np.array(d[:-1]))
    z = np.exp(1j * lsf)
    owner = np.argmin([np.abs(np.polyval(d, z)) for d in polys], axis=0)
    return np.array([np.sum(np.abs(polys[o])) / np.abs(np.polyval(np.polyder(polys[o]), zk))
                     for o, zk in zip(owner, z)])


@pytest.mark.parametrize("step, order", [(STEP, ORDER), (1e-4, 20)])
@pytest.mark.parametrize("factor", (0.1, 0.5, 0.8, 1.25, 2.0, 10.0, 1e3))
def test_lsf_near_a_rounding_boundary_takes_eigvals(step, order, factor, eigvals_rows):
    # models whose LSFs sit at (k + 0.3) steps, off the grid points, but one at (k + 1/2) steps
    # +- gap radians, gap = factor times that root's margin LSF_MARGIN * (1 + condition number):
    # a factor below 1 sends the row to eigvals, one above keeps the grid search's LSFs; the
    # margin is in radians, so a fine step does not shrink it below the root finders' parting
    rng = np.random.default_rng(round(100 * factor))
    spread = 0.1 + 2.8 * (np.arange(order) + rng.uniform(0.0, 0.4, (6, order))) / order
    cells = np.floor(spread / step).astype(int)
    lsf = (cells + 0.3) * step
    at, rows = rng.integers(0, order, 6), np.arange(6)
    lsf[rows, at] = (cells[rows, at] + 0.5) * step
    cond = [lsf_condition(lp.lsf_to_lpc(row), row)[k] for row, k in zip(lsf, at)]
    sign = np.repeat([-1.0, 1.0], 3)
    lsf[rows, at] += sign * factor * lp.LSF_MARGIN * (1.0 + np.array(cond))
    models = lp.lsf_to_lpc(lsf)
    got = lp.lsf_indices(models, step)
    assert eigvals_rows() == (6 if factor < 1.0 else 0)
    assert np.array_equal(got, lp.quantize_lsf(eigvals_lsf(models, step), step))
    assert np.array_equal(got[rows, at], cells[rows, at] + (sign > 0))


def test_a_root_outside_its_bracket_takes_eigvals(monkeypatch, request, eigvals_rows):
    # on a coarse grid and with Newton run to convergence, some roots settle outside their
    # bracket, on a neighbouring root of the same polynomial, which would give one LSF twice and
    # lose another: those rows take eigvals, and every row keeps the eigvals path's indices
    monkeypatch.setattr(lp, "LSF_GRID", 8)
    monkeypatch.setattr(lp, "LSF_NEWTON_STEPS", 40)
    lp._cosine_table.cache_clear()
    request.addfinalizer(lp._cosine_table.cache_clear)
    rng = np.random.default_rng(22)
    models = np.array([random_stable_model(rng, order=8, max_k=0.95) for _ in range(200)])
    got = lp.lpc_to_lsf(models, STEP)
    assert 0 < eigvals_rows() < len(models)
    assert np.all(np.diff(got, axis=1) > 0)
    assert np.array_equal(lp.quantize_lsf(got, STEP), lp.quantize_lsf(eigvals_lsf(models), STEP))


@st.composite
def stable_models(draw):
    """(models of one order 2..20 built from conjugate pole pairs): one pole per model near the
    unit circle, so a P root and a Q root nearly coincide, and often near angle 0 or pi."""
    m = draw(st.integers(1, 10))
    models = []
    for _ in range(draw(st.integers(1, 3))):
        radii = draw(st.lists(st.floats(0.0, 0.95), min_size=m, max_size=m))
        angles = draw(st.lists(st.floats(0.0, np.pi), min_size=m, max_size=m))
        radii[0] = 1.0 - 10.0 ** draw(st.floats(-4.0, -0.5))
        edge = 10.0 ** draw(st.floats(-4.0, -1.0))
        angles[0] = draw(st.sampled_from([angles[0], edge, np.pi - edge]))
        poles = np.array(radii) * np.exp(1j * np.array(angles))
        models.append(np.poly(np.concatenate([poles, poles.conj()])).real[1:])
    return np.array(models)


@example(models=np.zeros((1, 2)), step=STEP)
@example(models=np.zeros((2, ORDER)), step=STEP)
@example(models=np.zeros((1, 20)), step=1e-4)
@given(models=stable_models(), step=st.sampled_from([STEP, 1e-4]))
def test_drawn_models_give_the_eigvals_path_indices(models, step):
    wants = []
    for model in models:
        try:
            wants.append(ref_lpc_to_lsf(model))
        except AssertionError:  # np.poly rounded a root past the unit circle or an LSF to 0 or pi
            reject()
    got = lp.lpc_to_lsf(models, step)
    want_idx = lp.quantize_lsf(eigvals_lsf(models, step), step)
    assert np.array_equal(lp.quantize_lsf(got, step), want_idx)
    stacked = lp.lpc_to_lsf(np.concatenate([np.zeros((1, models.shape[1])), models]), step)
    for row, (model, want) in enumerate(zip(models, wants)):
        assert lp.lpc_to_lsf(model, step).tobytes() == got[row].tobytes() == \
            stacked[row + 1].tobytes()
        # within 1e-12 of np.roots, or of np.roots's own reach where a root is ill-conditioned
        slack = 16 * len(model) * np.finfo(float).eps * lsf_condition(model, want)
        assert np.all(np.abs(got[row] - want) <= 1e-12 + slack)


def lsf_test_signals():
    """perfbench's corpus at seeds 0-3 (seed 0 is ``mixed_corpus``; later seeds re-draw its
    seeded items) and 100 half-second speechish clips."""
    for seed in range(4):
        items = signals.mixed_corpus(30.0)
        if seed:
            s_speech, s_click = np.random.SeedSequence(seed).generate_state(2)
            items["speechish"] = signals.speechish(6.0, seed=int(s_speech))
            items["castanet"] = signals.click_train(6.0, seed=int(s_click))[0]
        yield from items.values()
    for seed in range(100):
        yield signals.speechish(0.5, seed=seed)


def test_lsf_indices_equal_the_eigvals_path_on_the_corpus(eigvals_rows):
    for mode in ("12k", "16k"):
        cfg = CodecConfig(mode=mode)
        models = np.concatenate([lp.fit(frames, cfg.lpc_order, cfg.fdns_weight)
                                 for pcm in lsf_test_signals()
                                 for _, frames in codec.chunks(pcm, cfg.window_spec)])
        before = eigvals_rows()
        got = lp.lsf_indices(models, cfg.lsf_step)
        fell_back = eigvals_rows() - before
        want = eigvals_lsf(models, cfg.lsf_step)
        assert np.array_equal(got, lp.quantize_lsf(want, cfg.lsf_step))
        # only the rows with an LSF within its margin of a rounding boundary take eigvals
        apart = np.abs(want / cfg.lsf_step % 1.0 - 0.5) * cfg.lsf_step
        near = [np.any(apart[row] < lp.LSF_MARGIN * (1.0 + lsf_condition(models[row], want[row])))
                for row in np.flatnonzero(apart.min(axis=1) < 1e-6)]  # farther needs cond > 1e6
        assert fell_back == sum(near)
