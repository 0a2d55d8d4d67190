"""The stacked frame analysis against the per-frame analysis it replaced.

The ``ref_*`` functions keep the earlier per-frame code: scalar coefficient
loops, ``np.roots`` and ``np.convolve``, one frame at a time.  Every row of
``codec.analyze_frames``, and of the stacked layer calls under it, must equal
the reference run on that row alone, bit for bit, and permuting the rows of a
stack must permute the outputs.
"""

import numpy as np
from hypothesis import example, given, strategies as st

from unscodec import codec, lp, noise_shaping as ns, polar_quant as pq
from unscodec.config import CodecConfig
from unscodec.util import round_half_up, wrap_phase

CFG = CodecConfig()
ORDER = CFG.lpc_order


# ---- the per-frame reference ---------------------------------------------

def ref_autocorr(x, max_lag):
    x = np.asarray(x)
    is_complex = np.iscomplexobj(x)
    r = np.empty(max_lag + 1, dtype=complex if is_complex else float)
    for k in range(max_lag + 1):
        v = np.dot(x[k:], np.conj(x[:x.size - k]))
        r[k] = v if is_complex else v.real
    return r


def ref_levinson(r, order):
    """(coeffs, the orders m whose reflection coefficient was clamped)"""
    is_complex = np.iscomplexobj(r)
    r0 = r[0].real if is_complex else float(r[0])
    a = np.zeros(order + 1, dtype=complex if is_complex else float)
    a[0] = 1.0
    energy = r0 * (1.0 + lp.NOISE_FLOOR)
    clamped = []
    for m in range(1, order + 1):
        acc = r[m] + np.dot(a[1:m], r[1:m][::-1])
        k = -acc / energy
        if abs(k) >= 1.0:
            k = lp.REFLECTION_CLAMP * k / abs(k)
            clamped.append(m)
        prev = a[1:m].copy()
        a[1:m] = prev + k * np.conj(prev[::-1])
        a[m] = k
        energy *= (1.0 - abs(k) ** 2)
    return (a[1:] if is_complex else a[1:].real), clamped


def ref_max_radius(coeffs):
    if np.allclose(coeffs, 0.0):
        return 0.0
    roots = np.roots(np.concatenate([[1.0], np.asarray(coeffs)]))
    return float(np.max(np.abs(roots))) if roots.size else 0.0


def ref_lpc_to_lsf(coeffs):
    p = coeffs.size
    assert ref_max_radius(coeffs) < 1.0
    ext = np.concatenate([[1.0], coeffs, [0.0]])

    def deflate(poly, sign):
        out = np.empty(poly.size - 1)
        acc = 0.0
        for i in range(poly.size - 1):
            acc = poly[i] - sign * acc
            out[i] = acc
        return out

    angles = []
    for poly in (deflate(ext + ext[::-1], 1.0), deflate(ext - ext[::-1], -1.0)):
        ang = np.angle(np.roots(poly))
        angles.append(np.sort(ang[(ang > 1e-9) & (ang < np.pi - 1e-9)]))
    lsf = np.sort(np.concatenate(angles))
    assert lsf.size == p
    return lsf


def ref_dequantize_lsf(indices, step, min_gap):
    lsf = np.asarray(indices, dtype=float) * step
    p = lsf.size
    for i in range(p - 1, -1, -1):
        ub = np.pi - min_gap * (p - i)
        if lsf[i] > ub:
            lsf[i] = ub
    prev = 0.0
    for i in range(p):
        if lsf[i] < prev + min_gap:
            lsf[i] = prev + min_gap
        prev = lsf[i]
    return lsf


def ref_lsf_to_lpc(lsf):
    def expand(angles, edge_sign):
        poly = np.array([1.0, edge_sign])
        for w in angles:
            poly = np.convolve(poly, [1.0, -2.0 * np.cos(w), 1.0])
        return poly

    a = 0.5 * (expand(lsf[0::2], 1.0) + expand(lsf[1::2], -1.0))
    return a[1:lsf.size + 1]


def ref_envelope(coeffs, n_bins):
    a_eval = 1.0 + lp._steering(n_bins, coeffs.size) @ coeffs
    mag = np.abs(a_eval)
    values = np.where(mag < 1e-12, 1e12, 1.0 / np.where(mag < 1e-12, 1.0, mag))
    return values, 20.0 * np.log10(values)


def ref_fer(values_db, band_edges):
    banded = values_db[:band_edges[-1]]
    shifted = banded - banded.min()
    maxima = np.array([shifted[lo:hi].max() for lo, hi in zip((0,) + band_edges[:-1], band_edges)])
    total = maxima.sum()
    if total <= 0.0:
        return np.full(len(band_edges), 1.0 / len(band_edges))
    return maxima / total


def ref_quantize_clpc(coeffs, step_db, floor_db, ceil_db, cells):
    n_mag = int(round((ceil_db - floor_db) / step_db))
    out = np.zeros((coeffs.size, 2), dtype=int)
    for i, c in enumerate(np.asarray(coeffs, dtype=complex)):
        mag = abs(c)
        if mag <= 0.0 or 20.0 * np.log10(mag) < floor_db:
            out[i] = (-1, 0)
            continue
        mag_db = 20.0 * np.log10(mag)
        mi = int(np.clip(round_half_up((mag_db - floor_db) / step_db), 0, n_mag))
        pi_ = int(np.floor((wrap_phase(np.angle(c)) + np.pi) * cells / (2.0 * np.pi))) % cells
        out[i] = (mi, pi_)
    return out


def ref_dequantize_clpc(idx, step_db, floor_db, cells, p, flags=None):
    coeffs = np.zeros(p, dtype=complex)
    for i in range(p):
        mi, pi_ = idx[i]
        if mi < 0:
            continue
        mag = 10.0 ** ((floor_db + mi * step_db) / 20.0)
        theta = -np.pi + (pi_ + 0.5) * 2.0 * np.pi / cells
        coeffs[i] = mag * np.exp(1j * theta)
    radius = ref_max_radius(coeffs)
    if flags is not None:
        if coeffs[-1] == 0 and not np.allclose(coeffs, 0.0):
            flags.add("stripped")  # np.roots drops the trailing zero
        if radius > 0.96:
            flags.add("contracted")
    if radius > 0.96:
        coeffs = coeffs * (0.92 / radius) ** np.arange(1, p + 1)
    return coeffs


def ref_ctns_filter(x, a, start):
    stop = len(x) - 2
    e = x.copy()
    for k in range(1, a.size + 1):
        lo = max(start, k)
        e[lo:stop + 1] = e[lo:stop + 1] + a[k - 1] * x[lo - k:stop + 1 - k]
    return e


def ref_prediction_gain(x_fd, x_ct, start, threshold):
    stop = len(x_fd) - 1
    den = float(np.sum(np.abs(x_fd[start:stop]) ** 2))
    num = float(np.sum(np.abs(x_fd[start:stop] - x_ct[start:stop]) ** 2))
    if den <= 0.0 or num <= 0.0:
        return ns.GAIN_FLOOR_DB, False
    gain = float(np.clip(10.0 * np.log10(num / den), ns.GAIN_FLOOR_DB, ns.GAIN_CEIL_DB))
    return gain, gain > threshold


def ref_analyze_frame(samples, cfg, flags=None):
    """The earlier ``codec.analyze_frame`` on one frame, as a dict of fields;
    ``flags`` collects which edge cases the frame reached."""
    flags = set() if flags is None else flags
    p = cfg.lpc_order
    r = ref_autocorr(samples, p)
    if r[0] <= 1e-30:
        flags.add("silent")
        coeffs = np.zeros(p)
    else:
        coeffs, clamped = ref_levinson(r, p)
        coeffs = coeffs * cfg.fdns_weight ** np.arange(1, p + 1)
        if clamped:
            flags.add("clamped")
    lsf_idx = lp.quantize_lsf(ref_lpc_to_lsf(coeffs), cfg.lsf_step)
    model = ref_lsf_to_lpc(ref_dequantize_lsf(lsf_idx, cfg.lsf_step, cfg.lsf_min_gap))
    values, values_db = ref_envelope(model, cfg.n_bins)
    contrast = ref_fer(values_db, cfg.band_edges) > cfg.fer_threshold
    res = ns.fdns_forward(np.fft.rfft(samples), values)

    r = ref_autocorr(res[:cfg.band_edges[-1]], p)
    if r[0].real <= 1e-30:
        coeffs = np.zeros(p, dtype=complex)
    else:
        coeffs, clamped = ref_levinson(r, p)
        coeffs = coeffs * cfg.ctns_weight ** np.arange(1, p + 1)
        if clamped:
            flags.add("clamped")
    clpc_idx = ref_quantize_clpc(coeffs, cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db,
                                 cfg.clpc_mag_ceil_db, cfg.clpc_phase_cells)
    coeffs = ref_dequantize_clpc(clpc_idx, cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db,
                                 cfg.clpc_phase_cells, p, flags)
    filtered = ref_ctns_filter(res, coeffs, cfg.ctns_start_bin)
    gain, switch = ref_prediction_gain(res, filtered, cfg.ctns_start_bin, cfg.ctns_threshold_db)
    return dict(lsf_indices=lsf_idx, env=values, contrast=contrast, res=res, filtered=filtered,
                clpc_indices=clpc_idx, coeffs=coeffs, gain_db=gain,
                active=switch and cfg.ctns_enabled)


def stacked_fields(shaped, row):
    return dict(lsf_indices=shaped.lsf_indices[row], env=shaped.env[row],
                contrast=shaped.contrast[row], res=shaped.res[row],
                filtered=shaped.filtered[row], clpc_indices=shaped.clpc_indices[row],
                coeffs=shaped.coeffs[row], gain_db=shaped.gain_db[row],
                active=shaped.active[row])


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.dtype.kind == want.dtype.kind, what
    assert got.tobytes() == want.tobytes(), what  # bit for bit, signed zeros included


# ---- drawn frames -------------------------------------------------------

KINDS = ("silent", "noise", "tone", "click", "burst")


def make_frame(kind, seed, level, n=CFG.frame_len):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    if kind == "silent":  # r[0] far below 1e-30: the zero model
        return 1e-20 * level * rng.standard_normal(n) if seed % 2 else np.zeros(n)
    if kind == "noise":
        return level * rng.standard_normal(n)
    if kind == "tone":
        k = int(rng.integers(1, 4))
        f, phase = rng.uniform(0.005, 0.45, k), rng.uniform(0.0, 6.0, k)
        return level * np.cos(2.0 * np.pi * f[:, None] * t + phase[:, None]).sum(axis=0)
    x = np.zeros(n)
    if kind == "click":
        at = rng.integers(0, n, int(rng.integers(1, 4)))
        x[at] = level * rng.standard_normal(at.size)
    else:  # a decaying noise burst
        at, width = int(rng.integers(0, n - 64)), int(rng.integers(16, 300))
        width = min(width, n - at)
        x[at:at + width] = (level * np.exp(-np.arange(width) / rng.uniform(2.0, 60.0))
                            * rng.standard_normal(width))
    return x


frame_specs = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2 ** 16),
                                 st.sampled_from([1e-3, 1.0, 1e3])), min_size=1, max_size=9)

# a silent row, two rows whose last CLPC coefficient dequantizes to 0 (np.roots
# strips it), and two whose stability guard contracts the model
EDGE_SPECS = [("silent", 1, 1e3), ("click", 1, 1.0), ("tone", 14, 1.0),
              ("click", 3, 1.0), ("burst", 3, 1e-3)]


@example(specs=EDGE_SPECS, order_seed=0, ctns_enabled=True)
@example(specs=[("silent", 0, 1.0)], order_seed=0, ctns_enabled=True)
@given(specs=frame_specs, order_seed=st.integers(0, 2 ** 16), ctns_enabled=st.booleans())
def test_stacked_analysis_rows_equal_per_frame_reference(specs, order_seed, ctns_enabled):
    cfg = CodecConfig(ctns_enabled=ctns_enabled)
    frames = np.array([make_frame(*spec) for spec in specs])
    shaped = codec.analyze_frames(frames, cfg)
    for row, frame in enumerate(frames):
        want = ref_analyze_frame(frame, cfg)
        for name, value in stacked_fields(shaped, row).items():
            assert_same_bits(value, want[name], (specs[row], name))

    # the layers under it, row by row: both LP analyses and the LSF conversion
    p = cfg.lpc_order
    r = lp.autocorr(frames, p)
    res = shaped.res[:, :cfg.band_edges[-1]]
    r_res = lp.autocorr(res, p)
    for row, frame in enumerate(frames):
        assert_same_bits(r[row], ref_autocorr(frame, p), "autocorr")
        assert_same_bits(r_res[row], ref_autocorr(res[row], p), "complex autocorr")
    for seqs in (r[r[:, 0] > 1e-30], r_res[r_res[:, 0].real > 1e-30]):
        stacked = lp.levinson(seqs, p)
        for row, seq in enumerate(seqs):
            assert_same_bits(stacked[row], ref_levinson(seq, p)[0], "levinson")
    expanded = lp.bandwidth_expand(lp.levinson(r[r[:, 0] > 1e-30], p), cfg.fdns_weight)
    # the grid search's LSFs are each row's own, within 1e-12 of np.roots and on its indices
    lsf = lp.lpc_to_lsf(expanded, cfg.lsf_step)
    for row, coeffs in enumerate(expanded):
        assert_same_bits(lsf[row], lp.lpc_to_lsf(coeffs, cfg.lsf_step), "lpc_to_lsf")
        want = ref_lpc_to_lsf(coeffs)
        assert np.max(np.abs(lsf[row] - want)) <= 1e-12
        assert np.array_equal(lp.quantize_lsf(lsf[row], cfg.lsf_step),
                              lp.quantize_lsf(want, cfg.lsf_step))

    # permuting the rows permutes every output
    perm = np.random.default_rng(order_seed).permutation(len(frames))
    permuted = codec.analyze_frames(frames[perm], cfg)
    for row, src in enumerate(perm):
        for name, value in stacked_fields(permuted, row).items():
            assert_same_bits(value, stacked_fields(shaped, src)[name], name)


def test_edge_frames_reach_every_edge_case():
    # the pinned example above holds each case the reference branches on
    # (clamping cannot come from a frame; see the Levinson test below)
    reached = set()
    for spec in EDGE_SPECS:
        ref_analyze_frame(make_frame(*spec), CFG, reached)
    assert {"silent", "stripped", "contracted"} <= reached


# ---- drawn layer inputs -------------------------------------------------

# A frame's autocorrelation is positive semidefinite and the white-noise floor
# keeps every reflection coefficient of it below 1, so the clamp is drawn here
# from sequences that are not autocorrelations of any signal.
CLAMPING = [[1.0, 0.2, 1.5, -0.3] + [0.0] * (ORDER - 3)]
# a row on which |k|**2 as numpy's array square, not libm's pow, changes the model
SQUARE_EDGE = [1.0, 0.7883338881197615, 0.28633620090042644, -0.9888703466627486,
               -0.5700662919515462, -0.8209457324635858, -0.4984452306596725,
               -1.363245016421391, 1.2215166111248528, 1.1750092292543655,
               1.7710697332899192, 1.3836154527260152, -0.18584381704811248,
               0.9375214512900474, 0.558376254179823, -1.4187372514170105, 1.1403928925108664]

lag_values = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def sequences(draw):
    rows = draw(st.integers(1, 9))
    is_complex = draw(st.booleans())
    seqs = np.array([[1.0] + draw(st.lists(lag_values, min_size=ORDER, max_size=ORDER))
                     for _ in range(rows)])
    if is_complex:
        seqs = seqs + 1j * np.array(
            [[0.0] + draw(st.lists(lag_values, min_size=ORDER, max_size=ORDER))
             for _ in range(rows)])
    return seqs * draw(st.sampled_from([1e-6, 1.0, 1e6]))


@example(seqs=np.array(CLAMPING))
@example(seqs=np.array([SQUARE_EDGE, CLAMPING[0]]))
@example(seqs=np.array(CLAMPING) + 0.5j * np.eye(1, ORDER + 1, 2))
@given(seqs=sequences())
def test_stacked_levinson_rows_equal_reference(seqs):
    stacked = lp.levinson(seqs, ORDER)
    # the last coefficient of the order-m model is the m-th reflection coefficient
    reflections = np.abs(np.stack([lp.levinson(seqs, m)[:, -1] for m in range(1, ORDER + 1)],
                                  axis=1))
    for row, seq in enumerate(seqs):
        coeffs, clamped = ref_levinson(seq, ORDER)
        assert_same_bits(stacked[row], coeffs, "coeffs")
        assert_same_bits(lp.levinson(seq, ORDER), coeffs, "1-D coeffs")
        for m, k in enumerate(reflections[row], 1):
            if m in clamped:
                assert abs(k - lp.REFLECTION_CLAMP) < 1e-15, m
            else:
                assert k < 1.0, m


def test_clamping_sequences_clamp():
    for seq in (np.array(CLAMPING[0]), np.array(CLAMPING[0]) + 0.5j * np.eye(1, ORDER + 1, 2)[0]):
        clamped = ref_levinson(seq, ORDER)[1]
        assert clamped
        for m in clamped:
            assert abs(abs(lp.levinson(seq, m)[-1]) - lp.REFLECTION_CLAMP) < 1e-15


lsf_rows = st.lists(st.integers(0, 100), min_size=ORDER, max_size=ORDER).map(sorted)


@given(st.lists(lsf_rows, min_size=1, max_size=9))
def test_stacked_shaping_rows_equal_reference(rows):
    # dequantize_lsf, lsf_to_lpc, frequency_envelope and compute_fer, through
    # derive_shaping, on drawn index rows (collisions and both ends included)
    env, contrast = codec.derive_shaping(np.array(rows), CFG)
    fer = pq.compute_fer(20.0 * np.log10(env), CFG.band_edges)
    for row, idx in enumerate(rows):
        lsf = ref_dequantize_lsf(idx, CFG.lsf_step, CFG.lsf_min_gap)
        values, values_db = ref_envelope(ref_lsf_to_lpc(lsf), CFG.n_bins)
        assert_same_bits(env[row], values, "envelope")
        assert_same_bits(fer[row], ref_fer(values_db, CFG.band_edges), "fer")
        assert_same_bits(contrast[row], fer[row] > CFG.fer_threshold, "contrast")


clpc_magnitudes = st.one_of(st.just(0.0), st.floats(1e-5, 1e-2), st.floats(1e-2, 3.0))


@st.composite
def complex_models(draw):
    rows = draw(st.integers(1, 9))
    mags = np.array(draw(st.lists(st.lists(clpc_magnitudes, min_size=ORDER, max_size=ORDER),
                                  min_size=rows, max_size=rows)))
    phases = np.array(draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=ORDER,
                                             max_size=ORDER), min_size=rows, max_size=rows)))
    return mags * np.exp(1j * phases)


# |c| sits on the -60 dB floor: hypot (a scalar's abs) keeps the coefficient,
# numpy's array abs rounds it below the floor
FLOOR_EDGE = complex(0.00011002744787700769, 0.000993928549098813)


@example(coeffs=np.array([[FLOOR_EDGE] + [0.3j] * (ORDER - 1)]))
@given(complex_models())
def test_stacked_clpc_rows_equal_reference(coeffs):
    args = (CFG.clpc_mag_step_db, CFG.clpc_mag_floor_db)
    idx = lp.quantize_complex_lpc(coeffs, *args, CFG.clpc_mag_ceil_db, CFG.clpc_phase_cells)
    rebuilt = lp.dequantize_complex_lpc(idx, *args, CFG.clpc_phase_cells)
    for row, c in enumerate(coeffs):
        want = ref_quantize_clpc(c, *args, CFG.clpc_mag_ceil_db, CFG.clpc_phase_cells)
        assert_same_bits(idx[row], want, "indices")
        assert_same_bits(rebuilt[row],
                         ref_dequantize_clpc(want, *args, CFG.clpc_phase_cells, ORDER), "coeffs")


def test_every_clpc_cell_center_equals_scalar_formula():
    # all 161 x 64 cells in one stack, 16 cells a row
    n_mag = int(round((CFG.clpc_mag_ceil_db - CFG.clpc_mag_floor_db) / CFG.clpc_mag_step_db))
    mi, pi_ = np.meshgrid(np.arange(n_mag + 1), np.arange(CFG.clpc_phase_cells), indexing="ij")
    idx = np.stack([mi.ravel(), pi_.ravel()], axis=-1).reshape(-1, ORDER, 2)
    args = (CFG.clpc_mag_step_db, CFG.clpc_mag_floor_db, CFG.clpc_phase_cells)
    rebuilt = lp.dequantize_complex_lpc(idx, *args)
    for row, cells in enumerate(idx):
        assert_same_bits(rebuilt[row], ref_dequantize_clpc(cells, *args, ORDER), row)


def test_stacked_ctns_rows_equal_reference():
    rng = np.random.default_rng(11)
    res = rng.standard_normal((5, CFG.n_bins)) + 1j * rng.standard_normal((5, CFG.n_bins))
    coeffs = 0.3 * (rng.standard_normal((5, ORDER)) + 1j * rng.standard_normal((5, ORDER)))
    coeffs[1] = 0.0  # nothing predicted: the floor
    filtered = ns.ctns_filter(res, coeffs, CFG.ctns_start_bin)
    gain_db, active = ns.prediction_gain(res, filtered, CFG.ctns_start_bin, CFG.ctns_threshold_db)
    for row in range(len(res)):
        want = ref_ctns_filter(res[row], coeffs[row], CFG.ctns_start_bin)
        assert_same_bits(filtered[row], want, "filtered")
        gain, switch = ref_prediction_gain(res[row], want, CFG.ctns_start_bin,
                                           CFG.ctns_threshold_db)
        assert gain_db[row] == gain and active[row] == switch
    assert gain_db[1] == ns.GAIN_FLOOR_DB
