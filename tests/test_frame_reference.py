"""The whole-frame quantizer and dequantizer against the per-band loops they
replaced, and the stacked decoder against the frame-by-frame one.

The ``ref_*`` functions keep the earlier code: each band is cut out with its
own real-position mask, the Nyquist bin rides along with the last band, and a
band is divided or scaled by its gain through numpy's scalar power; the CTNS
inverse runs on one frame, one ``np.dot`` per bin, and a frame is decoded on
its own.  The frame and chunk code must give the same arrays, bit for bit, on
drawn inputs and on every frame of the corpus streams.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from unscodec import codec, noise_shaping as ns, polar_quant as pq, signals
from unscodec.config import CodecConfig
from unscodec.entropy_bitstream import StreamHeader
from unscodec.transforms import frame_signal, overlap_add

from test_entropy_bitstream import one_row, unpack_one

CFG = CodecConfig()
CTX = CFG.layout
N_BANDS = len(CFG.band_edges)
# the five gains whose divisor numpy's array power rounds apart from Python's
# float power, then both ends of the range and zero
ODD_GAINS = [-44, -25, -17, 15, 50, -60, 60, 0]


def ref_layout(cfg):
    """Band sizes with the Nyquist bin in the last band, and each band's
    real-valued positions (DC and Nyquist)."""
    sizes = list(np.diff((0,) + cfg.band_edges))
    sizes[-1] += 1
    return sizes, {0: {0}, len(sizes) - 1: {sizes[-1] - 1}}


def ref_db_to_lin(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 20.0)


def ref_phase_cells(i1, high_contrast, cfg):
    cells = cfg.phase_cells_high if high_contrast else cfg.phase_cells_low
    return np.asarray(cells)[np.minimum(i1, 7)]


def ref_quantize_bands(coded, gains, contrast, cfg):
    """The encoder after the gain search, band by band; whole-frame arrays."""
    sizes, reals = ref_layout(cfg)
    edges = np.cumsum([0] + sizes)
    fields = []
    for b, size in enumerate(sizes):
        band = coded[edges[b]:edges[b + 1]]
        mask = np.zeros(size, dtype=bool)
        mask[list(reals.get(b, ()))] = True
        scaled = band / ref_db_to_lin(gains[b])
        mags = np.abs(scaled)
        mags[mask] = np.abs(scaled[mask].real)
        i1, i2 = pq.quantize_magnitudes(mags, cfg.ecupq)
        cells = ref_phase_cells(i1, bool(contrast[b]), cfg)
        raw = np.zeros(size, dtype=int)
        sendable = (~mask) & (cells > 1)
        if np.any(sendable):
            raw[sendable] = pq.quantize_phase(np.angle(scaled[sendable]), cells[sendable])
        raw[mask] = (scaled[mask].real < 0).astype(int)
        raw[mask & (i1 == 0)] = 0
        fields.append((i1, i2, raw))
    return tuple(np.concatenate(f) for f in zip(*fields))


def ref_dequantize_bands(payload, row, cfg):
    """The decoder's coded bins of row ``row`` of a chunk record, band by band."""
    sizes, reals = ref_layout(cfg)
    coded = np.zeros(cfg.n_bins, dtype=complex)
    offset = 0
    for b, size in enumerate(sizes):
        seg = slice(offset, offset + size)
        i1, raw = payload.index1[row, seg], payload.raw[row, seg]
        mags = pq.dequantize_magnitudes(i1, payload.index2[row, seg], cfg.ecupq)
        cells = ref_phase_cells(i1, bool(payload.contrast[row, b]), cfg)
        theta = np.zeros(size)
        has_phase = cells > 1
        has_phase[list(reals.get(b, ()))] = False
        if np.any(has_phase):
            theta[has_phase] = pq.dequantize_phase(raw[has_phase], cells[has_phase])
        vals = mags * np.exp(1j * theta)
        for posn in reals.get(b, ()):
            s = -1.0 if raw[posn] == 1 else 1.0
            vals[posn] = s * mags[posn]
        coded[seg] = vals * ref_db_to_lin(payload.sf_indices[row, b])
        offset += size
    return coded


def ref_ctns_unfilter(e, coeffs, start):
    """The CTNS inverse of one frame: each bin from the start bin up to below
    Nyquist, minus the taps against its reversed history."""
    x = e.copy()
    for f in range(start, e.size - 1):
        lo = max(0, f - coeffs.size)
        x[f] = e[f] - np.dot(coeffs[:f - lo], x[lo:f][::-1])
    return x


def ref_decode_frame(payload, row, cfg):
    """The time-domain contribution of row ``row`` of a chunk record, decoded
    on its own: the band loop's bins, the CTNS inverse when the frame's flag
    is set, the envelope and the inverse DFT."""
    env, _ = codec.derive_shaping(payload.lsf_indices[row], cfg)
    coded = ref_dequantize_bands(payload, row, cfg)
    if payload.ctns_flag[row]:
        coded = ref_ctns_unfilter(coded, codec.derive_clpc(payload.clpc_indices[row], cfg),
                                  cfg.ctns_start_bin)
    return np.fft.irfft(coded * env, n=cfg.frame_len)


def ref_decode_stream(blob, cfg):
    """A stream's PCM, every frame decoded on its own, then overlap-added."""
    ctx = cfg.layout
    header = StreamHeader.unpack(blob)
    pos, frames = StreamHeader.size(), []
    while pos < len(blob):
        payload, pos = unpack_one(blob, pos, ctx, cfg)
        frames.append(ref_decode_frame(payload, 0, cfg))
    return overlap_add(frames, cfg.window_spec)[:header.original_length]


def assert_fields_equal(got, want):
    for name, a, b in zip(("index1", "index2", "raw"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def drawn_spectrum(rng):
    """Coded bins spread over eight decades, real at DC and Nyquist, so the
    gains give zeros, core, companded and escape indices."""
    n = CFG.n_bins
    coded = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10 ** rng.uniform(-4, 4, n)
    coded[[0, -1]] = coded[[0, -1]].real
    return coded


def drawn_payload(rng, gains, contrast):
    n = CFG.n_bins
    index1 = rng.integers(0, 15, n)
    index1[rng.random(n) < rng.random()] = 0
    index2 = np.where(index1 == pq.ESCAPE_INDEX,
                      rng.integers(pq.OUTLIER_MIN, pq.OUTLIER_MAX + 1, n), 0)
    cells = np.array([CFG.phase_cells_low, CFG.phase_cells_high])[
        np.asarray(contrast, dtype=int)[CTX.band_of], np.minimum(index1, 7)]
    phase = (rng.random(n) * cells).astype(int)  # 0 where cells is 1
    raw = np.where(CTX.real_mask, rng.integers(0, 2, n) * (index1 > 0), phase)
    return one_row(lsf_indices=np.arange(3, 3 + CFG.lpc_order), ctns_flag=False,
                   clpc_indices=np.zeros((CFG.lpc_order, 2), dtype=int), sf_indices=gains,
                   index1=index1, index2=index2, raw=raw, contrast=contrast)


gains_st = st.lists(st.integers(-60, 60), min_size=N_BANDS, max_size=N_BANDS)
contrast_st = st.lists(st.booleans(), min_size=N_BANDS, max_size=N_BANDS)


@given(seed=st.integers(0, 2 ** 32 - 1), gains=gains_st, contrast=contrast_st)
@example(seed=0, gains=ODD_GAINS, contrast=[True, False] * 4)
def test_quantize_spectrum_equals_band_loop(seed, gains, contrast):
    coded = drawn_spectrum(np.random.default_rng(seed))
    gains, contrast = np.array(gains), np.array(contrast)
    assert_fields_equal(codec.quantize_spectrum(coded, gains, contrast, CFG),
                        ref_quantize_bands(coded, gains, contrast, CFG))


@given(seed=st.integers(0, 2 ** 32 - 1), gains=gains_st, contrast=contrast_st)
@example(seed=0, gains=ODD_GAINS, contrast=[False, True] * 4)
def test_dequantize_spectrum_equals_band_loop(seed, gains, contrast):
    payload = drawn_payload(np.random.default_rng(seed), gains, contrast)
    assert np.array_equal(codec.dequantize_spectrum(payload, CFG)[0],
                          ref_dequantize_bands(payload, 0, CFG))


def test_every_gain_matches_band_loop():
    rng = np.random.default_rng(7)
    contrast = np.array([True, False, False, True, True, False, True, False])
    for start in range(-60, 61, N_BANDS):
        gains = np.minimum(np.arange(start, start + N_BANDS), 60)
        coded = drawn_spectrum(rng)
        assert_fields_equal(codec.quantize_spectrum(coded, gains, contrast, CFG),
                            ref_quantize_bands(coded, gains, contrast, CFG))
        payload = drawn_payload(rng, gains, contrast)
        assert np.array_equal(codec.dequantize_spectrum(payload, CFG)[0],
                              ref_dequantize_bands(payload, 0, CFG))


def test_corpus_frames_equal_band_loop(corpus_runs):
    # every frame's quantization and dequantization, and the decoded PCM
    for mode, items in corpus_runs.items():
        cfg = CFG.with_mode(mode)
        for name, item in items.items():
            shaped = codec.analyze_frames(frame_signal(item["pcm"], cfg.window_spec), cfg)
            pos, recon = StreamHeader.size(), []
            for analyzed, contrast, stats in zip(shaped.coded, shaped.contrast, item["stats"]):
                want = ref_quantize_bands(analyzed, stats.band_gains, contrast, cfg)
                assert_fields_equal(codec.quantize_spectrum(
                    analyzed, stats.band_gains, contrast, cfg), want)
                payload, pos = unpack_one(item["blob"], pos, cfg.layout)
                assert_fields_equal((payload.index1[0], payload.index2[0], payload.raw[0]), want)
                coded = ref_dequantize_bands(payload, 0, cfg)
                assert np.array_equal(codec.dequantize_spectrum(payload, cfg)[0], coded)
                active = payload.ctns_flag  # a 1-row stack
                coeffs = codec.derive_clpc(payload.clpc_indices[active], cfg)
                env, _ = codec.derive_shaping(payload.lsf_indices[0], cfg)
                recon.append(codec.synthesize(coded[None], env[None], coeffs, active, cfg)[0])
            assert pos == len(item["blob"]), (mode, name)
            ref_pcm = overlap_add(recon, cfg.window_spec)[:item["pcm"].size]
            assert np.array_equal(item["out"], ref_pcm), (mode, name)


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5), start=st.sampled_from([0, 1, 25]),
       order=st.sampled_from([2, 16]), zero=st.lists(st.booleans(), min_size=5, max_size=5))
@example(seed=0, rows=5, start=0, order=16, zero=[False, True, False, True, True])
def test_stacked_ctns_unfilter_equals_frame_recursion(seed, rows, start, order, zero):
    # one recursion over the bins updates every row; each row must round as
    # its own frame's recursion does, rows of all-zero taps included
    rng = np.random.default_rng(seed)
    spectra = np.array([drawn_spectrum(rng) for _ in range(rows)])
    coeffs = 0.3 * (rng.standard_normal((rows, order))
                    + 1j * rng.standard_normal((rows, order))) / np.arange(1, order + 1)
    coeffs[zero[:rows]] = 0.0
    stacked = ns.ctns_unfilter(spectra, coeffs, start)
    for row, e, a in zip(stacked, spectra, coeffs):
        assert row.tobytes() == ref_ctns_unfilter(e, a, start).tobytes()
    alone = ns.ctns_unfilter(spectra[0], coeffs[0], start)
    assert alone.tobytes() == ref_ctns_unfilter(spectra[0], coeffs[0], start).tobytes()


def test_chunked_decode_equals_frame_by_frame_decode():
    # no frame of the first chunk is CTNS-active, the second chunk's clicks
    # are, and the last chunk is partial
    chunk, hop = codec.CHUNK_FRAMES, CFG.window_spec.hop
    n = chunk * hop + CFG.frame_len
    pcm = np.concatenate([0.3 * signals.harmonic_tone(220.0, n / CFG.sample_rate)[:n],
                          signals.click_train(chunk * hop / CFG.sample_rate)[0],
                          signals.tone(440.0, 1.0)])
    blob, _ = codec.encode_stream(pcm, CFG)
    out, _, flags = codec.decode_stream(blob, CFG)
    assert len(flags) > 2 * chunk and len(flags) % chunk
    assert not any(flags[:chunk]) and any(flags[chunk:2 * chunk])
    assert out.tobytes() == ref_decode_stream(blob, CFG).tobytes()


def frames_length(frames):
    """The samples that exactly ``frames`` frames cover."""
    return (frames - 1) * CFG.window_spec.hop + CFG.frame_len


@pytest.mark.parametrize("samples, frames", [
    pytest.param(samples, frames, id=str(samples)) for samples, frames in (
        (0, 0), (1, 1), (500, 1), (CFG.frame_len, 1),
        *((frames_length(n), n) for n in (codec.CHUNK_FRAMES, codec.CHUNK_FRAMES + 1,
                                          2 * codec.CHUNK_FRAMES)))])
def test_short_streams_equal_frame_by_frame_decode(samples, frames):
    # streams within one frame, and streams ending at or just past a chunk edge
    seconds = max(1, -(-samples // CFG.sample_rate))
    pcm = signals.click_train(seconds, start_s=0.0)[0][:samples]
    blob, stats = codec.encode_stream(pcm, CFG)
    out, _, flags = codec.decode_stream(blob, CFG)
    assert len(flags) == len(stats) == frames
    assert out.dtype == float and out.size == samples
    assert out.tobytes() == ref_decode_stream(blob, CFG).tobytes()
    # the encoder frames each chunk from its own slice of the PCM; its bytes
    # are those of the chunks of the whole stream's frame stack
    rows, chunk = frame_signal(pcm, CFG.window_spec), codec.CHUNK_FRAMES
    ref = [codec.stream_header(CFG, samples).pack()]
    for i in range(0, len(rows), chunk):
        ref += codec.encode_frames(rows[i:i + chunk], CFG, i)[1]
    assert blob == b"".join(ref)
