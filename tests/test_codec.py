import copy
import hashlib
import pickle
import struct
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from unscodec import codec, polar_quant as pq, signals
from unscodec.config import CodecConfig
from unscodec.entropy_bitstream import (FramePayload, PackContext, StreamError, StreamHeader,
                                        frame_bounds, pack_frame, wire_fields)
from unscodec.resample import CORE_RATE
from unscodec.transforms import frame_count, frame_signal, overlap_add

from test_entropy_bitstream import band_slices, exact, pack, unpack_one
from test_frame_reference import ref_decode_frame


CFG12 = CodecConfig(mode="12k")
CFG16 = CodecConfig(mode="16k")
CTX12 = CFG12.layout


def attack_then_sustain(seconds=2.0, attack_s=0.8, amp=0.9, seed=23):
    """A quiet sustained tone interrupted by one sharp, fast-decaying attack.

    The attack dies within a few milliseconds, so the surrounding signal is
    quiet; spread-out quantization noise from coding the attack frame is then
    directly visible next to it.  Returns (signal, attack_sample_index).
    """
    rng = np.random.default_rng(seed)
    n = int(seconds * CORE_RATE)
    attack = int(attack_s * CORE_RATE)
    t = np.arange(n) / CORE_RATE
    x = 0.04 * np.sin(2.0 * np.pi * 523.0 * t)
    burst = int(0.01 * CORE_RATE)
    decay = np.exp(-np.arange(burst) / (0.0025 * CORE_RATE))
    x[attack:attack + burst] += decay * rng.standard_normal(burst)
    return amp * x / np.abs(x).max(), attack


def test_silence_frame_payload_is_minimal():
    payload, _, (stats,) = codec.encode_frames(
        frame_signal(np.zeros(1024), CFG12.window_spec)[:1], CFG12, 0)
    assert not payload.ctns_flag[0]
    assert stats.section_bits["clpc"] == 0  # no CLPC row is sent
    assert payload.index1.shape == (1, CFG12.n_bins)
    assert np.all(payload.index1 == 0)
    assert np.all(payload.sf_indices == -60)
    assert stats.gain_db == -100.0


def test_silence_roundtrip_is_silence():
    pcm = np.zeros(4000)
    blob, _ = codec.encode_stream(pcm, CFG12)
    out, header, flags = codec.decode_stream(blob, CFG12)
    assert out.size == 4000
    assert np.allclose(out, 0.0)
    assert not any(flags)


def test_silent_2048_sample_frames_round_trip():
    # 1,025 zero magnitude indices a frame: the index-1 coder halves its counts
    cfg = CodecConfig(frame_len=2048, band_edges=tuple(2 * e for e in CFG12.band_edges))
    pcm = np.zeros(2048 + 2 * cfg.window_spec.hop)
    blob, stats = codec.encode_stream(pcm, cfg)
    out, _, flags = codec.decode_stream(blob, cfg)
    assert len(stats) == len(flags) == 3
    assert np.array_equal(out, pcm)


def test_2048_sample_frames_code_indices_after_a_halving():
    # a faint Nyquist tone: every frame's index 1 is zero up to bin 1,022 and
    # nonzero above it, so bank 0 halves at bin 1,022 (55 + 1,023 * 32 >= 32,768)
    # and codes what follows from its halved counts
    cfg = CodecConfig(frame_len=2048, band_edges=tuple(2 * e for e in CFG12.band_edges))
    pcm = 1e-5 * np.cos(np.pi * np.arange(4 * 2048))
    blob, stats = codec.encode_stream(pcm, cfg)
    assert hashlib.sha256(blob).hexdigest() == (
        "d23d092b00d1a4ea804cc4a55b176e5aa6b73cba3bf98090ca4b36c8798ca434")
    ctx, pos = cfg.layout, StreamHeader.size()
    for _ in stats:
        payload, pos = unpack_one(blob, pos, ctx, cfg)
        assert np.flatnonzero(payload.index1[0]).min(initial=1023) >= 1023
        assert payload.index1[0, 1023:].any()
    out, _, _ = codec.decode_stream(blob, cfg)
    assert out.size == pcm.size
    assert np.dot(out, pcm) > 0.9 * np.linalg.norm(out) * np.linalg.norm(pcm)


def test_layout_is_derived_once_and_read_only(monkeypatch):
    # a config has one frame layout: the same object on every access, kept by with_mode
    # of its own mode, and the only one a whole round trip builds; nothing in it is settable
    built, init = [], PackContext.__init__

    def counted_init(layout, cfg):
        built.append(cfg)
        init(layout, cfg)

    monkeypatch.setattr(PackContext, "__init__", counted_init)
    cfg = CodecConfig()  # a new config, whose layout is not built yet
    assert cfg.layout is cfg.layout and built == [cfg]
    assert cfg.with_mode(cfg.mode) is cfg
    assert cfg.window_spec is cfg.window_spec
    pcm = signals.speechish(0.5, seed=3)
    out, _, _ = codec.decode_stream(codec.encode_stream(pcm, cfg)[0], cfg)
    assert out.size == pcm.size and built == [cfg]
    layout = cfg.layout
    for name in ("band_of", "real_mask", "phase_cells", "raw_widths"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(layout, name)[0] = 1
    with pytest.raises(AttributeError):
        layout.real_mask = np.zeros(cfg.n_bins, dtype=bool)
    with pytest.raises(AttributeError):
        layout.lpc_order = 2


def test_pickled_and_copied_configs_rebuild_a_read_only_layout():
    # a copy carries the config's fields, not its cached layout, whose arrays
    # would come back writeable: each copy builds its own read-only one
    pcm = signals.speechish(0.25, seed=5)
    cfg = CodecConfig()
    layout = cfg.layout  # cached before the copies are made
    blob, _ = codec.encode_stream(pcm, cfg)
    for copied in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
        assert copied == cfg
        assert not copied.layout.real_mask.flags.writeable
        assert copied.layout is not layout
        assert codec.encode_stream(pcm, copied)[0] == blob


def test_decode_without_a_config_builds_no_layout_per_stream(monkeypatch):
    # the default config is built once, and so is its with_mode config of the
    # other mode: a second config-less decode of a 12k or a 16k stream reuses
    # the layout the first built
    built, init = [], PackContext.__init__

    def counted_init(layout, cfg):
        built.append(cfg)
        init(layout, cfg)

    for mode in ("12k", "16k"):
        cfg = CFG12.with_mode(mode)
        blob, _ = codec.encode_stream(signals.speechish(0.5, seed=4), cfg)
        want, _, _ = codec.decode_stream(blob, cfg)
        with monkeypatch.context() as m:
            m.setattr(PackContext, "__init__", counted_init)
            first, _, _ = codec.decode_stream(blob)
            built.clear()
            second, _, _ = codec.decode_stream(blob)
        assert built == []
        assert np.array_equal(first, want) and np.array_equal(second, want)


def test_sinusoid_concentrates_in_its_band():
    # 1 kHz = bin 80, inside the band spanning bins 40..89.  The window's
    # nonzero edges leave a faint sidelobe floor that other bands may code at
    # the lowest nonzero index, so the tone's band must hold every strong
    # index and all of the decoded energy.
    pcm = signals.tone(1000.0, 1.0, amp=0.9)
    frames = frame_signal(pcm, CFG12.window_spec)
    payload, _, _ = codec.encode_frames(frames[4:5], CFG12, 4)
    bands = [payload.index1[0, s] for s in band_slices(CTX12)]
    assert np.max(bands[1]) >= 2
    for b in set(range(8)) - {1}:
        assert np.max(bands[b], initial=0) <= 1
    rec = ref_decode_frame(payload, 0, CFG12)
    spec = np.abs(np.fft.rfft(rec))
    in_band = np.sum(spec[40:90] ** 2)
    assert in_band / np.sum(spec ** 2) > 0.99


def test_click_train_activates_ctns():
    pcm, attacks = signals.click_train(1.5)
    blob, stats = codec.encode_stream(pcm, CFG12)
    spec = CFG12.window_spec
    active = {s.index for s in stats if s.ctns_active}
    for a in attacks:
        covering = {k for k in range(len(stats))
                    if k * spec.hop <= a < k * spec.hop + spec.frame_len}
        assert covering & active, f"no active frame covers attack at {a}"
    # silent frames stay off
    silent = {s.index for s in stats if s.gain_db == -100.0}
    assert silent.isdisjoint(active)


def test_stream_frame_count_one_second():
    blob, stats = codec.encode_stream(np.zeros(12800), CFG12)
    assert len(stats) == 17


def test_decode_trims_to_original_length():
    rng = np.random.default_rng(50)
    for n in (1, 500, 1024, 5000, 12800):
        pcm = np.clip(0.2 * rng.standard_normal(n), -1, 1)
        blob, _ = codec.encode_stream(pcm, CFG12)
        out, header, _ = codec.decode_stream(blob, CFG12)
        assert out.size == n
        assert header.original_length == n


def test_decoded_output_bounded_and_finite():
    items = signals.mixed_corpus(5.0)
    for pcm in items.values():
        blob, _ = codec.encode_stream(pcm, CFG12)
        out, _, _ = codec.decode_stream(blob, CFG12)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out)) <= 4.0


def test_stream_determinism():
    pcm = signals.speechish(2.0)
    a, _ = codec.encode_stream(pcm, CFG12)
    b, _ = codec.encode_stream(pcm, CFG12)
    assert a == b
    out1, _, _ = codec.decode_stream(a, CFG12)
    out2, _, _ = codec.decode_stream(a, CFG12)
    assert np.array_equal(out1, out2)


def test_mode_is_carried_by_header():
    pcm = signals.tone(500.0, 0.5)
    blob, _ = codec.encode_stream(pcm, CFG16)
    header = StreamHeader.unpack(blob)
    assert header.mode == "16k"
    out, header2, _ = codec.decode_stream(blob, CodecConfig(mode="12k"))
    assert header2.mode == "16k"
    assert out.size == pcm.size


def test_decode_rejects_mismatched_table_version():
    pcm = signals.tone(500.0, 0.3)
    blob, _ = codec.encode_stream(pcm, CFG12)
    bad = replace(CFG12, ecupq=replace(CFG12.ecupq, version="other-table"))
    with pytest.raises(StreamError, match="table_version 'rayleigh.*'other-table'"):
        codec.decode_stream(blob, bad)
    # a header that claims another sample rate is refused like any other mismatch
    header = replace(StreamHeader.unpack(blob), sample_rate_hz=16000)
    with pytest.raises(StreamError, match="does not match.*sample_rate_hz 16000"):
        codec.decode_stream(header.pack() + blob[StreamHeader.size():], CFG12)


@pytest.fixture(scope="module")
def tone_stream():
    return codec.encode_stream(signals.tone(500.0, 0.2), CFG12)[0]


TAG_AT = StreamHeader.size() - 24  # the quantizer table tag is the header's last field
# original_length, a u64 after the magic, version, rate, frame and overlap lengths and mode
LENGTH_AT = struct.calcsize("<4sBIHHB")
LONGEST = struct.pack("<Q", 2 ** 63 - 1)


@given(replaced=st.dictionaries(st.integers(5, StreamHeader.size() - 1), st.integers(0, 255)))
@example(replaced={TAG_AT: 0xFF})
@example(replaced={TAG_AT + 23: 0x80})
@example(replaced=dict(enumerate(LONGEST, LENGTH_AT)))
def test_drawn_header_fields_raise_only_stream_error(tone_stream, replaced):
    # the magic and version stay valid; any header byte after them is drawn
    data = bytearray(tone_stream)
    for pos, byte in replaced.items():
        data[pos] = byte
    try:
        codec.decode_stream(bytes(data), CFG12)
    except StreamError:
        pass


def test_header_length_beyond_the_frames_present_is_a_stream_error(tone_stream):
    # the output is bounded by the bytes present, not by the length the header claims
    data = tone_stream[:LENGTH_AT] + LONGEST + tone_stream[LENGTH_AT + 8:]
    with pytest.raises(StreamError, match=r"^stream ends after 3 of the \d+ frames"):
        codec.decode_stream(data, CFG12)


def decode_peak_bytes(data):
    """tracemalloc's peak while ``decode_stream`` refuses ``data``."""
    tracemalloc.start()
    try:
        with pytest.raises(StreamError):
            codec.decode_stream(data, CFG12)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_output_is_sized_by_the_frames_present():
    # a header that claims the longest length reserves no more output, and
    # no larger chunk, than the frames its stream holds: the same cut stream
    # under its true header peaks as high
    cut = codec.encode_stream(signals.speechish(1.0), CFG12)[0][:-1]
    longest = cut[:LENGTH_AT] + LONGEST + cut[LENGTH_AT + 8:]
    assert decode_peak_bytes(longest) <= 1.1 * decode_peak_bytes(cut)


def test_forged_empty_frames_are_refused_before_their_output_is_allocated():
    # 200,000 four-byte frames pass the length-prefix walk under a header that
    # matches them and claim 154 M samples (1.2 GB); the output grows only by
    # the chunks decoded, so frame 0's refusal costs the walk's offsets and one chunk
    spec, n = CFG12.window_spec, 200_000
    data = codec.stream_header(CFG12, (n - 1) * spec.hop + spec.frame_len).pack() + bytes(4 * n)
    assert decode_peak_bytes(data) <= 16e6


def test_decode_rejects_truncated_stream():
    pcm = signals.tone(500.0, 0.5)
    blob, _ = codec.encode_stream(pcm, CFG12)
    with pytest.raises(StreamError):
        codec.decode_stream(blob[:len(blob) - 7], CFG12)


def frame_ends(blob):
    """Byte offset just past each frame, read from the u16 length prefixes."""
    ends, pos = [], StreamHeader.size()
    while pos < len(blob):
        arith_len, raw_len = struct.unpack("<HH", blob[pos:pos + 4])
        pos += 4 + arith_len + raw_len
        ends.append(pos)
    return ends


def test_records_follow_their_frames_across_chunks(corpus_runs):
    # each corpus item is encoded in more than one chunk, so a record given
    # the wrong first-frame offset or another frame's bytes shows here
    for items in corpus_runs.values():
        for item in items.values():
            stats = item["stats"]
            assert len(stats) > codec.CHUNK_FRAMES
            assert [s.index for s in stats] == list(range(len(stats)))
            frame_bytes = np.diff([StreamHeader.size()] + frame_ends(item["blob"]))
            assert [s.total_bits for s in stats] == (8 * frame_bytes).tolist()


def test_parsed_records_pack_back_to_the_encoders_bytes(corpus_runs):
    # a record parsed as decode_stream parses it holds everything the wire
    # does: packing each parsed row gives the frame's own bytes and the
    # encoder's section costs, float for float
    for mode, items in corpus_runs.items():
        cfg = CFG12.with_mode(mode)
        for name, item in items.items():
            pos = StreamHeader.size()
            for stats in item["stats"]:
                record, end = unpack_one(item["blob"], pos, cfg.layout, cfg)
                section_bits = {}
                assert pack(record, cfg.layout, section_bits) == item["blob"][pos:end]
                assert exact(section_bits) == exact(stats.section_bits), (mode, name, stats.index)
                pos = end
            assert pos == len(item["blob"])


def test_range_coded_section_costs_fall_short_of_their_bytes_by_the_flush_and_pad(corpus_runs):
    # the coder's state cost after the last section is its bits less log2(range) - 30, which
    # finish adds (more than 0, at most 2, as range > 2^30) before the byte pad (0 to 7); the
    # CLPC section's cost also holds its raw phase bits, taken out here
    for mode, items in corpus_runs.items():
        cfg = CFG12.with_mode(mode)
        for item in items.values():
            pos = StreamHeader.size()
            for stats in item["stats"]:
                record, end = unpack_one(item["blob"], pos, cfg.layout, cfg)
                phases = cfg.layout.clpc_phase_bits * int((record.clpc_indices[0, :, 0] >= 0).sum())
                bits = stats.section_bits
                cost = (bits["lsf"] + bits["clpc"] - phases * bool(record.ctns_flag[0])
                        + bits["sf"] + bits["index1"])
                arith_len = struct.unpack_from("<H", item["blob"], pos)[0]
                assert 0 < 8 * arith_len - cost <= 9, (mode, stats.index, arith_len, cost)
                pos = end


def test_decode_rejects_stream_cut_at_a_frame_boundary():
    blob, stats = codec.encode_stream(signals.speechish(2.0), CFG12)
    ends = frame_ends(blob)
    assert len(ends) == len(stats) == 33
    with pytest.raises(StreamError, match="stream ends after 3 of the 33 frames"):
        codec.decode_stream(blob[:ends[2]], CFG12)


def test_decode_rejects_frames_beyond_the_header_length():
    blob, _ = codec.encode_stream(signals.speechish(2.0), CFG12)
    ends = frame_ends(blob)
    with pytest.raises(StreamError, match="bytes follow the 33 frames"):
        codec.decode_stream(blob + blob[ends[0]:ends[3]], CFG12)


@pytest.mark.parametrize("fault, message", [
    ("cut", r"^frame 32: truncated frame payload$"),
    ("short", r"^stream ends after 3 of the 33 frames"),
    ("overlong", r"^bytes follow the 33 frames"),
], ids=["cut", "short", "overlong"])
def test_framing_faults_are_refused_before_any_frame_is_parsed(monkeypatch, fault, message):
    # the length-prefix walk finds a cut, short or overlong stream on its own
    blob, _ = codec.encode_stream(signals.speechish(2.0), CFG12)
    ends = frame_ends(blob)
    data = {"cut": blob[:-1], "short": blob[:ends[2]], "overlong": blob + blob[ends[0]:ends[3]]}
    parsed = []
    monkeypatch.setattr(codec, "unpack_frame", lambda *args: parsed.append(args))
    with pytest.raises(StreamError, match=message):
        codec.decode_stream(data[fault], CFG12)
    assert parsed == []


def broken_frame(payload, kind):
    """The frame bytes of ``payload`` with one fault of the given kind."""
    if kind == "escape":  # the encoder clips index 2 to OUTLIER_MAX
        payload.index1[0, 5], payload.index2[0, 5] = pq.ESCAPE_INDEX, pq.OUTLIER_MAX + 1
    if kind == "lsf":  # LSF deltas in range that add up beyond the largest index
        payload.lsf_indices[0] = CTX12.lsf_alphabet // 2 * np.arange(1, CFG12.lpc_order + 1)
    frame = pack(payload, CTX12)
    if kind == "raw":  # a raw section one byte longer than its fields
        arith_len, raw_len = struct.unpack_from("<HH", frame)
        frame = struct.pack("<HH", arith_len, raw_len + 1) + frame[4:] + b"\0"
    return frame


def broken_stream(blob, faults):
    """``blob`` with frame k rebuilt by ``broken_frame`` for each (k, kind) in ``faults``."""
    ends = frame_ends(blob)
    starts = [StreamHeader.size()] + ends[:-1]
    return blob[:starts[0]] + b"".join(
        broken_frame(unpack_one(blob, start, CTX12)[0], faults[k]) if k in faults
        else blob[start:end] for k, (start, end) in enumerate(zip(starts, ends)))


RAW_FAULT = "raw section length does not match its fields"


@pytest.mark.parametrize("kind, message", [
    ("truncated", "truncated frame payload"),
    ("escape", f"escape index 2 above {pq.OUTLIER_MAX}"),
    ("lsf", "LSF index out of range"),
    ("raw", RAW_FAULT),
], ids=["truncated", "escape", "lsf", "raw"])
def test_decode_names_the_failing_frame(kind, message):
    # unpack reports what is wrong; decode_stream adds which frame it is
    blob, _ = codec.encode_stream(signals.speechish(1.0), CFG12)
    if kind == "truncated":
        broken = blob[:frame_ends(blob)[2] + 10]
    else:
        broken = broken_stream(blob, {3: kind})
    with pytest.raises(StreamError, match=f"^frame 3: {message}$") as exc:
        codec.decode_stream(broken, CFG12)
    assert exc.value.frame_index == 3


@pytest.mark.parametrize("faults, message", [
    ({3: "raw", 5: "lsf"}, RAW_FAULT),
    ({3: "lsf", 5: "raw"}, "LSF index out of range"),
], ids=["raw-then-lsf", "lsf-then-raw"])
def test_decode_names_the_first_failing_frame_of_a_chunk(faults, message):
    # frame 3's raw length is checked in the chunk's second pass, after frame 5
    # failed the first; the error is still the first faulty frame's, in stream order
    blob, _ = codec.encode_stream(signals.speechish(1.0), CFG12)
    assert len(frame_ends(blob)) <= codec.CHUNK_FRAMES
    with pytest.raises(StreamError, match=f"^frame 3: {message}$") as exc:
        codec.decode_stream(broken_stream(blob, faults), CFG12)
    assert exc.value.frame_index == 3


def test_no_layer_is_handed_more_than_one_chunk(monkeypatch):
    # encoding, decoding and the debug bypass each hold one chunk at a time:
    # no layer below them receives more than CHUNK_FRAMES frames, or more
    # samples than one chunk's frames cover
    spec, chunk = CFG12.window_spec, codec.CHUNK_FRAMES
    pcm = signals.speechish((2 * chunk + 5) * spec.hop / CFG12.sample_rate)
    assert frame_count(pcm.size, spec) > 2 * chunk
    sizes = {"frame_signal": len, "analyze_frames": len, "overlap_add": len,
             "decode_frame_payload": lambda record: len(record.lsf_indices)}
    seen = {name: [] for name in sizes}
    for name, size in sizes.items():
        def spy(arg, *args, _orig=getattr(codec, name), _name=name, _size=size, **kwargs):
            seen[_name].append(_size(arg))
            return _orig(arg, *args, **kwargs)
        monkeypatch.setattr(codec, name, spy)
    blob, _ = codec.encode_stream(pcm, CFG12)
    codec.decode_stream(blob, CFG12)
    codec.shaping_roundtrip(pcm, CFG12)
    assert all(seen.values())
    assert max(seen.pop("frame_signal")) <= (chunk - 1) * spec.hop + spec.frame_len
    assert max(max(n) for n in seen.values()) <= chunk


@pytest.mark.parametrize("entry, bad", [
    *(pytest.param(codec.encode_stream, bad, id=str(bad)) for bad in (np.nan, np.inf, -np.inf)),
    *(pytest.param(codec.shaping_roundtrip, bad, id=f"shaping_roundtrip-{bad}")
      for bad in (np.nan, np.inf, -np.inf)),
])
def test_encode_rejects_non_finite_pcm(entry, bad):
    pcm = signals.tone(500.0, 0.2)
    pcm[100] = bad
    with pytest.raises(ValueError, match="non-finite"):
        entry(pcm, CFG12)


# speech at 1e300 overflows the autocorrelation (its level contract is not settled here)
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning",
                            "ignore:invalid value encountered in matmul:RuntimeWarning")
def test_encode_refuses_a_non_finite_model_with_its_own_value_error():
    # the overflow leaves a NaN model; the LSF conversion refuses it before the root finder,
    # whose LinAlgError (a ValueError subclass) would name numpy's array, not the model
    with pytest.raises(ValueError, match="model coefficients must be finite") as refused:
        codec.encode_stream(signals.speechish(0.5) * 1e300, CFG12)
    assert not isinstance(refused.value, np.linalg.LinAlgError)


def test_a_frame_section_past_its_u16_length_prefix_is_refused_by_name():
    # 32768-sample frames of loud noise: a frame's raw section outgrows its u16 length prefix,
    # which pack_frame refuses by section and byte count; it raised a bare struct.error
    cfg = CodecConfig(frame_len=32768, band_edges=(40, 90, 140, 200, 260, 330, 410, 16384))
    noise = np.random.default_rng(0).uniform(-1.0, 1.0, 65536)
    _, stats = codec.encode_stream(noise, cfg)
    assert max(s.total_bits for s in stats) // 8 < 0xFFFF  # 4,425 bytes at full scale
    with pytest.raises(ValueError, match=r"frame's raw section of \d+ bytes exceeds the 65535"):
        codec.encode_stream(noise * 1e6, cfg)


def test_shaping_roundtrip_precision():
    rng = np.random.default_rng(51)
    pcm = np.clip(0.5 * rng.standard_normal(30000), -1, 1)
    rec = codec.shaping_roundtrip(pcm, CFG12)
    seg = slice(1024, -1024)
    rel = np.sqrt(np.sum((pcm[seg] - rec[seg]) ** 2) / np.sum(pcm[seg] ** 2))
    assert rel < 1e-9


def test_shaping_roundtrip_spans_analysis_chunks():
    # more frames than one analysis chunk holds
    pcm = signals.speechish(6.0)
    assert len(frame_signal(pcm, CFG12.window_spec)) > codec.CHUNK_FRAMES
    rec = codec.shaping_roundtrip(pcm, CFG12)
    seg = slice(1024, -1024)
    assert np.sqrt(np.sum((pcm[seg] - rec[seg]) ** 2) / np.sum(pcm[seg] ** 2)) < 1e-9


def test_encoder_decoder_derive_identical_shaping():
    pcm = signals.speechish(1.0)
    frames = frame_signal(pcm, CFG12.window_spec)
    payload, _, _ = codec.encode_frames(frames[3:4], CFG12, 3)
    env_a, contrast_a = codec.derive_shaping(payload.lsf_indices[0], CFG12)
    env_b, contrast_b = codec.derive_shaping(payload.lsf_indices[0].copy(), CFG12)
    assert np.array_equal(env_a, env_b)
    assert np.array_equal(contrast_a, contrast_b)
    assert np.array_equal(contrast_a, payload.contrast[0])
    if payload.ctns_flag[0]:
        ca = codec.derive_clpc(payload.clpc_indices[0], CFG12)
        cb = codec.derive_clpc(payload.clpc_indices[0].copy(), CFG12)
        assert np.array_equal(ca, cb)


def test_frame_payload_roundtrip_through_decode():
    # re-encoding the decoded payload's quantized values must reproduce the
    # same magnitude indices (requantization fixpoint at codec level)
    pcm = signals.harmonic_tone(220.0, 1.0)
    blob, _ = codec.encode_stream(pcm, CFG12)
    out, _, flags = codec.decode_stream(blob, CFG12)
    assert out.size == pcm.size


def test_higher_rate_gives_larger_stream():
    pcm = signals.harmonic_tone(220.0, 2.0)
    blob12, _ = codec.encode_stream(pcm, CFG12)
    blob16, _ = codec.encode_stream(pcm, CFG16)
    assert len(blob16) > len(blob12)


def test_ctns_disabled_config_never_flags():
    pcm, _ = signals.click_train(1.5)
    cfg = replace(CFG12, ctns_enabled=False)
    blob, stats = codec.encode_stream(pcm, cfg)
    assert not any(s.ctns_active for s in stats)
    out, _, flags = codec.decode_stream(blob, cfg)
    assert not any(flags)


def test_post_attack_noise_lower_with_ctns():
    pcm, attack = attack_then_sustain()
    cfg_fdns = replace(CFG12, ctns_enabled=False)
    out_uns, _, _ = codec.decode_stream(codec.encode_stream(pcm, CFG12)[0], CFG12)
    out_fdns, _, _ = codec.decode_stream(codec.encode_stream(pcm, cfg_fdns)[0], cfg_fdns)
    win = slice(attack, attack + 640)
    noise_uns = np.sum((pcm[win] - out_uns[win]) ** 2)
    noise_fdns = np.sum((pcm[win] - out_fdns[win]) ** 2)
    assert noise_uns < noise_fdns


def test_spectral_payload_tracks_budget():
    pcm = signals.harmonic_tone(220.0, 2.0)
    for cfg, total in ((CFG12, 199), (CFG16, 294)):
        _, stats = codec.encode_stream(pcm, cfg)
        est = np.mean([s.est_spectral_bits for s in stats])
        assert est <= total * 1.001


def test_empty_input_roundtrip():
    blob, stats = codec.encode_stream(np.zeros(0), CFG12)
    out, header, flags = codec.decode_stream(blob, CFG12)
    assert stats == []
    assert out.size == 0


def test_active_frames_remove_filtered_energy():
    # whenever the switch engages on transient material, the filtered
    # residual holds no more energy than the unfiltered one above the start bin
    pcm, _ = signals.click_train(1.5)
    shaped = codec.analyze_frames(frame_signal(pcm, CFG12.window_spec), CFG12)
    checked = 0
    for f in np.flatnonzero(shaped.active):
        seg = slice(CFG12.ctns_start_bin, 512)
        assert (np.sum(np.abs(shaped.filtered[f, seg]) ** 2)
                <= np.sum(np.abs(shaped.res[f, seg]) ** 2))
        checked += 1
    assert checked > 0


def test_corrupted_stream_fails_loudly_or_decodes_finite():
    # flipping payload bytes must never hang or produce non-finite output
    pcm = signals.speechish(1.0)
    blob, _ = codec.encode_stream(pcm, CFG12)
    rng = np.random.default_rng(52)
    header_len = StreamHeader.size()
    for _ in range(20):
        corrupted = bytearray(blob)
        pos = int(rng.integers(header_len + 4, len(blob)))
        corrupted[pos] ^= int(rng.integers(1, 256))
        try:
            out, _, _ = codec.decode_stream(bytes(corrupted), CFG12)
        except StreamError:
            continue
        assert np.all(np.isfinite(out))


@pytest.mark.parametrize("cfg, seed", [(CFG12, 0), (CFG16, 1)], ids=["12k", "16k"])
def test_bit_flips_are_refused_or_decode_near_full_scale(cfg, seed):
    # each frame must consume exactly the two sections its prefix declares,
    # which refuses most flips; a flip that still parses decodes to the
    # stream's length, finite and at most 10x full scale
    pcm = signals.harmonic_tone(220.0, 1.0)
    blob, _ = codec.encode_stream(pcm, cfg)
    rng = np.random.default_rng(seed)
    bits = np.arange(8 * StreamHeader.size(), 8 * len(blob))
    for _ in range(100):
        data = bytearray(blob)
        for bit in rng.choice(bits, int(rng.integers(1, 4)), replace=False).tolist():
            data[bit // 8] ^= 0x80 >> bit % 8
        try:
            out, _, _ = codec.decode_stream(bytes(data), cfg)
        except StreamError:
            continue
        assert out.size == pcm.size
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out)) <= 10.0


def decode_frame_by_frame(data, cfg):
    """``decode_stream`` with each frame parsed on its own, through both passes on a 1-row
    chunk, and the parsed rows then synthesized in chunks; returns (pcm, header, flags)."""
    header, ctx, spec = StreamHeader.unpack(data), cfg.layout, cfg.window_spec
    bounds = frame_bounds(data, frame_count(header.original_length, spec), header.original_length)
    rows = []
    for frame, start in enumerate(bounds[:-1]):
        try:
            rows.append(unpack_one(data, start, ctx, cfg)[0])
        except StreamError as e:
            raise StreamError(str(e), frame) from None
    pcm = [np.zeros(spec.overlap_len)]
    for first in range(0, len(rows), codec.CHUNK_FRAMES):
        group = rows[first:first + codec.CHUNK_FRAMES]
        chunk = FramePayload(**{f.name: np.concatenate([getattr(r, f.name) for r in group])
                                for f in fields(FramePayload)})
        codec.add_chunk(pcm, codec.decode_frame_payload(chunk, cfg), spec)
    return np.concatenate(pcm)[:header.original_length], header, [r.ctns_flag[0] for r in rows]


def outcome(decode, data, cfg):
    """The (PCM bytes, flags) of a decode, or the (message, frame) of its ``StreamError``."""
    try:
        pcm, _, flags = decode(data, cfg)
    except StreamError as e:
        return str(e), e.frame_index
    return pcm.tobytes(), list(map(bool, flags))


def repeated_frames(blob):
    """The (start, end) byte offsets of each frame whose bytes repeat an earlier frame of its
    chunk, and the number of frames."""
    ends = frame_ends(blob)
    seen, repeats = set(), []
    for f, (start, end) in enumerate(zip([StreamHeader.size(), *ends], ends)):
        seen = set() if f % codec.CHUNK_FRAMES == 0 else seen
        if blob[start:end] in seen:
            repeats.append((start, end))
        seen.add(blob[start:end])
    return repeats, len(ends)


def silence_between(*parts, seconds=0.9):
    """The PCM ``parts`` with a run of digital silence before, between and after them."""
    gap = np.zeros(int(seconds * CORE_RATE))
    return np.concatenate([gap, *(x for part in parts for x in (part, gap))])


def packed_without_reuse(pcm, cfg):
    """The stream of ``pcm`` with ``pack_frame`` run on every row of each chunk's record."""
    blobs, ctx = [codec.stream_header(cfg, pcm.size).pack()], cfg.layout
    for first, frames in codec.chunks(pcm, cfg.window_spec):
        payload = codec.encode_frames(frames, cfg, first)[0]
        blobs += [pack_frame(row, ctx, {})
                  for row in wire_fields(payload, ctx.raw_offsets(payload.contrast), ctx)]
    return b"".join(blobs)


def test_each_distinct_record_row_of_a_chunk_is_packed_once(monkeypatch):
    # digital silence and a 165 Hz tone, which advances 99 cycles in 10 hops, repeat frames
    # within a chunk; each chunk range-codes its distinct rows once, and every frame still
    # gets the bytes and its own copy of the section costs its row packs to alone
    pcm = silence_between(signals.harmonic_tone(165.0, 3.0))
    calls = []
    monkeypatch.setattr(codec, "pack_frame", lambda row, *a: calls.append(row) or
                        pack_frame(row, *a))
    stats, repeats = [], 0
    for first, frames in codec.chunks(pcm, CFG12.window_spec):
        calls.clear()
        payload, blobs, chunk_stats = codec.encode_frames(frames, CFG12, first)
        rows = wire_fields(payload, CTX12.raw_offsets(payload.contrast), CTX12)
        assert len(calls) == len(set(map(repr, rows))) == len(set(map(repr, calls)))
        repeats += len(rows) - len(calls)
        for row, blob, frame_stats in zip(rows, blobs, chunk_stats):
            costs = {}
            assert blob == pack_frame(row, CTX12, costs)
            assert exact(frame_stats.section_bits) == exact(costs)
        stats += chunk_stats
    assert len(stats) > codec.CHUNK_FRAMES and repeats > len(stats) // 2
    assert len({id(s.section_bits) for s in stats}) == len(stats)  # no frame shares its dict
    assert codec.encode_stream(pcm, CFG12)[0] == packed_without_reuse(pcm, CFG12)


@pytest.mark.parametrize("cfg, seed, silent", [(CFG12, 2, False), (CFG16, 3, False),
                                               (CFG12, 4, True)], ids=["12k", "16k", "12k-silence"])
def test_chunk_parse_matches_frame_by_frame_parse_on_flipped_bytes(cfg, seed, silent):
    # 1-3 flipped frame bytes of a 3 s stream, or of speech between runs of digital silence
    # over two chunks, where every other draw hits a frame that repeats an earlier one of its
    # chunk: the two-pass chunk parse gives the same PCM and flags, or the same error for the
    # same frame, as parsing every frame on its own
    pcm = signals.tone(440.0, 3.0)
    if cfg.mode == "16k":
        pcm = pcm + signals.click_train(3.0)[0]
    if silent:
        pcm = silence_between(signals.speechish(1.2, seed=7), signals.speechish(0.8, seed=8))
    blob, _ = codec.encode_stream(pcm, cfg)
    repeats, frames = repeated_frames(blob)
    later_copies = [pos for start, end in repeats for pos in range(start, end)]
    if silent:
        assert frames > codec.CHUNK_FRAMES and len(repeats) >= frames / 4
        calls, unpack_frame = [], codec.unpack_frame
        with pytest.MonkeyPatch.context() as m:
            m.setattr(codec, "unpack_frame", lambda *a: calls.append(a) or unpack_frame(*a))
            got = outcome(codec.decode_stream, blob, cfg)
        assert got == outcome(decode_frame_by_frame, blob, cfg)
        assert len(calls) == frames - len(repeats)  # once per distinct frame of each chunk
    rng = np.random.default_rng(seed)
    seen = set()
    for i in range(150):
        data = bytearray(blob)
        pool = later_copies if silent and i % 2 else np.arange(StreamHeader.size(), len(blob))
        for pos in rng.choice(pool, int(rng.integers(1, 4)), replace=False).tolist():
            data[pos] ^= int(rng.integers(1, 256))
        want = outcome(decode_frame_by_frame, bytes(data), cfg)
        assert outcome(codec.decode_stream, bytes(data), cfg) == want
        seen.add("decoded" if isinstance(want[0], bytes) else want[0].split(": ")[-1])
    assert "decoded" in seen and len(seen) >= 4  # decoded streams and three kinds of fault


@st.composite
def pcm_with_repeated_frames(draw):
    """(PCM, config) in a drawn mode: runs of digital silence and of noise at a drawn level, and
    one segment of noise a whole number of hops long played 3-4 times back to back, so frames
    that lie within its copies repeat."""
    cfg = draw(st.sampled_from([CFG12, CFG16]))
    rng, spec = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), cfg.window_spec
    noise = lambda n: 10 ** draw(st.floats(-6, 0)) * rng.standard_normal(n)
    segment = noise(draw(st.integers(1, 2)) * (spec.frame_len - spec.overlap_len))
    parts = [np.tile(segment, draw(st.integers(3, 4)))]
    for run in draw(st.lists(st.sampled_from(["silence", "noise"]), max_size=4)):
        n = draw(st.integers(0, 3000))
        run = np.zeros(n) if run == "silence" else noise(n)
        parts.insert(draw(st.integers(0, len(parts))), run)
    return np.concatenate(parts), cfg


@given(pcm_with_repeated_frames())
def test_repeated_frames_code_and_decode_as_without_reuse(drawn):
    # frames are coded independently, so reusing a repeated frame's bytes at the encoder and
    # its parse at the decoder changes neither the stream nor the decode
    pcm, cfg = drawn
    blob, _ = codec.encode_stream(pcm, cfg)
    assert blob == packed_without_reuse(pcm, cfg)
    assert outcome(codec.decode_stream, blob, cfg) == outcome(decode_frame_by_frame, blob, cfg)


def test_traced_layer_names_exist_and_are_called(monkeypatch):
    # the benchmark's per-layer trace wraps these codec names from outside;
    # a renamed or bypassed one would leave its layer silently unmeasured
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layertrace
    tracer = layertrace.Tracer()
    pcm, _ = signals.click_train(1.0)
    with tracer:
        blob, _ = codec.encode_stream(pcm, CFG12)
        codec.decode_stream(blob, CFG12)
    assert codec.encode_stream.__name__ == "encode_stream"  # restored
    assert tracer.missing == []
    assert tracer.unmeasured_layers() == []
    assert {span[3] for span in tracer.spans} == {attr for _, attr, _ in tracer.wraps}


@given(seed=st.integers(0, 2 ** 32 - 1),
       silent=st.lists(st.booleans(), min_size=1, max_size=6))
@example(seed=0, silent=[False, True, False])
def test_chunk_quantization_equals_per_frame_calls(seed, silent):
    # a chunk is quantized in one call; each row must be its frame's own
    # call, with silent rows, escapes clipped to OUTLIER_MAX, negative DC
    # and Nyquist bins and both contrast flags in the stack
    rng = np.random.default_rng(seed)
    frames, n, bands = len(silent), CFG12.n_bins, len(CFG12.band_edges)
    coded = ((rng.standard_normal((frames, n)) + 1j * rng.standard_normal((frames, n)))
             * 10 ** rng.uniform(-4, 6, (frames, n)))
    coded[:, [0, -1]] = -10 ** rng.uniform(3, 6, (frames, 2))  # nonzero at any gain
    coded[np.arange(frames), rng.integers(1, n - 1, frames)] = 1e9  # 1e6 at the coarsest gain
    coded[silent] = 0.0
    gains = rng.integers(-60, 61, (frames, bands))
    contrast = rng.random((frames, bands)) < 0.5
    contrast[0, :2] = True, False
    chunk = codec.quantize_spectrum(coded, gains, contrast, CFG12)
    for f in range(frames):
        alone = codec.quantize_spectrum(coded[f], gains[f], contrast[f], CFG12)
        for got, want in zip(chunk, alone):
            assert got[f].dtype == want.dtype and np.array_equal(got[f], want)
    index1, index2, raw = chunk
    loud = ~np.array(silent)
    assert not index1[~loud].any()
    assert (index1[loud] == pq.ESCAPE_INDEX).any(axis=1).all()
    assert (index2[loud] == pq.OUTLIER_MAX).any(axis=1).all()
    assert (raw[loud][:, [0, -1]] == 1).all()  # the sign bits


def test_config_derived_alphabets_round_trip():
    # the LSF and CLPC alphabets and every phase field follow the config: a
    # finer LSF step and CLPC grid, 128 CLPC phase cells and 128 phase cells
    # at the top magnitude class all decode to the encoder's own frames
    cfg = CodecConfig(lsf_step=0.005 * np.pi, clpc_mag_step_db=0.25, clpc_phase_cells=128,
                      phase_cells_high=(1, 8, 16, 16, 32, 32, 64, 128), mode="16k")
    pcm = signals.click_train(1.0)[0] + 0.3 * signals.harmonic_tone(220.0, 1.0)
    blob, _ = codec.encode_stream(pcm, cfg)
    out, _, flags = codec.decode_stream(blob, cfg)
    ctx = cfg.layout
    frames = frame_signal(pcm, cfg.window_spec)
    records = [codec.encode_frames(frames[i:i + codec.CHUNK_FRAMES], cfg, i)[0]
               for i in range(0, len(frames), codec.CHUNK_FRAMES)]
    rows = [(r, f) for r in records for f in range(len(r.ctns_flag))]
    ref = overlap_add([ref_decode_frame(r, f, cfg) for r, f in rows], cfg.window_spec)[:pcm.size]
    assert np.array_equal(out, ref)
    assert flags == [bool(r.ctns_flag[f]) for r, f in rows]
    # values past the default config's alphabets and field widths occur
    clpc = np.concatenate([r.clpc_indices[r.ctns_flag] for r in records])
    assert max(int(r.lsf_indices.max()) for r in records) > 100
    assert clpc[..., 0].max() > 160 and clpc[..., 1].max() >= 64
    assert max(int(r.raw.max()) for r in records) >= 64  # a phase index

