import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unscodec import codec, entropy_bitstream as eb, polar_quant as pq
from unscodec.config import CodecConfig


def test_exp_golomb_rejects_negative():
    # an escape below OUTLIER_MIN would be a negative Exp-Golomb value
    ctx = make_ctx()
    payload = random_payload(np.random.default_rng(46), ctx)
    payload.index2[0, np.flatnonzero(payload.index1[0] == pq.ESCAPE_INDEX)[0]] = pq.OUTLIER_MIN - 1
    with pytest.raises(ValueError, match="below"):
        eb.pack_frame(payload, 0, ctx, {})


def range_encode(symbols, n_alphabet):
    """One symbol sequence through the range coder with fresh flat counts."""
    enc = eb.RangeEncoder()
    enc.encode([int(s) for s in symbols], *eb.flat_model(n_alphabet))
    return enc.finish()


def range_decode(data, n_alphabet, count):
    return eb.RangeDecoder(data).decode(count, *eb.flat_model(n_alphabet))


def test_range_coder_empty():
    data = range_encode([], 15)
    assert len(data) <= 1
    assert range_decode(data, 15, 0) == []


def test_range_coder_roundtrip_random_alphabets():
    rng = np.random.default_rng(40)
    for alphabet in (2, 15, 101, 241):
        for n in (1, 7, 500):
            syms = rng.integers(0, alphabet, n).tolist()
            data = range_encode(syms, alphabet)
            assert range_decode(data, alphabet, n) == syms


def test_range_coder_uniform_rate_bound():
    rng = np.random.default_rng(41)
    syms = rng.integers(0, 15, 1000).tolist()
    bits = 8 * len(range_encode(syms, 15))
    assert bits / 1000.0 >= 3.85
    assert bits / 1000.0 <= 4.1


def test_range_coder_adapts_to_constant():
    syms = [7] * 1000
    bits = 8 * len(range_encode(syms, 15))
    assert bits / 1000.0 < 0.1


def test_stream_header_roundtrip():
    h = codec.stream_header(CodecConfig(mode="16k"), 123456)
    data = h.pack()
    out = eb.StreamHeader.unpack(data + b"trailing")
    assert out == h


def test_stream_header_rejects_bad_magic():
    data = bytearray(codec.stream_header(CodecConfig(), 0).pack())
    data[0] = ord("X")
    with pytest.raises(eb.StreamError):
        eb.StreamHeader.unpack(bytes(data))


def test_stream_header_rejects_unsupported_version():
    data = bytearray(codec.stream_header(CodecConfig(), 0).pack())
    data[4] = eb.STREAM_VERSION + 1
    with pytest.raises(eb.StreamError, match=f"unsupported stream version {eb.STREAM_VERSION + 1}"):
        eb.StreamHeader.unpack(bytes(data))


def test_stream_header_rejects_short_input():
    with pytest.raises(eb.StreamError):
        eb.StreamHeader.unpack(b"UNS1")


def make_ctx():
    # a 514-bin layout, band sizes (41, 50, 50, 60, 60, 70, 80, 103), from a config that has it
    return CodecConfig(frame_len=1026, band_edges=(41, 91, 141, 201, 261, 331, 411, 513)).layout


ALL_HIGH = [True] * 8  # the contrast flags of a make_ctx frame unless a test sets its own


def one_row(**fields):
    """A 1-row chunk record of one frame's fields."""
    return eb.FramePayload(**{name: np.asarray(value)[None] for name, value in fields.items()})


def unpack_one(data, pos, ctx, cfg=CodecConfig(), contrast=None):
    """Parse the frame at byte offset ``pos`` into a 1-row record through both passes, its
    contrast flags between them derived from its LSF indices with ``cfg`` as decode_stream
    does, or the given ``contrast``; returns (record, offset past the frame).  Like
    ``frame_bounds``, it refuses a frame that runs past the end of ``data``."""
    end = pos + 4 + sum(struct.unpack_from("<HH", data, pos)) if len(data) - pos >= 4 else None
    if end is None or end > len(data):
        raise eb.StreamError("truncated frame payload")
    record = eb.FramePayload.zeros(1, ctx)
    at = eb.unpack_frame(data, pos, ctx, record, 0)
    if contrast is None:
        _, contrast = codec.derive_shaping(record.lsf_indices[0], cfg)
    record.contrast[0] = contrast
    if eb.unpack_fields(data, [at], [end], ctx, record)[0]:
        raise eb.StreamError("raw section length does not match its fields")
    return record, end


def random_payload(rng, ctx, flag=True, with_escapes=True, zero_frac=0.0, contrast=ALL_HIGH):
    lsf = np.sort(rng.integers(0, 100, ctx.lpc_order))
    clpc = np.zeros((ctx.lpc_order, 2), dtype=int)
    if flag:
        clpc = np.stack([rng.integers(-1, 161, ctx.lpc_order),
                         rng.integers(0, 64, ctx.lpc_order)], axis=1)
        clpc[clpc[:, 0] == -1, 1] = 0
    sf = rng.integers(-60, 61, len(ctx.band_sizes))
    n = ctx.real_mask.size
    index1 = rng.integers(0, 15 if with_escapes else 8, n)
    if zero_frac:
        index1[rng.random(n) < zero_frac] = 0
    index2 = np.zeros(n, dtype=int)
    index2[index1 == 8] = rng.integers(18, 65536, int(np.sum(index1 == 8)))
    high = np.asarray(contrast, dtype=int)[ctx.band_of]
    cells = ctx.phase_cells[high, np.minimum(index1, 7)]
    phase = (rng.random(n) * cells).astype(int)  # 0 where cells is 1
    raw = np.where(ctx.real_mask, rng.integers(0, 2, n) * (index1 > 0), phase)
    return one_row(lsf_indices=lsf, ctns_flag=flag, clpc_indices=clpc, sf_indices=sf,
                   index1=index1, index2=index2, raw=raw, contrast=contrast)


def assert_payload_equal(a, b):
    assert np.array_equal(a.lsf_indices, b.lsf_indices)
    assert np.array_equal(a.ctns_flag, b.ctns_flag)
    assert np.array_equal(a.clpc_indices[a.ctns_flag], b.clpc_indices[b.ctns_flag])
    for name in ("sf_indices", "index1", "index2", "raw", "contrast"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_pack_unpack_field_for_field():
    rng = np.random.default_rng(42)
    ctx = make_ctx()
    for flag in (True, False):
        payload = random_payload(rng, ctx, flag=flag)
        blob = eb.pack_frame(payload, 0, ctx, {})
        out, consumed = unpack_one(blob, 0, ctx, contrast=ALL_HIGH)
        assert consumed == len(blob)
        assert_payload_equal(payload, out)


@given(seed=st.integers(0, 2 ** 32 - 1), flag=st.booleans(), escapes=st.booleans(),
       zero_frac=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       contrast=st.lists(st.booleans(), min_size=8, max_size=8))
def test_drawn_payloads_survive_pack_unpack(seed, flag, escapes, zero_frac, contrast):
    ctx = make_ctx()
    payload = random_payload(np.random.default_rng(seed), ctx, flag=flag,
                             with_escapes=escapes, zero_frac=zero_frac, contrast=contrast)
    blob = eb.pack_frame(payload, 0, ctx, {})
    out, consumed = unpack_one(blob + b"next frame", 0, ctx, contrast=contrast)
    assert consumed == len(blob)
    assert_payload_equal(payload, out)


def test_pack_unpack_with_mixed_contrast():
    rng = np.random.default_rng(43)
    contrast = [True, False, True, False, False, True, False, True]
    ctx = make_ctx()
    payload = random_payload(rng, ctx, contrast=contrast)
    out, _ = unpack_one(eb.pack_frame(payload, 0, ctx, {}), 0, ctx, contrast=contrast)
    assert_payload_equal(payload, out)


def test_frames_concatenate_without_lookahead():
    rng = np.random.default_rng(44)
    ctx = make_ctx()
    payloads = [random_payload(rng, ctx, flag=bool(i % 2)) for i in range(5)]
    blob = b"".join(eb.pack_frame(p, 0, ctx, {}) for p in payloads)
    pos = 0
    for p in payloads:
        out, pos = unpack_one(blob, pos, ctx, contrast=ALL_HIGH)
        assert_payload_equal(p, out)
    assert pos == len(blob)


def zero_payload(ctx, flag=False):
    n = ctx.real_mask.size
    return one_row(
        lsf_indices=np.arange(3, 3 + ctx.lpc_order), ctns_flag=flag,
        clpc_indices=np.zeros((ctx.lpc_order, 2), dtype=int),
        sf_indices=np.zeros(len(ctx.band_sizes), dtype=int),
        index1=np.zeros(n, dtype=int), index2=np.zeros(n, dtype=int),
        raw=np.zeros(n, dtype=int),
        contrast=[True] * len(ctx.band_sizes),
    )


def test_flag_costs_exactly_one_raw_bit():
    ctx = make_ctx()
    stats_off, stats_on = {}, {}
    eb.pack_frame(zero_payload(ctx, flag=False), 0, ctx, stats_out=stats_off)
    eb.pack_frame(zero_payload(ctx, flag=True), 0, ctx, stats_out=stats_on)
    assert stats_off["flag"] == 1
    assert stats_on["flag"] == 1
    # identical frames apart from the flag and complex-LPC fields
    assert stats_off["clpc"] == 0
    assert stats_on["clpc"] > 0


def test_all_zero_magnitudes_emit_zero_phase_bits():
    ctx = make_ctx()
    stats = {}
    eb.pack_frame(zero_payload(ctx), 0, ctx, stats_out=stats)
    assert stats["phase"] == 0
    assert stats["sign"] == 0
    assert stats["escape"] == 0
