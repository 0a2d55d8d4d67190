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
        pack(payload, ctx)


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


def pack(payload, ctx, stats_out=None, row=0):
    """Row ``row`` of a chunk record packed as the encoder packs it: the chunk's wire fields,
    then that row's frame; ``stats_out``, if given, receives its section costs."""
    fields = eb.wire_fields(payload, ctx.raw_offsets(payload.contrast), ctx)[row]
    return eb.pack_frame(fields, ctx, {} if stats_out is None else stats_out)


def band_slices(ctx):
    """Each band's bins of a frame in ``ctx``'s layout, as a slice: the bands run back to
    back from bin 0, and the last one holds the Nyquist bin."""
    ends = np.cumsum(ctx.band_sizes).tolist()
    return [slice(end - size, end) for end, size in zip(ends, ctx.band_sizes)]


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
        blob = pack(payload, ctx)
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
    blob = pack(payload, ctx)
    out, consumed = unpack_one(blob + b"next frame", 0, ctx, contrast=contrast)
    assert consumed == len(blob)
    assert_payload_equal(payload, out)


def test_pack_unpack_with_mixed_contrast():
    rng = np.random.default_rng(43)
    contrast = [True, False, True, False, False, True, False, True]
    ctx = make_ctx()
    payload = random_payload(rng, ctx, contrast=contrast)
    out, _ = unpack_one(pack(payload, ctx), 0, ctx, contrast=contrast)
    assert_payload_equal(payload, out)


def test_frames_concatenate_without_lookahead():
    rng = np.random.default_rng(44)
    ctx = make_ctx()
    payloads = [random_payload(rng, ctx, flag=bool(i % 2)) for i in range(5)]
    blob = b"".join(pack(p, ctx) for p in payloads)
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
    pack(zero_payload(ctx, flag=False), ctx, stats_off)
    pack(zero_payload(ctx, flag=True), ctx, stats_on)
    assert stats_off["flag"] == 1
    assert stats_on["flag"] == 1
    # identical frames apart from the flag and complex-LPC fields
    assert stats_off["clpc"] == 0
    assert stats_on["clpc"] > 0


def test_all_zero_magnitudes_emit_zero_phase_bits():
    ctx = make_ctx()
    stats = {}
    pack(zero_payload(ctx), ctx, stats)
    assert stats["phase"] == 0
    assert stats["sign"] == 0
    assert stats["escape"] == 0


# --- the chunk pack against the one-row reference


def reference_pack_frame(payload, row, ctx, stats_out):
    """Serialize row ``row`` of a chunk record, one frame, to the two-section wire format from
    that row alone: the reference the chunk pack is checked against.  ``stats_out`` receives
    per-section bit costs (range-coded sections by their code length from the coder's state,
    raw sections by exact field width)."""
    enc, stats = eb.RangeEncoder(), stats_out
    lsf = np.asarray(payload.lsf_indices[row], dtype=int)
    stats.update(lsf=enc.encode(np.diff(lsf, prepend=0).tolist(), *ctx.lsf_model), flag=1)

    fields = [([int(payload.ctns_flag[row])], [1])]  # the raw section as (values, widths)
    stats["clpc"] = 0.0
    if payload.ctns_flag[row]:
        mags, phases = np.asarray(payload.clpc_indices[row], dtype=int).T
        widths = np.where(mags >= 0, ctx.clpc_phase_bits, 0)
        stats["clpc"] = enc.encode((mags + 1).tolist(), *ctx.clpc_mag_model) + int(widths.sum())
        fields.append((phases, widths))

    sf = np.asarray(payload.sf_indices[row], dtype=int)
    stats["sf"] = enc.encode((np.diff(sf, prepend=0) + eb._SF_OFFSET).tolist(),
                             *eb.SF_DELTA_MODEL)

    index1 = np.asarray(payload.index1[row], dtype=int)
    stats["index1"] = enc.encode(index1.tolist(), *eb.INDEX1_MODEL)
    # each escape's Exp-Golomb (k = 2) codeword: m = index2 - OUTLIER_MIN + 4
    # after bit_length(m) - 3 zeros, one field of 2 bit_length(m) - 3 bits
    m = np.asarray(payload.index2[row])[index1 == pq.ESCAPE_INDEX] - (pq.OUTLIER_MIN - 4)
    if np.any(m < 4):
        raise ValueError(f"escape index 2 below {pq.OUTLIER_MIN}")
    widths = 2 * np.frexp(m)[1] - 3
    stats["escape"] = int(widths.sum())
    fields.append((m, widths))

    widths = ctx.raw_widths.take(ctx.raw_offsets(payload.contrast[row]) + index1)
    stats["sign"] = int(widths[ctx.real_mask].sum())
    stats["phase"] = int(widths.sum()) - stats["sign"]
    fields.append((payload.raw[row], widths))

    arith_bytes, raw_bytes = enc.finish(), eb._raw_bytes(*map(np.concatenate, zip(*fields)))
    return struct.pack("<HH", len(arith_bytes), len(raw_bytes)) + arith_bytes + raw_bytes


def raw_section_bits(record, row, ctx):
    """The bits of row ``row``'s raw fields: flag, CLPC phases, escapes, phases and signs."""
    clpc = ctx.clpc_phase_bits * int((record.clpc_indices[row, :, 0] >= 0).sum())
    m = record.index2[row][record.index1[row] == pq.ESCAPE_INDEX] - (pq.OUTLIER_MIN - 4)
    return (1 + clpc * bool(record.ctns_flag[row]) + int((2 * np.frexp(m)[1] - 3).sum())
            + int(ctx.raw_widths.take(ctx.raw_offsets(record.contrast[row])
                                      + record.index1[row]).sum()))


def align_raw_section(record, row, ctx):
    """Make row ``row``'s raw section end on a byte: bins 1 and 2 take index 1 of 7, then
    escapes there (at index 1 of 7 and up a bin's phase width stays) add the odd widths
    2 bit_length(m) - 3 the missing bits need, modulo 8."""
    record.index1[row, 1:3], record.index2[row, 1:3], record.raw[row, 1:3] = 7, 0, 0
    missing = -raw_section_bits(record, row, ctx) % 8
    widths = {0: [], 1: [9], 2: [3, 7], 3: [3], 4: [3, 9], 5: [5], 6: [3, 3], 7: [7]}[missing]
    for k, w in enumerate(widths, start=1):  # m = 2^(bit_length - 1), the shortest of its width
        record.index1[row, k] = pq.ESCAPE_INDEX
        record.index2[row, k] = (1 << (w + 1) // 2) + pq.OUTLIER_MIN - 4
    assert raw_section_bits(record, row, ctx) % 8 == 0


@st.composite
def drawn_records(draw):
    """A chunk record of 1-5 rows in a drawn mode's layout, and its layout.  Each row is all
    zero (either CTNS flag) or random: CTNS on or off, CLPC zero cells (magnitude -1, a 0-bit
    phase), any escapes at OUTLIER_MIN and OUTLIER_MAX, mixed contrast flags, and a raw
    section that may be made to end on a byte."""
    ctx = CodecConfig(mode=draw(st.sampled_from(["12k", "16k"]))).layout
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    record = eb.FramePayload.zeros(rows, ctx)
    for r in range(rows):
        kind = draw(st.sampled_from(["zero", "random", "aligned"]))
        contrast = draw(st.lists(st.booleans(), min_size=8, max_size=8))
        flag = draw(st.booleans())
        if kind == "zero":
            record.ctns_flag[r], record.contrast[r] = flag, contrast
            continue
        row = random_payload(rng, ctx, flag=flag, zero_frac=draw(st.sampled_from([0.0, 0.5, 0.9])),
                             contrast=contrast)
        for name in ("lsf_indices", "ctns_flag", "clpc_indices", "sf_indices", "index1",
                     "index2", "raw", "contrast"):
            getattr(record, name)[r] = getattr(row, name)[0]
        escapes = np.flatnonzero(record.index1[r] == pq.ESCAPE_INDEX)
        if escapes.size:
            record.index2[r, escapes[[0, -1]]] = pq.OUTLIER_MIN, pq.OUTLIER_MAX
        if kind == "aligned":
            align_raw_section(record, r, ctx)
    return record, ctx


def exact(bits):
    return [(k, type(v), float(v).hex()) for k, v in bits.items()]


@given(drawn_records())
def test_chunk_pack_equals_the_one_row_reference(chunk):
    # every row's bytes and section costs, float for float, key for key, are what the row
    # packed alone gave; the chunk's raw sections come from one _raw_bytes call
    record, ctx = chunk
    calls, raw_bytes = [], eb._raw_bytes
    with pytest.MonkeyPatch.context() as m:
        m.setattr(eb, "_raw_bytes", lambda *args: calls.append(args) or raw_bytes(*args))
        rows = eb.wire_fields(record, ctx.raw_offsets(record.contrast), ctx)
    assert len(calls) == 1 and len(rows) == len(record.index1)
    for r, fields in enumerate(rows):
        want, got = {}, {}
        assert eb.pack_frame(fields, ctx, got) == reference_pack_frame(record, r, ctx, want)
        assert exact(got) == exact(want)


@given(drawn_records(), st.data())
def test_an_escape_below_outlier_min_in_any_row_is_refused(chunk, data):
    record, ctx = chunk
    r = data.draw(st.integers(0, len(record.index1) - 1))
    b = data.draw(st.integers(0, ctx.real_mask.size - 1))
    record.index1[r, b] = pq.ESCAPE_INDEX
    record.index2[r, b] = data.draw(st.integers(0, pq.OUTLIER_MIN - 1))
    with pytest.raises(ValueError, match=f"^escape index 2 below {pq.OUTLIER_MIN}$"):
        eb.wire_fields(record, ctx.raw_offsets(record.contrast), ctx)
