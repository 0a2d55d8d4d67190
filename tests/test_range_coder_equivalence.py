"""The word-level range coder and raw field layer against the bit-serial
coder they replaced.

The ``Ref*`` classes below keep the earlier coder's behaviour: one
renormalization step per output bit, one model method call per symbol, and a
reader and writer that move one bit at a time.  Every stream they write must
come out of the current coder byte for byte, with the same code length from
the coder's state, and both decoders must read the same symbols from any
bytes.  The raw section's fields are held to the same reader and writer, and
unpack reads each Exp-Golomb escape as the bit-serial reader does.
"""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from unscodec import codec, polar_quant as pq, signals
from unscodec import entropy_bitstream as eb
from unscodec.config import CodecConfig

from test_entropy_bitstream import unpack_one

_FULL = 1 << 32
_HALF = _FULL >> 1
_QUARTER = _HALF >> 1
_MASK = _FULL - 1

# the magnitude-index bank as first written: priors and the previous-symbol rule
REF_INDEX1_PRIORS = ([40, 2] + [1] * 13, [4, 8] + [2] * 13, [1] * 15)


def ref_bank(prev):
    return 0 if prev == 0 else 1 if prev <= 7 else 2


class RefBitWriter:
    def __init__(self):
        self.bits = []

    def write_bit(self, b):
        self.bits.append(b & 1)

    def write_bits(self, value, n):
        for i in reversed(range(n)):
            self.write_bit(value >> i)

    def getvalue(self):
        bits = self.bits + [0] * (-len(self.bits) % 8)
        return bytes(int("".join(map(str, bits[i:i + 8])), 2) for i in range(0, len(bits), 8))


class RefBitReader:
    def __init__(self, data):
        self.data, self.pos = data, 0

    def read_bit(self):
        byte_i, bit_i = divmod(self.pos, 8)
        self.pos += 1
        if byte_i >= len(self.data):
            return 0
        return (self.data[byte_i] >> (7 - bit_i)) & 1

    def read_bits(self, n):
        value = 0
        for _ in range(n):
            value = (value << 1) | self.read_bit()
        return value


class RefModel:
    def __init__(self, n_symbols, prior=None):
        self.freqs = list(prior) if prior is not None else [1] * n_symbols
        self.total = sum(self.freqs)
        self.halvings = 0

    def cumulative(self, symbol):
        lo = 0
        for f in self.freqs[:symbol]:
            lo += f
        return lo, lo + self.freqs[symbol], self.total

    def find(self, value):
        lo = 0
        for sym, f in enumerate(self.freqs):
            if value < lo + f:
                return sym, lo, lo + f
            lo += f
        raise eb.StreamError("range decoder target outside model")

    def update(self, symbol):
        self.freqs[symbol] += 32
        self.total += 32
        if self.total >= 1 << 15:
            self.halvings += 1
            self.total = 0
            for i, f in enumerate(self.freqs):
                self.freqs[i] = (f + 1) >> 1
                self.total += self.freqs[i]


class RefEncoder:
    def __init__(self):
        self.writer = RefBitWriter()
        self.low, self.high, self.pending = 0, _MASK, 0
        self.max_pending = 0

    @property
    def cost_bits(self):
        """The code length so far from the state: bits written, pending bits, 32 - log2(range)."""
        return len(self.writer.bits) + self.pending + 32 - math.log2(self.high - self.low + 1)

    def _emit(self, bit):
        self.writer.write_bit(bit)
        for _ in range(self.pending):
            self.writer.write_bit(bit ^ 1)
        self.pending = 0

    def middle_symbol(self, model):
        """The symbol whose interval holds the middle of the state range:
        coding it keeps the interval straddling HALF, so bits stay pending."""
        span = self.high - self.low + 1
        return model.find(((_HALF - self.low + 1) * model.total - 1) // span)[0]

    def encode(self, model, symbol):
        sym_lo, sym_hi, total = model.cumulative(symbol)
        span = self.high - self.low + 1
        self.high = self.low + sym_hi * span // total - 1
        self.low = self.low + sym_lo * span // total
        while True:
            if self.high < _HALF:
                self._emit(0)
            elif self.low >= _HALF:
                self._emit(1)
                self.low -= _HALF
                self.high -= _HALF
            elif self.low >= _QUARTER and self.high < _HALF + _QUARTER:
                self.pending += 1
                self.max_pending = max(self.max_pending, self.pending)
                self.low -= _QUARTER
                self.high -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
        model.update(symbol)

    def finish(self):
        self.pending += 1
        self._emit(0 if self.low < _QUARTER else 1)
        return self.writer.getvalue()


class RefDecoder:
    def __init__(self, data):
        self.reader = RefBitReader(data)
        self.low, self.high, self.code = 0, _MASK, 0
        for _ in range(32):
            self.code = (self.code << 1) | self.reader.read_bit()

    def decode(self, model):
        total = model.total
        span = self.high - self.low + 1
        value = ((self.code - self.low + 1) * total - 1) // span
        symbol, sym_lo, sym_hi = model.find(value)
        self.high = self.low + sym_hi * span // total - 1
        self.low = self.low + sym_lo * span // total
        while True:
            if self.high < _HALF:
                pass
            elif self.low >= _HALF:
                self.low -= _HALF
                self.high -= _HALF
                self.code -= _HALF
            elif self.low >= _QUARTER and self.high < _HALF + _QUARTER:
                self.low -= _QUARTER
                self.high -= _QUARTER
                self.code -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
            self.code = (self.code << 1) | self.reader.read_bit()
        model.update(symbol)
        return symbol


def ref_models(n_alphabet, banked):
    if banked:
        return [RefModel(15, p) for p in REF_INDEX1_PRIORS], ref_bank
    return [RefModel(n_alphabet)], lambda prev: 0


def ref_code(enc, symbols, n_alphabet, banked=False):
    """Code one sequence into the bit-serial ``enc`` with fresh models; returns the models."""
    models, bank = ref_models(n_alphabet, banked)
    prev = 0
    for s in symbols:
        enc.encode(models[bank(prev)], s)
        prev = s
    return models


def ref_encode(symbols, n_alphabet, banked=False):
    """(bytes, code length before the flush, encoder, models) of one sequence through the
    bit-serial coder."""
    enc = RefEncoder()
    models = ref_code(enc, symbols, n_alphabet, banked)
    cost = enc.cost_bits
    return enc.finish(), cost, enc, models


def ref_decode(data, n_alphabet, count, banked=False):
    dec = RefDecoder(data)
    models, bank = ref_models(n_alphabet, banked)
    out = []
    for _ in range(count):
        out.append(dec.decode(models[bank(out[-1] if out else 0)]))
    return out


def new_models(n_alphabet, banked):
    return eb.INDEX1_MODEL if banked else eb.flat_model(n_alphabet)


def information_bits(symbols, n_alphabet, banked=False):
    """The information content of one sequence coded with fresh models: the sum over its
    symbols of log2(total / f), f the symbol's count and total its bank's, as coded."""
    models, bank = ref_models(n_alphabet, banked)
    bits = 0.0
    for prev, s in zip([0] + symbols, symbols):
        sym_lo, sym_hi, total = models[bank(prev)].cumulative(s)
        bits += math.log2(total / (sym_hi - sym_lo))
        models[bank(prev)].update(s)
    return bits


def new_encode(symbols, n_alphabet, banked=False):
    """(bytes, code length in bits from the coder's state) of one sequence through the range
    coder."""
    enc = eb.RangeEncoder()
    cost = enc.encode(symbols, *new_models(n_alphabet, banked))
    assert cost == enc.cost_bits
    return enc.finish(), cost


def steered(n_alphabet, length, rng, p_middle, skew):
    """Symbols that mostly hold the coder's interval around its middle
    (long pending runs), the rest drawn with a dominant symbol 0 (model
    halving on long sequences)."""
    enc, model = RefEncoder(), RefModel(n_alphabet)
    out = []
    for _ in range(length):
        if rng.random() < p_middle:
            s = enc.middle_symbol(model)
        elif rng.random() < skew:
            s = 0
        else:
            s = int(rng.integers(n_alphabet))
        enc.encode(model, s)
        out.append(s)
    return out


@st.composite
def sequences(draw):
    """(symbols, alphabet, banked): uniform, skewed, runs or steered to the
    middle, over alphabets of 2-241 symbols or the banked magnitude alphabet."""
    banked = draw(st.booleans())
    n_alphabet = 15 if banked else draw(st.sampled_from([2, 3, 15, 101, 162, 241])
                                         | st.integers(2, 241))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    length = draw(st.integers(0, 400) | st.integers(1000, 1300))
    style = draw(st.sampled_from(["uniform", "skewed", "runs", "steered"]))
    if style == "uniform":
        symbols = rng.integers(0, n_alphabet, length).tolist()
    elif style == "skewed":
        symbols = np.minimum(rng.geometric(draw(st.floats(0.3, 0.99)), length) - 1,
                             n_alphabet - 1).tolist()
    elif style == "runs":
        symbols = np.repeat(rng.integers(0, n_alphabet, length // 50 + 1),
                            50)[:length].tolist()
    else:
        symbols = steered(n_alphabet, length, rng, draw(st.floats(0.5, 1.0)), 0.8)
    return symbols, n_alphabet, banked


@given(sequences())
def test_encoder_matches_bit_serial_encoder(case):
    symbols, n_alphabet, banked = case
    ref_bytes, ref_cost, _, _ = ref_encode(symbols, n_alphabet, banked)
    data, cost = new_encode(symbols, n_alphabet, banked)
    assert data == ref_bytes
    assert cost == ref_cost
    assert eb.RangeDecoder(data).decode(len(symbols), *new_models(n_alphabet, banked)) == symbols


@given(sequences(), st.lists(st.integers(0, 400), max_size=4))
def test_encoding_in_pieces_continues_the_same_stream(case, cuts):
    # pack_frame codes several sections into one encoder, one call each, and
    # each call starts from fresh counts; so does unpack_frame's decoder
    symbols, n_alphabet, banked = case
    edges = [0] + sorted(min(c, len(symbols)) for c in cuts) + [len(symbols)]
    pieces = [symbols[a:b] for a, b in zip(edges, edges[1:])]
    enc, ref = eb.RangeEncoder(), RefEncoder()
    for piece in pieces:
        before = ref.cost_bits
        ref_code(ref, piece, n_alphabet, banked)
        assert enc.encode(piece, *new_models(n_alphabet, banked)) == ref.cost_bits - before
    data = enc.finish()
    assert data == ref.finish()
    dec = eb.RangeDecoder(data)
    assert [dec.decode(len(p), *new_models(n_alphabet, banked)) for p in pieces] == pieces


# Each symbol is coded at r > 2^30 with total < 2^15, so floor rounding sets the new range
# within 1 of r * f / total and moves the cost from log2(total / f) by less than
# -log2(1 - 2^-15), about 4.4028e-5 bits
ROUNDING_BITS = 4.41e-5


@given(sequences(), st.lists(st.integers(0, 400), max_size=4))
def test_state_cost_is_within_rounding_of_information_content(case, cuts):
    # a section's code length from the coder's state against its symbols' information
    # content, for sections that start from the fresh state or from where others left it
    assert -math.log2(1 - 2 ** -15) < ROUNDING_BITS
    symbols, n_alphabet, banked = case
    edges = [0] + sorted(min(c, len(symbols)) for c in cuts) + [len(symbols)]
    enc = eb.RangeEncoder()
    for piece in (symbols[a:b] for a, b in zip(edges, edges[1:])):
        cost = enc.encode(piece, *new_models(n_alphabet, banked))
        info = information_bits(piece, n_alphabet, banked)
        assert abs(cost - info) <= len(piece) * ROUNDING_BITS


def test_long_pending_runs_and_model_halving_match():
    rng = np.random.default_rng(7)
    for n_alphabet, p_middle in ((2, 0.97), (15, 0.9), (241, 0.97)):
        symbols = steered(n_alphabet, 1500, rng, p_middle, 0.95)
        ref_bytes, ref_cost, ref, models = ref_encode(symbols, n_alphabet)
        assert ref.max_pending >= 40
        assert models[0].halvings >= 1
        data, cost = new_encode(symbols, n_alphabet)
        assert data == ref_bytes
        assert cost == ref_cost
        assert eb.RangeDecoder(data).decode(len(symbols), *eb.flat_model(n_alphabet)) == symbols


def test_index1_bank_halving_matches():
    # a silent 2048-sample frame's 1,025 zero indices: bank 0's counts reach
    # MODEL_LIMIT at symbol 1,023 (55 + 1,023 * 32 >= 32,768) and are halved
    symbols = [0] * 1025
    ref_bytes, ref_cost, _, models = ref_encode(symbols, 15, banked=True)
    assert [m.halvings for m in models] == [1, 0, 0]
    data, cost = new_encode(symbols, 15, banked=True)
    assert data == ref_bytes
    assert cost == ref_cost
    assert eb.RangeDecoder(data).decode(len(symbols), *eb.INDEX1_MODEL) == symbols


def twice_halved(n_alphabet, banked, rng):
    """One section in which bank 0 halves twice.  Each halving starts a phase
    that draws from a wider range, below and above the last phase's where the
    alphabet has room; 40 symbols follow the second halving.  When banked,
    70% of the symbols are zeros, so that most are coded in bank 0."""
    models, bank = ref_models(n_alphabet, banked)
    top = n_alphabet - 1
    ranges = [(max(top // 2 - 1, 1), min(top // 2 + 3, top)), (top // 4, 3 * top // 4 + 1),
              (0, top)]
    symbols = []

    def draw(lo, hi):
        s = 0 if banked and rng.random() < 0.7 else int(rng.integers(lo, hi + 1))
        models[bank(symbols[-1] if symbols else 0)].update(s)
        symbols.append(s)

    for halvings, (lo, hi) in enumerate(ranges[:2]):
        while models[0].halvings == halvings:
            draw(lo, hi)
    for _ in range(40):
        draw(*ranges[2])
    assert models[0].halvings == 2
    return symbols


@pytest.mark.parametrize("n_alphabet, banked", [(2, False), (241, False), (15, True)])
def test_a_bank_halving_twice_in_one_section_matches(n_alphabet, banked):
    # each halving sets the bank's base counts anew and forgets the symbols
    # coded before it; the symbols coded after it, on either side of those,
    # must still come out as the bit-serial coder's, which keeps plain counts
    rng = np.random.default_rng(n_alphabet)
    pieces = [twice_halved(n_alphabet, banked, rng), rng.integers(0, n_alphabet, 37).tolist()]
    enc, ref = eb.RangeEncoder(), RefEncoder()
    for piece in pieces:
        before = ref.cost_bits
        ref_code(ref, piece, n_alphabet, banked)
        assert enc.encode(piece, *new_models(n_alphabet, banked)) == ref.cost_bits - before
        assert (enc.low, enc.low + enc.range - 1, enc.pending) == (ref.low, ref.high, ref.pending)
    data = enc.finish()
    assert data == ref.finish()
    dec, ref_dec = eb.RangeDecoder(data), RefDecoder(data)
    for piece in pieces:
        assert dec.decode(len(piece), *new_models(n_alphabet, banked)) == piece
        models, bank = ref_models(n_alphabet, banked)
        assert [ref_dec.decode(models[bank(prev)]) for prev in [0] + piece[:-1]] == piece
        assert ((dec.low, dec.low + dec.range - 1, dec.low + dec.offset, dec.consumed_bits)
                == (ref_dec.low, ref_dec.high, ref_dec.code, ref_dec.reader.pos - 30))


def decode_or_error(decode):
    try:
        return decode()
    except eb.StreamError:
        return "StreamError"


@given(data=st.binary(max_size=64), n_alphabet=st.integers(2, 241),
       count=st.integers(0, 300), banked=st.booleans())
def test_decoders_agree_on_arbitrary_bytes(data, n_alphabet, count, banked):
    n_alphabet = 15 if banked else n_alphabet
    ref = decode_or_error(lambda: ref_decode(data, n_alphabet, count, banked))
    new = decode_or_error(
        lambda: eb.RangeDecoder(data).decode(count, *new_models(n_alphabet, banked)))
    assert new == ref


# --- the raw section's fields, one bit at a time

def exp_golomb_encode(writer, value, k=2):
    """Exp-Golomb writer: value + 2**k after bit_length - k - 1 zero bits."""
    m = value + (1 << k)
    n = m.bit_length()
    writer.write_bits(0, n - k - 1)
    writer.write_bits(m, n)


FIELDS = st.lists(st.tuples(st.integers(-1, 2 ** 62 - 1), st.integers(0, 62)), max_size=40)


@given(FIELDS)
@example([(1, 1), (5, 0), (2 ** 62 - 1, 62), (-1, 0), (-1, 3)])
def test_raw_bytes_match_bit_serial_writer(fields):
    ref = RefBitWriter()
    for value, width in fields:
        ref.write_bits(value, width)
    values, widths = zip(*fields) if fields else ((), ())
    assert eb._raw_bytes(values, widths) == ref.getvalue()


def bit_array(data):
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def cut_at_bit(data, end):
    """``data`` up to bit offset ``end``, the rest of its last byte zeroed."""
    value = int.from_bytes(data, "big") >> (8 * len(data) - end) << (-end % 8)
    return value.to_bytes(-(-end // 8), "big")


WIDEST_FIELD = 29  # OUTLIER_MAX's escape codeword, the widest field pass 2 reads


@st.composite
def field_rows(draw):
    """Bytes, and rows of fields to read from them: each row's start bit offset, the bit
    offset its reads stop at (within the bytes) and its field widths."""
    data = draw(st.binary(max_size=16))
    widths = st.lists(st.integers(0, WIDEST_FIELD), min_size=(n := draw(st.integers(0, 10))),
                      max_size=n)
    rows = st.tuples(st.integers(0, 8 * len(data) + 8), st.integers(0, 8 * len(data)), widths)
    return data, draw(st.lists(rows, min_size=1, max_size=6))


@given(field_rows())
# the first row's fields end exactly at its end, the second's one bit past it
@example((b"\xa5\x5a", [(3, 13, [4, 6]), (3, 13, [5, 6]), (14, 9, [2, 0])]))
def test_stacked_row_reader_agrees_with_bit_serial_reader(drawn):
    data, rows = drawn
    starts, ends, widths = zip(*rows)
    values = eb._read_rows(data, starts, ends, np.array(widths, np.int64).reshape(len(rows), -1))
    for (start, end, row_widths), row_values in zip(rows, values):
        ref = RefBitReader(cut_at_bit(data, end))
        ref.pos = start
        assert row_values.tolist() == [ref.read_bits(w) for w in row_widths]


# --- unpack_frame on bytes that no encoder wrote

CFG = CodecConfig()
CTX = CFG.layout


def unpack_or_stream_error(blob):
    try:
        _, consumed = unpack_one(blob, 0, CTX)
    except eb.StreamError as e:
        assert e.frame_index is None  # only decode_stream knows the frame's number
        return None
    return consumed


@given(arith=st.binary(max_size=300), raw=st.binary(max_size=200),
       tail=st.binary(max_size=8), whole=st.binary(max_size=64))
def test_unpack_drawn_bytes_raises_only_stream_error(arith, raw, tail, whole):
    blob = struct.pack("<HH", len(arith), len(raw)) + arith + raw
    consumed = unpack_or_stream_error(blob + tail)
    assert consumed in (None, len(blob))
    unpack_or_stream_error(whole)


@pytest.fixture(scope="module")
def corpus_frames():
    pcm = signals.mixed_corpus(5.0)["castanet"]
    data, _ = codec.encode_stream(pcm, CFG)
    frames, pos = [], eb.StreamHeader.size()
    while pos < len(data):
        _, end = unpack_one(data, pos, CTX)
        frames.append(data[pos:end])
        pos = end
    return frames


@given(pick=st.integers(0, 2 ** 16), flips=st.lists(st.integers(0, 2 ** 16), min_size=1,
                                                    max_size=3))
@example(pick=0, flips=[192])  # a runaway Exp-Golomb prefix
def test_unpack_bit_flipped_corpus_frames_raises_only_stream_error(corpus_frames, pick, flips):
    frame = bytearray(corpus_frames[pick % len(corpus_frames)])
    for bit in flips:
        bit %= 8 * len(frame)
        frame[bit // 8] ^= 0x80 >> (bit % 8)
    unpack_or_stream_error(bytes(frame))


def escape_frame(write_escapes, bins=(5,)):
    """A silent frame with an escape at each of ``bins``, whose raw values are
    what ``write_escapes`` writes."""
    index1 = np.zeros(CTX.real_mask.size, dtype=int)
    index1[list(bins)] = pq.ESCAPE_INDEX
    enc = eb.RangeEncoder()
    enc.encode([0] * CTX.lpc_order, *CTX.lsf_model)
    enc.encode([eb.ALPHABET_SF_DELTA // 2] * len(CTX.band_sizes),  # zero deltas
               *eb.SF_DELTA_MODEL)
    enc.encode(index1.tolist(), *eb.INDEX1_MODEL)
    arith = enc.finish()
    raw = RefBitWriter()
    raw.write_bit(0)                     # CTNS flag off
    write_escapes(raw)
    _, contrast = codec.derive_shaping(np.zeros(CTX.lpc_order, dtype=int), CFG)
    raw.write_bits(0, int(CTX.raw_widths.take(CTX.raw_offsets(contrast) + index1).sum()))  # phases
    raw_bytes = raw.getvalue()
    return struct.pack("<HH", len(arith), len(raw_bytes)) + arith + raw_bytes


def test_oversized_escape_is_a_stream_error():
    # one escape index whose Exp-Golomb prefix (61 zeros) gives a value
    # beyond a 64-bit index: a stream error, not an integer overflow
    def runaway(raw):
        raw.write_bits(0, 61)
        raw.write_bit(1)
        raw.write_bits(0, 63)            # 2 ** 63 - 4 + 18 as index 2
    with pytest.raises(eb.StreamError, match=f"^escape index 2 above {pq.OUTLIER_MAX}$"):
        unpack_one(escape_frame(runaway), 0, CTX)


@pytest.mark.parametrize("index2", [pq.OUTLIER_MAX + 1, 2 ** 40, 2 ** 63 + 13])
def test_escape_above_outlier_max_is_a_stream_error(index2):
    # the encoder clips index 2 to OUTLIER_MAX, so anything above it is corrupt
    def escape(value):
        return lambda raw: exp_golomb_encode(raw, value - pq.OUTLIER_MIN)
    # the check runs before unpack writes any field of the row
    chunk = eb.FramePayload.zeros(1, CTX)
    with pytest.raises(eb.StreamError, match=f"^escape index 2 above {pq.OUTLIER_MAX}$"):
        eb.unpack_frame(escape_frame(escape(index2)), 0, CTX, chunk, 0)
    assert not any(getattr(chunk, f.name).any() for f in fields(eb.FramePayload))
    payload, _ = unpack_one(escape_frame(escape(pq.OUTLIER_MAX)), 0, CTX)
    assert payload.index2[0, 5] == pq.OUTLIER_MAX


def escape_steps(test):
    """``test`` with an example at both ends of index 2 and either side of every step in its
    codeword's length (m = index2 - OUTLIER_MIN + 4 at 2^k - 1 and 2^k), alone and all in
    one frame."""
    steps = [pq.OUTLIER_MIN, pq.OUTLIER_MAX,
             *[(1 << k) + d + pq.OUTLIER_MIN - 4 for k in range(3, 16) for d in (-1, 0)]]
    for index2 in [[v] for v in steps] + [steps]:
        test = example(index2=index2)(test)
    return test


def escape_bins(n):
    return list(range(5, 5 + n))


@given(index2=st.lists(st.integers(pq.OUTLIER_MIN, pq.OUTLIER_MAX), min_size=1, max_size=30))
@escape_steps
def test_exp_golomb_codewords_roundtrip(index2):
    def escapes(raw):
        for v in index2:
            exp_golomb_encode(raw, v - pq.OUTLIER_MIN)
    bins = escape_bins(len(index2))
    payload, _ = unpack_one(escape_frame(escapes, bins), 0, CTX)
    assert payload.index2[0, bins].tolist() == index2


def ref_exp_golomb_decode(reader):
    """Bit-serial Exp-Golomb (k = 2) reader, as unpack first read each escape."""
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > 60:
            raise eb.StreamError("runaway Exp-Golomb prefix")
    return ((1 << (zeros + 2)) | reader.read_bits(zeros + 2)) - 4


def codeword(value):
    writer = RefBitWriter()
    exp_golomb_encode(writer, value)
    return writer.getvalue()


@given(data=st.binary(max_size=24), n_escapes=st.integers(1, 4))
@example(data=bytes(8) + b"\x80", n_escapes=1)           # 64 zeros: a runaway prefix
@example(data=bytes(7) + b"\x04\xff", n_escapes=1)       # 61 zeros: the shortest runaway
@example(data=bytes(7) + b"\x08" + b"\xff" * 8, n_escapes=1)  # 60 zeros: the longest codeword
@example(data=b"\x01", n_escapes=2)                      # a codeword running past the end
@example(data=codeword(pq.OUTLIER_MAX - pq.OUTLIER_MIN), n_escapes=1)
@example(data=codeword(pq.OUTLIER_MAX - pq.OUTLIER_MIN + 1), n_escapes=1)
def test_exp_golomb_decode_agrees_with_bit_serial_reader(data, n_escapes):
    # the escapes are read from ``data`` and the zero bits after it, as the reader reads
    # past its end; an index 2 above OUTLIER_MAX is corrupt to both
    bins = escape_bins(n_escapes)
    ref = RefBitReader(data)

    def ref_index2():
        values = [ref_exp_golomb_decode(ref) + pq.OUTLIER_MIN for _ in bins]
        if max(values) > pq.OUTLIER_MAX:
            raise eb.StreamError(f"escape index 2 above {pq.OUTLIER_MAX}")
        return values

    def unpack_index2():
        chunk = eb.FramePayload.zeros(1, CTX)
        frame = escape_frame(lambda raw: raw.write_bits(int.from_bytes(data, "big"),
                                                        8 * len(data)), bins)
        eb.unpack_frame(frame, 0, CTX, chunk, 0)
        return chunk.index2[0, bins].tolist()

    assert decode_or_error(unpack_index2) == decode_or_error(ref_index2)


@pytest.mark.parametrize("zeros", [14, 60, 61, 64])
def test_an_escape_prefix_too_long_for_outlier_max_is_refused_before_the_row_is_written(zeros):
    # 13 zeros lead OUTLIER_MAX's codeword; a longer prefix codes an index 2 above it
    def escape(raw):
        raw.write_bits(0, zeros)
        raw.write_bits((1 << (zeros + 3)) - 1, zeros + 3)
    chunk = eb.FramePayload.zeros(1, CTX)
    with pytest.raises(eb.StreamError, match=f"^escape index 2 above {pq.OUTLIER_MAX}$"):
        eb.unpack_frame(escape_frame(escape), 0, CTX, chunk, 0)
    assert not any(getattr(chunk, f.name).any() for f in fields(eb.FramePayload))
