"""Adaptive range coding, raw bit fields, and the on-disk stream format.

Each frame is wire-coded as two sections behind a pair of u16 byte lengths:
an adaptively range-coded section (LSF indices, complex-LPC magnitudes, scale
factor deltas, magnitude indices) and a raw section (the CTNS flag, phase
fields, sign bits, and Exp-Golomb escape values).  The split keeps the range
decoder's look-ahead from bleeding into the next frame while phases stay
plain log2(N)-bit fields.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

STREAM_MAGIC = b"UNS1"
STREAM_VERSION = 1

# per-context symbol alphabets
ALPHABET_INDEX1 = 15       # magnitude index 1: 0..14
ALPHABET_SF_DELTA = 241    # scale-factor deltas: -120..120 offset by +120
ALPHABET_LSF = 101         # LSF indices / deltas: 0..100
ALPHABET_CLPC_MAG = 162    # zero cell + 161 dB-grid cells

MODEL_INCREMENT = 32
MODEL_LIMIT = 1 << 15

_STATE_BITS = 32
_FULL = 1 << _STATE_BITS
_HALF = _FULL >> 1
_QUARTER = _HALF >> 1
_MASK = _FULL - 1


class StreamError(Exception):
    """Malformed or truncated bitstream."""

    def __init__(self, msg, frame_index=None):
        if frame_index is not None:
            msg = f"frame {frame_index}: {msg}"
        super().__init__(msg)
        self.frame_index = frame_index


class BitWriter:
    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0
        self.bit_count = 0

    def write_bit(self, b: int):
        self._acc = (self._acc << 1) | (b & 1)
        self._nbits += 1
        self.bit_count += 1
        if self._nbits == 8:
            self._bytes.append(self._acc)
            self._acc = 0
            self._nbits = 0

    def write_bits(self, value: int, n: int):
        for shift in range(n - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def getvalue(self) -> bytes:
        out = bytearray(self._bytes)
        if self._nbits:
            out.append(self._acc << (8 - self._nbits))
        return bytes(out)


class BitReader:
    """MSB-first bit reader; reads past the end return zero bits."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self.bit_count = 0

    def read_bit(self) -> int:
        byte_i, bit_i = divmod(self._pos, 8)
        self._pos += 1
        self.bit_count += 1
        if byte_i >= len(self._data):
            return 0
        return (self._data[byte_i] >> (7 - bit_i)) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    @property
    def exhausted(self) -> bool:
        return self._pos >= 8 * len(self._data)


class AdaptiveModel:
    """Frequency-count model, incremented on every coded symbol and halved
    when the total reaches the limit.  ``prior`` seeds the initial counts."""

    def __init__(self, n_symbols: int, increment: int = MODEL_INCREMENT,
                 limit: int = MODEL_LIMIT, prior=None):
        self.freqs = list(prior) if prior is not None else [1] * n_symbols
        if len(self.freqs) != n_symbols:
            raise ValueError("prior length must match the alphabet")
        self.total = sum(self.freqs)
        self.increment = increment
        self.limit = limit

    def cumulative(self, symbol: int):
        lo = 0
        for f in self.freqs[:symbol]:
            lo += f
        return lo, lo + self.freqs[symbol], self.total

    def find(self, value: int):
        lo = 0
        for sym, f in enumerate(self.freqs):
            if value < lo + f:
                return sym, lo, lo + f
            lo += f
        raise StreamError("range decoder target outside model")

    def update(self, symbol: int):
        self.freqs[symbol] += self.increment
        self.total += self.increment
        if self.total >= self.limit:
            self.total = 0
            for i, f in enumerate(self.freqs):
                self.freqs[i] = (f + 1) >> 1
                self.total += self.freqs[i]


class RangeEncoder:
    def __init__(self, writer: BitWriter):
        self.writer = writer
        self.low = 0
        self.high = _MASK
        self.pending = 0
        # information content of the symbols coded so far; tracks the actual
        # emitted length to within the final flush
        self.info_bits = 0.0

    def _emit(self, bit: int):
        self.writer.write_bit(bit)
        for _ in range(self.pending):
            self.writer.write_bit(bit ^ 1)
        self.pending = 0

    def encode(self, model: AdaptiveModel, symbol: int):
        sym_lo, sym_hi, total = model.cumulative(symbol)
        self.info_bits += math.log2(total / (sym_hi - sym_lo))
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
                self.low -= _QUARTER
                self.high -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
        model.update(symbol)

    def finish(self):
        self.pending += 1
        if self.low < _QUARTER:
            self._emit(0)
        else:
            self._emit(1)

    @property
    def bit_position(self) -> int:
        # bits committed plus those still pending; close enough for rate stats
        return self.writer.bit_count + self.pending


class RangeDecoder:
    def __init__(self, reader: BitReader):
        self.reader = reader
        self.low = 0
        self.high = _MASK
        self.code = 0
        for _ in range(_STATE_BITS):
            self.code = (self.code << 1) | reader.read_bit()

    def decode(self, model: AdaptiveModel) -> int:
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


class Index1Coder:
    """Magnitude-index model bank conditioned on the previous symbol's class.

    Sparse spectra make runs of zeros with occasional clusters of small
    indices; conditioning on whether the previous index was zero, small, or
    escape-sized lets each regime adapt separately.  Priors seed the counts
    toward the distribution low-rate content actually produces.
    """

    _PRIORS = (
        [40, 2] + [1] * 13,       # after a zero
        [4, 8] + [2] * 13,        # after a small nonzero
        [1] * 15,                 # after the escape / companded region
    )

    def __init__(self):
        self.models = [AdaptiveModel(ALPHABET_INDEX1, prior=p) for p in self._PRIORS]
        self.prev = 0

    def _context(self) -> AdaptiveModel:
        if self.prev == 0:
            return self.models[0]
        if self.prev <= 7:
            return self.models[1]
        return self.models[2]

    def encode(self, enc: "RangeEncoder", symbol: int):
        enc.encode(self._context(), symbol)
        self.prev = symbol

    def decode(self, dec: "RangeDecoder") -> int:
        symbol = dec.decode(self._context())
        self.prev = symbol
        return symbol


def exp_golomb_encode(writer: BitWriter, value: int, k: int = 2):
    if value < 0:
        raise ValueError("Exp-Golomb encodes non-negative values")
    m = value + (1 << k)
    n = m.bit_length()
    writer.write_bits(0, n - k - 1)
    writer.write_bits(m, n)


def exp_golomb_decode(reader: BitReader, k: int = 2) -> int:
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise StreamError("runaway Exp-Golomb prefix")
    m = 1
    for _ in range(zeros + k):
        m = (m << 1) | reader.read_bit()
    return m - (1 << k)


@dataclass
class StreamHeader:
    sample_rate_hz: int = 12800
    frame_len: int = 1024
    overlap_len: int = 256
    mode: str = "12k"
    original_length: int = 0
    lpc_order: int = 16
    table_version: str = "rayleigh-2.495-v1"
    version: int = STREAM_VERSION

    _FMT = "<4sBIHHBQB24s"

    def pack(self) -> bytes:
        mode_code = {"12k": 12, "16k": 16}[self.mode]
        return struct.pack(
            self._FMT, STREAM_MAGIC, self.version, self.sample_rate_hz,
            self.frame_len, self.overlap_len, mode_code, self.original_length,
            self.lpc_order, self.table_version.encode("ascii")[:24].ljust(24, b"\0"),
        )

    @classmethod
    def size(cls) -> int:
        return struct.calcsize(cls._FMT)

    @classmethod
    def unpack(cls, data: bytes) -> "StreamHeader":
        if len(data) < cls.size():
            raise StreamError("stream too short for header")
        magic, version, rate, flen, ov, mode_code, orig, order, tver = struct.unpack(
            cls._FMT, data[:cls.size()])
        if magic != STREAM_MAGIC:
            raise StreamError(f"bad magic {magic!r}")
        if version != STREAM_VERSION:
            raise StreamError(f"unsupported stream version {version}")
        if mode_code not in (12, 16):
            raise StreamError(f"unknown mode code {mode_code}")
        return cls(sample_rate_hz=rate, frame_len=flen, overlap_len=ov,
                   mode=f"{mode_code}k", original_length=orig, lpc_order=order,
                   table_version=tver.rstrip(b"\0").decode("ascii"), version=version)


@dataclass
class FramePayload:
    """Everything one frame carries, in decode order.

    Per-band arrays are aligned position-for-position: ``index2`` holds the
    escape value where index1 escapes (0 elsewhere), ``phase`` holds the phase
    index (-1 where no phase is sent), ``sign`` holds 0/1 for real-valued
    coefficients that carry a sign bit (-1 elsewhere).
    """

    lsf_indices: np.ndarray
    ctns_flag: bool
    clpc_indices: np.ndarray | None
    sf_indices: np.ndarray
    index1: list
    index2: list
    phase: list
    sign: list
    contrast: np.ndarray          # per-band high-contrast flags: phase-cell layout


@dataclass
class PackContext:
    """Static layout information shared by pack and unpack.

    ``resolve_contrast`` maps decoded LSF indices to the per-band
    high-contrast flags unpack needs to parse the phases, from the same
    quantized model as the encoder's flags, which pack reads off the payload.
    """

    n_lsf: int
    clpc_order: int
    band_sizes: tuple
    real_positions: dict          # band -> set of positions coded as magnitude+sign
    phase_sets_high: tuple
    phase_sets_low: tuple
    resolve_contrast: "callable"
    sf_offset: int = 120
    escape_index: int = 8


def _phase_bits_for(index1: int, high: bool, ctx: PackContext) -> int:
    cells = (ctx.phase_sets_high if high else ctx.phase_sets_low)[min(index1, 7)]
    return int(cells).bit_length() - 1


def pack_frame(payload: FramePayload, ctx: PackContext,
               stats_out: dict | None = None) -> bytes:
    """Serialize one frame to the two-section wire format.

    When ``stats_out`` is given it receives per-section bit costs (range-coded
    sections by information content, raw sections by exact field width).
    """
    arith_writer = BitWriter()
    enc = RangeEncoder(arith_writer)
    raw = BitWriter()

    def note(key, start_info, start_raw):
        if stats_out is not None:
            cost = (enc.info_bits - start_info) + (raw.bit_count - start_raw)
            stats_out[key] = stats_out.get(key, 0.0) + cost

    mark = enc.info_bits
    lsf_model = AdaptiveModel(ALPHABET_LSF)
    prev = 0
    for i, idx in enumerate(payload.lsf_indices):
        sym = int(idx) if i == 0 else int(idx) - prev
        enc.encode(lsf_model, sym)
        prev = int(idx)
    note("lsf", mark, raw.bit_count)

    raw.write_bit(1 if payload.ctns_flag else 0)
    if stats_out is not None:
        stats_out["flag"] = 1
    mark, rmark = enc.info_bits, raw.bit_count
    if payload.ctns_flag:
        clpc_model = AdaptiveModel(ALPHABET_CLPC_MAG)
        for mi, pi_ in payload.clpc_indices:
            enc.encode(clpc_model, int(mi) + 1)
            if mi >= 0:
                raw.write_bits(int(pi_), 6)
    note("clpc", mark, rmark)

    mark = enc.info_bits
    sf_model = AdaptiveModel(ALPHABET_SF_DELTA)
    prev = 0
    for g in payload.sf_indices:
        enc.encode(sf_model, int(g) - prev + ctx.sf_offset)
        prev = int(g)
    note("sf", mark, raw.bit_count)

    mark, rmark = enc.info_bits, raw.bit_count
    mag_coder = Index1Coder()
    for b in range(len(ctx.band_sizes)):
        for pos in range(ctx.band_sizes[b]):
            i1 = int(payload.index1[b][pos])
            mag_coder.encode(enc, i1)
            if i1 == ctx.escape_index:
                exp_golomb_encode(raw, int(payload.index2[b][pos]) - 18)
    if stats_out is not None:
        stats_out["index1"] = enc.info_bits - mark
        stats_out["escape"] = raw.bit_count - rmark

    rmark = raw.bit_count
    sign_bits = 0
    for b in range(len(ctx.band_sizes)):
        high = bool(payload.contrast[b])
        reals = ctx.real_positions.get(b, ())
        for pos in range(ctx.band_sizes[b]):
            i1 = int(payload.index1[b][pos])
            if pos in reals:
                if i1 > 0:
                    raw.write_bit(int(payload.sign[b][pos]))
                    sign_bits += 1
            else:
                nbits = _phase_bits_for(i1, high, ctx)
                if nbits:
                    raw.write_bits(int(payload.phase[b][pos]), nbits)
    if stats_out is not None:
        stats_out["sign"] = sign_bits
        stats_out["phase"] = raw.bit_count - rmark - sign_bits

    enc.finish()
    arith_bytes = arith_writer.getvalue()
    raw_bytes = raw.getvalue()
    return struct.pack("<HH", len(arith_bytes), len(raw_bytes)) + arith_bytes + raw_bytes


def unpack_frame(data: bytes, ctx: PackContext, frame_index: int | None = None):
    """Parse one frame; returns (payload, bytes_consumed)."""
    if len(data) < 4:
        raise StreamError("truncated frame prefix", frame_index)
    arith_len, raw_len = struct.unpack("<HH", data[:4])
    end = 4 + arith_len + raw_len
    if len(data) < end:
        raise StreamError("truncated frame payload", frame_index)
    dec = RangeDecoder(BitReader(data[4:4 + arith_len]))
    raw = BitReader(data[4 + arith_len:end])

    lsf_model = AdaptiveModel(ALPHABET_LSF)
    lsf = np.empty(ctx.n_lsf, dtype=int)
    prev = 0
    for i in range(ctx.n_lsf):
        sym = dec.decode(lsf_model)
        lsf[i] = sym if i == 0 else prev + sym
        if lsf[i] >= ALPHABET_LSF:
            raise StreamError("LSF index out of range", frame_index)
        prev = int(lsf[i])

    flag = bool(raw.read_bit())
    clpc = None
    if flag:
        clpc_model = AdaptiveModel(ALPHABET_CLPC_MAG)
        clpc = np.zeros((ctx.clpc_order, 2), dtype=int)
        for i in range(ctx.clpc_order):
            mi = dec.decode(clpc_model) - 1
            pi_ = raw.read_bits(6) if mi >= 0 else 0
            clpc[i] = (mi, pi_)

    sf_model = AdaptiveModel(ALPHABET_SF_DELTA)
    sf = np.empty(len(ctx.band_sizes), dtype=int)
    prev = 0
    for b in range(len(ctx.band_sizes)):
        sf[b] = prev + dec.decode(sf_model) - ctx.sf_offset
        if not -60 <= sf[b] <= 60:
            raise StreamError("scale factor index out of range", frame_index)
        prev = int(sf[b])

    mag_coder = Index1Coder()
    index1, index2 = [], []
    for b in range(len(ctx.band_sizes)):
        i1 = np.zeros(ctx.band_sizes[b], dtype=int)
        i2 = np.zeros(ctx.band_sizes[b], dtype=int)
        for pos in range(ctx.band_sizes[b]):
            i1[pos] = mag_coder.decode(dec)
            if i1[pos] == ctx.escape_index:
                i2[pos] = exp_golomb_decode(raw) + 18
        index1.append(i1)
        index2.append(i2)

    contrast = ctx.resolve_contrast(lsf)
    phase, sign = [], []
    for b in range(len(ctx.band_sizes)):
        high = bool(contrast[b])
        reals = ctx.real_positions.get(b, ())
        ph = np.full(ctx.band_sizes[b], -1, dtype=int)
        sg = np.full(ctx.band_sizes[b], -1, dtype=int)
        for pos in range(ctx.band_sizes[b]):
            i1 = int(index1[b][pos])
            if pos in reals:
                sg[pos] = raw.read_bit() if i1 > 0 else 0
            else:
                nbits = _phase_bits_for(i1, high, ctx)
                if nbits:
                    ph[pos] = raw.read_bits(nbits)
        phase.append(ph)
        sign.append(sg)

    payload = FramePayload(lsf_indices=lsf, ctns_flag=flag, clpc_indices=clpc,
                           sf_indices=sf, index1=index1, index2=index2,
                           phase=phase, sign=sign, contrast=contrast)
    return payload, end
