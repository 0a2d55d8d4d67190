"""Adaptive range coding, raw bit fields, and the on-disk stream format.

Each frame is wire-coded as two sections behind a pair of u16 byte lengths: a
range-coded one (LSF indices, complex-LPC magnitudes, scale-factor deltas,
magnitude indices) and a raw one (the CTNS flag, complex-LPC phases, Exp-Golomb
escapes, then phases and signs), so the range decoder's look-ahead stays in its
frame and phases stay plain log2(N)-bit fields.  Pack builds a chunk's fields at
once (``wire_fields``) and range-codes one frame per ``pack_frame`` call; both ends
take the raw sections' field widths from one function (``raw_field_widths``).
"""

from __future__ import annotations

import struct
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from math import log2

import numpy as np

from .lp import clpc_mag_index_max, lsf_index_max
from .polar_quant import ESCAPE_INDEX, OUTLIER_MAX, OUTLIER_MIN
from .rate_control import SF_MAX_DB, SF_MIN_DB

STREAM_MAGIC = b"UNS1"
STREAM_VERSION = 1

# the scale-factor delta alphabet; the LSF and CLPC ones follow the config (PackContext)
_SF_OFFSET = SF_MAX_DB - SF_MIN_DB
ALPHABET_SF_DELTA = 2 * _SF_OFFSET + 1   # scale-factor deltas, offset to 0..240
# the longest escape codeword, OUTLIER_MAX's: 2 bit_length(m) - 3 bits, m = index2 - OUTLIER_MIN + 4
_ESCAPE_BITS = 2 * (OUTLIER_MAX - OUTLIER_MIN + 4).bit_length() - 3

# a coded symbol's count grows by MODEL_INCREMENT; a bank's counts are halved
# when their total reaches MODEL_LIMIT
MODEL_INCREMENT = 32
MODEL_LIMIT = 1 << 15

_STATE_BITS = 32
_FULL = 1 << _STATE_BITS
_HALF = 1 << (_STATE_BITS - 1)
_QUARTER = _HALF >> 1
_THREE_QUARTERS = _HALF + _QUARTER
_LOW = _HALF - 1              # the state bits below the top one
# by low's top two bits: the interval straddles the middle while low + range exceeds it
_STRADDLE = (_HALF, _THREE_QUARTERS, _FULL, _FULL)


class StreamError(Exception):
    """Malformed or truncated bitstream."""

    def __init__(self, msg, frame_index=None):
        if frame_index is not None:
            msg = f"frame {frame_index}: {msg}"
        super().__init__(msg)
        self.frame_index = frame_index


def _raw_bytes(values, widths) -> bytes:
    """The bytes of one field per value, of its width (0 writes nothing), MSB first and
    in order; zero bits pad the last byte."""
    widths = np.asarray(widths, dtype=np.int64)
    field = np.repeat(np.arange(widths.size), widths)  # the field of each bit
    shifts = np.cumsum(widths)[field] - 1 - np.arange(field.size)
    bits = (np.asarray(values, dtype=np.int64)[field] >> shifts) & 1
    return np.packbits(bits.astype(np.uint8)).tobytes()


def _read_rows(data: bytes, starts, ends, widths: np.ndarray) -> np.ndarray:
    """Each row of ``widths`` as fields (0 reads nothing and gives 0), MSB first and in order,
    read from ``data`` at bit offset ``starts[r]``; bits at or past bit offset ``ends[r]`` (at
    most ``8 * len(data)``) read as zero.  Returns one row of values per row of widths."""
    lo, hi = min(starts, default=0) // 8, -(-max(ends, default=0) // 8)  # the bytes read
    bits = np.unpackbits(np.frombuffer(data[lo:hi], np.uint8))
    live = np.flatnonzero(widths > 0)  # only these are read, as _raw_bytes writes only these
    row, w = live // widths.shape[1], widths.ravel()[live].astype(np.int64)
    row_bits = widths.sum(axis=1)  # then each field's first bit, from its row's start
    first = np.cumsum(w) - w + (np.asarray(starts, np.int64) - 8 * lo - np.cumsum(row_bits)
                                + row_bits)[row]
    stop = (np.asarray(ends, np.int64) - 8 * lo)[row]
    values = np.zeros(widths.size, dtype=np.int64)
    for k in range(int(w.max(initial=0))):  # the k-th bit of every field at once
        take = (k < w) & (first + k < stop)
        values[live[take]] |= bits[first[take] + k].astype(np.int64) << (w[take] - 1 - k)
    return values.reshape(widths.shape)


def flat_model(n_symbols: int) -> tuple:
    """The (cums, bank_of) of a one-bank section whose counts all start at 1."""
    return (tuple(range(n_symbols + 1)),), (0,) * n_symbols


SF_DELTA_MODEL = flat_model(ALPHABET_SF_DELTA)
# Magnitude index 1 is coded with a bank of three count lists, chosen by the
# class of the previous index: zero, small nonzero, or escape / companded.
# Sparse spectra make runs of zeros with occasional clusters of small indices,
# and each regime adapts separately; the priors seed the counts toward the
# distribution low-rate content actually produces.
INDEX1_MODEL = (
    tuple(tuple(accumulate(p, initial=0)) for p in (
        (40, 2) + (1,) * 13,     # after a zero
        (4, 8) + (2,) * 13,      # after a small nonzero
        (1,) * 15)),             # after the escape / companded region
    (0,) + (1,) * 7 + (2,) * 7,   # previous index -> bank
)


def _bank(base, f0=None, grow=None) -> tuple:
    """A bank as its counts are set: seeded from the cumulative counts ``base`` or, given the
    count ``f0`` of symbol 0 and each count's growth ``grow`` since ``base``, halved.  Returns
    (base, f0, total, the nonzero symbols coded since in ascending order, their growths)."""
    if grow is not None:
        counts = [f0] + [base[s + 1] - base[s] + grow[s] for s in range(1, len(grow))]
        base = list(accumulate([(c + 1) >> 1 for c in counts], initial=0))
    return base, base[1], base[-1], [], [0] * (len(base) - 1)


class RangeEncoder:
    """Adaptive range encoder over the interval's ``low`` end and ``range`` (high - low + 1),
    writing its bits, MSB first, into one integer; ``finish`` returns the bytes."""

    def __init__(self):
        self._acc, self.bit_count = 0, 0
        self.low, self.range, self.pending = 0, _FULL, 0

    @property
    def cost_bits(self) -> float:
        """The code length so far, from the coder's state: the settled bits, the pending
        underflow bits and 32 - log2(range).  A renormalization step leaves it unchanged."""
        return self.bit_count + self.pending + _STATE_BITS - log2(self.range)

    def encode(self, symbols, cums, bank_of) -> float:
        """Code a symbol sequence and return its code length in bits from the coder's
        state: ``cost_bits`` after the call less ``cost_bits`` before it.

        Each symbol is coded with bank ``bank_of[prev]`` (``prev`` is the symbol before
        it, 0 for the first).  A bank's cumulative count below s is its base, ``cums[bank][s]``
        until the bank halves, plus the growth of the distinct symbols below s coded since."""
        bases, f0s, totals, seens, grows = map(list, zip(*map(_bank, cums)))
        low, r, pending = self.low, self.range, self.pending
        acc, count, before = self._acc, self.bit_count, self.cost_bits
        t = _STRADDLE[low >> 30] - low  # no bit settles while r > t
        b = bank_of[0]
        for s in symbols:
            total = totals[b]
            if s:
                base, grow = bases[b], grows[b]
                lo = base[s] + f0s[b] - base[1]
                for u in seens[b]:
                    if u >= s:
                        break
                    lo += grow[u]
                g = grow[s]
                if not g:
                    insort(seens[b], s)
                grow[s] = g + MODEL_INCREMENT
                a = lo * r // total
                low, r = low + a, (lo + base[s + 1] - base[s] + g) * r // total - a
                t = _STRADDLE[low >> 30] - low
            else:  # low, and so t, stay
                f = f0s[b]
                r, f0s[b] = r * f // total, f + MODEL_INCREMENT
            totals[b] = total = total + MODEL_INCREMENT
            if total >= MODEL_LIMIT:
                bases[b], f0s[b], totals[b], seens[b], grows[b] = _bank(bases[b], f0s[b], grows[b])
            b = bank_of[s]
            if r > t:
                continue  # the interval still straddles the middle: nothing settles
            # n1 leading bits that low and high share (E1/E2), then n3
            # underflow steps (E3, low = 01..., high = 10...); no E1/E2 step
            # can follow an E3 step, since then low < HALF <= high
            high = low + r - 1
            n1 = _STATE_BITS - (low ^ high).bit_length()
            n3 = _STATE_BITS - 1 - ((((low & ~high) << n1) & _LOW) ^ _LOW).bit_length()
            if n1:
                # the first settled bit, the pending underflow bits as its
                # inverse, then the other settled bits
                top = low >> (_STATE_BITS - n1)
                acc = (acc << (n1 + pending)) | (top + (((1 << pending) - 1) << (n1 - 1)))
                count += n1 + pending
                pending = 0
            pending += n3
            n = n1 + n3
            low, r = (low << n) & _LOW, r << n  # each step doubles the range
            t = _STRADDLE[low >> 30] - low
        self.low, self.range, self.pending = low, r, pending
        self._acc, self.bit_count = acc, count
        return self.cost_bits - before

    def finish(self) -> bytes:
        # the final bit, then pending + 1 underflow bits as its inverse
        n = self.pending + 2
        count = self.bit_count + n
        acc = (self._acc << n) | (int(self.low >= _QUARTER) + (1 << (n - 1)) - 1)
        return (acc << (-count % 8)).to_bytes(-(-count // 8), "big")


class RangeDecoder:
    """Adaptive range decoder over the bytes of one range-coded section, read
    MSB first as one integer; reads past the end give zero bits.  It carries
    the encoder's ``low`` and ``range`` and the code's ``offset`` above low."""

    def __init__(self, data: bytes):
        self._value, self._end, self._pos = int.from_bytes(data, "big"), 8 * len(data), _STATE_BITS
        self.offset = (self._value << _STATE_BITS >> self._end) & (_FULL - 1)
        self.low, self.range = 0, _FULL

    @property
    def consumed_bits(self) -> int:
        """Bits the symbols decoded so far took in the encoder's output, its final 2 included."""
        return self._pos - _STATE_BITS + 2

    def decode(self, count: int, cums, bank_of) -> list:
        """Decode ``count`` symbols coded by ``RangeEncoder.encode`` with the same ``cums``
        and ``bank_of``.  Symbol 0 is the test ``offset < range * f0 // total``; another is
        found by walking the bank's coded symbols and bisecting its base between two."""
        bases, f0s, totals, seens, grows = map(list, zip(*map(_bank, cums)))
        low, r, d = self.low, self.range, self.offset
        value, end, pos = self._value, self._end, self._pos
        t = _STRADDLE[low >> 30] - low
        out = [0] * count
        s = 0
        for i in range(count):
            b = bank_of[s]
            total, f = totals[b], f0s[b]
            x = r * f // total
            if d < x:  # symbol 0
                s, r, f0s[b] = 0, x, f + MODEL_INCREMENT
            else:
                base, grow = bases[b], grows[b]
                v = ((d + 1) * total - 1) // r
                lo, start = f - base[1], 1  # the growth of the symbols below start
                for u in seens[b]:
                    if v < base[u + 1] + lo + grow[u]:
                        s = bisect_right(base, v - lo, start, u + 1) - 1
                        break
                    lo, start = lo + grow[u], u + 1
                else:
                    s = bisect_right(base, v - lo, start, len(grow)) - 1
                lo += base[s]
                g = grow[s]
                if not g:
                    insort(seens[b], s)
                grow[s] = g + MODEL_INCREMENT
                a = lo * r // total
                low, d, r = low + a, d - a, (lo + base[s + 1] - base[s] + g) * r // total - a
                t = _STRADDLE[low >> 30] - low
                out[i] = s
            totals[b] = total = total + MODEL_INCREMENT
            if total >= MODEL_LIMIT:
                bases[b], f0s[b], totals[b], seens[b], grows[b] = _bank(bases[b], f0s[b], grows[b])
            if r > t:
                continue
            # the encoder's renormalization, shifting n bits into the offset
            high = low + r - 1
            n1 = _STATE_BITS - (low ^ high).bit_length()
            n3 = _STATE_BITS - 1 - ((((low & ~high) << n1) & _LOW) ^ _LOW).bit_length()
            n = n1 + n3
            pos += n
            d = (d << n) | ((value << pos >> end) & ((1 << n) - 1))  # bits past the end read 0
            low, r = (low << n) & _LOW, r << n
            t = _STRADDLE[low >> 30] - low
        self.low, self.range, self.offset, self._pos = low, r, d, pos
        return out


@dataclass(frozen=True)
class StreamHeader:
    """The stream's fixed header; ``codec.stream_header`` derives it from a config."""

    sample_rate_hz: int
    frame_len: int
    overlap_len: int
    mode: str
    original_length: int
    lpc_order: int
    table_version: str
    version: int = STREAM_VERSION

    _FMT = "<4sBIHHBQB24s"

    def pack(self) -> bytes:
        mode_code = {"12k": 12, "16k": 16}[self.mode]
        return struct.pack(
            self._FMT, STREAM_MAGIC, self.version, self.sample_rate_hz,
            self.frame_len, self.overlap_len, mode_code, self.original_length,
            self.lpc_order, self.table_version.encode("ascii"),
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
        tver = tver.rstrip(b"\0")
        if not tver.isascii():
            raise StreamError(f"quantizer table tag {tver!r} is not ASCII")
        return cls(sample_rate_hz=rate, frame_len=flen, overlap_len=ov,
                   mode=f"{mode_code}k", original_length=orig, lpc_order=order,
                   table_version=tver.decode("ascii"), version=version)


@dataclass
class FramePayload:
    """Everything a chunk of frames carries, one row per frame, in decode order.

    The spectral fields have one entry per coded bin, band after band (the
    Nyquist bin last): ``index2`` holds the escape value where index1 escapes
    (0 elsewhere), ``raw`` each bin's raw field as sent: its sign bit at the
    real-valued DC and Nyquist bins, else its phase index; 0 where 0 bits wide.
    """

    lsf_indices: np.ndarray       # (frames, order)
    ctns_flag: np.ndarray         # (frames,) bool
    clpc_indices: np.ndarray      # (frames, order, 2) (magnitude, phase); 0 without the flag
    sf_indices: np.ndarray        # (frames, bands)
    index1: np.ndarray            # (frames, bins), as are index2 and raw
    index2: np.ndarray
    raw: np.ndarray
    contrast: np.ndarray          # (frames, bands) high-contrast flags: phase-cell layout

    @classmethod
    def zeros(cls, frames: int, ctx: "PackContext") -> "FramePayload":
        """A record of ``frames`` zero rows in ``ctx``'s layout, for unpack to fill."""
        order, bands, bins = (ctx.lpc_order,), (len(ctx.band_sizes),), (ctx.real_mask.size,)
        row = dict(lsf_indices=order, ctns_flag=(), clpc_indices=order + (2,), sf_indices=bands,
                   index1=bins, index2=bins, raw=bins, contrast=bands)
        return cls(**{name: np.zeros((frames, *shape), bool if name in ("ctns_flag", "contrast")
                                     else int) for name, shape in row.items()})


class PackContext:
    """A config's frame layout and wire alphabets, derived from the config alone and shared by
    pack, unpack, the gain search and the codec's two ends (``CodecConfig.layout`` holds a
    config's one).  The first and last coded bins (DC and Nyquist) are real-valued.  Nothing is
    settable and the arrays are read-only: one layout serves every user of its config."""

    def __init__(self, cfg):
        sizes = np.diff([0, *cfg.band_edges[:-1], cfg.n_bins])  # the Nyquist bin ends the last band
        real_mask = np.zeros(cfg.n_bins, dtype=bool)
        real_mask[[0, -1]] = True
        phase_cells = np.array([cfg.phase_cells_low, cfg.phase_cells_high])
        phase_bits = np.frexp(phase_cells[:, np.minimum(np.arange(16), 7)])[1] - 1  # log2(cells)
        lsf_alphabet = lsf_index_max(cfg.lsf_step) + 1  # LSF indices and their deltas
        clpc_mag_alphabet = clpc_mag_index_max(  # the zero cell, then the dB grid
            cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db, cfg.clpc_mag_ceil_db) + 2
        for name, value in dict(
                lpc_order=cfg.lpc_order,  # LSF indices and CLPC coefficients per frame
                band_sizes=tuple(sizes.tolist()), band_of=np.repeat(np.arange(sizes.size), sizes),
                real_mask=real_mask,
                phase_cells=phase_cells,  # [low, high contrast][min(index1, 7)] -> cells
                # raw-field width by index 1 (0..15); rows low, high contrast, real bin (sign)
                raw_widths=np.concatenate([*phase_bits, np.arange(16) > 0]), table=cfg.ecupq,
                lsf_alphabet=lsf_alphabet, lsf_model=flat_model(lsf_alphabet),
                clpc_mag_model=flat_model(clpc_mag_alphabet),
                clpc_phase_bits=cfg.clpc_phase_cells.bit_length() - 1).items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PackContext.{name} is derived from the config and cannot be set")

    def raw_offsets(self, contrast) -> np.ndarray:
        """Each bin's row start in ``raw_widths``, int8 to keep a chunk's small: the real row at
        DC and Nyquist, else its band's contrast row; a stack takes a row of flags per frame."""
        return np.where(self.real_mask, 32, np.int8(16) * np.asarray(contrast)[..., self.band_of])


def raw_field_widths(chunk: FramePayload, offsets: np.ndarray, ctx: PackContext) -> np.ndarray:
    """Each raw-section field's width in bits, one row per row of a chunk record, in wire order:
    the CTNS flag, the CLPC phases (where the flag is set and the magnitude is not the zero
    cell), each escape's Exp-Golomb (k = 2) code of m = index2 - OUTLIER_MIN + 4 in
    2 bit_length(m) - 3 bits, then each bin's phase or sign, read from ``ctx.raw_widths`` at
    the bin's row start in ``offsets``, the chunk's ``ctx.raw_offsets(chunk.contrast)``."""
    flag, index1 = chunk.ctns_flag[:, None], chunk.index1
    escape, escapes = np.zeros(index1.shape, np.int8), index1 == ESCAPE_INDEX
    escape[escapes] = 2 * np.frexp(chunk.index2[escapes] - (OUTLIER_MIN - 4))[1] - 3
    clpc = np.where(flag & (chunk.clpc_indices[..., 0] >= 0), np.int8(ctx.clpc_phase_bits), 0)
    return np.concatenate([np.ones_like(flag, np.int8), clpc, escape,
                           ctx.raw_widths.take(offsets + index1)], axis=1, dtype=np.int8)


def wire_fields(payload: FramePayload, offsets: np.ndarray, ctx: PackContext) -> list:
    """Each row of a chunk record as :func:`pack_frame` takes it, built for the chunk at once:
    its range-coded symbol lists (LSF deltas, CLPC magnitudes or ``[]`` without the flag,
    scale-factor deltas, index 1), CLPC-phase, escape, sign and phase bits, and raw section.
    ``offsets`` are the chunk's raw offsets (``ctx.raw_offsets`` of its contrast flags)."""
    flag, (mags, phases) = payload.ctns_flag, np.moveaxis(payload.clpc_indices, -1, 0)
    m = np.subtract(payload.index2, OUTLIER_MIN - 4, dtype="int32")  # each escape's code value
    if np.any(m[payload.index1 == ESCAPE_INDEX] < 4):
        raise ValueError(f"escape index 2 below {OUTLIER_MIN}")
    widths = raw_field_widths(payload, offsets, ctx)
    clpc, escape, raw = np.split(widths, np.cumsum([1, ctx.lpc_order, ctx.real_mask.size]), 1)[1:]
    sign = raw[:, ctx.real_mask].sum(axis=1)
    bits = [clpc.sum(axis=1), escape.sum(axis=1), sign, raw.sum(axis=1) - sign]
    pad = -(1 + sum(bits))[:, None] % 8  # a zero field fills each raw section's last byte
    # the chunk's fields row by row, then the pad; all raw sections come from one _raw_bytes call
    widths = np.concatenate([widths, pad], axis=1, dtype=np.int8)
    values = np.concatenate([flag[:, None], phases, m, payload.raw, 0 * pad], axis=1, dtype="int32")
    data = _raw_bytes(values[widths > 0], widths[widths > 0])
    starts = [0, *np.cumsum(widths.sum(axis=1) // 8).tolist()]
    return list(zip(np.diff(payload.lsf_indices, axis=1, prepend=0).tolist(),
                    [row if f else [] for row, f in zip((mags + 1).tolist(), flag.tolist())],
                    (np.diff(payload.sf_indices, axis=1, prepend=0) + _SF_OFFSET).tolist(),
                    payload.index1.tolist(), *(b.tolist() for b in bits),
                    map(data.__getitem__, map(slice, starts, starts[1:]))))


def pack_frame(fields: tuple, ctx: PackContext, stats_out: dict) -> bytes:
    """One frame's bytes from its row of :func:`wire_fields`, its symbol lists range-coded;
    ``stats_out`` receives its section costs: each range-coded section's code length from
    the coder's state (``RangeEncoder.encode``), each raw one's exact bits."""
    (lsf, clpc, sf, index1, clpc_bits, escape, sign, phase, raw), enc = fields, RangeEncoder()
    stats_out.update(lsf=enc.encode(lsf, *ctx.lsf_model), flag=1,
                     clpc=enc.encode(clpc, *ctx.clpc_mag_model) + clpc_bits if clpc else 0.0,
                     sf=enc.encode(sf, *SF_DELTA_MODEL), index1=enc.encode(index1, *INDEX1_MODEL),
                     escape=escape, sign=sign, phase=phase)
    arith = enc.finish()
    for name, section in (("range-coded", arith), ("raw", raw)):
        if len(section) > 0xFFFF:  # the length prefix is a u16
            raise ValueError(f"frame's {name} section of {len(section)} bytes exceeds the "
                             f"65535 its u16 length prefix can hold")
    return struct.pack("<HH", len(arith), len(raw)) + arith + raw


def frame_bounds(data: bytes, count: int, length: int) -> list:
    """The byte offset of each of the ``count`` frames after the header, then of the end of the
    last, walked by their u16 length prefixes alone.  A prefix or payload cut short raises
    ``StreamError`` with the frame's number, as do data that hold fewer or more frames than
    ``count``, the frames the header's ``length`` samples need."""
    need = f"the {count} frames the header's {length} samples need"
    bounds, pos = [StreamHeader.size()], StreamHeader.size()
    while len(bounds) <= count and pos < len(data):
        if len(data) - pos < 4:
            raise StreamError("truncated frame prefix", len(bounds) - 1)
        pos += 4 + sum(struct.unpack_from("<HH", data, pos))
        if pos > len(data):
            raise StreamError("truncated frame payload", len(bounds) - 1)
        bounds.append(pos)
    if len(bounds) <= count:
        raise StreamError(f"stream ends after {len(bounds) - 1} of {need}")
    if pos < len(data):
        raise StreamError(f"bytes follow {need}")
    return bounds


def unpack_frame(data: bytes, pos: int, ctx: PackContext, chunk: FramePayload, row: int) -> int:
    """Pass 1 of a frame's parse: range-decode the frame at byte offset ``pos``, whose bounds
    ``frame_bounds`` has checked, and read the CTNS flag and the escapes from its raw section
    into row ``row`` of ``chunk``; returns the bit offset in ``data`` where its raw section
    starts.  A malformed frame raises ``StreamError`` before anything is written to it."""
    arith_len, raw_len = struct.unpack_from("<HH", data, pos)
    split = pos + 4 + arith_len
    dec = RangeDecoder(data[pos + 4:split])
    raw, end = int.from_bytes(data[split:split + raw_len], "big"), 8 * raw_len

    lsf = list(accumulate(dec.decode(ctx.lpc_order, *ctx.lsf_model)))
    if lsf[-1] >= ctx.lsf_alphabet:  # the deltas are never negative
        raise StreamError("LSF index out of range")

    flag = (raw << 1 >> end) & 1  # bits past the section's end read as zero
    mags = [m - 1 for m in dec.decode(ctx.lpc_order, *ctx.clpc_mag_model)] if flag else []
    at = 1 + ctx.clpc_phase_bits * sum(m >= 0 for m in mags)  # the escapes follow the CLPC phases

    sf = list(accumulate(d - _SF_OFFSET for d in dec.decode(len(ctx.band_sizes), *SF_DELTA_MODEL)))
    if min(sf) < SF_MIN_DB or max(sf) > SF_MAX_DB:
        raise StreamError("scale factor index out of range")

    index1 = dec.decode(ctx.real_mask.size, *INDEX1_MODEL)
    values = []
    for _ in range(index1.count(ESCAPE_INDEX)):  # each from one window of the longest codeword
        window = (raw << at + _ESCAPE_BITS >> end) & ((1 << _ESCAPE_BITS) - 1)
        n = 2 * (_ESCAPE_BITS - window.bit_length()) + 3  # its zero prefix, then m
        if n > _ESCAPE_BITS or (window >> _ESCAPE_BITS - n) + OUTLIER_MIN - 4 > OUTLIER_MAX:
            raise StreamError(f"escape index 2 above {OUTLIER_MAX}")  # the encoder clips to it
        values.append((window >> _ESCAPE_BITS - n) + OUTLIER_MIN - 4)
        at += n
    # the range section is consumed exactly, to within its last byte's padding
    if not 8 * arith_len - 7 <= dec.consumed_bits <= 8 * arith_len:
        raise StreamError("range section length does not match its symbols")
    chunk.lsf_indices[row], chunk.ctns_flag[row] = lsf, flag
    chunk.clpc_indices[row, :, 0] = mags or 0  # a row without the flag holds no CLPC indices
    chunk.sf_indices[row], chunk.index1[row], chunk.index2[row] = sf, index1, 0
    chunk.index2[row, chunk.index1[row] == ESCAPE_INDEX] = values
    return 8 * split


def unpack_fields(data: bytes, at, ends, ctx: PackContext, chunk: FramePayload) -> np.ndarray:
    """Pass 2 of a chunk's parse, once its contrast flags are set: read the raw sections of its
    first ``len(at)`` rows as one stack, each from ``unpack_frame``'s bit offset ``at`` to its
    frame's end (byte ``ends``), into its CLPC phases and ``raw``; returns which rows' fields
    miss their end."""
    rows, ends = len(at), 8 * np.asarray(ends, dtype=np.int64)
    widths = raw_field_widths(chunk, ctx.raw_offsets(chunk.contrast), ctx)[:rows]
    values = _read_rows(data, at, ends, widths)  # flag, CLPC phases, escapes, phases and signs
    chunk.clpc_indices[:rows, :, 1] = values[:, 1:1 + ctx.lpc_order]
    chunk.raw[:rows] = values[:, -ctx.real_mask.size:]
    stop = np.asarray(at, dtype=np.int64) + widths.sum(axis=1)
    return (stop <= ends - 8) | (stop > ends)
