"""End-to-end encoder and decoder.

Encode: window -> DFT -> LP/LSF -> envelope division -> complex LP ->
conditional temporal filtering -> per-band gain search -> polar quantization
-> entropy-coded frame.  Decode runs the exact inverse chain; every quantity
the decoder derives (envelope, contrast flags, cell counts, gains, filters)
is computed in the encoder from the same quantized values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import lp, noise_shaping as ns, polar_quant as pq, rate_control as rc
from .config import CodecConfig
from .entropy_bitstream import (FramePayload, PackContext, StreamError, StreamHeader,
                                frame_bounds, pack_frame, unpack_fields, unpack_frame)
from .transforms import frame_count, frame_signal, overlap_add

# the divisor of each integer gain SF_MIN_DB..SF_MAX_DB, by Python's float
# power as band_cost_bits prices it (numpy's array power rounds a few apart)
GAIN_DIVISORS = np.array([10.0 ** (g / 20.0) for g in range(rc.SF_MIN_DB, rc.SF_MAX_DB + 1)])
CHUNK_FRAMES = 64  # frames coded or decoded together; one chunk bounds either end's memory


@dataclass
class FrameStats:
    """Per-frame introspection record emitted by the encoder."""

    index: int
    gain_db: float
    ctns_active: bool
    band_gains: np.ndarray
    overflow: np.ndarray
    est_spectral_bits: float
    total_bits: int
    section_bits: dict

    @property
    def real_spectral_bits(self) -> float:
        """The coded bits of the spectral sections: index 1, escape, phase and sign."""
        bits = self.section_bits
        return bits["index1"] + bits["escape"] + bits["phase"] + bits["sign"]


@dataclass
class FrameAnalysis:
    """The encoder's shaping state for a stack of frames (one row each) up to the gain search."""

    lsf_indices: np.ndarray   # (frames, order)
    env: np.ndarray           # envelope 1/|A| on the bin grid, (frames, bins)
    contrast: np.ndarray      # per-band high-contrast flags, (frames, bands)
    res: np.ndarray           # FDNS residual, (frames, bins)
    filtered: np.ndarray      # residual after the CTNS filter
    clpc_indices: np.ndarray  # (frames, order, 2)
    coeffs: np.ndarray        # CTNS filter rebuilt from the quantized indices
    gain_db: np.ndarray       # CTNS prediction gain, (frames,)
    active: np.ndarray        # the switch fired and CTNS is enabled

    @property
    def coded(self) -> np.ndarray:
        return np.where(self.active[:, None], self.filtered, self.res)


def derive_shaping(lsf_indices: np.ndarray, cfg: CodecConfig):
    """Envelope values and per-band high-contrast flags from quantized LSF indices.

    This is the single code path both codec ends use, so their shaping state
    is identical by construction.
    """
    lsfs = lp.dequantize_lsf(lsf_indices, cfg.lsf_step, cfg.lsf_min_gap)
    env = lp.frequency_envelope(lp.lsf_to_lpc(lsfs), cfg.n_bins)
    return env, pq.compute_fer(20.0 * np.log10(env), cfg.band_edges) > cfg.fer_threshold


def derive_clpc(clpc_indices: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    return lp.dequantize_complex_lpc(clpc_indices, cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db,
                                     cfg.clpc_phase_cells)


def make_pack_context(cfg: CodecConfig) -> PackContext:
    """A config's frame layout and wire alphabets: the one place both are derived."""
    sizes = np.diff([0, *cfg.band_edges[:-1], cfg.n_bins])  # the Nyquist bin ends the last band
    return PackContext(
        lpc_order=cfg.lpc_order,
        band_sizes=tuple(sizes.tolist()),
        phase_cells=np.array([cfg.phase_cells_low, cfg.phase_cells_high]),
        lsf_alphabet=lp.lsf_index_max(cfg.lsf_step) + 1,
        clpc_mag_alphabet=lp.clpc_mag_index_max(
            cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db, cfg.clpc_mag_ceil_db) + 2,
        clpc_phase_bits=cfg.clpc_phase_cells.bit_length() - 1,
    )


def analyze_frames(samples: np.ndarray, cfg: CodecConfig) -> FrameAnalysis:
    """Shape a stack of windowed frames (frames, frame_len): LSF envelope
    division (FDNS), then the quantized complex LP model along frequency and
    the CTNS switch.  Each row is what the frame alone would give."""
    coeffs = lp.fit(samples, cfg.lpc_order, cfg.fdns_weight)
    lsf_idx = lp.lsf_indices(coeffs, cfg.lsf_step)
    env, contrast = derive_shaping(lsf_idx, cfg)
    res = ns.fdns_forward(np.fft.rfft(samples), env)

    coeffs = lp.fit(res[:, :cfg.band_edges[-1]], cfg.lpc_order, cfg.ctns_weight)
    clpc_idx = lp.quantize_complex_lpc(coeffs, cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db,
                                       cfg.clpc_mag_ceil_db, cfg.clpc_phase_cells)
    coeffs = derive_clpc(clpc_idx, cfg)
    filtered = ns.ctns_filter(res, coeffs, cfg.ctns_start_bin)
    gain_db, switch = ns.prediction_gain(res, filtered, cfg.ctns_start_bin, cfg.ctns_threshold_db)
    return FrameAnalysis(lsf_indices=lsf_idx, env=env, contrast=contrast, res=res,
                         filtered=filtered, clpc_indices=clpc_idx, coeffs=coeffs,
                         gain_db=gain_db, active=switch & cfg.ctns_enabled)


def synthesize(coded: np.ndarray, env_values: np.ndarray, coeffs: np.ndarray | None,
               cfg: CodecConfig, active=...) -> np.ndarray:
    """Undo CTNS (when ``coeffs`` is given) and FDNS, then return to time.  A
    (frames, bins) stack gives each frame's as a row; CTNS is then undone on
    the rows ``active`` selects, with one row of ``coeffs`` each."""
    res = coded.copy()
    if coeffs is not None and len(coeffs):  # a stack with no active row has nothing to undo
        res[active] = ns.ctns_unfilter(coded[active], coeffs, cfg.ctns_start_bin)
    return np.fft.irfft(ns.fdns_inverse(res, env_values), n=cfg.frame_len)


def quantize_spectrum(coded: np.ndarray, gains: np.ndarray, contrast: np.ndarray,
                      cfg: CodecConfig, ctx: PackContext):
    """Polar-quantize the coded bins, each band divided by its gain; returns
    the payload's whole-frame (index1, index2, phase, sign) arrays; a (frames,
    bins) stack with (frames, bands) gains and flags gives each frame's as a row."""
    scaled = coded / GAIN_DIVISORS[gains - rc.SF_MIN_DB][..., ctx.band_of]
    real = ctx.real_mask
    index1, index2 = pq.quantize_magnitudes(
        np.where(real, np.abs(scaled.real), np.abs(scaled)), cfg.ecupq)
    cells = pq.phase_cells_array(index1, contrast[..., ctx.band_of], ctx.phase_cells)
    sendable = ~real & (cells > 1)  # a phase field is log2(cells) bits
    phase = np.full(index1.shape, -1)
    phase[sendable] = pq.quantize_phase(np.angle(scaled[sendable]), cells[sendable])
    sign = np.where(real, (scaled.real < 0) & (index1 > 0), -1)
    return index1, index2, phase, sign


def dequantize_spectrum(payload: FramePayload, cfg: CodecConfig, ctx: PackContext):
    """The coded bins a chunk record's spectral fields and band gains
    describe, one row per frame."""
    mags = pq.dequantize_magnitudes(payload.index1, payload.index2, cfg.ecupq)
    cells = pq.phase_cells_array(payload.index1, payload.contrast[..., ctx.band_of],
                                 ctx.phase_cells)
    theta = np.zeros(mags.shape)
    has_phase = payload.phase >= 0
    theta[has_phase] = pq.dequantize_phase(payload.phase[has_phase], cells[has_phase])
    vals = np.where(ctx.real_mask, np.where(payload.sign == 1, -mags, mags),
                    mags * np.exp(1j * theta))
    return vals * GAIN_DIVISORS[payload.sf_indices - rc.SF_MIN_DB][..., ctx.band_of]


def encode_frames(frames: np.ndarray, cfg: CodecConfig, ctx: PackContext, first: int):
    """Encode a chunk of windowed frames, the rows of a (frames, frame_len) stack whose first
    is stream frame ``first``; returns the chunk's record and each frame's bytes and stats.
    The chunk is analyzed, each band's gains searched and the chunk quantized as stacks."""
    shaped = analyze_frames(frames, cfg)
    coded, active, gain_db = shaped.coded, shaped.active, shaped.gain_db
    lsf, clpc, contrast = shaped.lsf_indices, shaped.clpc_indices, shaped.contrast
    del shaped  # the residuals and envelopes are not needed past the analysis
    gains, overflow, bits = zip(*(  # one array per band each, searched on its magnitudes
        rc.search_scale_factors(np.abs(coded[:, band]), cfg.budget[b], contrast[:, b],
                                rc.BandQuantContext(cfg.ecupq, ctx.phase_bits, ctx.real_mask[band]))
        for b, band in enumerate(ctx.band_slices)))
    gains, overflow = np.stack(gains, axis=1), np.stack(overflow, axis=1)
    est_bits = sum(bits)  # summed in band order, as the stats report it
    payload = FramePayload(lsf, active, clpc, gains,  # then index1, index2, phase, sign
                           *quantize_spectrum(coded, gains, contrast, cfg, ctx), contrast)
    sections = [{} for _ in frames]
    blobs = [pack_frame(payload, f, ctx, stats_out=sections[f]) for f in range(len(frames))]
    return payload, blobs, [FrameStats(
        index=first + f, gain_db=float(gain_db[f]), ctns_active=bool(active[f]),
        band_gains=gains[f], overflow=overflow[f], est_spectral_bits=float(est_bits[f]),
        total_bits=8 * len(blobs[f]), section_bits=sections[f]) for f in range(len(frames))]


def decode_frame_payload(chunk: FramePayload, cfg: CodecConfig, ctx: PackContext) -> np.ndarray:
    """A chunk record's time-domain frames, one row each: each frame's envelope, as decode_stream
    derives the contrast flags, then one stacked dequantization, CTNS inverse and synthesis."""
    env = np.array([derive_shaping(lsf, cfg)[0] for lsf in chunk.lsf_indices])
    active = chunk.ctns_flag
    coeffs = derive_clpc(chunk.clpc_indices[active], cfg) if active.any() else None
    return synthesize(dequantize_spectrum(chunk, cfg, ctx), env, coeffs, cfg, active)


def chunks(pcm: np.ndarray, spec):
    """(first frame, windowed frames) of each chunk, framed from its own slice of ``pcm``."""
    span = CHUNK_FRAMES * spec.hop + spec.overlap_len  # the samples a chunk's frames cover
    for first in range(0, frame_count(pcm.size, spec), CHUNK_FRAMES):
        yield first, frame_signal(pcm[first * spec.hop:][:span], spec)


def add_chunk(out: list, frames: np.ndarray, spec):
    """Overlap-add a chunk's time-domain frames onto ``out``: finished pieces, then the overlap."""
    seg = overlap_add(frames, spec)
    seg[:spec.overlap_len] += out.pop()
    out += [seg[:-spec.overlap_len], seg[-spec.overlap_len:]]


def finite_pcm(pcm: np.ndarray) -> np.ndarray:
    """The PCM as a float array; ``ValueError`` when a sample is NaN or infinite."""
    pcm = np.asarray(pcm, dtype=float)
    if not np.all(np.isfinite(pcm)):
        raise ValueError("PCM holds non-finite samples")
    return pcm


def stream_header(cfg: CodecConfig, original_length: int) -> StreamHeader:
    """The header of a stream of ``original_length`` samples coded with ``cfg``."""
    return StreamHeader(sample_rate_hz=cfg.sample_rate, frame_len=cfg.frame_len,
                        overlap_len=cfg.overlap_len, mode=cfg.mode,
                        original_length=original_length, lpc_order=cfg.lpc_order,
                        table_version=cfg.ecupq.version)


def encode_stream(pcm: np.ndarray, cfg: CodecConfig):
    """Encode mono core-band PCM to a bitstream; returns (bytes, stats)."""
    pcm = finite_pcm(pcm)
    ctx = make_pack_context(cfg)
    blobs, stats = [stream_header(cfg, pcm.size).pack()], []
    for first, frames in chunks(pcm, cfg.window_spec):
        _, chunk_blobs, chunk_stats = encode_frames(frames, cfg, ctx, first)
        blobs += chunk_blobs
        stats += chunk_stats
    return b"".join(blobs), stats


def decode_stream(data: bytes, cfg: CodecConfig | None = None):
    """Decode a bitstream; returns (pcm, header, per-frame CTNS flags)."""
    header = StreamHeader.unpack(data)
    cfg = (CodecConfig() if cfg is None else cfg).with_mode(header.mode)
    want = stream_header(cfg, header.original_length)
    differ = [f"{f.name} {getattr(header, f.name)!r} (configuration: {getattr(want, f.name)!r})"
              for f in fields(StreamHeader) if getattr(header, f.name) != getattr(want, f.name)]
    if differ:
        raise StreamError("stream header does not match configuration: " + ", ".join(differ))

    ctx, spec = make_pack_context(cfg), cfg.window_spec
    # a cut, short or overlong stream is refused before any frame is parsed
    bounds = frame_bounds(data, frame_count(header.original_length, spec), header.original_length)
    pcm, flags = [np.zeros(spec.overlap_len)], []
    for first in range(0, len(bounds) - 1, CHUNK_FRAMES):
        chunk = FramePayload.zeros(min(CHUNK_FRAMES, len(bounds) - 1 - first), ctx)
        at, fault = [], None  # pass 1 per frame, up to the first that fails
        try:
            for row, start in enumerate(bounds[first:first + len(chunk.ctns_flag)]):
                at.append(unpack_frame(data, start, ctx, chunk, row))
        except StreamError as e:
            fault = e
        # the flags set pass 2's field widths; its rows precede a pass-1 fault, so theirs come first
        for row, lsf in enumerate(chunk.lsf_indices[:len(at)]):
            chunk.contrast[row] = derive_shaping(lsf, cfg)[1]
        bad = unpack_fields(data, at, bounds[first + 1:first + 1 + len(at)], ctx, chunk)
        if bad.any():
            raise StreamError("raw section length does not match its fields",
                              first + int(np.argmax(bad)))
        if fault:
            raise StreamError(str(fault), first + len(at)) from None
        add_chunk(pcm, decode_frame_payload(chunk, cfg, ctx), spec)
        flags += chunk.ctns_flag.tolist()
    return np.concatenate(pcm)[:header.original_length], header, flags


def shaping_roundtrip(pcm: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Debug bypass: the codec's own frame analysis and synthesis with the
    spectral coefficients left unquantized and no entropy coding.

    The envelope and the CTNS filter are the quantized ones the decoder
    rebuilds, so this isolates the window/DFT/envelope/temporal-filter
    inverses from the band quantizer; away from the stream edges the output
    matches the input to numerical precision.
    """
    pcm, spec = finite_pcm(pcm), cfg.window_spec
    out = [np.zeros(spec.overlap_len)]
    for _, frames in chunks(pcm, spec):  # chunks bound the memory, as in encoding
        s = analyze_frames(frames, cfg)  # then its rows take their synthesis
        add_chunk(out, synthesize(s.coded, s.env, s.coeffs[s.active], cfg, s.active), spec)
    return np.concatenate(out)[:pcm.size]
