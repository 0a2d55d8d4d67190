"""End-to-end encoder and decoder.

Encode: window -> DFT -> LP/LSF -> envelope division -> complex LP ->
conditional temporal filtering -> per-band gain search -> polar quantization
-> entropy-coded frame.  Decode runs the exact inverse chain; every quantity
the decoder derives (envelope, contrast flags, cell counts, gains, filters)
is computed in the encoder from the same quantized values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp, noise_shaping as ns, polar_quant as pq, rate_control as rc
from .config import CodecConfig
from .entropy_bitstream import (FramePayload, PackContext, StreamError,
                                StreamHeader, pack_frame, unpack_frame)
from .transforms import frame_signal, overlap_add
from .util import db_to_lin


@dataclass
class FrameStats:
    """Per-frame introspection record emitted by the encoder."""

    index: int
    gain_db: float
    ctns_active: bool
    band_gains: np.ndarray
    overflow: np.ndarray
    est_spectral_bits: float
    real_spectral_bits: float
    total_bits: int
    section_bits: dict


@dataclass
class FrameAnalysis:
    """The encoder's shaping state for one frame, up to the gain search."""

    lsf_indices: np.ndarray
    env: lp.FrequencyEnvelope
    fer: pq.FerProfile
    res: np.ndarray           # FDNS residual
    filtered: np.ndarray      # residual after the CTNS filter
    clpc_indices: np.ndarray
    coeffs: np.ndarray        # CTNS filter rebuilt from the quantized indices
    decision: ns.CtnsDecision
    active: bool              # the switch fired and CTNS is enabled

    @property
    def coded(self) -> np.ndarray:
        return self.filtered if self.active else self.res


def derive_shaping(lsf_indices: np.ndarray, cfg: CodecConfig):
    """Envelope and band-contrast profile from quantized LSF indices.

    This is the single code path both codec ends use, so their shaping state
    is identical by construction.
    """
    lsfs = lp.dequantize_lsf(lsf_indices, cfg.lsf_step, cfg.lsf_min_gap)
    model = lp.lsf_to_lpc(lsfs)
    env = lp.frequency_envelope(model, cfg.n_bins)
    fer = pq.compute_fer(env.values_db, cfg.band_layout, cfg.fer_threshold)
    return env, fer


def derive_clpc(clpc_indices: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    model = lp.dequantize_complex_lpc(
        clpc_indices, cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db, cfg.clpc_phase_cells,
        order=cfg.lpc_order)
    return model.coeffs


def band_sizes(cfg: CodecConfig) -> tuple:
    widths = list(cfg.band_layout.widths)
    widths[-1] += 1  # Nyquist bin rides along in the last band
    return tuple(widths)


def real_positions(cfg: CodecConfig) -> dict:
    sizes = band_sizes(cfg)
    return {0: {0}, len(sizes) - 1: {sizes[-1] - 1}}


def make_pack_context(cfg: CodecConfig) -> PackContext:
    return PackContext(
        n_lsf=cfg.lpc_order,
        clpc_order=cfg.lpc_order,
        band_sizes=band_sizes(cfg),
        real_positions=real_positions(cfg),
        phase_sets_high=cfg.phase_cells_high,
        phase_sets_low=cfg.phase_cells_low,
        resolve_contrast=lambda lsf: derive_shaping(lsf, cfg)[1].high_contrast,
    )


def analyze_frame(samples: np.ndarray, cfg: CodecConfig) -> FrameAnalysis:
    """Shape one windowed frame: LSF envelope division (FDNS), then the
    quantized complex LP model along frequency and the CTNS switch."""
    r = lp.autocorr(samples, cfg.lpc_order)
    if r[0] <= 1e-30:
        model = lp.LpModel(order=cfg.lpc_order, coeffs=np.zeros(cfg.lpc_order))
    else:
        model = lp.bandwidth_expand(lp.levinson(r, cfg.lpc_order), cfg.fdns_weight)
    lsf_idx = lp.quantize_lsf(lp.lpc_to_lsf(model), cfg.lsf_step)
    env, fer = derive_shaping(lsf_idx, cfg)
    res = ns.fdns_forward(np.fft.rfft(samples), env.values)

    r = lp.autocorr(res[:cfg.band_edges[-1]], cfg.lpc_order)
    if r[0].real <= 1e-30:
        model = lp.LpModel(order=cfg.lpc_order,
                           coeffs=np.zeros(cfg.lpc_order, dtype=complex))
    else:
        model = lp.bandwidth_expand(lp.levinson(r, cfg.lpc_order), cfg.ctns_weight)
    clpc_idx = lp.quantize_complex_lpc(model, cfg.clpc_mag_step_db, cfg.clpc_mag_floor_db,
                                       cfg.clpc_mag_ceil_db, cfg.clpc_phase_cells)
    coeffs = derive_clpc(clpc_idx, cfg)
    filtered = ns.ctns_filter(res, coeffs, cfg.ctns_start_bin)
    decision = ns.prediction_gain(res, filtered, cfg.ctns_start_bin,
                                  cfg.ctns_threshold_db)
    return FrameAnalysis(lsf_indices=lsf_idx, env=env, fer=fer, res=res,
                         filtered=filtered, clpc_indices=clpc_idx, coeffs=coeffs,
                         decision=decision, active=decision.active and cfg.ctns_enabled)


def synthesize(coded: np.ndarray, env: lp.FrequencyEnvelope, coeffs: np.ndarray | None,
               cfg: CodecConfig) -> np.ndarray:
    """Undo CTNS (when ``coeffs`` is given) and FDNS, then return to time."""
    res = coded if coeffs is None else ns.ctns_unfilter(coded, coeffs, cfg.ctns_start_bin)
    return np.fft.irfft(ns.fdns_inverse(res, env.values), n=cfg.frame_len)


def _coded_bands(coded: np.ndarray, cfg: CodecConfig) -> list:
    bands = rc.split_bands(coded[:cfg.band_edges[-1]], cfg.band_layout)
    bands[-1] = np.concatenate([bands[-1], coded[-1:]])
    return bands


def encode_frame(samples: np.ndarray, cfg: CodecConfig):
    """Encode one windowed frame; returns (payload, info dict)."""
    shaped = analyze_frame(samples, cfg)
    contrast = shaped.fer.high_contrast
    sizes = band_sizes(cfg)
    reals = real_positions(cfg)
    bands = _coded_bands(shaped.coded, cfg)
    budget = cfg.budget
    sets = cfg.phase_sets

    gains = np.zeros(len(sizes), dtype=int)
    overflow = np.zeros(len(sizes), dtype=bool)
    index1, index2, phase, sign = [], [], [], []
    est_bits = 0.0
    for b, band in enumerate(bands):
        mask = np.zeros(sizes[b], dtype=bool)
        mask[list(reals.get(b, ()))] = True
        ctx = rc.BandQuantContext(table=cfg.ecupq, high_contrast=bool(contrast[b]),
                                  sets=sets, real_mask=mask)
        g, overflow[b], bits = rc.find_scale_factor(band, budget[b], ctx)
        gains[b] = g
        est_bits += bits

        scaled = band / db_to_lin(g)
        mags = np.abs(scaled)
        mags[mask] = np.abs(scaled[mask].real)
        i1, i2 = pq.quantize_magnitudes(mags, cfg.ecupq)
        cells = pq.phase_cells_array(i1, bool(contrast[b]), sets)
        ph = np.full(sizes[b], -1, dtype=int)
        sendable = (~mask) & (cells > 1)
        if np.any(sendable):
            ph[sendable] = pq.quantize_phase(np.angle(scaled[sendable]), cells[sendable])
        sg = np.full(sizes[b], -1, dtype=int)
        sg[mask] = (scaled[mask].real < 0).astype(int)
        sg[mask & (i1 == 0)] = 0
        index1.append(i1)
        index2.append(i2)
        phase.append(ph)
        sign.append(sg)

    payload = FramePayload(lsf_indices=shaped.lsf_indices, ctns_flag=shaped.active,
                           clpc_indices=shaped.clpc_indices if shaped.active else None,
                           sf_indices=gains, index1=index1, index2=index2,
                           phase=phase, sign=sign, contrast=contrast)
    info = dict(gain_db=shaped.decision.gain_db, active=shaped.active, band_gains=gains,
                overflow=overflow, est_spectral_bits=est_bits)
    return payload, info


def decode_frame_payload(payload: FramePayload, cfg: CodecConfig) -> np.ndarray:
    """Reconstruct one time-domain frame contribution from a payload."""
    env, _ = derive_shaping(payload.lsf_indices, cfg)
    sizes = band_sizes(cfg)
    reals = real_positions(cfg)
    sets = cfg.phase_sets

    coded = np.zeros(cfg.n_bins, dtype=complex)
    offset = 0
    for b in range(len(sizes)):
        i1 = payload.index1[b]
        mags = pq.dequantize_magnitudes(i1, payload.index2[b], cfg.ecupq)
        cells = pq.phase_cells_array(i1, bool(payload.contrast[b]), sets)
        theta = np.zeros(sizes[b])
        has_phase = payload.phase[b] >= 0
        if np.any(has_phase):
            theta[has_phase] = pq.dequantize_phase(payload.phase[b][has_phase],
                                                   cells[has_phase])
        vals = mags * np.exp(1j * theta)
        for posn in reals.get(b, ()):
            s = -1.0 if payload.sign[b][posn] == 1 else 1.0
            vals[posn] = s * mags[posn]
        vals = vals * db_to_lin(payload.sf_indices[b])
        # the Nyquist bin extends the last band contiguously, so plain
        # sequential placement covers all n_bins coefficients
        coded[offset:offset + sizes[b]] = vals
        offset += sizes[b]

    coeffs = derive_clpc(payload.clpc_indices, cfg) if payload.ctns_flag else None
    return synthesize(coded, env, coeffs, cfg)


def encode_stream(pcm: np.ndarray, cfg: CodecConfig):
    """Encode mono core-band PCM to a bitstream; returns (bytes, stats)."""
    pcm = np.asarray(pcm, dtype=float)
    header = StreamHeader(sample_rate_hz=cfg.sample_rate, frame_len=cfg.frame_len,
                          overlap_len=cfg.overlap_len, mode=cfg.mode,
                          original_length=pcm.size, lpc_order=cfg.lpc_order,
                          table_version=cfg.ecupq.version)
    out = bytearray(header.pack())
    ctx = make_pack_context(cfg)
    stats = []
    for frame in frame_signal(pcm, cfg.window_spec):
        payload, info = encode_frame(frame.samples, cfg)
        section = {}
        blob = pack_frame(payload, ctx, stats_out=section)
        out.extend(blob)
        real_spectral = (section.get("index1", 0.0) + section.get("escape", 0)
                         + section.get("phase", 0) + section.get("sign", 0))
        stats.append(FrameStats(
            index=frame.index, gain_db=info["gain_db"], ctns_active=info["active"],
            band_gains=info["band_gains"], overflow=info["overflow"],
            est_spectral_bits=info["est_spectral_bits"],
            real_spectral_bits=real_spectral, total_bits=8 * len(blob),
            section_bits=section))
    return bytes(out), stats


def decode_stream(data: bytes, cfg: CodecConfig | None = None):
    """Decode a bitstream; returns (pcm, header, per-frame CTNS flags)."""
    header = StreamHeader.unpack(data)
    if cfg is None:
        cfg = CodecConfig()
    if (header.frame_len != cfg.frame_len or header.overlap_len != cfg.overlap_len
            or header.lpc_order != cfg.lpc_order):
        raise StreamError("stream header does not match configuration")
    if header.table_version != cfg.ecupq.version:
        raise StreamError(
            f"stream uses quantizer table {header.table_version!r}, "
            f"configuration has {cfg.ecupq.version!r}")
    cfg = cfg.with_mode(header.mode)

    ctx = make_pack_context(cfg)
    pos = StreamHeader.size()
    frames = []
    flags = []
    index = 0
    while pos < len(data):
        payload, consumed = unpack_frame(data[pos:], ctx, frame_index=index)
        frames.append(decode_frame_payload(payload, cfg))
        flags.append(payload.ctns_flag)
        pos += consumed
        index += 1
    pcm = overlap_add(frames, cfg.window_spec, length=header.original_length)
    return pcm, header, flags


def shaping_roundtrip(pcm: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Debug bypass: the codec's own frame analysis and synthesis with the
    spectral coefficients left unquantized and no entropy coding.

    The envelope and the CTNS filter are the quantized ones the decoder
    rebuilds, so this isolates the window/DFT/envelope/temporal-filter
    inverses from the band quantizer; away from the stream edges the output
    matches the input to numerical precision.
    """
    pcm = np.asarray(pcm, dtype=float)
    recon = []
    for frame in frame_signal(pcm, cfg.window_spec):
        shaped = analyze_frame(frame.samples, cfg)
        coeffs = shaped.coeffs if shaped.active else None
        recon.append(synthesize(shaped.coded, shaped.env, coeffs, cfg))
    return overlap_add(recon, cfg.window_spec, length=pcm.size)
