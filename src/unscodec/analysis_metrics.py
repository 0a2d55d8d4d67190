"""Objective metrics, per-frame diagnostics, and the MDCT-vs-DFT temporal
prediction experiment on transient material.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import lp, noise_shaping as ns
from .config import CodecConfig
from .transforms import imdct, mdct, sine_window

SEG_LEN = 256
SNR_FLOOR_DB = -10.0
SNR_CEIL_DB = 35.0
ENERGY_FLOOR_DB = -120.0


@dataclass
class SegSnrReport:
    per_segment_db: np.ndarray
    mean_db: float
    segment_len: int = SEG_LEN


@dataclass
class TnsComparisonReport:
    frame_energy_mdct_db: np.ndarray
    frame_energy_dft_db: np.ndarray
    hop: int
    signal_name: str = ""

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["frame", "energy_mdct_db", "energy_dft_db"])
        for i, (a, b) in enumerate(zip(self.frame_energy_mdct_db, self.frame_energy_dft_db)):
            w.writerow([i, f"{a:.4f}", f"{b:.4f}"])
        return buf.getvalue()


def seg_snr(reference: np.ndarray, decoded: np.ndarray,
            segment_len: int = SEG_LEN) -> SegSnrReport:
    """Clamped per-segment SNR; silent reference segments are skipped."""
    reference = np.asarray(reference, dtype=float)
    decoded = np.asarray(decoded, dtype=float)
    if reference.size != decoded.size:
        raise ValueError("reference and decoded lengths must match")
    values = []
    for s in range(0, reference.size - segment_len + 1, segment_len):
        ref = reference[s:s + segment_len]
        err = ref - decoded[s:s + segment_len]
        ref_e = float(np.sum(ref ** 2))
        if ref_e < 1e-12:
            continue
        err_e = float(np.sum(err ** 2))
        snr = SNR_CEIL_DB if err_e <= 0.0 else 10.0 * np.log10(ref_e / err_e)
        values.append(float(np.clip(snr, SNR_FLOOR_DB, SNR_CEIL_DB)))
    arr = np.asarray(values)
    mean = float(arr.mean()) if arr.size else SNR_CEIL_DB
    return SegSnrReport(per_segment_db=arr, mean_db=mean, segment_len=segment_len)


def _frame_energies_db(x: np.ndarray, hop: int) -> np.ndarray:
    n = max(1, x.size // hop)
    out = np.empty(n)
    for i in range(n):
        e = float(np.sum(x[i * hop:(i + 1) * hop] ** 2))
        out[i] = 10.0 * np.log10(e) if e > 1e-12 else ENERGY_FLOOR_DB
    return out


def tns_domain_experiment(signal: np.ndarray, cfg: CodecConfig | None = None,
                          order: int | None = None, start_bin: int | None = None,
                          signal_name: str = "") -> TnsComparisonReport:
    """Temporal prediction residuals of the same signal in two transform domains.

    Both tracks use sine-windowed frames at 50% overlap (analysis and
    synthesis), so each chain without filtering reconstructs the input
    exactly.  Track A runs real prediction-error filtering along MDCT
    frequency; track B runs complex filtering along one-sided DFT frequency.
    Reported per frame is the energy of each reconstructed residual signal.
    """
    cfg = cfg or CodecConfig()
    order = cfg.lpc_order if order is None else order
    start_bin = cfg.ctns_start_bin if start_bin is None else start_bin
    signal = np.asarray(signal, dtype=float)
    n = cfg.frame_len
    hop = n // 2
    if signal.size < 2 * n:
        raise ValueError("signal must span at least two frames")
    win = sine_window(n)
    n_frames = (signal.size - n) // hop + 1

    res_mdct = np.zeros(signal.size)
    res_dft = np.zeros(signal.size)
    for k in range(n_frames):
        chunk = signal[k * hop:k * hop + n]

        coeffs = mdct(chunk, win)
        filt = _freq_lp_filter(coeffs, order, start_bin, stop=coeffs.size - 1)
        res_mdct[k * hop:k * hop + n] += imdct(filt, win)

        bins = np.fft.rfft(chunk * win)
        filt_b = _freq_lp_filter(bins, order, start_bin, stop=bins.size - 2)
        res_dft[k * hop:k * hop + n] += np.fft.irfft(filt_b, n=n) * win

    e_mdct = _frame_energies_db(res_mdct, hop)
    e_dft = _frame_energies_db(res_dft, hop)
    return TnsComparisonReport(frame_energy_mdct_db=e_mdct, frame_energy_dft_db=e_dft,
                               hop=hop, signal_name=signal_name)


def _freq_lp_filter(coeffs: np.ndarray, order: int, start: int, stop: int) -> np.ndarray:
    """Prediction-error filtering along the frequency axis with the signal's
    own LP model; order zero passes the input through."""
    if order == 0:
        return np.asarray(coeffs).copy()
    r = lp.autocorr(coeffs, order)
    if (r[0].real if np.iscomplexobj(r) else r[0]) <= 1e-30:
        return np.asarray(coeffs).copy()
    return ns.prediction_error_filter(coeffs, lp.levinson(r, order), start, stop)


def transient_region_means(report: TnsComparisonReport, attacks, rate: int,
                           span_s: float = 0.12):
    """Mean per-frame residual energies over frames that overlap an attack."""
    frames = set()
    for a in attacks:
        lo = a // report.hop
        hi = int((a + span_s * rate) // report.hop)
        frames.update(range(lo, hi + 1))
    idx = sorted(f for f in frames if f < report.frame_energy_mdct_db.size)
    sel = np.asarray(idx, dtype=int)
    return (float(report.frame_energy_mdct_db[sel].mean()),
            float(report.frame_energy_dft_db[sel].mean()))


def frame_diagnostics(stats) -> str:
    """CSV rows of the encoder's per-frame introspection records."""
    buf = io.StringIO()
    w = csv.writer(buf)
    header = ["frame", "gain_db", "ctns_flag", "total_bits",
              "est_spectral_bits", "real_spectral_bits"]
    bands = range(len(stats[0].band_gains)) if stats else ()
    header += [f"band_gain_{b}" for b in bands] + [f"overflow_{b}" for b in bands]
    w.writerow(header)
    for s in stats:
        row = [s.index, f"{s.gain_db:.3f}", int(s.ctns_active), s.total_bits,
               f"{s.est_spectral_bits:.2f}", f"{s.real_spectral_bits:.2f}"]
        row += [int(g) for g in s.band_gains] + [int(o) for o in s.overflow]
        w.writerow(row)
    return buf.getvalue()
