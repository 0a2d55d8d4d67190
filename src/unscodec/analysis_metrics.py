"""Objective metrics, per-frame diagnostics, and the MDCT-vs-DFT temporal
prediction experiment on transient material.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import lp, noise_shaping as ns
from .config import CodecConfig
from .transforms import WindowSpec, imdct, mdct, overlap_add, sine_window

SEG_LEN = 256
SNR_FLOOR_DB = -10.0
SNR_CEIL_DB = 35.0
ENERGY_FLOOR_DB = -120.0
TRANSIENT_SPAN_S = 0.12  # how long after an attack its frames count as transient


def csv_text(header, rows) -> str:
    """Every CSV report: a header row, then ``rows``, in the csv module's default dialect."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


@dataclass
class SegSnrReport:
    per_segment_db: np.ndarray
    mean_db: float

    def to_csv(self) -> str:
        return csv_text(["segment", "snr_db"],
                        ([i, f"{v:.4f}"] for i, v in enumerate(self.per_segment_db)))


@dataclass
class TnsComparisonReport:
    frame_energy_mdct_db: np.ndarray
    frame_energy_dft_db: np.ndarray
    hop: int

    def to_csv(self) -> str:
        return csv_text(["frame", "energy_mdct_db", "energy_dft_db"],
                        ([i, f"{a:.4f}", f"{b:.4f}"] for i, (a, b)
                         in enumerate(zip(self.frame_energy_mdct_db, self.frame_energy_dft_db))))


def seg_snr(reference: np.ndarray, decoded: np.ndarray) -> SegSnrReport:
    """Clamped SNR per SEG_LEN-sample segment; silent reference segments are skipped."""
    reference = np.asarray(reference, dtype=float)
    decoded = np.asarray(decoded, dtype=float)
    if reference.size != decoded.size:
        raise ValueError("reference and decoded lengths must match")
    whole = reference.size // SEG_LEN * SEG_LEN  # a trailing partial segment is not scored
    ref = reference[:whole].reshape(-1, SEG_LEN)
    ref_e = np.sum(ref ** 2, axis=1)
    err_e = np.sum((ref - decoded[:whole].reshape(-1, SEG_LEN)) ** 2, axis=1)
    loud = ~(ref_e < 1e-12)  # a NaN segment is scored, not skipped
    ref_e, err_e = ref_e[loud], err_e[loud]
    exact = err_e <= 0.0
    snr = np.where(exact, SNR_CEIL_DB, 10.0 * np.log10(ref_e / np.where(exact, 1.0, err_e)))
    arr = np.clip(snr, SNR_FLOOR_DB, SNR_CEIL_DB)
    mean = float(arr.mean()) if arr.size else SNR_CEIL_DB
    return SegSnrReport(per_segment_db=arr, mean_db=mean)


def _frame_energies_db(x: np.ndarray, hop: int) -> np.ndarray:
    """Energy in dB of each whole hop of ``x``, floored for silent hops."""
    e = np.sum(x[:x.size // hop * hop].reshape(-1, hop) ** 2, axis=1)
    loud = e > 1e-12
    return np.where(loud, 10.0 * np.log10(np.where(loud, e, 1.0)), ENERGY_FLOOR_DB)


def tns_domain_experiment(signal: np.ndarray,
                          cfg: CodecConfig | None = None) -> TnsComparisonReport:
    """Temporal prediction residuals of the same signal in two transform domains.

    Both tracks use sine-windowed frames at 50% overlap (analysis and
    synthesis), so each chain without filtering reconstructs the input
    exactly.  Track A runs real prediction-error filtering along MDCT
    frequency; track B runs complex filtering along one-sided DFT frequency.
    Reported per frame is the energy of each reconstructed residual signal.
    """
    cfg = cfg or CodecConfig()
    signal = np.asarray(signal, dtype=float)
    n = cfg.frame_len
    hop = n // 2
    if signal.size < 2 * n:
        raise ValueError("signal must span at least two frames")
    win = sine_window(n)
    frames = sliding_window_view(signal, n)[::hop] * win

    coeffs = mdct(frames)
    res_mdct = imdct(_freq_lp_filter(coeffs, cfg, coeffs.shape[-1] - 1)) * win
    bins = np.fft.rfft(frames)
    res_dft = np.fft.irfft(_freq_lp_filter(bins, cfg, bins.shape[-1] - 2), n=n) * win

    # the frames' overlap-add ends at the signal's last whole hop: one energy per hop
    spec = WindowSpec(n, n // 2, 0.0)
    e_mdct = _frame_energies_db(overlap_add(res_mdct, spec), hop)
    e_dft = _frame_energies_db(overlap_add(res_dft, spec), hop)
    return TnsComparisonReport(frame_energy_mdct_db=e_mdct, frame_energy_dft_db=e_dft, hop=hop)


def _freq_lp_filter(coeffs: np.ndarray, cfg: CodecConfig, stop: int) -> np.ndarray:
    """Prediction-error filtering along the frequency axis of each row with the row's
    own LP model, at the codec's CTNS order and start bin; silent rows pass through."""
    return ns.prediction_error_filter(coeffs, lp.fit(coeffs, cfg.lpc_order),
                                      cfg.ctns_start_bin, stop)


def transient_region_means(report: TnsComparisonReport, attacks, rate: int):
    """Mean per-frame residual energies over frames that overlap an attack
    or the TRANSIENT_SPAN_S seconds after it."""
    a = np.asarray(attacks)[:, None]
    f = np.arange(report.frame_energy_mdct_db.size)
    sel = ((f >= a // report.hop) & (f <= (a + TRANSIENT_SPAN_S * rate) // report.hop)).any(axis=0)
    return (float(report.frame_energy_mdct_db[sel].mean()),
            float(report.frame_energy_dft_db[sel].mean()))


def frame_diagnostics(stats) -> str:
    """CSV rows of the encoder's per-frame introspection records."""
    bands = range(len(stats[0].band_gains)) if stats else ()
    header = ["frame", "gain_db", "ctns_flag", "total_bits", "est_spectral_bits",
              "real_spectral_bits", *(f"band_gain_{b}" for b in bands),
              *(f"overflow_{b}" for b in bands)]
    return csv_text(header, ([s.index, f"{s.gain_db:.3f}", int(s.ctns_active), s.total_bits,
                              f"{s.est_spectral_bits:.2f}", f"{s.real_spectral_bits:.2f}",
                              *map(int, s.band_gains), *map(int, s.overflow)] for s in stats))
