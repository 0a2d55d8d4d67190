import csv
import io

import numpy as np
import pytest

from unscodec import analysis_metrics as am
from unscodec import codec, signals
from unscodec.config import CodecConfig


def test_seg_snr_identical_signals():
    x = np.sin(np.arange(4096) * 0.01)
    rep = am.seg_snr(x, x.copy())
    assert np.all(rep.per_segment_db == 35.0)
    assert rep.mean_db == 35.0


def test_seg_snr_zero_decoded():
    x = np.sin(np.arange(4096) * 0.01) + 0.5
    rep = am.seg_snr(x, np.zeros_like(x))
    assert np.allclose(rep.per_segment_db, 0.0, atol=1e-12)


def test_seg_snr_rejects_length_mismatch():
    with pytest.raises(ValueError):
        am.seg_snr(np.zeros(100), np.zeros(99))


def test_seg_snr_skips_silent_segments():
    x = np.zeros(1024)
    x[512:] = 1.0
    rep = am.seg_snr(x, x + 1e-3)
    assert rep.per_segment_db.size == 2  # only the two loud segments count


def test_seg_snr_monte_carlo_noise_floor():
    rng = np.random.default_rng(60)
    x = rng.standard_normal(64000)
    noise = rng.standard_normal(64000)
    noise *= 10 ** (-20.0 / 20.0) * np.sqrt(np.sum(x ** 2) / np.sum(noise ** 2))
    rep = am.seg_snr(x, x + noise)
    assert abs(rep.mean_db - 20.0) < 0.5


def test_seg_snr_scale_invariance():
    rng = np.random.default_rng(61)
    x = rng.standard_normal(8192)
    y = x + 0.1 * rng.standard_normal(8192)
    a = am.seg_snr(x, y).mean_db
    b = am.seg_snr(3.7 * x, 3.7 * y).mean_db
    assert abs(a - b) < 1e-9


def test_seg_snr_clamps_floor():
    x = np.sin(np.arange(2048) * 0.3)
    rep = am.seg_snr(x, -5.0 * x)  # error energy far above signal
    assert np.all(rep.per_segment_db == -10.0)


def seg_snr_loop(reference, decoded):
    """The per-segment loop seg_snr replaced, kept as its reference."""
    values = []
    for s in range(0, reference.size - am.SEG_LEN + 1, am.SEG_LEN):
        ref = reference[s:s + am.SEG_LEN]
        err = ref - decoded[s:s + am.SEG_LEN]
        ref_e = float(np.sum(ref ** 2))
        if ref_e < 1e-12:
            continue
        err_e = float(np.sum(err ** 2))
        snr = am.SNR_CEIL_DB if err_e <= 0.0 else 10.0 * np.log10(ref_e / err_e)
        values.append(float(np.clip(snr, am.SNR_FLOOR_DB, am.SNR_CEIL_DB)))
    return values


def test_seg_snr_matches_the_segment_loop():
    # silent, exact, clamped and trailing-partial segments, and a codec decode
    rng = np.random.default_rng(62)
    x = rng.standard_normal(10 * am.SEG_LEN + 100)
    y = x + 0.05 * rng.standard_normal(x.size)
    x[am.SEG_LEN:2 * am.SEG_LEN] = 0.0                  # silent
    y[3 * am.SEG_LEN:4 * am.SEG_LEN] = x[3 * am.SEG_LEN:4 * am.SEG_LEN]  # exact
    y[5 * am.SEG_LEN:6 * am.SEG_LEN] *= -4.0            # below the floor
    pcm, _ = signals.click_train(1.0)
    blob, _ = codec.encode_stream(pcm, CodecConfig())
    decoded = codec.decode_stream(blob, CodecConfig())[0]
    for ref, dec in ((x, y), (x[:am.SEG_LEN - 1], y[:am.SEG_LEN - 1]), (pcm, decoded)):
        rep = am.seg_snr(ref, dec)
        assert rep.per_segment_db.tolist() == seg_snr_loop(ref, dec)
    assert am.seg_snr(x, y).per_segment_db.size == 9
    assert am.seg_snr(x[:am.SEG_LEN - 1], y[:am.SEG_LEN - 1]).mean_db == am.SNR_CEIL_DB


def test_tns_experiment_zero_signal():
    rep = am.tns_domain_experiment(np.zeros(8192))
    assert np.all(rep.frame_energy_mdct_db == -120.0)
    assert np.all(rep.frame_energy_dft_db == -120.0)


def test_tns_experiment_rejects_short_signal():
    with pytest.raises(ValueError):
        am.tns_domain_experiment(np.zeros(1500))


def test_tns_experiment_order_zero_tracks_identical(monkeypatch):
    # interior frames only: the outermost frames have no overlap partner, so
    # the two transforms differ there even without any filtering
    monkeypatch.setattr(am, "_freq_lp_filter", lambda coeffs, cfg, stop: coeffs)
    pcm, _ = signals.click_train(1.2)
    rep = am.tns_domain_experiment(pcm)
    assert np.allclose(rep.frame_energy_mdct_db[1:-1],
                       rep.frame_energy_dft_db[1:-1], atol=1e-9)
    raw = am._frame_energies_db(pcm, rep.hop)
    n = min(raw.size, rep.frame_energy_mdct_db.size)
    assert np.allclose(rep.frame_energy_mdct_db[1:n - 1], raw[1:n - 1], atol=1e-6)


def test_tns_experiment_stationary_tone_tracks_close():
    # tone below the filtered region: neither track predicts anything there
    pcm = signals.tone(250.0, 2.0, 0.7)
    rep = am.tns_domain_experiment(pcm)
    a = rep.frame_energy_mdct_db[2:-2].mean()
    b = rep.frame_energy_dft_db[2:-2].mean()
    assert abs(a - b) < 3.0


def test_tns_experiment_castanet_direction():
    pcm, attacks = signals.click_train(2.5)
    rep = am.tns_domain_experiment(pcm)
    m, d = am.transient_region_means(rep, attacks, 12800)
    assert m > d
    # an attack whose span runs past the last frame counts the frames it has,
    # once each even where spans overlap
    last = rep.frame_energy_mdct_db.size - 1
    sel = [2, 3, 4, last - 1, last]
    late = [2 * rep.hop, 2 * rep.hop + 10, (last - 1) * rep.hop]
    assert am.transient_region_means(rep, late, 2.5 * rep.hop / am.TRANSIENT_SPAN_S) == (
        float(rep.frame_energy_mdct_db[sel].mean()), float(rep.frame_energy_dft_db[sel].mean()))


def test_tns_report_csv_shape():
    pcm, _ = signals.click_train(1.2)
    rep = am.tns_domain_experiment(pcm)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "frame,energy_mdct_db,energy_dft_db"
    assert len(lines) == rep.frame_energy_mdct_db.size + 1


def test_frame_diagnostics_matches_decoded_flags():
    cfg = CodecConfig(mode="12k")
    pcm, _ = signals.click_train(1.5)
    blob, stats = codec.encode_stream(pcm, cfg)
    _, _, flags = codec.decode_stream(blob, cfg)
    csv_text = am.frame_diagnostics(stats)
    rows = csv_text.strip().splitlines()[1:]
    assert len(rows) == len(flags)
    for row, flag in zip(rows, flags):
        fields = row.split(",")
        assert int(fields[2]) == int(flag)
        # flag consistency with the threshold
        assert (float(fields[1]) > cfg.ctns_threshold_db) == bool(int(fields[2]))


def test_frame_diagnostics_reports_overflow():
    # a 1-bit budget that the low band of a click train at 100x full scale
    # cannot meet even at the coarsest gain: the snap flags the band, and
    # the CSV carries the flag next to the band's gain
    cfg = CodecConfig(mode="12k", bits_12k=(1,) + CodecConfig().bits_12k[1:])
    pcm, _ = signals.click_train(1.0)
    _, stats = codec.encode_stream(100.0 * pcm, cfg)
    rows = list(csv.DictReader(io.StringIO(am.frame_diagnostics(stats))))
    bands = range(len(cfg.band_edges))
    for row, s in zip(rows, stats):
        assert [int(row[f"overflow_{b}"]) for b in bands] == s.overflow.astype(int).tolist()
        assert [int(row[f"band_gain_{b}"]) for b in bands] == s.band_gains.tolist()
    flagged = [row for row in rows if row["overflow_0"] == "1"]
    assert flagged and all(row["band_gain_0"] == "60" for row in flagged)


def test_silence_stream_all_flags_off():
    cfg = CodecConfig(mode="12k")
    _, stats = codec.encode_stream(np.zeros(12800), cfg)
    csv_text = am.frame_diagnostics(stats)
    for row in csv_text.strip().splitlines()[1:]:
        assert row.split(",")[2] == "0"


def test_raised_threshold_disables_all_frames():
    from dataclasses import replace
    cfg = replace(CodecConfig(mode="12k"), ctns_threshold_db=20.0)
    pcm, _ = signals.click_train(1.5)
    _, stats = codec.encode_stream(pcm, cfg)
    assert not any(s.ctns_active for s in stats)
