"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured value at the pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measurements.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np

from unscodec import analysis_metrics as am
from unscodec import codec, polar_quant as pq, signals
from unscodec.config import CodecConfig
from unscodec.entropy_bitstream import StreamHeader
from unscodec.transforms import frame_signal, overlap_add

from test_codec import attack_then_sustain
from test_entropy_bitstream import band_slices, unpack_one
from test_polar_quant import table_entropy_and_mse, uniform_quantizer_mse

CFG12 = CodecConfig(mode="12k")
CFG16 = CodecConfig(mode="16k")

BUDGET_SUMS = {"12k": 199, "16k": 294}


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_perfect_reconstruction_chain():
    rng = np.random.default_rng(101)
    pcm = np.clip(0.5 * rng.standard_normal(128000), -1, 1)  # 10 s
    spec = CFG12.window_spec
    t0 = time.time()
    frames = frame_signal(pcm, spec)
    rec = overlap_add(np.fft.irfft(np.fft.rfft(frames), n=spec.frame_len), spec)[:pcm.size]
    elapsed = time.time() - t0
    seg = slice(spec.frame_len, -spec.frame_len)
    rel = float(np.sqrt(np.sum((pcm[seg] - rec[seg]) ** 2) / np.sum(pcm[seg] ** 2)))
    ok = rel < 1e-9 and elapsed < 5.0
    assert report("criterion 1 (reconstruction chain)", ok,
                  f"relative RMS {rel:.3e} (< 1e-9), runtime {elapsed:.2f} s (< 5 s)")


def test_criterion_2_quantizer_contracts():
    rng = np.random.default_rng(102)
    t0 = time.time()
    table = pq.DEFAULT_ECUPQ_TABLE
    n = 10 ** 6
    mags = np.concatenate([
        rng.uniform(0.0, 5.056, n // 4),
        rng.uniform(5.056, 8.5 ** (4.0 / 3.0), n // 4),
        rng.uniform(17.347, 25.0, n // 8),
        rng.uniform(18.0, 5000.0, n - n // 4 - n // 4 - n // 8),
    ])
    i1, i2 = pq.quantize_magnitudes(mags, table)
    rec = pq.dequantize_magnitudes(i1, i2, table)
    err = np.abs(rec - mags)

    edges = np.concatenate([[0.0], table.thresholds])
    core = i1 <= 7
    ok_core = bool(np.all(err[core] <= np.diff(edges)[i1[core]] + 1e-12))
    comp = i1 > 8
    ok_comp = bool(np.all(err[comp] <= (4.0 / 3.0) * (i1[comp] - 6 + 0.5) ** (1.0 / 3.0)))
    outl = i1 == 8
    clamped = outl & (mags < 18.0)
    ok_outl = bool(np.all(err[outl & ~clamped] <= 0.5 + 1e-9))
    ok_sliver = bool(np.all(err[clamped] <= 18.0 - 8.5 ** (4.0 / 3.0) + 1e-12))

    fix_ok = True
    for v1 in range(15):
        if v1 == 8:
            for v2 in (18, 300, 65535):
                r = pq.dequantize_magnitudes(np.array([8]), np.array([v2]), table)
                j1, j2 = pq.quantize_magnitudes(r, table)
                fix_ok &= (j1[0] == 8 and j2[0] == v2)
        else:
            r = pq.dequantize_magnitudes(np.array([v1]), np.array([0]), table)
            j1, _ = pq.quantize_magnitudes(r, table)
            fix_ok &= (int(j1[0]) == v1)

    phase_ok = True
    for cells in (4, 8, 16, 32, 64):
        theta = rng.uniform(-10.0, 10.0, 50000)
        idx = pq.quantize_phase(theta, np.full(theta.size, cells))
        back = pq.dequantize_phase(idx, np.full(theta.size, cells))
        wrapped = np.angle(np.exp(1j * theta))
        perr = np.abs(np.angle(np.exp(1j * (back - wrapped))))
        phase_ok &= bool(np.max(perr) <= np.pi / cells + 1e-12)

    elapsed = time.time() - t0
    ok = ok_core and ok_comp and ok_outl and ok_sliver and fix_ok and phase_ok and elapsed < 10.0
    assert report("criterion 2 (quantizer contracts)", ok,
                  f"core/companded/outlier bounds {ok_core}/{ok_comp}/{ok_outl}, "
                  f"clamp sliver {ok_sliver}, fixpoint {fix_ok}, phase {phase_ok}, "
                  f"runtime {elapsed:.2f} s (< 10 s)")


def test_criterion_3_table_design():
    entropy, mse = table_entropy_and_mse(pq.DEFAULT_ECUPQ_TABLE)
    uniform = uniform_quantizer_mse()
    ok = abs(entropy - 2.495) <= 0.05 and mse <= uniform
    assert report("criterion 3 (table design)", ok,
                  f"entropy {entropy:.4f} (2.495 +/- 0.05), "
                  f"MSE {mse:.5f} <= uniform {uniform:.5f}")


def test_criterion_4_ctns_switching_and_noise():
    pcm, attack = attack_then_sustain()
    cfg_fdns = replace(CFG12, ctns_enabled=False)
    blob_u, stats_u = codec.encode_stream(pcm, CFG12)
    out_u, _, flags = codec.decode_stream(blob_u, CFG12)
    out_f, _, _ = codec.decode_stream(codec.encode_stream(pcm, cfg_fdns)[0], cfg_fdns)

    spec = CFG12.window_spec
    covering = {k for k in range(len(flags))
                if k * spec.hop <= attack < k * spec.hop + spec.frame_len}
    transient_on = bool(covering & {i for i, f in enumerate(flags) if f})
    others_off = not any(f for i, f in enumerate(flags) if i not in covering)

    win = slice(attack, attack + 640)  # 50 ms at 12.8 kHz
    noise_u = float(np.sum((pcm[win] - out_u[win]) ** 2))
    noise_f = float(np.sum((pcm[win] - out_f[win]) ** 2))
    ok = transient_on and others_off and noise_u < noise_f
    assert report("criterion 4 (temporal switching)", ok,
                  f"attack frame on {transient_on}, others off {others_off}, "
                  f"post-attack noise {10 * np.log10(noise_u):.2f} dB < "
                  f"{10 * np.log10(noise_f):.2f} dB (gap "
                  f"{10 * np.log10(noise_f / noise_u):.2f} dB)")


def test_criterion_5_transform_domain_comparison():
    pcm, attacks = signals.click_train(2.5)
    rep = am.tns_domain_experiment(pcm, CFG12)
    mdct_db, dft_db = am.transient_region_means(rep, attacks, CFG12.sample_rate)
    margin = mdct_db - dft_db
    ok = margin >= 3.0
    assert report("criterion 5 (transform-domain comparison)", ok,
                  f"transient-region mean energy: MDCT {mdct_db:.2f} dB, "
                  f"DFT {dft_db:.2f} dB, margin {margin:.2f} dB (>= 3 dB)")


def exp_golomb_length(value, k=2):
    """Bit length of the order-k Exp-Golomb code of ``value``."""
    return 2 * (int(value) + (1 << k)).bit_length() - k - 1


def band_sample_entropy_bits(indices):
    """n * H(indices): the empirical entropy of the whole band as one sample."""
    c = np.bincount(np.asarray(indices, dtype=int)).astype(float)
    c = c[c > 0]
    return float(np.sum(c * np.log2(c.sum() / c)))


def coded_band_reference(blob, stats, cfg):
    """Per-frame sample-entropy reference rebuilt from the stream itself.

    Each frame is decoded; its reference is the sum over bands of
    ``n_b * H(index1_b)`` plus the frame's exact escape, phase and sign bits,
    which are recounted from the decoded fields and checked against the
    encoder's section accounting.
    """
    ctx = cfg.layout
    refs = []
    pos = StreamHeader.size()
    for s in stats:
        payload, pos = unpack_one(blob, pos, ctx)
        contrast = payload.contrast[0]
        entropy = 0.0
        raw = dict(escape=0, phase=0, sign=0)
        for b, band in enumerate(band_slices(ctx)):
            i1 = payload.index1[0, band]
            real = ctx.real_mask[band]
            entropy += band_sample_entropy_bits(i1)
            raw["escape"] += sum(exp_golomb_length(v - pq.OUTLIER_MIN)
                                 for v in payload.index2[0, band][i1 == pq.ESCAPE_INDEX])
            cells = pq.phase_cells_array(i1, bool(contrast[b]), ctx.phase_cells)
            raw["phase"] += int(np.log2(cells[~real]).sum())
            raw["sign"] += int(np.count_nonzero(i1[real] > 0))
        for key, bits in raw.items():
            assert bits == s.section_bits[key], (
                f"frame {s.index}: {key} bits {bits} recounted from the stream, "
                f"encoder accounted {s.section_bits[key]}")
        refs.append(entropy + sum(raw.values()))
    assert pos == len(blob)
    return refs


def test_criterion_6_rate_control(corpus_runs):
    lines = []
    ok_budget = True
    ok_floor = True
    slacks = {}
    for mode, cfg in (("12k", CFG12), ("16k", CFG16)):
        reals, ests, refs = [], [], []
        for item in corpus_runs[mode].values():
            refs.extend(coded_band_reference(item["blob"], item["stats"], cfg))
            for s in item["stats"]:
                reals.append(s.real_spectral_bits)
                ests.append(s.est_spectral_bits)
                if s.real_spectral_bits < s.est_spectral_bits - 16.0:
                    ok_floor = False
        mean_real = float(np.mean(reals))
        limit = 1.15 * BUDGET_SUMS[mode]
        ok_budget &= mean_real <= limit
        slacks[mode] = (sum(reals) - sum(refs)) / sum(refs)
        proxy_slack = (sum(reals) - sum(ests)) / sum(ests)
        lines.append(f"{mode}: mean payload {mean_real:.1f} bits (limit {limit:.1f}), "
                     f"slack vs band sample entropy {slacks[mode] * 100:.1f}% "
                     f"(vs block-of-4 gain-search proxy {proxy_slack * 100:.1f}%, "
                     "not asserted)")
    ok_slack = all(s < 0.10 for s in slacks.values())
    detail = "; ".join(lines) + "; floor(real >= est-16) " + str(ok_floor)
    ok = ok_budget and ok_floor and ok_slack
    report("criterion 6 (rate control)", ok, detail)
    assert ok_budget, "mean spectral payload above +15% of the budget sums"
    assert ok_floor, "real coder output beat the estimate by more than 16 bits"
    # The reference is what an ideal coder of each band's index1 histogram
    # would spend, plus the raw fields at their exact widths; the slack is
    # therefore the context-adaptive index1 coder's overhead alone.  The
    # block-of-4 gain-search cost is a relative proxy that pays nothing for
    # each block's composition, so it is reported above but not a rate anchor.
    assert ok_slack, (
        f"real coder is not within 10% of the coded bands' sample entropy "
        f"(sum over bands of n_b * H(index1_b) plus exact escape, phase and "
        f"sign bits): slack {slacks}")


def test_criterion_7_rate_quality_monotonicity(corpus_runs):
    rows = []
    ok = True
    for name in corpus_runs["12k"]:
        lo = am.seg_snr(corpus_runs["12k"][name]["pcm"], corpus_runs["12k"][name]["out"]).mean_db
        hi = am.seg_snr(corpus_runs["16k"][name]["pcm"], corpus_runs["16k"][name]["out"]).mean_db
        ok &= hi >= lo
        rows.append(f"{name} {lo:.2f}->{hi:.2f}")
    assert report("criterion 7 (rate-quality monotonicity)", ok, ", ".join(rows))


GOLDEN_INPUT_SECONDS = 1.5
GOLDEN_SHA256 = "e4672360db19bb08757a56ec6557924ab3602c562caf88baaddda6d628a31fc7"


def golden_input():
    pcm, _ = signals.click_train(GOLDEN_INPUT_SECONDS, seed=77)
    return pcm + signals.tone(397.0, GOLDEN_INPUT_SECONDS, 0.25)


def test_criterion_8_bitstream_determinism(corpus_runs):
    pcm = golden_input()
    a, _ = codec.encode_stream(pcm, CFG12)
    b, _ = codec.encode_stream(pcm, CFG12)
    out1, _, _ = codec.decode_stream(a, CFG12)
    out2, _, _ = codec.decode_stream(a, CFG12)
    digest = hashlib.sha256(a).hexdigest()
    ok = (a == b) and np.array_equal(out1, out2) and digest == GOLDEN_SHA256
    assert report("criterion 8 (bitstream determinism)", ok,
                  f"re-encode byte-exact {a == b}, re-decode exact "
                  f"{np.array_equal(out1, out2)}, golden sha256 "
                  f"{digest[:16]}... {'==' if digest == GOLDEN_SHA256 else '!='} pinned")


# SHA-256 of every stream the corpus fixture encodes: the gain search and the
# coders may get faster, but must not change a byte of the corpus silently
CORPUS_SHA256 = {
    ("12k", "harmonic_low"):
        "44721d01bd30097704cfdf761dfbdaefeb90da2fa068b5b56d7b166dbb8b88cb",
    ("12k", "harmonic_high"):
        "35037602c48de1100137b63e4141eea56c29eec0803035f35cf077e066d93d63",
    ("12k", "speechish"):
        "b6ec4d8df0a2b6b256b96082027190cce78558c4caa23640508a577f3e5d08aa",
    ("12k", "castanet"):
        "ac3e83b84593a8cc545b59b6b2930897b71ea33e2e38d328975487064de73414",
    ("12k", "organ_chord"):
        "669f2f6ead923685e065fb4d470693fbdf6e3291190a1da1cc2d6a32daa8fe8c",
    ("16k", "harmonic_low"):
        "65d219d872e7ab530f9b17f44fb8a2902e6d7ea45f48fbfc7399584432a26230",
    ("16k", "harmonic_high"):
        "5440b754085562b4f82d4044ac4b66135241bcc0ace3fdb6e88d875ee93b5be4",
    ("16k", "speechish"):
        "54d80a4be261015d6266be46e555431211fd5dd4e906daf7a23a95336dc28e2e",
    ("16k", "castanet"):
        "30c11a66c8d2c6e08a7e1866ad6ef6cae9f7a814ba27e0be6a6a71224a328a67",
    ("16k", "organ_chord"):
        "23095ad7415735cfd1e222f8db7ebadd0148468202727b77b03376b8192b6705",
}


def test_corpus_bitstreams_pinned(corpus_runs):
    digests = {(mode, name): hashlib.sha256(item["blob"]).hexdigest()
               for mode, items in corpus_runs.items() for name, item in items.items()}
    changed = sorted(key for key in CORPUS_SHA256 | digests
                     if digests.get(key) != CORPUS_SHA256.get(key))
    assert report("corpus bitstreams pinned", not changed,
                  f"{len(CORPUS_SHA256)} pinned, changed or missing: {changed}")


# SHA-256 of the PCM the corpus fixture decodes from each stream (``out.tobytes()``):
# the decoder may get faster, but must not change a sample of it silently
CORPUS_PCM_SHA256 = {
    ("12k", "harmonic_low"):
        "4a271db5c513de06a4ee41dfb229aad1f13028a46ea587f71a953732dad7c36b",
    ("12k", "harmonic_high"):
        "7c325c8548ef7cec40430b655820731c4c3d71114089b22f009ee586f7cc3e00",
    ("12k", "speechish"):
        "975aa070c11d44c3f2f340a0a690b3a8b4bb78ae7a873d5edfe221555d82ff91",
    ("12k", "castanet"):
        "544d7670caaf6307c0aa2d7110a56c97c7ac1c7e96d67999f6d0f9ac8a5a42c4",
    ("12k", "organ_chord"):
        "b51c029319f48cbeaa61c16329c12c674dbb22f4c2d912a711cc1f5ebd0d0b84",
    ("16k", "harmonic_low"):
        "6c2dc624c879c2139c49e0ec23a37e23bec78e30397262a66ab4e559555b694b",
    ("16k", "harmonic_high"):
        "66e91b8cf232489f8a8b421f144bfc3408c8d617654584c7aa199bd4e584a246",
    ("16k", "speechish"):
        "dd3b18f9ebe1162d669258edd7b8aa1f73cf9d5bb2046f1c4b95c5765b051354",
    ("16k", "castanet"):
        "bb2df16a2b2b45fde93a2b5f71c41f6b39b0bec1472622f3a9044dd596ae783c",
    ("16k", "organ_chord"):
        "87ab898b4ae2a603127ec2082d131022662e887ebb52989589573dff1a7687dc",
}


def test_corpus_decoded_pcm_pinned(corpus_runs):
    digests = {(mode, name): hashlib.sha256(item["out"].tobytes()).hexdigest()
               for mode, items in corpus_runs.items() for name, item in items.items()}
    changed = sorted(key for key in CORPUS_PCM_SHA256 | digests
                     if digests.get(key) != CORPUS_PCM_SHA256.get(key))
    assert report("corpus decoded PCM pinned", not changed,
                  f"{len(CORPUS_PCM_SHA256)} pinned, changed or missing: {changed}")


# SHA-256 of the gain search's per-frame outputs on the corpus fixture, which
# never reach the stream bytes: each frame's est_spectral_bits, band gains and
# overflow flags as float.hex, one line a frame, "12k" then "16k", in corpus order
CORPUS_SEARCH_SHA256 = "5e41668b3b8bf5d9c1347d28962e3519a5c8c1f7636c44aeb9046797222a7eeb"


def test_corpus_search_outputs_pinned(corpus_runs):
    digest = hashlib.sha256()
    for items in corpus_runs.values():
        for item in items.values():
            for s in item["stats"]:
                values = [s.est_spectral_bits, *s.band_gains.tolist(), *s.overflow.tolist()]
                digest.update(" ".join(float(v).hex() for v in values).encode() + b"\n")
    assert report("corpus gain-search outputs pinned",
                  digest.hexdigest() == CORPUS_SEARCH_SHA256, f"sha256 {digest.hexdigest()[:16]}...")


# SHA-256 of every frame's section costs and coded totals on the corpus fixture: its
# section_bits as "key:type:float.hex" in key order, then total_bits, gain_db as float.hex
# and ctns_active, one line a frame, "12k" then "16k", in corpus order
CORPUS_STATS_SHA256 = "0f4eed51074b582cfb3604c62bbe81211db9bc1eda6d8e90e000c856bd077008"


def test_corpus_frame_stats_pinned(corpus_runs):
    digest = hashlib.sha256()
    for items in corpus_runs.values():
        for item in items.values():
            for s in item["stats"]:
                sections = " ".join(f"{k}:{type(v).__name__}:{float(v).hex()}"
                                    for k, v in s.section_bits.items())
                line = f"{sections} {s.total_bits} {float(s.gain_db).hex()} {s.ctns_active}"
                digest.update(line.encode() + b"\n")
    assert report("corpus frame stats pinned",
                  digest.hexdigest() == CORPUS_STATS_SHA256, f"sha256 {digest.hexdigest()[:16]}...")


def test_config_defaults_snapshot():
    """Every numeric default the codec relies on, pinned in one place."""
    cfg = CodecConfig()
    assert cfg.sample_rate == 12800
    assert cfg.frame_len == 1024
    assert cfg.overlap_len == 256
    assert cfg.band_edges == (40, 90, 140, 200, 260, 330, 410, 512)
    assert cfg.bits_12k == (45, 34, 30, 23, 19, 16, 16, 16)
    assert cfg.bits_16k == (67, 50, 45, 34, 29, 23, 23, 23)
    assert cfg.lpc_order == 16
    assert cfg.fdns_weight == 0.98
    assert cfg.ctns_weight == 0.9
    assert cfg.ctns_threshold_db == -4.5
    assert cfg.ctns_start_bin == 25
    assert cfg.fer_threshold == 0.125
    assert cfg.phase_cells_high == (1, 8, 16, 16, 32, 32, 64, 64)
    assert cfg.phase_cells_low == (1, 4, 8, 8, 16, 16, 32, 32)
    assert cfg.ecupq.thresholds[-1] == 5.056
    assert cfg.ecupq.design_rate == 2.495
    assert abs(cfg.lsf_step - 0.01 * np.pi) < 1e-15
    assert cfg.clpc_mag_step_db == 0.5
    assert cfg.clpc_mag_floor_db == -60.0
    assert cfg.clpc_mag_ceil_db == 20.0
    assert cfg.clpc_phase_cells == 64
