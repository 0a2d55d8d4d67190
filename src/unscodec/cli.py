"""Command-line interface: encode, decode, analyze, tns-compare, design-ecupq."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis_metrics as am
from . import codec, signals
from .config import CodecConfig, load_config, save_config
from .polar_quant import design_ecupq_table
from .resample import resample_to_core
from .wavio import read_wav, write_wav

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROCESSING = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _load_cfg(args, mode=None) -> CodecConfig:
    cfg = load_config(args.config) if args.config else CodecConfig()
    return cfg.with_mode(mode) if mode else cfg


def _read_core_audio(path: str) -> np.ndarray:
    return np.clip(resample_to_core(*read_wav(path)), -1.0, 1.0)


def _kbps(nbytes: int, samples: int, rate: int) -> float:
    return 8.0 * nbytes * rate / max(1, samples) / 1000.0


def _write_report(report_dir: str, name: str, text: str, label: str):
    """Write one report file into ``report_dir``, made if missing, and say where."""
    os.makedirs(report_dir, exist_ok=True)
    path = os.path.join(report_dir, name)
    with open(path, "w", newline="") as f:
        f.write(text)
    print(f"{label} -> {path}")


def _cmd_encode(args) -> int:
    cfg = _load_cfg(args, mode=args.mode)
    pcm = _read_core_audio(args.input)
    if args.debug_bypass:
        recon = codec.shaping_roundtrip(pcm, cfg)
        write_wav(args.output, recon, cfg.sample_rate)
        print(f"debug bypass: wrote reconstructed audio to {args.output}")
        return EXIT_OK
    blob, stats = codec.encode_stream(pcm, cfg)
    with open(args.output, "wb") as f:
        f.write(blob)
    print(f"encoded {len(stats)} frames in {cfg.mode} mode, {len(blob)} bytes "
          f"({_kbps(len(blob), pcm.size, cfg.sample_rate):.2f} kbit/s) -> {args.output}")
    if args.report_dir:
        _write_report(args.report_dir, "frame_diagnostics.csv", am.frame_diagnostics(stats),
                      "diagnostics")
    return EXIT_OK


def _cmd_decode(args) -> int:
    cfg = _load_cfg(args)
    with open(args.input, "rb") as f:
        blob = f.read()
    pcm, header, _flags = codec.decode_stream(blob, cfg)
    write_wav(args.output, pcm, header.sample_rate_hz)
    print(f"decoded {pcm.size} samples at {header.sample_rate_hz} Hz in {header.mode} mode "
          f"({_kbps(len(blob), pcm.size, header.sample_rate_hz):.2f} kbit/s) -> {args.output}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    ref = _read_core_audio(args.reference)
    dec = resample_to_core(*read_wav(args.decoded))
    n = min(ref.size, dec.size)
    report = am.seg_snr(ref[:n], dec[:n])
    print(f"segSNR mean: {report.mean_db:.2f} dB over {report.per_segment_db.size} segments")
    if args.report_dir:
        _write_report(args.report_dir, "segsnr.csv", report.to_csv(), "report")
    return EXIT_OK


def _cmd_tns_compare(args) -> int:
    cfg = _load_cfg(args)
    pcm, attacks = (_read_core_audio(args.input), None) if args.input else signals.click_train(2.5)
    report = am.tns_domain_experiment(pcm, cfg)
    _write_report(args.report_dir, "tns_compare.csv", report.to_csv(),
                  "per-frame residual energies")
    if attacks:
        m, d = am.transient_region_means(report, attacks, cfg.sample_rate)
        print(f"transient-region mean energy: MDCT {m:.2f} dB, DFT {d:.2f} dB")
    return EXIT_OK


def _cmd_design_ecupq(args) -> int:
    table = design_ecupq_table(rate_target=args.rate)
    cfg = CodecConfig(ecupq=table)
    save_config(cfg, args.output)
    print(f"designed table (rate {table.design_rate}) -> {args.output}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="unscodec",
                     description="Low-bit-rate DFT-domain audio codec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a WAV file to a .uns bitstream")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--mode", choices=["12k", "16k"], required=True)
    p.add_argument("--config")
    p.add_argument("--report-dir")
    p.add_argument("--debug-bypass", action="store_true",
                   help="run the shaping chain without quantization and write the "
                        "reconstruction as WAV instead of a bitstream")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a .uns bitstream to WAV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("analyze", help="segmental SNR between reference and decoded audio")
    p.add_argument("reference")
    p.add_argument("decoded")
    p.add_argument("--report-dir")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tns-compare",
                       help="MDCT-vs-DFT temporal prediction residual experiment")
    p.add_argument("input", nargs="?")
    p.add_argument("--report-dir", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_tns_compare)

    p = sub.add_parser("design-ecupq", help="redesign the magnitude quantizer table")
    p.add_argument("output")
    p.add_argument("--rate", type=float, default=2.495)
    p.set_defaults(func=_cmd_design_ecupq)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
