"""Codec benchmark: real-time factor, per-stream latency, rate and quality.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus_encode --seed 0 --seconds 15 --trace 0

The codec is used only through ``codec.encode_stream`` and
``codec.decode_stream`` and receives only the generated PCM or streams.  Every
output is verified before its time counts.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's context and details, which are
also written to ``perfbench/results/``.  Workloads and metrics are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

T_START = time.perf_counter()
# one process, one thread: pin the numeric libraries before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "unscodec" / "__init__.py").is_file():
    sys.exit(f"perfbench: no codec source at {SRC / 'unscodec'}; "
             "run from the root of a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import unscodec  # noqa: E402
from unscodec import codec, signals  # noqa: E402
from unscodec.analysis_metrics import SNR_FLOOR_DB, seg_snr  # noqa: E402
from unscodec.config import CodecConfig  # noqa: E402

import layertrace  # noqa: E402

if not Path(unscodec.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported unscodec from {unscodec.__file__}, not from {SRC}")

IMPORT_S = time.perf_counter() - T_START

RATE = 12800
MODES = ("12k", "16k")
CORPUS_SECONDS = 30.0
N_CLIPS = 100
QUALITY_CLIPS = 20          # clips whose rate and segSNR are scored
SETUP_REPS = 3              # set-ups per run; setup_s is their median
# pinned by tests/test_acceptance.py::test_criterion_8_bitstream_determinism
GOLDEN_SHA256 = "e4672360db19bb08757a56ec6557924ab3602c562caf88baaddda6d628a31fc7"
RESULTS = ROOT / "perfbench" / "results"
# Timings are given at a reference speed.  On a shared virtual machine CPU
# speed can drift by up to 1.8x over tens of seconds, so while a run measures,
# a timer signal times a fixed piece of codec-independent work every
# SAMPLE_EVERY_S seconds; an interval's time is scaled by CALIB_REF_S over the
# mean sample around it (see Speedometer.measure).
CALIB_REF_S = 0.0005
SAMPLE_EVERY_S = 0.01
_CAL_POLY = np.poly(0.9 * np.exp(1j * np.linspace(0.3, 2.9, 16))).real
_CAL_FRAME = np.sin(0.01 * np.arange(1024.0) ** 1.5)

END_TO_END = (
    ("setup_s", "s"),
    ("rtf", "s/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("kbps", "kbit/s"),
    ("segsnr_margin_db", "dB"),
    ("peak_rss_mb", "MB"),
)


def _calibration_work():
    """A fixed mix of interpreted Python and small numpy calls (FFT,
    polynomial roots), independent of the codec."""
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(10):
        np.abs(np.fft.rfft(_CAL_FRAME)).argmax()
    np.roots(_CAL_POLY)


class Speedometer:
    """Samples the machine's speed from a timer signal while a run measures.

    The signal handler runs in the main thread, between two bytecodes of
    whatever is being measured, so a sample never straddles the edge of a
    timed interval and its duration can be taken out of the interval again.
    """

    def __init__(self):
        self.starts, self.ends = [], []
        self._busy = False
        self._previous = None

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _calibration_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0: float, t1: float) -> tuple:
        """(measured, scaled) seconds of [t0, t1] without the samples inside it.

        The scale is CALIB_REF_S over the mean sample from SAMPLE_EVERY_S
        before t0 to SAMPLE_EVERY_S after t1, each sample capped at twice the
        median so that an interrupt does not count as slowness.  The mean, not
        the median, because the machine flips between a fast and a slow state
        within milliseconds and an interval's time follows the mix of both.
        """
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        net = t1 - t0 - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        lo = bisect.bisect_left(self.starts, t0 - SAMPLE_EVERY_S)
        hi = bisect.bisect_left(self.starts, t1 + SAMPLE_EVERY_S)
        if lo == hi:  # nothing close: the nearest sample on either side
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.starts))
        near = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        cap = 2.0 * statistics.median(near)
        return net, net * CALIB_REF_S / statistics.fmean(min(d, cap) for d in near)


class VerifyError(Exception):
    """An operation returned output that fails the benchmark's checks."""


@dataclass
class Op:
    """One codec operation of a workload, with its reference outputs."""

    label: str
    cfg: CodecConfig
    pcm: np.ndarray
    blob: bytes | None = None        # reference stream
    out: np.ndarray | None = None    # reference decode

    @property
    def audio_s(self) -> float:
        return self.pcm.size / RATE


def _check_pcm(out: np.ndarray, length: int):
    if out.shape != (length,):
        raise VerifyError(f"decoded {out.shape} samples, expected ({length},)")
    if not np.all(np.isfinite(out)):
        raise VerifyError("decoded samples are not all finite")


def encode_op(op: Op):
    """Time one encode; returns (start, end, frames, CTNS-active frames).

    The first encode of an op is decoded (untimed) and becomes the reference;
    later ones must repeat it byte for byte."""
    t0 = time.perf_counter()
    blob, stats = codec.encode_stream(op.pcm, op.cfg)
    t1 = time.perf_counter()
    if op.blob is None:
        out, _, _ = codec.decode_stream(blob, op.cfg)
        _check_pcm(out, op.pcm.size)
        op.blob, op.out = blob, out
    elif blob != op.blob:
        raise VerifyError("re-encode is not byte-exact")
    return t0, t1, len(stats), sum(s.ctns_active for s in stats)


def decode_op(op: Op):
    """Time one decode of the reference stream; it must match the reference decode."""
    t0 = time.perf_counter()
    out, _, flags = codec.decode_stream(op.blob, op.cfg)
    t1 = time.perf_counter()
    _check_pcm(out, op.pcm.size)
    if not np.array_equal(out, op.out):
        raise VerifyError("decode differs from the reference decode")
    return t0, t1, len(flags), sum(flags)


def roundtrip_op(op: Op):
    """Time one encode plus decode of a clip as its own stream."""
    t0 = time.perf_counter()
    blob, stats = codec.encode_stream(op.pcm, op.cfg)
    out, _, _ = codec.decode_stream(blob, op.cfg)
    t1 = time.perf_counter()
    _check_pcm(out, op.pcm.size)
    if op.blob is None:
        op.blob, op.out = blob, out
    elif blob != op.blob or not np.array_equal(out, op.out):
        raise VerifyError("repeated round trip is not exact")
    return t0, t1, len(stats), sum(s.ctns_active for s in stats)


# workload -> (modes, timed operation, streams prepared during set-up)
WORKLOADS = {
    # gain search dominates; pack runs, no decode layer does
    "corpus_encode": (MODES, encode_op, False),
    # unpack and synthesis dominate; gain search does no work at all
    "corpus_decode": (MODES, decode_op, True),
    # short voice messages: per-stream fixed costs and silent frames weigh more
    "voice_clips": (("12k",), roundtrip_op, False),
}


def corpus_items(seed: int) -> dict:
    """``signals.mixed_corpus`` exactly at seed 0; other seeds re-draw its
    seeded items (speechish, castanet)."""
    items = signals.mixed_corpus(CORPUS_SECONDS)
    if seed:
        per = CORPUS_SECONDS / 5.0
        s_speech, s_click = np.random.SeedSequence(seed).generate_state(2)
        items["speechish"] = signals.speechish(per, seed=int(s_speech))
        items["castanet"] = signals.click_train(per, seed=int(s_click))[0]
    return items


def voice_clips(seed: int) -> list:
    """Clips of 0.3-1.5 s speechish talk between a silent lead-in and tail of
    0.05-0.3 s each; every third clip carries a click burst.  The lengths do
    not depend on the seed and follow low-discrepancy sequences, so every
    prefix of the list spreads evenly over the length ranges and runs that
    time different numbers of clips see the same mix; the seed draws the
    talk and the bursts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    clips = []
    for k in range(N_CLIPS):
        talk = 0.3 + 1.2 * (k * 0.6180339887498949 % 1.0)
        lead = 0.05 + 0.25 * (k * 0.4142135623730951 % 1.0)
        tail = 0.05 + 0.25 * (k * 0.7320508075688772 % 1.0)
        x = signals.speechish(talk, seed=int(rng.integers(2 ** 31)))
        if k % 3 == 0:
            x = x + signals.click_train(talk, period_s=talk, amp=0.4,
                                        seed=int(rng.integers(2 ** 31)),
                                        start_s=rng.uniform(0.0, talk - 0.1))[0]
        clips.append(np.concatenate([np.zeros(int(lead * RATE)), x,
                                     np.zeros(int(tail * RATE))]))
    return clips


def make_ops(workload: str, seed: int) -> list:
    cfgs = {mode: CodecConfig(mode=mode) for mode in MODES}
    if workload == "voice_clips":
        return [Op(f"12k/clip{k:03d}", cfgs["12k"], pcm)
                for k, pcm in enumerate(voice_clips(seed))]
    return [Op(f"{mode}/{name}", cfgs[mode], pcm)
            for name, pcm in corpus_items(seed).items() for mode in MODES]


def golden_digest() -> str:
    """SHA-256 of the 12k stream of the pinned golden input."""
    pcm = signals.click_train(1.5, seed=77)[0] + signals.tone(397.0, 1.5, 0.25)
    blob, _ = codec.encode_stream(pcm, CodecConfig(mode="12k"))
    return hashlib.sha256(blob).hexdigest()


def common_setup(workload: str, seed: int):
    """Input generation, golden check and warm-up; returns (ops, digest, timings)
    with ``setup_s``, the scaled set-up time of this process, imports included."""
    with Speedometer() as meter:
        t0 = time.perf_counter()
        ops = make_ops(workload, seed)
        t1 = time.perf_counter()
        digest = golden_digest()
        t2 = time.perf_counter()
        for mode in WORKLOADS[workload][0]:
            cfg = CodecConfig(mode=mode)
            codec.decode_stream(codec.encode_stream(signals.speechish(0.5, seed=1), cfg)[0],
                                cfg)
        t3 = time.perf_counter()
        meter.sample()
    net, scaled = meter.measure(t0, t3)
    return ops, digest, {"import_s": IMPORT_S, "inputs_s": t1 - t0, "golden_s": t2 - t1,
                         "warmup_s": t3 - t2, "raw_s": IMPORT_S + net,
                         "setup_s": scaled * (IMPORT_S + net) / net}


def probe_setup(workload: str, seed: int) -> float:
    """Scaled set-up time of a fresh process, imports included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Tally:
    """Outcome of the operations a run attempted."""

    attempted: int = 0
    failed: int = 0
    times: dict = field(default_factory=lambda: defaultdict(list))  # scaled s
    audio_s: float = 0.0
    frames: int = 0
    active_frames: int = 0
    timed_s: float = 0.0     # scaled timed seconds
    raw_s: float = 0.0       # measured timed seconds
    wall_s: float = 0.0      # scaled seconds of whole calls, checks included
    samples: list = field(default_factory=list)  # speed samples, (start, end)
    errors: list = field(default_factory=list)

    def absorb(self, other: "Tally"):
        """Take over another tally's operation counts and errors."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def fail(self, label: str, exc: BaseException):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {exc!r}")
            traceback.print_exception(exc, file=sys.stderr)


def run_ops(run_op, ops: list, seconds: float, tally: Tally, min_ops: int,
            tracer=None) -> list:
    """Closed loop with one caller: run ``ops`` round-robin, each after the
    previous one finished, until ``seconds`` have been spent and at least
    ``min_ops`` were attempted.  A failed operation is counted, not timed."""
    done, timed = [], []
    spent = 0.0
    with Speedometer() as meter:
        while ops and (spent < seconds or len(done) < min_ops):
            op = ops[len(done) % len(ops)]
            if tracer is not None:
                tracer.op = op.label
            tally.attempted += 1
            call_t0 = time.perf_counter()
            try:
                t0, t1, frames, active = run_op(op)
            except Exception as exc:  # the run goes on; the failure is reported
                tally.fail(op.label, exc)
                spent += time.perf_counter() - call_t0
            else:
                spent += t1 - t0
                timed.append((op, t0, t1, call_t0, time.perf_counter(), frames, active))
            done.append(op)
        meter.sample()
    tally.samples += zip(meter.starts, meter.ends)
    for op, t0, t1, call_t0, call_t1, frames, active in timed:
        raw, scaled = meter.measure(t0, t1)
        tally.times[op.label].append(scaled)
        tally.timed_s += scaled
        tally.raw_s += raw
        tally.wall_s += meter.measure(call_t0, call_t1)[1]
        tally.audio_s += op.audio_s
        tally.frames += frames
        tally.active_frames += active
    return done


def timing_metrics(tally: Tally, ops: list) -> tuple:
    """(rtf, p50 ms, p90 ms) from each op's median time; 0 when nothing succeeded."""
    medians = {label: statistics.median(ts) for label, ts in tally.times.items()}
    if not medians:
        return 0.0, 0.0, 0.0
    audio = {op.label: op.audio_s for op in ops}
    rtf = sum(audio[label] for label in medians) / sum(medians.values())
    p50, p90 = np.percentile([1e3 * t for t in medians.values()], [50, 90])
    return rtf, float(p50), float(p90)


def quality(ops: list) -> dict:
    """Rate from stream bytes (header and frame prefixes included) and mean
    segSNR, over all scored ops and per mode."""
    def score(group):
        audio = sum(op.audio_s for op in group)
        frames = sum(len(codec.frame_signal(op.pcm, op.cfg.window_spec)) for op in group)
        nbytes = sum(len(op.blob) for op in group)
        return {
            "kbps": 8e-3 * nbytes / audio,
            "segsnr_db": statistics.fmean(seg_snr(op.pcm, op.out).mean_db for op in group),
            "frame_bits": 8 * (nbytes - len(group) * codec.StreamHeader.size()) / frames,
            "streams": len(group),
            "audio_s": audio,
        }
    scored = [op for op in ops if op.out is not None]
    if not scored:
        return {"kbps": 0.0, "segsnr_db": 0.0}
    out = score(scored)
    for mode in sorted({op.cfg.mode for op in scored}):
        out[mode] = score([op for op in scored if op.cfg.mode == mode])
    return out


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result, details)."""
    _, run_op, prepared = WORKLOADS[workload]
    tally = Tally()      # timed operations
    untimed = Tally()    # golden check, stream preparation, scoring

    # --- set-up: inputs, golden check, warm-up, then the workload's streams
    ops, digest, setup = common_setup(workload, seed)
    setup_runs = [setup["setup_s"]]
    untimed.attempted += 1
    if digest != GOLDEN_SHA256:
        untimed.fail("golden", VerifyError(f"golden stream sha256 {digest} "
                                           f"!= {GOLDEN_SHA256}"))
    if not trace:
        setup_runs += [probe_setup(workload, seed) for _ in range(SETUP_REPS - 1)]
    prep = Tally()
    if prepared:
        run_ops(encode_op, ops, 0.0, prep, min_ops=len(ops))
        ops = [op for op in ops if op.out is not None]
        untimed.absorb(prep)
    setup["prep_s"] = prep.wall_s
    setup["runs_s"] = setup_runs
    setup_s = statistics.median(setup_runs) + setup["prep_s"]

    # --- timed closed loop; corpus runs cover every stream at least once
    min_ops = 1 if workload == "voice_clips" else len(ops)
    details = {}
    if trace:
        # the same operations untraced, then traced, for the tracing overhead
        untraced = Tally()
        done = run_ops(run_op, ops, seconds / 2, untraced, min_ops)
        untimed.absorb(untraced)
        with layertrace.Tracer() as tracer:
            run_ops(run_op, done, 0.0, tally, min_ops=len(done), tracer=tracer)
        metrics, details["trace"] = layertrace.layer_metrics(
            tracer, audio_s=tally.audio_s, frames=tally.frames,
            active_frames=tally.active_frames, traced_s=tally.timed_s,
            untraced_s=untraced.timed_s,
            scale=tally.timed_s / tally.raw_s if tally.raw_s else 1.0,
            samples=tally.samples)
        for layer in details["trace"]["unmeasured_layers"]:
            print(f"perfbench: layer {layer} is unmeasured", file=sys.stderr)
    else:
        run_ops(run_op, ops, seconds, tally, min_ops)

    # --- untimed: score rate and quality on the reference outputs
    scored = ops if workload != "voice_clips" else ops[:QUALITY_CLIPS]
    for op in scored:
        if op.out is None:
            run_ops(run_op, [op], 0.0, untimed, min_ops=1)
    qual = quality(scored)

    if not trace:
        rtf, p50, p90 = timing_metrics(tally, ops)
        values = {
            "setup_s": setup_s,
            "rtf": rtf,
            "op_ms_p50": p50,
            "op_ms_p90": p90,
            "kbps": qual["kbps"],
            "segsnr_margin_db": qual["segsnr_db"] - SNR_FLOOR_DB,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    untimed.absorb(tally)
    result = {"correct": untimed.failed == 0, "attempted": untimed.attempted,
              "failed": untimed.failed, "metrics": metrics}
    details.update({
        "context": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "git_commit": git_commit(), "threads": os.environ.get("OMP_NUM_THREADS"),
            "ops_timed": sum(len(ts) for ts in tally.times.values()),
            "streams_timed": len(tally.times), "setup_samples": len(setup_runs),
        },
        "setup": setup,
        "timed_s": tally.timed_s,
        "raw_timed_s": tally.raw_s,
        "raw_rtf": tally.audio_s / tally.raw_s if tally.raw_s else 0.0,
        "audio_s": tally.audio_s,
        "frames": tally.frames,
        "ctns_active_frames": tally.active_frames,
        "op_ms": {label: [1e3 * t for t in ts] for label, ts in tally.times.items()},
        "quality": qual,
        "golden_sha256": digest,
        "stream_sha256": {op.label: hashlib.sha256(op.blob).hexdigest()
                          for op in scored if op.blob is not None},
        "errors": untimed.errors,
    })
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({"result": result, **details}, indent=1))
    if trace:
        layertrace.write_spans(tracer.spans, RESULTS / f"{stem}.spans.tsv.gz")
    return result, details


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                        help="all: every workload, one after the other")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="time to spend in timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup = common_setup(args.workload, args.seed)[2]
        print(json.dumps({"setup_s": setup["setup_s"]}))
        return 0

    for workload in sorted(WORKLOADS) if args.workload == "all" else [args.workload]:
        result, details = run_benchmark(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details, default=str))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
