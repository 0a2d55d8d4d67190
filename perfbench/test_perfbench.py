"""Checks of the benchmark itself, at a tiny run length.

Run with ``python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: it pins the numeric libraries' threads)
import layertrace  # noqa: E402
from unscodec import codec  # noqa: E402
from unscodec.entropy_bitstream import StreamHeader  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """A 1 s corpus, 4 clips, one set-up per run, results in a temporary dir."""
    monkeypatch.setattr(run, "CORPUS_SECONDS", 1.0)
    monkeypatch.setattr(run, "N_CLIPS", 4)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result, details = run.run_benchmark(workload, 1, 0.05, False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert emitted(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["context"]["cores"] and details["context"]["numpy"]
    assert details["stream_sha256"]
    saved = json.loads((run.RESULTS / f"{workload}-seed1-trace0.json").read_text())
    assert saved["result"] == result


def test_traced_decode_emits_every_layer_metric_without_gain_search():
    result, details = run.run_benchmark("corpus_decode", 1, 0.05, True)
    assert result["correct"]
    assert emitted(result) == declared("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["gain_search.s"] == 0.0
    assert metrics["pack.us_per_frame"] == 0.0
    assert metrics["unpack.us_per_frame"] > 0.0
    assert metrics["envelope.calls_per_frame"] == 2.0
    assert details["trace"]["unmeasured_layers"] == []
    assert (run.RESULTS / "corpus_decode-seed1-trace1.spans.tsv.gz").is_file()


def test_flipped_byte_is_a_failed_operation_not_a_timed_one():
    ops = run.make_ops("corpus_decode", 1)
    run.run_ops(run.encode_op, ops, 0.0, run.Tally(), min_ops=len(ops))
    victim = ops[0]
    blob = bytearray(victim.blob)
    blob[StreamHeader.size() + 4] ^= 0xFF   # first range-coded byte of frame 0
    victim.blob = bytes(blob)

    tally = run.Tally()
    run.run_ops(run.decode_op, ops, 0.0, tally, min_ops=len(ops))
    assert tally.attempted == len(ops)
    assert tally.failed == 1
    assert victim.label not in tally.times
    assert len(tally.times) == len(ops) - 1


def test_wrong_golden_digest_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(run, "GOLDEN_SHA256", "0" * 64)
    result, details = run.run_benchmark("voice_clips", 1, 0.05, False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert details["errors"][0].startswith("golden")


def test_missing_layer_function_is_reported_unmeasured():
    tracer = layertrace.Tracer(wraps=(("codec", "no_such_function", "pack"),
                                      ("codec", "encode_stream", "codec")))
    ops = run.make_ops("voice_clips", 1)
    with tracer:
        codec.encode_stream(ops[0].pcm, ops[0].cfg)
    assert codec.encode_stream.__name__ == "encode_stream"   # restored
    assert tracer.missing == ["codec.no_such_function"]
    assert "pack" in tracer.unmeasured_layers()
    assert "codec" not in tracer.unmeasured_layers()
    metrics, details = layertrace.layer_metrics(
        tracer, audio_s=ops[0].audio_s, frames=1, active_frames=0,
        traced_s=1.0, untraced_s=1.0)
    assert set(metrics) == set(declared("per_layer"))
    assert metrics["codec.self_s"]["value"] > 0.0
    assert metrics["pack.us_per_frame"]["value"] == 0.0


def test_setup_probe_reports_a_fresh_process_setup_time():
    assert run.probe_setup("voice_clips", 2) > 0.0


def test_without_codec_source_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_encode",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
