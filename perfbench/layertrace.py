"""Span tracer that wraps the codec's layer functions from outside the codec.

Each wrapped module attribute records one span per call: id, parent id, layer,
function name, start and end (``perf_counter_ns``), a small note taken from the
result, and the label of the benchmark operation that was running.  Spans stay
in memory until the run ends.  The codec is single-threaded, so spans nest
strictly and a layer's self time is its span duration minus the durations of
its direct children.  Nothing in the codec waits on anything else, so no wait
time is recorded.

The codec calls its layers through module attributes (``rc.find_scale_factor``,
``pq.quantize_magnitudes``) or through names bound in ``unscodec.codec``
(``pack_frame``, ``derive_shaping``).  Patching those attributes therefore
catches every call without touching the codec.  A name that no longer exists is
reported as missing; a layer whose names are all missing is reported as
unmeasured, and the run goes on.
"""

from __future__ import annotations

import bisect
import gzip
import importlib
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np


def _real_or_complex(args, parent_layer):
    # lp.autocorr / levinson take an array, bandwidth_expand takes a model;
    # real input is the spectral envelope analysis, complex input is CTNS
    x = args[0]
    return "ctns" if np.iscomplexobj(getattr(x, "coeffs", x)) else "lsf_analysis"


def _quantize_or_synthesis(args, parent_layer):
    return "synthesis" if parent_layer == "synthesis" else "quantize"


_real_or_complex.layers = ("lsf_analysis", "ctns")
_quantize_or_synthesis.layers = ("quantize", "synthesis")


# (module under unscodec, attribute, layer or layer resolver)
WRAPS = (
    ("codec", "frame_signal", "framing"),
    ("codec", "overlap_add", "framing"),
    ("lp", "autocorr", _real_or_complex),
    ("lp", "levinson", _real_or_complex),
    ("lp", "bandwidth_expand", _real_or_complex),
    ("lp", "lpc_to_lsf", "lsf_analysis"),
    ("lp", "quantize_lsf", "lsf_analysis"),
    ("codec", "derive_shaping", "envelope"),
    ("lp", "quantize_complex_lpc", "ctns"),
    ("codec", "derive_clpc", "ctns"),
    ("noise_shaping", "ctns_filter", "ctns"),
    ("noise_shaping", "prediction_gain", "ctns"),
    ("noise_shaping", "ctns_unfilter", "ctns"),
    ("rate_control", "find_scale_factor", "gain_search"),
    ("rate_control", "band_cost_bits", "gain_search"),
    ("polar_quant", "quantize_magnitudes", "quantize"),
    ("polar_quant", "phase_cells_array", _quantize_or_synthesis),
    ("polar_quant", "quantize_phase", "quantize"),
    ("codec", "pack_frame", "pack"),
    ("codec", "unpack_frame", "unpack"),
    ("codec", "decode_frame_payload", "synthesis"),
    ("polar_quant", "dequantize_magnitudes", "synthesis"),
    ("polar_quant", "dequantize_phase", "synthesis"),
    ("codec", "encode_stream", "codec"),
    ("codec", "decode_stream", "codec"),
)

LAYERS = ("framing", "lsf_analysis", "envelope", "ctns", "gain_search",
          "quantize", "pack", "unpack", "synthesis", "codec")

# result -> note stored on the span
NOTES = {
    "find_scale_factor": lambda result: bool(result[1]),  # overflow flag
    "pack_frame": len,                                     # frame bytes
}

# name, unit; every traced run reports all of them
LAYER_METRICS = (
    ("framing.s", "s/audio_s"),
    ("lsf_analysis.s", "s/audio_s"),
    ("lsf_analysis.share", "frac"),
    ("envelope.s", "s/audio_s"),
    ("envelope.calls_per_frame", "count"),
    ("ctns.s", "s/audio_s"),
    ("ctns.active_frac", "frac"),
    ("gain_search.s", "s/audio_s"),
    ("gain_search.share", "frac"),
    ("gain_search.cost_calls_per_band", "count"),
    ("gain_search.first_probe_frac", "frac"),
    ("gain_search.overflow_frac", "frac"),
    ("quantize.s", "s/audio_s"),
    ("quantize.calls_per_frame", "count"),
    ("quantize.in_search_frac", "frac"),
    ("pack.us_per_frame", "us"),
    ("pack.bytes_per_frame", "bytes"),
    ("unpack.us_per_frame", "us"),
    ("unpack.failed", "count"),
    ("synthesis.s", "s/audio_s"),
    ("synthesis.share", "frac"),
    ("codec.self_s", "s/audio_s"),
    ("trace.overhead_frac", "frac"),
)


class Tracer:
    """Patches the layer functions on ``install`` and restores them on ``remove``."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.spans = []      # (id, parent, layer, name, t0_ns, t1_ns, note, op)
        self.op = None       # label of the benchmark operation in progress
        self.missing = []    # "module.attr" names that could not be wrapped
        self._stack = []     # (id, layer) of the open spans
        self._next_id = 0
        self._patched = []

    def install(self):
        for mod_name, attr, layer in self.wraps:
            try:
                module = importlib.import_module(f"unscodec.{mod_name}")
                orig = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(orig, attr, layer))
            self._patched.append((module, attr, orig))

    def remove(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def unmeasured_layers(self) -> list:
        measured = set()
        for mod_name, attr, layer in self.wraps:
            if f"{mod_name}.{attr}" not in self.missing:
                measured.update([layer] if isinstance(layer, str) else layer.layers)
        return [layer for layer in LAYERS if layer not in measured]

    def _wrap(self, orig, name, layer):
        spans, stack, note_of = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1] if stack else (-1, None)
            span_layer = layer if isinstance(layer, str) else layer(args, parent_layer)
            sid = self._next_id
            self._next_id += 1
            stack.append((sid, span_layer))
            note = None
            t0 = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
                if note_of is not None:
                    note = note_of(result)
                return result
            except BaseException:
                note = "error"
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, span_layer, name, t0, t1, note, self.op))

        traced.__wrapped__ = orig
        return traced


def self_times(spans, samples=()) -> dict:
    """Span id -> self time in seconds.  ``samples`` are (start, end) seconds
    of ``perf_counter`` intervals that ran inside spans without belonging to
    them; each is taken out of the innermost span around it."""
    child_ns = defaultdict(int)
    for sid, parent, _, _, t0, t1, _, _ in spans:
        child_ns[parent] += t1 - t0
    ordered = sorted(spans, key=lambda span: span[4])
    starts = [span[4] for span in ordered]
    by_id = {span[0]: span for span in spans}
    for a, b in samples:
        a_ns, b_ns = round(a * 1e9), round(b * 1e9)
        i = bisect.bisect_right(starts, a_ns) - 1
        span = ordered[i] if i >= 0 else None
        while span is not None and span[5] < b_ns:
            span = by_id.get(span[1])
        if span is not None:
            child_ns[span[0]] += b_ns - a_ns
    return {sid: (t1 - t0 - child_ns[sid]) * 1e-9 for sid, _, _, _, t0, t1, _, _ in spans}


def layer_metrics(tracer: Tracer, *, audio_s: float, frames: int, active_frames: int,
                  traced_s: float, untraced_s: float, scale: float = 1.0, samples=()):
    """Per-layer metrics of one traced pass, plus details for the results file.

    ``audio_s`` and ``frames`` are the audio seconds and stream frames the pass
    processed, ``traced_s`` and ``untraced_s`` the summed operation times of the
    same operations with and without tracing, ``scale`` the factor that turns
    the pass's measured times into the benchmark's reference-speed times, and
    ``samples`` the speed samples taken during the pass (see ``self_times``).
    """
    spans = tracer.spans
    own = {sid: t * scale for sid, t in self_times(spans, samples).items()}
    layer_s = Counter()
    by_op = defaultdict(Counter)
    calls = Counter()
    layer_of = {}
    for sid, _, layer, name, _, _, _, op in spans:
        layer_s[layer] += own[sid]
        by_op[op][layer] += own[sid]
        calls[name] += 1
        layer_of[sid] = layer

    searches = [s for s in spans if s[3] == "find_scale_factor"]
    probes = Counter(s[1] for s in spans if s[3] == "band_cost_bits")
    searched = [probes[s[0]] for s in searches]
    quant = [s for s in spans if s[3] == "quantize_magnitudes"]
    packs = [s for s in spans if s[3] == "pack_frame"]
    unpacks = [s for s in spans if s[3] == "unpack_frame"]

    def ratio(num, den):
        return num / den if den else 0.0

    def self_us(group):
        return ratio(1e6 * sum(own[s[0]] for s in group), len(group))

    values = {
        "framing.s": ratio(layer_s["framing"], audio_s),
        "lsf_analysis.s": ratio(layer_s["lsf_analysis"], audio_s),
        "lsf_analysis.share": ratio(layer_s["lsf_analysis"], traced_s),
        "envelope.s": ratio(layer_s["envelope"], audio_s),
        "envelope.calls_per_frame": ratio(calls["derive_shaping"], frames),
        "ctns.s": ratio(layer_s["ctns"], audio_s),
        "ctns.active_frac": ratio(active_frames, frames),
        "gain_search.s": ratio(layer_s["gain_search"], audio_s),
        "gain_search.share": ratio(layer_s["gain_search"], traced_s),
        "gain_search.cost_calls_per_band": ratio(sum(searched), len(searches)),
        "gain_search.first_probe_frac": ratio(sum(n == 1 for n in searched), len(searches)),
        "gain_search.overflow_frac": ratio(sum(s[6] is True for s in searches), len(searches)),
        "quantize.s": ratio(layer_s["quantize"], audio_s),
        "quantize.calls_per_frame": ratio(len(quant), frames),
        "quantize.in_search_frac": ratio(
            sum(layer_of.get(s[1]) == "gain_search" for s in quant), len(quant)),
        "pack.us_per_frame": self_us(packs),
        "pack.bytes_per_frame": ratio(sum(s[6] for s in packs if s[6] != "error"),
                                      sum(s[6] != "error" for s in packs)),
        "unpack.us_per_frame": self_us(unpacks),
        "unpack.failed": sum(s[6] == "error" for s in unpacks),
        "synthesis.s": ratio(layer_s["synthesis"], audio_s),
        "synthesis.share": ratio(layer_s["synthesis"], traced_s),
        "codec.self_s": ratio(layer_s["codec"], audio_s),
        "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0 if untraced_s else 0.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    details = {
        "spans": len(spans),
        "layer_self_s": dict(layer_s),
        "layer_self_s_by_op": {op: dict(c) for op, c in by_op.items()},
        "gain_search_inclusive_s": scale * sum((s[5] - s[4]) * 1e-9 for s in searches),
        "calls": dict(calls),
        "missing": list(tracer.missing),
        "never_called": sorted(f"{m}.{a}" for m, a, _ in tracer.wraps
                               if f"{m}.{a}" not in tracer.missing and a not in calls),
        "unmeasured_layers": tracer.unmeasured_layers(),
    }
    return metrics, details


def write_spans(spans, path):
    """Write spans once, as gzipped tab-separated lines, at the end of a traced run."""
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write("id\tparent\tlayer\tname\tt0_ns\tt1_ns\tnote\top\n")
        for span in spans:
            fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")
