"""In-memory spans recorded around calls into revspeech's public functions.

A span is (name, start, end, parent, operation id) plus the counts the
benchmark attaches at that boundary. Spans stay in memory while operations
run and are written out once, when the run ends. Spans are recorded only in
the benchmark's own code; the library is not instrumented.
"""

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager

# Every per-layer metric the traced run reports, with its unit. Layers a
# workload does not touch report 0.
LAYER_METRICS = {
    "audio.read_wav_s": "s",
    "audio.reverse_s": "s",
    "enhance.estimate_noise_s": "s",
    "enhance.denoise_s": "s",
    "enhance.frames": "count",
    "enhance.noise_frames_used": "count",
    "enhance.peak_alloc_mb": "MB",
    "features.extract_s": "s",
    "features.frames": "count",
    "features.peak_alloc_mb": "MB",
    "recognizer.segment_utterances_s": "s",
    "recognizer.classify_segment_s": "s",
    "recognizer.segments": "count",
    "gmm.frames_scored": "count",
    "gmm.train_s": "s",
    "gmm.em_iterations": "count",
    "gmm.converged_frac": "frac",
    "gmm.save_model_s": "s",
    "gmm.load_model_s": "s",
    "gmm.peak_alloc_mb": "MB",
    "srsdoc.build_report_s": "s",
    "srsdoc.render_s": "s",
    "srsdoc.parse_report_s": "s",
    "srsdoc.pairs": "count",
    "srsdoc.nearest_frac": "frac",
    "srsdoc.flagged": "count",
    "cli.untraced_s": "s",
    "trace_overhead_frac": "frac",
}

# counts summed over an operation's spans, keyed by metric name
_COUNTS = (
    "enhance.frames",
    "enhance.noise_frames_used",
    "features.frames",
    "recognizer.segments",
    "gmm.frames_scored",
    "gmm.em_iterations",
    "srsdoc.pairs",
    "srsdoc.flagged",
)

# ratio metrics: (numerator count, denominator count)
_RATIOS = {
    "gmm.converged_frac": ("gmm.converged", "gmm.fits"),
    "srsdoc.nearest_frac": ("srsdoc.nearest", "srsdoc.pairs"),
}

_ALLOC_LAYERS = ("enhance", "features", "gmm")


class Tracer:
    """Collects spans; with alloc=True, spans of the layers in _ALLOC_LAYERS
    also record the peak memory their call allocated.

    tracemalloc runs only inside those spans, and the allocation pass is
    separate from the timed traced operations, because tracemalloc slows
    every allocation it sees.
    """

    def __init__(self, alloc: bool = False):
        self.spans: list[dict] = []
        self.alloc = alloc
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str):
        """Time one call; the caller may add counts to the yielded dict."""
        record = {
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        alloc = self.alloc and name.split(".")[0] in _ALLOC_LAYERS
        if alloc:
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            if alloc:
                record["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; layer spans opened inside are its children."""
        self.op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


class NullTracer:
    """Stands in for a Tracer when an operation runs untraced."""

    @contextmanager
    def span(self, name: str):
        yield {}


def _per_op(spans: list[dict]) -> dict[int, dict]:
    """Durations and counts per operation id, from the root and its children."""
    ops: dict[int, dict] = {}
    roots = set()
    for index, span in enumerate(spans):
        if span["name"] == "op":
            roots.add(index)
            ops[span["op"]] = {"op_s": span["end"] - span["start"], "child_s": 0.0,
                               "times": {}, "counts": {}}
    for span in spans:
        if span["name"] == "op" or span["op"] not in ops:
            continue
        agg = ops[span["op"]]
        duration = span["end"] - span["start"]
        if span["parent"] in roots:
            agg["child_s"] += duration
        key = span["name"] + "_s"
        agg["times"][key] = agg["times"].get(key, 0.0) + duration
        for name, value in span["counts"].items():
            agg["counts"][name] = agg["counts"].get(name, 0) + value
    return ops


def layer_metrics(
    traced: Tracer, alloc: Tracer, traced_op_s: list[float], untraced_op_s: list[float]
) -> dict[str, float]:
    """Medians over traced operations of every metric in LAYER_METRICS."""
    ops = list(_per_op(traced.spans).values())
    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith("_s") and name != "cli.untraced_s":
            out[name] = statistics.median(op["times"].get(name, 0.0) for op in ops)
    for name in _COUNTS:
        out[name] = statistics.median(op["counts"].get(name, 0) for op in ops)
    for name, (num, den) in _RATIOS.items():
        ratios = [
            op["counts"].get(num, 0) / op["counts"][den]
            for op in ops
            if op["counts"].get(den)
        ]
        out[name] = statistics.median(ratios) if ratios else 0.0
    out["cli.untraced_s"] = statistics.median(op["op_s"] - op["child_s"] for op in ops)
    for layer in _ALLOC_LAYERS:
        peaks = [
            span["peak_alloc_bytes"]
            for span in alloc.spans
            if span["name"].startswith(layer + ".")
        ]
        out[f"{layer}.peak_alloc_mb"] = max(peaks, default=0) / 2**20
    out["trace_overhead_frac"] = (
        statistics.median(traced_op_s) / statistics.median(untraced_op_s) - 1.0
    )
    return {name: out[name] for name in LAYER_METRICS}
