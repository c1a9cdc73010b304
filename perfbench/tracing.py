"""Span recorder for the benchmark's traced run.

The tracer wraps public functions of each prefpipe layer from outside: nothing
under ``src/`` knows about it. Modules import helpers by name (for example
``prefpipe.cli.write_jsonl``), so a function is replaced in every prefpipe
module namespace that holds it, not only where it is defined. Methods are
replaced on their class. Every wrapped call records one span ``(id, parent,
pass, name, start_ns, end_ns, info, error)``; spans stay in memory until the
run ends. Work handed to a ``ThreadPoolExecutor`` keeps the submitting span as
its parent, so ``--jobs 2`` stages still form one tree.

``layer_metrics`` turns the spans of one pass into the per-layer numbers.
"""

import concurrent.futures
import functools
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import requests

from prefpipe import cli, core, curriculum, evalharness, prompts, rlengine, simlab, streamer, synthpipe, transferbench
from prefpipe import _util
from prefpipe.modelio import backends, client, parsing

SPAN_FIELDS = ("id", "parent", "pass", "name", "start_ns", "end_ns", "info", "error")
MODEL_STAGES = ("synthesize-sft", "rollout", "stream-infer", "build-transfer", "evaluate")
CLIENT_OPS = {"generate": "generate_summary", "judge": "judge_pair", "embed": "embed"}
BACKEND_METHODS = ("complete", "choice_logprobs", "score", "embed")

# Every per-layer metric the traced run reports: name -> (unit, which direction is better).
LAYER_METRICS = {
    "cli.manifest_s": ("s", "lower"),
    "core.load_s": ("s", "lower"),
    "util.write_jsonl_s": ("s", "lower"),
    "util.bytes_written": ("bytes", "lower"),
    "prompts.render_s": ("s", "lower"),
    "prompts.renders": ("count", "lower"),
    "prompts.prompt_bytes": ("bytes", "lower"),
    "parsing.s": ("s", "lower"),
    **{
        f"client.{op}.{stat}": unit
        for op in CLIENT_OPS
        for stat, unit in (("calls", ("count", "lower")), ("p50_ms", ("ms", "lower")), ("p99_ms", ("ms", "lower")))
    },
    "client.attempts": ("count", "lower"),
    "client.retries": ("count", "lower"),
    "client.failures": ("count", "lower"),
    "client.wait_s": ("s", "lower"),
    **{f"client.{stage}.concurrency": ("ratio", "higher") for stage in MODEL_STAGES},
    "http.requests": ("count", "lower"),
    "http.connections": ("count", "lower"),
    "http.requests_per_connection": ("ratio", "higher"),
    "http.transport_ms_p50": ("ms", "lower"),
    "http.transport_ms_p99": ("ms", "lower"),
    "http.bytes_out": ("bytes", "lower"),
    "http.bytes_in": ("bytes", "lower"),
    "http.peak_in_flight": ("count", "higher"),
    "simlab.busy_s": ("s", "lower"),
    "synthpipe.wall_s": ("s", "lower"),
    "synthpipe.calls_per_record": ("ratio", "lower"),
    "synthpipe.useful_call_share": ("ratio", "higher"),
    "curriculum.wall_s": ("s", "lower"),
    "curriculum.kept_share": ("ratio", "higher"),
    "rlengine.wall_s": ("s", "lower"),
    "rlengine.calls_per_record": ("ratio", "lower"),
    "rlengine.export_s": ("s", "lower"),
    "streamer.wall_s": ("s", "lower"),
    "streamer.concurrency": ("ratio", "higher"),
    "transferbench.wall_s": ("s", "lower"),
    "transferbench.embed_s": ("s", "lower"),
    "transferbench.rank_s": ("s", "lower"),
    "transferbench.pairs_ranked": ("count", "lower"),
    "evalharness.wall_s": ("s", "lower"),
    "evalharness.concurrency": ("ratio", "higher"),
    "evalharness.dropped": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.chain_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _size_of_written(args, kwargs, result):
    return os.path.getsize(args[0])


def _prompt_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _service_time(args, kwargs, response):
    value = response.headers.get("X-Service-Time")
    return float(value) if value is not None else None


def _prune_info(args, kwargs, kept):
    return [len(kept), len(args[0])]


def _pairs(args, kwargs, result):
    return len(args[1]) * len(args[2])


def _dropped(args, kwargs, result):
    report, _ = result
    return len(args[2]) - report.n


# (module, function name, span name, info hook): functions patched wherever looked up.
FUNCTIONS = [
    (core, "load_histories", "core.load", None),
    (core, "load_summaries", "core.load", None),
    (_util, "write_jsonl", "_util.write_jsonl", _size_of_written),
    (prompts, "render_generation_prompt", "prompts.render", _prompt_bytes),
    (prompts, "render_judge_prompt", "prompts.render", _prompt_bytes),
    (prompts, "render_merge_prompt", "prompts.render", _prompt_bytes),
    (prompts, "render_history_block", "prompts.block", None),
    (prompts, "render_target_block", "prompts.block", None),
    (parsing, "split_reasoning", "parsing", None),
    (parsing, "parse_selection", "parsing", None),
    (synthpipe, "run_corpus", "synthpipe.run_corpus", None),
    (synthpipe, "build_streaming_sft", "synthpipe.user", None),
    (synthpipe, "generate_candidates", "synthpipe.generate", None),
    (synthpipe, "validate_candidates", "synthpipe.validate", None),
    (synthpipe, "merge_profiles", "synthpipe.merge", None),
    (synthpipe, "user_level_filter", "synthpipe.user_filter", None),
    (curriculum, "load_scores", "curriculum.load", None),
    (curriculum, "prune", "curriculum.prune", _prune_info),
    (curriculum, "build_rl_instances", "curriculum.build", None),
    (rlengine, "run_rollouts", "rlengine.run_rollouts", None),
    (rlengine, "export_batch", "rlengine.export", None),
    (rlengine, "save_batch", "rlengine.export", None),
    (streamer, "infer_streaming", "streamer.infer", None),
    (transferbench, "match_users", "transferbench.match", _pairs),
    (transferbench, "embed_history", "transferbench.embed", None),
    (transferbench, "swap_targets", "transferbench.swap", None),
    (transferbench, "inject_secondary", "transferbench.inject", None),
    (evalharness, "evaluate_selection", "evalharness.evaluate", _dropped),
]

# (class, method name, span name, info hook): methods patched on their class.
METHODS = [
    (cli.ManifestWriter, "add_input", "cli.manifest", None),
    (cli.ManifestWriter, "add_output", "cli.manifest", None),
    (cli.ManifestWriter, "write", "cli.manifest", None),
    *[(client.ModelClient, method, f"client.{op}", None) for op, method in CLIENT_OPS.items()],
    *[(backends.HttpBackend, m, "backend.http", None) for m in BACKEND_METHODS],
    *[
        (cls, m, "backend.simlab", None)
        for cls in (simlab.ScriptedGeneratorBackend, simlab.ScriptedJudgeBackend, simlab.ScriptedEmbedderBackend)
        for m in BACKEND_METHODS
    ],
    (requests.Session, "post", "http.post", _service_time),
]


class Tracer:
    """Records spans while installed; ``uninstall`` puts every original back."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn, info_hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, tracer.pass_id, name, start, end, None, type(exc).__name__))
                raise
            end = time.perf_counter_ns()
            stack.pop()
            info = info_hook(args, kwargs, result) if info_hook else None
            tracer.spans.append((span_id, parent, tracer.pass_id, name, start, end, info, None))
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        replacements = {}
        for module, fname, span_name, hook in FUNCTIONS:
            original = getattr(module, fname)
            replacements[id(original)] = (original, self.wrap(span_name, original, hook))
        for name, module in list(sys.modules.items()):
            if not (name == "prefpipe" or name.startswith("prefpipe.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        for cls, method, span_name, hook in METHODS:
            self._set(cls, method, self.wrap(span_name, cls.__dict__[method], hook))

        tracer = self
        pool_cls = concurrent.futures.ThreadPoolExecutor
        original_submit = pool_cls.submit

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run_under_parent(*a, **kw):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **kw)
                finally:
                    stack.pop()

            return original_submit(pool, run_under_parent, *args, **kwargs)

        self._set(pool_cls, "submit", submit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        """One JSON array per line; the first line names the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in (SPAN_FIELDS, *self.spans):
                fh.write(json.dumps(row))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------


def _dur(span) -> float:
    return (span[5] - span[4]) / 1e9


def _covered(intervals) -> int:
    """Nanoseconds covered by the union of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, stub_delta: dict | None, records: dict) -> dict:
    """Per-layer metrics of one pass. ``stub_delta`` holds the stub's counters
    for the pass (HTTP workload only); ``records`` the line counts of the
    stages' primary outputs."""
    by_name = defaultdict(list)
    by_id = {}
    children = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
        by_id[span[0]] = span
        if span[1] is not None:
            children[span[1]].append(span)

    def total(name):
        return sum(_dur(s) for s in by_name[name])

    def self_time(span):
        covered = _covered((max(c[4], span[4]), min(c[5], span[5])) for c in children[span[0]])
        return (span[5] - span[4] - covered) / 1e9

    def top_level(prefix):
        out = []
        for s in spans:
            if s[3].startswith(prefix):
                parent = by_id.get(s[1])
                if parent is None or not parent[3].startswith(prefix):
                    out.append(s)
        return out

    backend_spans = by_name["backend.http"] + by_name["backend.simlab"]
    stage_spans = {stage: by_name[f"stage.{stage}"] for stage in MODEL_STAGES}

    def busy_within(windows):
        return sum(_dur(b) for b in backend_spans if any(w[4] <= b[4] < w[5] for w in windows))

    def calls_within(windows):
        return sum(1 for b in backend_spans if any(w[4] <= b[4] < w[5] for w in windows))

    m = {}
    m["cli.manifest_s"] = total("cli.manifest")
    m["core.load_s"] = total("core.load")
    m["util.write_jsonl_s"] = total("_util.write_jsonl")
    m["util.bytes_written"] = sum(s[6] or 0 for s in by_name["_util.write_jsonl"])
    m["prompts.render_s"] = sum(_dur(s) for s in top_level("prompts."))
    m["prompts.renders"] = len(by_name["prompts.render"])
    m["prompts.prompt_bytes"] = sum(s[6] or 0 for s in by_name["prompts.render"])
    m["parsing.s"] = total("parsing")

    client_s = 0.0
    for op in CLIENT_OPS:
        durations = [_dur(s) * 1000.0 for s in by_name[f"client.{op}"]]
        client_s += sum(durations) / 1000.0
        m[f"client.{op}.calls"] = len(durations)
        m[f"client.{op}.p50_ms"] = _percentile(durations, 0.50)
        m[f"client.{op}.p99_ms"] = _percentile(durations, 0.99)
    m["client.wait_s"] = client_s - sum(_dur(b) for b in backend_spans)
    for stage, windows in stage_spans.items():
        wall = sum(_dur(w) for w in windows)
        m[f"client.{stage}.concurrency"] = busy_within(windows) / wall if wall else 0.0

    posts = by_name["http.post"]
    transport = [(_dur(p) - p[6]) * 1000.0 for p in posts if p[6] is not None]
    m["http.requests"] = len(posts)
    stub = stub_delta or {}
    m["http.connections"] = stub.get("connections", 0)
    m["http.requests_per_connection"] = stub["requests"] / stub["connections"] if stub.get("connections") else 0.0
    m["http.transport_ms_p50"] = _percentile(transport, 0.50)
    m["http.transport_ms_p99"] = _percentile(transport, 0.99)
    m["http.bytes_out"] = stub.get("bytes_in", 0)
    m["http.bytes_in"] = stub.get("bytes_out", 0)
    m["http.peak_in_flight"] = stub.get("peak_in_flight", 0)
    m["simlab.busy_s"] = total("backend.simlab") + stub.get("compute_s", 0.0)

    m["synthpipe.wall_s"] = total("synthpipe.run_corpus")
    synth_calls = calls_within(stage_spans["synthesize-sft"])
    m["synthpipe.calls_per_record"] = synth_calls / records["synthesize-sft"] if records.get("synthesize-sft") else 0.0
    m["synthpipe.useful_call_share"] = _useful_share(spans, by_id, children, backend_spans, synth_calls)

    m["curriculum.wall_s"] = sum(_dur(s) for s in top_level("curriculum."))
    kept, scored = (sum(s[6][i] for s in by_name["curriculum.prune"]) for i in (0, 1))
    m["curriculum.kept_share"] = kept / scored if scored else 0.0

    m["rlengine.wall_s"] = sum(_dur(s) for s in top_level("rlengine."))
    rollout_calls = calls_within(stage_spans["rollout"])
    m["rlengine.calls_per_record"] = rollout_calls / records["rollout"] if records.get("rollout") else 0.0
    m["rlengine.export_s"] = total("rlengine.export")

    streams = by_name["streamer.infer"]
    m["streamer.wall_s"] = sum(_dur(s) for s in streams)
    m["streamer.concurrency"] = busy_within(streams) / m["streamer.wall_s"] if streams else 0.0

    m["transferbench.wall_s"] = sum(_dur(s) for s in top_level("transferbench."))
    m["transferbench.embed_s"] = total("transferbench.embed")
    m["transferbench.rank_s"] = sum(self_time(s) for s in by_name["transferbench.match"])
    m["transferbench.pairs_ranked"] = sum(s[6] or 0 for s in by_name["transferbench.match"])

    evals = by_name["evalharness.evaluate"]
    m["evalharness.wall_s"] = sum(_dur(s) for s in evals)
    m["evalharness.concurrency"] = busy_within(evals) / m["evalharness.wall_s"] if evals else 0.0
    m["evalharness.dropped"] = sum(s[6] or 0 for s in evals)
    m["trace.spans"] = len(spans)
    return m


_SYNTH_STEPS = ("synthpipe.generate", "synthpipe.validate", "synthpipe.merge", "synthpipe.user_filter")


def _useful_share(spans, by_id, children, backend_spans, synth_calls) -> float:
    """Share of synthesis calls spent on segments that yielded a record.

    Within one user's span, each ``generate_candidates`` call opens a segment;
    a segment yields a record when its ``user_level_filter`` returns. Every
    backend call is assigned to the segment of the step that encloses it."""
    if not synth_calls:
        return 0.0
    segment_of, useful = {}, set()
    for user in (s for s in spans if s[3] == "synthpipe.user"):
        seg = None
        for step in sorted((c for c in children[user[0]] if c[3] in _SYNTH_STEPS), key=lambda c: c[4]):
            if step[3] == "synthpipe.generate":
                seg = (user[0], step[0])
            segment_of[step[0]] = seg
            if step[3] == "synthpipe.user_filter" and step[7] is None:
                useful.add(seg)
    useful_calls = 0
    for b in backend_spans:
        node = by_id.get(b[1])
        while node is not None and node[0] not in segment_of:
            node = by_id.get(node[1])
        if node is not None and segment_of[node[0]] in useful:
            useful_calls += 1
    return useful_calls / synth_calls


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
