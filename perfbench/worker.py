"""Pipeline process of the benchmark: set up one workload, then time passes.

Run by ``perfbench/run.py``, one process per set-up sample::

    python3 perfbench/worker.py --workload chain-mock --seed 7 --work DIR --seconds 20 --setup-only
    python3 perfbench/worker.py --workload chain-mock --seed 7 --work DIR --seconds 20
    python3 perfbench/worker.py --workload chain-mock --seed 7 --work DIR --seconds 20 --trace-out SPANS.jsonl

Set-up generates the workload's simlab corpora through the CLI, writes the
endpoint configs and, for the HTTP workload, starts the stub server; then the
worker prints ``READY`` so the driver can time it. A set-up-only worker stops
there. Otherwise the worker drives ``prefpipe.cli.main(argv)`` in-process, one
stage at a time, pass after pass until ``--seconds`` have gone by, checks the
outputs of every pass and prints one JSON line with the results.

With ``--trace-out`` the first half of ``--seconds`` runs untraced passes,
then the tracer from ``tracing.py`` is installed for the remaining passes; the
per-layer numbers and the tracing overhead (median traced pass minus median
untraced pass) come from that, and the spans are written to the given file.
"""

import os
import sys
import time

_IMPORT_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import prefpipe.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import urllib.request  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import yaml  # noqa: E402

from prefpipe.errors import PipelineError  # noqa: E402
from prefpipe.modelio import ModelClient  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: two simlab corpora (A, B) and a stage list."""

    users: int
    history_len: int
    transport: str  # "mock" or "http"
    jobs: int
    kind: str  # "chain" or "transfer"
    min_accuracy: float = 0.0  # holdout evaluate accuracy
    min_reward: float = 0.0  # mean immediate reward of the rollout
    synth_args: tuple[str, ...] = ()
    prune_args: tuple[str, ...] = ("--alpha", "0.6", "--tract-low", "0.55", "--tract-high", "0.98")


WORKLOADS = {
    # Full chain on zero-latency scripted mocks: measures local Python.
    "chain-mock": Workload(
        users=400, history_len=24, transport="mock", jobs=1, kind="chain", min_accuracy=0.75, min_reward=0.9,
    ),
    # Same chain over localhost HTTP with 40 ms per request: measures waiting on
    # the model. The corpus is small, so synthesis runs one segment with every
    # triple a target candidate, and pruning keeps every score: nearly every
    # user then costs the same number of calls, and the cost of a pass does
    # not depend on the seed. Its 8 evaluate instances are too few for an
    # accuracy floor; the rewarded rollout summaries must beat chance (their
    # mean reward was 0.61 to 0.85 over seeds 1 to 160).
    "chain-http": Workload(
        users=8, history_len=24, transport="http", jobs=2, kind="chain", min_reward=0.55,
        synth_args=("--tau-tract", "0.0", "--num-segments", "1"),
        prune_args=("--alpha", "1.0", "--tract-low", "0.55", "--tract-high", "0.98"),
    ),
    # Cross-domain ranking of |A| x |B| users plus the two pure-transform modes.
    # At 1000 x 1000 the memory-bound ranking made runs too unsteady on a shared host.
    "transfer-rank": Workload(users=500, history_len=6, transport="mock", jobs=1, kind="transfer"),
}

# Primary output of each model-bound stage: its line count is the stage's record count.
RECORD_OUTPUTS = {
    "synthesize-sft": "sft.jsonl",
    "rollout": "batch.jsonl",
    "stream-infer": "stream/states.jsonl",
    "build-transfer": "cross.jsonl",
    "evaluate": "outcomes.jsonl",
}


def _write_yaml(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return path


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in-process; return its exit code and its stdout."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            rc = prefpipe.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        logging.getLogger("perfbench").exception("stage %s raised", argv)
        rc = -1
    return rc, sink.getvalue()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class Stub:
    """The stub model server process (HTTP workload only)."""

    def __init__(self, work: str):
        self.log = open(os.path.join(work, "stub.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "stub.py")],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.close()
            raise RuntimeError("stub server did not start; see stub.log")
        self.port = int(line[1])

    def next_pass(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/control/next-pass", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# ModelClient's operations; each counts itself in ``stats`` as ``<key>_calls``.
OPERATIONS = {"generate_summary": "generate", "judge_pair": "judge", "policy_logprobs": "score", "embed": "embed"}


class ModelCensus:
    """Counts model operations and requests without tracing. Every ModelClient
    created is remembered; its own ``stats`` count operations, attempts and
    retries. An operation that raises counts as failed, whether the client gave
    up on the transport or the reply was unusable, and whether or not the stage
    then skipped the record."""

    def __init__(self):
        self.clients: list[ModelClient] = []
        self.failures = 0
        self._lock = threading.Lock()
        census = self
        original_init = ModelClient.__init__

        def init(client, *args, **kwargs):
            original_init(client, *args, **kwargs)
            census.clients.append(client)

        ModelClient.__init__ = init
        for name in OPERATIONS:
            setattr(ModelClient, name, self._counted(ModelClient.__dict__[name]))

    def _counted(self, operation):
        census = self

        def counted(client, *args, **kwargs):
            try:
                return operation(client, *args, **kwargs)
            except PipelineError:
                with census._lock:
                    census.failures += 1
                raise

        return counted

    def take(self) -> dict:
        """Counts since the previous call: attempts, retries, operations, failures."""
        stats = Counter()
        for client in self.clients:
            stats.update(client.stats)
        with self._lock:
            failures, self.failures = self.failures, 0
        counts = {
            "attempts": stats["attempts"],
            "retries": stats["retries"],
            "operations": sum(stats[f"{key}_calls"] for key in OPERATIONS.values()),
            "failures": failures,
        }
        self.clients.clear()
        return counts


def setup(wl: Workload, seed: int, work: str) -> tuple[list[tuple[str, list[str]]], list[str], "Stub | None"]:
    """Generate corpora and configs; return (stages, digested outputs, stub)."""
    os.makedirs(work, exist_ok=True)
    for lab, prefix in (("labA", "u"), ("labB", "v")):
        rc, _ = _run_cli([
            "--seed", str(seed), "simlab-gen", "--out-dir", os.path.join(work, lab), "--users", str(wl.users),
            "--history-len", str(wl.history_len), "--user-prefix", prefix,
        ])
        if rc != 0:
            raise RuntimeError(f"simlab-gen failed with exit code {rc}")
    p = lambda *parts: os.path.join(work, *parts)  # noqa: E731
    stub = None
    if wl.transport == "http":
        stub = Stub(work)
        endpoint = lambda role: {  # noqa: E731
            "base_url": f"http://127.0.0.1:{stub.port}/{role}", "max_in_flight": 2,
            "backoff_base": 0.005, "retry_limit": 3, "timeout": 30.0,
        }
        generator, judge, embedder = endpoint("generator"), endpoint("judge"), endpoint("embedder")
    else:
        generator = {"base_url": f"mock:generator?truth={p('labA', 'truth.jsonl')}"}
        judge = {"base_url": "mock:judge?kappa=8"}
        embedder = {"base_url": "mock:embedder"}
    synth_cfg = _write_yaml(p("synth.yaml"), {"generator": generator, "judge": judge})
    rollout_cfg = _write_yaml(p("rollout.yaml"), {"policy": generator, "judge": judge})
    gen_cfg = _write_yaml(p("generator.yaml"), generator)
    judge_cfg = _write_yaml(p("judge.yaml"), judge)
    emb_cfg = _write_yaml(p("embedder.yaml"), embedder)

    hist_a, hist_b = p("labA", "histories.jsonl"), p("labB", "histories.jsonl")
    cross = ["build-transfer", "--mode", "cross-domain", "--histories-a", hist_a, "--histories-b", hist_b,
             "--embedder", emb_cfg, "--top-k", str(wl.users), "--out", p("cross.jsonl"),
             "--out-histories", p("combined.jsonl")]
    if wl.kind == "chain":
        stages = [
            ("synthesize-sft", ["synthesize-sft", "--histories", hist_a, "--scores", p("labA", "scores.jsonl"),
                                "--config", synth_cfg, "--out", p("sft.jsonl"), *wl.synth_args]),
            ("prune", ["prune", "--scores", p("labA", "scores.jsonl"), *wl.prune_args, "--out", p("instances.jsonl")]),
            ("rollout", ["rollout", "--instances", p("instances.jsonl"), "--histories", hist_a,
                         "--config", rollout_cfg, "--gamma", "0.5", "--out", p("batch.jsonl")]),
            ("stream-infer", ["stream-infer", "--histories", hist_a, "--generator", gen_cfg, "--chunks", "2",
                              "--state-dir", p("stream")]),
            ("build-transfer", cross),
            ("evaluate", ["evaluate", "--summaries", p("stream", "summaries.jsonl"), "--instances", p("cross.jsonl"),
                          "--downstream", judge_cfg, "--out", p("report.json"), "--outcomes", p("outcomes.jsonl")]),
        ]
        outputs = ["sft.jsonl", "instances.jsonl", "batch.jsonl", "stream/states.jsonl", "stream/summaries.jsonl",
                   "cross.jsonl", "combined.jsonl", "report.json", "outcomes.jsonl"]
    else:
        stages = [
            ("build-transfer", cross),
            ("build-transfer:multi-interest", ["build-transfer", "--mode", "multi-interest", "--histories", hist_a,
                                "--donors", hist_b, "--intensity", "0.3", "--out", p("fused.jsonl"),
                                "--provenance", p("provenance.jsonl")]),
            ("build-transfer:positive-only", ["build-transfer", "--mode", "positive-only", "--histories", hist_a,
                                "--out", p("positive.jsonl")]),
        ]
        outputs = ["cross.jsonl", "combined.jsonl", "fused.jsonl", "provenance.jsonl", "positive.jsonl"]
    return stages, outputs, stub


def check_pass(wl: Workload, work: str) -> tuple[list[str], dict]:
    """Ground-truth checks on one pass's outputs; returns (errors, record counts)."""
    p = lambda *parts: os.path.join(work, *parts)  # noqa: E731
    errors = []
    records = {}
    for stage, out in RECORD_OUTPUTS.items():
        if os.path.exists(p(out)):
            records[stage] = _count_lines(p(out))
    if wl.kind == "chain":
        if records.get("synthesize-sft", 0) < 1:
            errors.append("synthesize-sft wrote no records")
        if records.get("rollout", 0) < 1:
            errors.append("rollout exported no trees")
        rc, stdout = _run_cli(["loss-check", "--batch", p("batch.jsonl"), "--self-check"])
        loss = json.loads(stdout)["loss"] if rc == 0 else None
        if loss is None or abs(loss) > 1e-9:
            errors.append(f"loss-check --self-check gave {loss}, expected about 0")
        with open(p("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if report["n"] < 1 or report["accuracy"] < wl.min_accuracy:
            errors.append(f"evaluate accuracy {report['accuracy']} over {report['n']} below {wl.min_accuracy}")
        with open(p("batch.jsonl.manifest.json"), encoding="utf-8") as fh:
            reward = json.load(fh)["stats"]["mean_immediate_reward"]
        if reward is None or reward < wl.min_reward:
            errors.append(f"rollout mean immediate reward {reward} below {wl.min_reward}")
        if report["call_failures"] or report["parse_failures"]:
            errors.append(f"evaluate had failures: {report}")
    else:
        if records.get("build-transfer") != 2 * wl.users:
            errors.append(f"cross-domain wrote {records.get('build-transfer')} instances, expected {2 * wl.users}")
        if _count_lines(p("fused.jsonl")) != wl.users:
            errors.append("multi-interest did not keep every user")
        with open(p("positive.jsonl"), encoding="utf-8") as fh:
            positive = [json.loads(line) for line in fh]
        if len(positive) != wl.users or any(t.get("rejected") for h in positive for t in h["triples"]):
            errors.append("positive-only output still holds rejected items or lost users")
    return errors, records


def main() -> int:
    parser = argparse.ArgumentParser(description="prefpipe benchmark pipeline process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", help="trace the second half of the passes; write the spans here (JSONL)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    census = ModelCensus()
    stages, outputs, stub = setup(wl, args.seed, args.work)
    try:
        print(f"READY {IMPORT_S!r}", flush=True)
        if args.setup_only:
            return 0
        return measure(args, wl, census, stages, outputs, stub)
    finally:
        if stub is not None:
            stub.close()


def measure(args, wl: Workload, census: ModelCensus, stages, outputs, stub) -> int:
    tracer = None
    chain_s, traced_chain_s, per_layer, errors, digests = [], [], [], [], None
    stage_s = defaultdict(list)
    attempted = failed = attempts = records_total = 0
    census.take()
    started = time.perf_counter()
    pass_id = 0
    while pass_id < 2 or (time.perf_counter() - started < args.seconds) or (args.trace_out and not traced_chain_s):
        if args.trace_out and tracer is None and pass_id >= 1 and time.perf_counter() - started >= args.seconds / 2:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        if tracer is not None:
            tracer.pass_id = pass_id
        gc.collect()
        stub_before = stub.next_pass() if stub else None
        pass_start = time.perf_counter()
        pass_counts = Counter()
        for stage, argv in stages:
            run = tracer.wrap(f"stage.{stage}", _run_cli) if tracer else _run_cli
            stage_start = time.perf_counter()
            rc, _ = run(["--seed", str(args.seed), "--jobs", str(wl.jobs), *argv])
            if tracer is None:
                stage_s[stage].append(time.perf_counter() - stage_start)
            counts = census.take()
            pass_counts.update(counts)
            if rc != 0:
                errors.append(f"pass {pass_id}: {stage} exited {rc}")
                counts["failures"] = counts["operations"]
            if counts["failures"]:
                errors.append(f"pass {pass_id}: {stage}: {counts['failures']} model operations failed")
            attempted += counts["operations"]
            failed += counts["failures"]
        elapsed = time.perf_counter() - pass_start
        (traced_chain_s if tracer else chain_s).append(elapsed)
        stub_delta = None
        if stub:
            stub_after = stub.next_pass()
            stub_delta = {k: stub_after[k] - stub_before[k] for k in stub_after if k != "peak_in_flight"}
            stub_delta["peak_in_flight"] = stub_after["peak_in_flight"]
            if stub_delta["requests"] != pass_counts["attempts"]:
                errors.append(f"pass {pass_id}: client sent {pass_counts['attempts']} requests, "
                              f"stub received {stub_delta['requests']}")
            if stub_delta["status_503"] != pass_counts["retries"]:
                errors.append(f"pass {pass_id}: client retried {pass_counts['retries']} times, "
                              f"stub sent {stub_delta['status_503']} 503s")
        check_errors, records = check_pass(wl, args.work)
        errors += [f"pass {pass_id}: {e}" for e in check_errors]
        attempts += pass_counts["attempts"]
        records_total += sum(records.values())
        pass_digests = {o: _sha256(os.path.join(args.work, o)) for o in outputs}
        if digests is None:
            digests = pass_digests
        elif pass_digests != digests:
            changed = sorted(o for o in outputs if pass_digests[o] != digests[o])
            errors.append(f"pass {pass_id}: outputs differ from pass 0: {changed}")
        if tracer is not None:
            from tracing import layer_metrics

            spans = [s for s in tracer.spans if s[2] == pass_id]
            metrics = layer_metrics(spans, stub_delta, records)
            metrics["client.attempts"] = pass_counts["attempts"]
            metrics["client.retries"] = pass_counts["retries"]
            metrics["client.failures"] = pass_counts["failures"]
            if stub and metrics["http.requests"] != stub_delta["requests"]:
                errors.append(f"pass {pass_id}: traced {metrics['http.requests']} HTTP requests, "
                              f"stub received {stub_delta['requests']}")
            per_layer.append(metrics)
        pass_id += 1
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
    result = {
        "import_s": IMPORT_S,
        "chain_s": chain_s,
        "stage_s": {stage: statistics.median(times) for stage, times in stage_s.items()},
        "attempted": attempted,
        "failed": failed,
        "calls_per_record": attempts / records_total if records_total else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "errors": errors,
    }
    if tracer is not None:
        from tracing import LAYER_METRICS, median_metrics

        layers = median_metrics(per_layer)
        layers["trace.chain_s"] = statistics.median(traced_chain_s)
        layers["trace.overhead_s"] = layers["trace.chain_s"] - statistics.median(chain_s)
        result["per_layer"] = {name: {"value": layers[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
