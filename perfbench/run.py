"""Benchmark of the prefpipe CLI chain.

    python3 perfbench/run.py --workload chain-mock --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout; it imports prefpipe from ``src/`` and
writes only under ``.perfbench_work/``. See ``perfbench/README.md`` for the
workloads and metrics.

It starts fresh pipeline processes that only set the workload up, then one
that also runs timed passes for ``--seconds`` and checks every pass, then more
set-up-only ones. ``setup_s`` is the median of all their set-ups, and
``import_s`` the median of their ``import prefpipe.cli`` times. With
``--trace 0`` the passes are untraced and it reports the end-to-end metrics;
``import_s``, a per-layer metric, is printed as a plain line. With
``--trace 1`` the second half of the passes is traced, and it reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("chain-mock", "chain-http", "transfer-rank")
# Set-up samples are taken before and after the measuring process, so that
# their median spans the whole run rather than one moment of it.
SETUP_SAMPLES = 2  # set-up-only processes on each side
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "chain_s": "s",
    "setup_s": "s",
    "calls_per_record": "count",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def _spawn(argv: list[str], log, deadline: float) -> tuple[subprocess.Popen, threading.Timer]:
    """Start a process in its own process group, killed whole at the deadline."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT, start_new_session=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    watchdog.start()
    return proc, watchdog


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _finish(proc: subprocess.Popen, watchdog: threading.Timer) -> int:
    """Wait for the process, then make sure nothing it started outlives it."""
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    _kill_group(proc.pid)
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return code


def run_worker(extra: list[str], log, deadline: float) -> tuple[float, float, str]:
    """Start one pipeline process; return (set-up seconds, its import seconds,
    the rest of its standard output)."""
    start = time.perf_counter()
    proc, watchdog = _spawn([sys.executable, WORKER, *extra], log, deadline)
    try:
        ready = proc.stdout.readline().split()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        code = _finish(proc, watchdog)
    if len(ready) != 2 or ready[0] != "READY" or code != 0:
        raise WorkerFailed(f"pipeline process exited {code} (ready line {ready!r})")
    return setup_s, float(ready[1]), rest


def main() -> int:
    parser = argparse.ArgumentParser(description="prefpipe CLI-chain benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "prefpipe", "cli.py")):
        print("perfbench: src/prefpipe not found; run from the root of a prefpipe checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    bench_dir = os.path.join(ROOT, ".perfbench_work")
    run_dir = os.path.join(bench_dir, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    log_path = os.path.join(run_dir, "stderr.log")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    measure = [*common, "--work", os.path.join(run_dir, "measure")]
    if args.trace:
        measure += ["--trace-out", os.path.join(bench_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")]
    setups, imports = [], []
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            for i in range(2 * SETUP_SAMPLES + 1):
                if i == SETUP_SAMPLES:
                    s, imp, rest = run_worker(measure, log, deadline)
                else:
                    s, imp, _ = run_worker([*common, "--work", os.path.join(run_dir, f"setup{i}"), "--setup-only"],
                                           log, deadline)
                setups.append(s)
                imports.append(imp)
        result = json.loads(rest.strip().splitlines()[-1])
    except (WorkerFailed, ValueError, IndexError) as exc:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-4000:]
        print(f"perfbench: {exc}\n{tail}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    import_s = {"value": statistics.median(imports), "unit": "s"}
    if args.trace:
        metrics = {**result["per_layer"], "import_s": import_s}
    else:
        values = {
            "chain_s": statistics.median(result["chain_s"]),
            "setup_s": statistics.median(setups),
            "calls_per_record": result["calls_per_record"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"{args.workload} import_s = {import_s['value']!r} s")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    failed_share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{args.workload} failed_share = {failed_share!r} ratio ({result['failed']}/{result['attempted']})")
    if not args.trace:
        print(f"{args.workload} chain_s per pass: {result['chain_s']}")
        for stage, seconds in result["stage_s"].items():
            print(f"{args.workload} stage {stage}: median {seconds!r} s")
    for path, digest in sorted(result["digests"].items()):
        print(f"{args.workload} sha256 {digest} {path}")
    for error in result["errors"]:
        print(f"{args.workload} CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
