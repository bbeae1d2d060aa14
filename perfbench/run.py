"""Benchmark entry point.

    python3 perfbench/run.py --workload trace|duality|approx --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``ckomega`` from its
``src`` directory. One process, one thread: the BLAS thread variables
default to 1 and a run whose caller set them otherwise is flagged.

--trace 0 prints the end-to-end metrics; --trace 1 the per-layer metrics
from a traced run, with the tracing overhead. The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the full
record, with the environment, goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # this process plus four fresh ones
MIN_SESSIONS = 3
MIN_TASKS = 100


class BenchError(Exception):
    """The benchmark cannot run here (missing source, failed set-up)."""


def pin_threads() -> dict:
    from perfbench.envinfo import THREAD_VARS

    caller = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ.setdefault(v, "1")
    return caller


def setup(workload: str, seed: int):
    """Import the program and run one minimal instance of every task kind.
    Returns (setup seconds, import seconds); the time spent generating the
    warm-up inputs is not counted."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ckomega
        import ckomega.cli  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"cannot import ckomega from {ROOT / 'src'}: {exc}") from exc
    t_import = time.perf_counter() - t0
    if Path(ckomega.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        raise BenchError(f"ckomega imported from {ckomega.__file__}, not from this checkout")
    from perfbench import tracer, workloads

    warmup = workloads.build(workload, seed, minimal=True)
    t1 = time.perf_counter()
    state: dict = {}
    for task in warmup:
        task.run(state, tracer.NULL_TRACER)
    return t_import + time.perf_counter() - t1, t_import


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_session(tasks, tr):
    """Run the task list once. Returns (wall seconds, per-task seconds,
    per-task outputs, per-task error text or None)."""
    state: dict = {}
    times, outputs, errors = [], [], []
    start = time.perf_counter()
    for task in tasks:
        tr.task = task.id
        t0 = time.perf_counter()
        try:
            with tr.span("task", kind=task.kind):
                out, err = task.run(state, tr), None
        except Exception as exc:  # a failing task is counted; the session goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    return time.perf_counter() - start, times, outputs, errors


def check_session(tasks, outputs, errors) -> list[str]:
    """Oracle checks, outside every timed span. Returns the misses."""
    misses = []
    for task, out, err in zip(tasks, outputs, errors):
        if err is None:
            try:
                err = task.check(out)
            except Exception as exc:  # an output the oracle cannot read is a miss
                err = f"oracle could not read the output: {type(exc).__name__}: {exc}"
        if err is not None:
            misses.append(f"{task.id} {task.kind}: {err}")
    return misses


class Sessions:
    """Runs sessions and keeps the counts every mode reports."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.attempted = 0
        self.misses: list[str] = []

    def run(self, tr):
        wall, times, outputs, errors = run_session(self.tasks, tr)
        self.attempted += len(self.tasks)
        self.misses += check_session(self.tasks, outputs, errors)
        return wall, times, outputs

    def repeat(self, tr, seconds, min_sessions, min_tasks=0):
        walls, times = [], []
        start = time.perf_counter()
        while (len(walls) < min_sessions or time.perf_counter() - start < seconds
               or len(times) < min_tasks):
            wall, t, _ = self.run(tr)
            walls.append(wall)
            times += t
        return walls, times


def untraced(seconds, tasks, setup_s):
    from perfbench import metrics, tracer

    sessions = Sessions(tasks)
    walls, times = sessions.repeat(tracer.NULL_TRACER, seconds, MIN_SESSIONS, MIN_TASKS)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return sessions, metrics.end_to_end(walls, times, setup_s, rss), {"sessions": len(walls),
                                                                      "session_walls_s": walls}


def traced(workload, seed, seconds, tasks, import_s):
    """Untraced sessions for a third of the time, then one session measuring
    tracemalloc peaks, then traced sessions for the per-layer values."""
    from ckomega.jackson import kernel_normalize

    from perfbench import metrics, tracer

    sessions = Sessions(tasks)
    start = time.perf_counter()
    plain, _ = sessions.repeat(tracer.NULL_TRACER, seconds / 3, 2)
    tr = tracer.Tracer()
    per_session, cli_ms = [], {}
    with tracer.wrapped_layers(tr):
        tr.memory_names = metrics.MEMORY_SPANS
        sessions.run(tr)
        peaks = metrics.memory_peaks(tr.spans)
        tr.memory_names = frozenset()
        walls = []
        while len(walls) < 2 or time.perf_counter() - start < seconds:
            first = len(tr.spans)
            wall, _, outputs = sessions.run(tr)
            walls.append(wall)
            spans = [tracer.Span(sp.id - first, sp.name, sp.task,
                                 None if sp.parent is None or sp.parent < first else sp.parent - first,
                                 sp.start, sp.end, sp.attrs) for sp in tr.spans[first:]]
            by_kind: dict = {}
            for task, out in zip(tasks, outputs):
                if out is not None:  # a task that raised is counted in failed
                    by_kind.setdefault(task.kind, []).append(out)
            per_session.append(metrics.session_layers(spans, by_kind))
            for sp in spans:
                if sp.name in metrics.CLI_SPANS:
                    cli_ms.setdefault(sp.task, []).append(sp.duration)
    layers = metrics.median_layers(per_session)
    layers.update(peaks)

    overhead = 0.0
    for task in tasks:
        if task.direct is not None:
            direct = []
            for _ in cli_ms[task.id]:
                t0 = time.perf_counter()
                task.direct()
                direct.append(time.perf_counter() - t0)
            overhead += statistics.median(cli_ms[task.id]) - statistics.median(direct)
    layers["cli.overhead_ms"] = (1000 * overhead, "ms")
    layers["import_ms"] = (1000 * import_s, "ms")

    Ns = sorted({task.attrs["N"] for task in tasks if "N" in task.attrs})
    cold = 0.0
    for N in Ns:
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel_normalize.__wrapped__(N)
            reps.append(time.perf_counter() - t0)
        cold += statistics.median(reps)
    layers["jackson.kernel_normalize_ms"] = (1000 * cold, "ms")
    layers["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain), "s")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-seed{seed}.json", "w") as fh:
        json.dump([sp.to_dict() for sp in tr.spans], fh)
    return sessions, layers, {"sessions": len(plain) + 1 + len(walls),
                              "untraced_session_s": statistics.median(plain),
                              "traced_session_s": statistics.median(walls)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("trace", "duality", "approx"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    sys.path.insert(0, str(ROOT))
    caller_threads = pin_threads()
    started = time.time()
    try:
        setup_s, import_s = setup(args.workload, args.seed)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if not args.trace:
            setup_samples = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    from perfbench import envinfo, workloads

    tasks = workloads.build(args.workload, args.seed)
    # the harness's own long-lived objects are left out of later collections,
    # so collector pauses scale with the program's allocations alone
    gc.collect()
    gc.freeze()
    if args.trace:
        sessions, metrics_, extra = traced(args.workload, args.seed, args.seconds, tasks, import_s)
    else:
        sessions, metrics_, extra = untraced(args.seconds, tasks, setup_samples)
        extra["setup_samples_s"] = setup_samples
    failed = len(sessions.misses)
    env = envinfo.environment(ROOT, args.seed, caller_threads)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started": started, "finished": time.time(), "attempted": sessions.attempted, "failed": failed,
        "fail_frac": failed / sessions.attempted, "misses": sessions.misses[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_.items()}, "env": env, **extra,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}.json"
    with open(results / name, "w") as fh:
        json.dump(record, fh, indent=1)

    if not env["threads_pinned"]:
        print(f"warning: thread variables not pinned to 1: {caller_threads}", file=sys.stderr)
    for miss in sessions.misses[:10]:
        print(f"oracle miss: {miss}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} sessions={extra['sessions']} env={json.dumps(env)}")
    for k, (v, u) in metrics_.items():
        print(f"{k:34s} {v:16.6f} {u}")
    print(f"{'fail_frac':34s} {record['fail_frac']:16.6f} ({failed}/{sessions.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": sessions.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
