"""The repo benchmark: one command, four workloads, every metric named in
``BENCHMARK.json``.

Run from the repository root::

    python3 perfbench/run.py --workload steal-tree --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics: the same untraced phase
(with cheap spans around layer boundaries), then one operation set
under ``cProfile`` in a fresh child process (``traced.py``).

Human-readable lines (every metric with its unit, sample counts, any
correctness violation and ``error_rate``) come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status is 0 only when a result was
printed.  Every process the run starts, directly or not, has ended and
been reaped before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

from benchlib import (
    LAYERS,
    OTHER,
    become_subreaper,
    layer_metrics,
    median,
    reap_children,
)

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fresh-interpreter import timings per run; ``setup_s`` uses the median.
IMPORT_REPEATS = 3
#: The traced child must finish well inside the benchmark's own limit.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot produce a result here."""


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Call counts under the profiler must repeat exactly run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def bootstrap(root: str) -> None:
    """Make ``root/src`` the only place ``repro`` is imported from."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(f"no src/repro package under {root}; run from "
                         "the repository root")
    sys.path.insert(0, src)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(os.path.abspath(src), "repro"):
        raise BenchError(f"repro imported from {where}, not {src}")


def import_seconds(root: str, statement: str, clock) -> float:
    """Time ``statement`` in fresh interpreters: the median of several,
    in reference seconds."""
    code = ("import time; t0 = time.perf_counter(); " + statement
            + "; print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], cwd=root,
                             env=child_env(root), capture_output=True,
                             text=True, timeout=60, check=True)
        factor = clock.factor(t0, time.perf_counter())
        times.append(float(out.stdout.strip().splitlines()[-1]) * factor)
    return median(times)


def run_traced_child(root: str, workload: str, seed: int,
                     seconds: float, clock) -> dict:
    """One traced operation set in a fresh process; its JSON result
    with every timing converted to reference seconds."""
    with clock.elsewhere():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "traced.py"), workload,
             str(seed), repr(seconds), str(min(clock.cpus))],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"traced child failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    factor = clock.factor(*child["span"])
    child["cost"] *= factor
    child["self_s"] = {k: v * factor for k, v in child["self_s"].items()}
    return child


def per_layer_metrics(child: dict, measured) -> Dict[str, float]:
    """Assemble every per-layer metric from the traced child and the
    untraced phase's spans.  A layer the workload does not run reads 0."""
    self_s = child["self_s"]
    counts = child["counts"]
    out = layer_metrics({name: self_s.get(name, 0.0)
                         for name in (*LAYERS, OTHER)})
    tasks = counts.get("tasks", 0)
    attempts = counts.get("steal_attempts", 0)
    out["runtime.calls_per_task"] = (child["calls"]["runtime"] / tasks
                                     if tasks else 0.0)
    out["sim.events"] = float(counts.get("events", 0))
    out["sched.steal_attempts"] = float(attempts)
    out["sched.steal_hit_ratio"] = (counts.get("steal_hits", 0) / attempts
                                    if attempts else 0.0)
    out["sched.us_per_steal_attempt"] = (self_s["sched"] * 1e6 / attempts
                                         if attempts else 0.0)
    for name in ("obs.overhead_ratio", "harness.claim_ms",
                 "harness.complete_ms", "harness.result_kb",
                 "harness.overhead_share", "serve.submit_ms_p99",
                 "serve.overhead_p50_ms", "serve.cold_fraction",
                 "serve.steal_hit_ratio", "serve.migrations_per_req",
                 "serve.gen_lag_p99_ms"):
        out[name] = 0.0
    out.update(measured.spans)
    out["trace_overhead_ratio"] = child["cost"] / measured.untraced_cost
    return out


def declared_metrics(root: str, trace: bool) -> List[dict]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run(args: argparse.Namespace, root: str, tmpdir: str) -> dict:
    from speed import SpeedSampler
    from workloads import IMPORTS, WORKLOADS

    declared = declared_metrics(root, bool(args.trace))
    exec(IMPORTS[args.workload], {})  # in-process imports, timed below
    with SpeedSampler() as clock:
        import_s = import_seconds(root, IMPORTS[args.workload], clock)
        workload = WORKLOADS[args.workload](args.seed, clock, tmpdir)
        setup_s, measured = workload.session(args.seconds,
                                             spans=bool(args.trace))
        if args.trace:
            child = run_traced_child(root, args.workload, args.seed,
                                     args.seconds, clock)
    ledger = measured.ledger
    if args.trace:
        for why in child["problems"]:
            ledger.violation(f"traced run: {why}")
        values = per_layer_metrics(child, measured)
        measured.notes.append(
            f"traced run: {child['ops']} operations, "
            f"{sum(child['self_s'].values()):.3f} s profiled self time")
    else:
        values = dict(measured.end_to_end, setup_s=import_s + setup_s)
        measured.notes.append(f"setup: imports {import_s:.3f} s + "
                              f"warm-up {setup_s:.3f} s")
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in declared}
    for note in measured.notes:
        print(f"# {note}")
    for why in ledger.violations:
        print(f"! {why}")
    print(f"error_rate {ledger.error_rate:.6f} ratio "
          f"({ledger.failed} failed of {ledger.attempted})")
    width = max(len(n) for n in names)
    for name in names:
        print(f"{name:<{width}}  {metrics[name]['value']:.6g} "
              f"{metrics[name]['unit']}")
    return {"correct": ledger.correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("steal-tree", "phased-ring",
                                 "observed-sweep", "serve-hot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    try:
        bootstrap(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    become_subreaper()
    t0 = time.perf_counter()
    try:
        result = run(args, root, tmpdir)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        reap_children()
        shutil.rmtree(tmpdir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    print(f"# wall {time.perf_counter() - t0:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
