#!/usr/bin/env python
"""Dual-kernel differential: flat vs object kernel on the quick grid.

Runs every quick-grid cell twice — once per kernel, each in a fresh
subprocess so the ``REPRO_KERNEL`` import-time switch takes effect — and
byte-compares the deterministic outputs: simulated observables
(makespan, tasks executed, steal counts) and ``events_processed``.  Any
divergence is a kernel correctness bug by definition: the flat kernel's
contract is that batched same-cycle dispatch, handle recycling, and the
kernel-resident steal scan change *nothing* observable.

The quick uts and turing DistWS cells are also diffed under one fixed
crash + steal-loss + straggler plan, with the crash time resolved
against the cell's fault-free makespan, comparing the ``faults``
snapshot too.  The object kernel always runs the generator round, so
these cells check the flat kernel's crash-aware steal scan against it.

Usage:
    python tools/kernel_diff.py            # quick grid
    python tools/kernel_diff.py --full     # full benchmark grid (slow)

Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.harness import bench  # noqa: E402

#: The faulted cells' plan; ``{crash_at}`` is filled in with
#: ``CRASH_FRACTION`` of the cell's fault-free makespan.
FAULT_PLAN = ("crash:p2@{crash_at},loss:steal=0.1,straggle:p1x2,"
              "policy:relax,seed:7")
CRASH_FRACTION = 0.4
FAULTED = [cell for cell in bench.QUICK_GRID
           if cell["app"] in ("uts", "turing")
           and cell["scheduler"] == "DistWS"]

_SNIPPET = """\
import json, sys
from repro.harness import bench
cell = json.loads(sys.argv[1])
row = bench.run_cell(cell, repeats=1)
print(json.dumps({"cell": row["cell"],
                  "simulated": row["simulated"],
                  "events_processed": row.get("events_processed")},
                 sort_keys=True))
"""


def run_cell_under(cell: dict, kernel: str) -> str:
    env = dict(os.environ)
    env["REPRO_KERNEL"] = kernel
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    out = subprocess.run(
        [sys.executable, "-c", _SNIPPET, json.dumps(cell)],
        env=env, capture_output=True, text=True, timeout=1800)
    if out.returncode != 0:
        raise SystemExit(
            f"cell {bench.cell_key(cell)} crashed under "
            f"REPRO_KERNEL={kernel}:\n{out.stderr}")
    return out.stdout.strip()


def diff(cell: dict, key: str) -> tuple[bool, str]:
    """Run ``cell`` under both kernels; print and return the verdict and
    the flat kernel's output line."""
    flat = run_cell_under(cell, "flat")
    legacy = run_cell_under(cell, "object")
    if flat == legacy:
        events = json.loads(flat)["events_processed"]
        print(f"  OK   {key}: {events} events, identical")
    else:
        print(f"  FAIL {key}:\n    flat:   {flat}\n    object: {legacy}")
    return flat == legacy, flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="diff the full benchmark grid, not just the "
                             "quick cells")
    args = parser.parse_args(argv)

    cells = (bench.DEFAULT_GRID + bench.QUICK_GRID) if args.full \
        else bench.QUICK_GRID
    results = []
    makespans = {}
    for cell in cells:
        key = bench.cell_key(cell)
        ok, flat = diff(cell, key)
        results.append(ok)
        makespans[key] = json.loads(flat)["simulated"]["makespan_cycles"]
    for cell in FAULTED:
        key = bench.cell_key(cell)
        crash_at = CRASH_FRACTION * makespans[key]
        ok, _ = diff(dict(cell, faults=FAULT_PLAN.format(
            crash_at=repr(crash_at))), key + " +faults")
        results.append(ok)
    failures = results.count(False)
    if failures:
        print(f"\n{failures} cell(s) diverged between kernels")
        return 1
    print(f"\nall {len(results)} cells byte-identical across kernels")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
