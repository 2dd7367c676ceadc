"""Record ``reference.json``: the simulated observables (makespan,
tasks, steals, network messages, events processed) of every cell the
benchmark checks, for each scheduler-seed variant.

The simulator is deterministic, so a change that moves any of these
numbers changes simulated behaviour; rerun this only for a change that
means to.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time


def main() -> int:
    from speed import WallClock
    from workloads import (
        REFERENCE_PATH,
        SEED_VARIANTS,
        WORKLOADS,
        bare_run,
        observables,
    )

    reference = {}
    clock = WallClock()
    with tempfile.TemporaryDirectory() as tmpdir:
        for seed in range(SEED_VARIANTS):
            for name in ("steal-tree", "phased-ring"):
                workload = WORKLOADS[name](seed, clock, tmpdir)
                for scheduler in workload.schedulers:
                    cell = workload.run_cell(scheduler)
                    reference[workload.key(scheduler)] = observables(
                        cell["snapshot"], cell["events"])
                    a, z = cell["span"]
                    print(f"{workload.key(scheduler)} {z - a:.3f} s",
                          flush=True)
            sweep = WORKLOADS["observed-sweep"](seed, clock, tmpdir)
            t0 = time.perf_counter()
            for (app, scheduler), spec in zip(sweep.cells, sweep.specs):
                _span, snap, events = bare_run(spec)
                reference[sweep.key(app, scheduler)] = observables(
                    snap, events)
            print(f"sweep s{sweep.sched_seed} "
                  f"{time.perf_counter() - t0:.3f} s", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
