"""Traced child of ``run.py --trace 1``: one operation set of a workload
under ``cProfile`` in a fresh interpreter, printed as one JSON line.

Call counts under the profiler repeat exactly only across fresh
processes (two back-to-back runs in one process can differ by a few
hundred generator resumes with identical simulated results), so this
child does no warm-up: its profiled run is the process's first.

Timings are reported in wall seconds with the wall-clock span they
cover; the parent converts them to reference seconds with its speed
sampler, which runs on the core this child pins itself to.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py WORKLOAD SEED SECONDS CPU
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile


def main(argv) -> int:
    from benchlib import reap_children
    from speed import WallClock
    from workloads import WORKLOADS

    name, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    clock = WallClock(cpu=int(argv[3]))
    scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        out = WORKLOADS[name](seed, clock, tmpdir).traced(seconds)
    finally:
        reap_children()
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
