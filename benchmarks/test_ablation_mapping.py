"""Ablation of Algorithm 1's idle/under-utilized mapping redirection
(DESIGN.md §5, item 3).

Lines 4-8 of Algorithm 1 redirect a flexible task to a *private* deque
when its place is idle or under-utilized, instead of always publishing it
on the shared deque.  The paper argues this "prioritizes the utilization
of all available cores ... and eliminates the cost of unwarranted steal
operations".  The ablation maps every flexible task to the shared deque
and measures the cost.
"""

from __future__ import annotations

import pytest

from repro.harness.experiment import run_cell
from repro.runtime.task import Task
from repro.sched.distws import DistWS


class AlwaysSharedDistWS(DistWS):
    """DistWS without the idle/under-utilized private redirection."""

    name = "DistWS-AlwaysShared"

    def map_task(self, task: Task, from_worker=None) -> float:
        rt = self._bound_runtime()
        if not task.is_flexible:
            return self._push_private(task, from_worker)
        return (rt.costs.locality_mapping_overhead
                + self._push_shared(task))


@pytest.mark.benchmark(group="ablation-mapping")
def test_idle_redirection_helps(benchmark):
    from repro.sched import SCHEDULERS
    SCHEDULERS.setdefault("DistWS-AlwaysShared", AlwaysSharedDistWS)

    def run():
        rows = {}
        for sched in ("DistWS", "DistWS-AlwaysShared"):
            cell = run_cell("turing", sched, sched_seeds=(1, 2))
            rows[sched] = (cell.mean_makespan_ms,
                           cell.mean(lambda r:
                                     r.stats.steals.total_attempts))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    base_ms, base_attempts = rows["DistWS"]
    abl_ms, abl_attempts = rows["DistWS-AlwaysShared"]
    print(f"\nAlgorithm-1 mapping: {base_ms:.2f} ms "
          f"({base_attempts:.0f} steal attempts); always-shared: "
          f"{abl_ms:.2f} ms ({abl_attempts:.0f} attempts)")
    # Publishing everything forces workers to fight over the shared deque
    # for work that could have been handed to them directly: more steal
    # attempts, and no makespan win.
    assert abl_attempts > base_attempts
    assert base_ms <= abl_ms * 1.10
