"""Crashes that used to lose a task for good, so the run never terminated.

- A task stolen from a co-located peer sits in no deque for the 250-cycle
  steal-success stall.  A crash of the thief's place inside that stall
  must still find it (the thief holds it on ``pending_chunk``) and hand
  it to a survivor.
- A crashed place stays registered as a lifeline waiter; Lifeline must
  not push tasks into its mailbox, which nobody drains any more.

Each run is bounded at three times the fault-free makespan, so a lost
task fails the test instead of idling to the default cycle guard.
"""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.obs import EventBus, InMemorySink
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import SCHEDULERS

from tests.obs.test_scan_paths import generator_prefix

SPEC = ClusterSpec(n_places=4, workers_per_place=2, max_threads=6)


def run(app_name, sched_cls, plan=None, max_cycles=1e14, bus=None):
    _reset_task_ids()
    rt = SimRuntime(SPEC, sched_cls(), seed=1)
    if plan is not None:
        FaultInjector(plan).attach(rt)
    if bus is not None:
        bus.attach(rt)
    stats = make_app(app_name, scale="test", seed=5).run(
        rt, max_cycles=max_cycles)
    return rt, stats


@pytest.mark.parametrize("path", ["scan", "generator"])
def test_crash_in_colocated_steal_stall_relocates_the_task(path):
    cls = SCHEDULERS["DistWS"]
    # A crash plan defers task commits, so its timeline is the one of any
    # crash plan up to the crash: take the co-located steals at place 1
    # from a run whose crash comes too late to happen (watching does not
    # change the run), and crash the place 100 cycles before one of their
    # steal-success stalls ends.
    bus = EventBus()
    sink = bus.subscribe(InMemorySink())
    _, late = run("uts", cls, FaultPlan.parse("crash:p1@1e15"), bus=bus)
    hits = [ev.t for ev in sink.events
            if ev.kind == "steal_hit" and ev.fields["tier"] == "local"
            and ev.fields["place"] == 1]
    assert hits
    crash_at = hits[len(hits) // 2] - 100.0
    plan = FaultPlan.parse(f"crash:p1@{crash_at!r},policy:relax")
    if path == "generator":
        cls = generator_prefix(cls)
    rt, stats = run("uts", cls, plan,
                    max_cycles=3 * late.makespan_cycles)
    assert stats.faults.tasks_lost >= 1
    assert stats.tasks_executed == stats.tasks_spawned
    rt.faults.ledger.assert_work_conserved()


@pytest.mark.parametrize("crash", ["p3@0.5", "p3@0.6"])
def test_lifeline_skips_crashed_waiters(crash):
    cls = SCHEDULERS["Lifeline"]
    _, bare = run("kmeans", cls)
    plan = FaultPlan.parse(f"crash:{crash},policy:relax").resolved(
        bare.makespan_cycles)
    rt, stats = run("kmeans", cls, plan,
                    max_cycles=3 * bare.makespan_cycles)
    assert stats.tasks_executed == stats.tasks_spawned
    assert len(rt.places[3].mailbox) == 0
