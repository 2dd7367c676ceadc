"""The zero-overhead guarantee: an empty plan changes nothing at all.

Attaching an empty :class:`FaultPlan` must leave the run's
:meth:`RunStats.snapshot` byte-identical to a run with no injector —
the fault branches in the runtime, network and schedulers all
short-circuit on ``faults is None``.  The observability layer makes the
same promise: attaching an :class:`EventBus` with **no sinks** is a
no-op (``rt.obs`` stays ``None``), so unobserved snapshots are
byte-identical too.

An *inert* plan (a straggler slowed by a factor of 1) does attach an
injector, so every fault branch is taken with nothing to inject: the
run must still be the bare run, apart from the snapshot's ``faults``
block.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.obs import EventBus
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import SCHEDULERS, make_scheduler

from tests.faults.conftest import fanout_program


def run_once(scheduler_name, attach_empty_plan=False,
             attach_sinkless_bus=False):
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
    rt = SimRuntime(spec, make_scheduler(scheduler_name), seed=7)
    if attach_empty_plan:
        FaultInjector(FaultPlan()).attach(rt)
    if attach_sinkless_bus:
        EventBus(sample_interval=100_000).attach(rt)
        assert rt.obs is None  # zero sinks: the attach installed nothing
    stats = rt.run(fanout_program(24, work=500_000, n_places=4))
    return json.dumps(stats.snapshot(), sort_keys=True)


@pytest.mark.parametrize("scheduler_name", ["DistWS", "X10WS"])
def test_empty_plan_is_byte_identical(scheduler_name):
    assert (run_once(scheduler_name, attach_empty_plan=False)
            == run_once(scheduler_name, attach_empty_plan=True))


@pytest.mark.parametrize("scheduler_name", ["DistWS", "X10WS"])
def test_sinkless_event_bus_is_byte_identical(scheduler_name):
    assert (run_once(scheduler_name)
            == run_once(scheduler_name, attach_sinkless_bus=True))


def test_sinkless_bus_snapshot_has_no_obs_key():
    spec = ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)
    rt = SimRuntime(spec, make_scheduler("DistWS"), seed=1)
    EventBus().attach(rt)
    stats = rt.run(fanout_program(8, work=100_000, n_places=2))
    assert "obs" not in stats.snapshot()


def test_empty_plan_snapshot_has_no_faults_key():
    spec = ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)
    rt = SimRuntime(spec, make_scheduler("DistWS"), seed=1)
    FaultInjector(FaultPlan()).attach(rt)
    stats = rt.run(fanout_program(8, work=100_000, n_places=2))
    assert "faults" not in stats.snapshot()


def app_run(app_name, scheduler_name, plan=None):
    """Snapshot and kernel event count of one test-scale app run."""
    _reset_task_ids()
    spec = ClusterSpec(n_places=4, workers_per_place=3, max_threads=6)
    rt = SimRuntime(spec, make_scheduler(scheduler_name), seed=1)
    if plan is not None:
        FaultInjector(FaultPlan.parse(plan)).attach(rt)
    stats = make_app(app_name, scale="test", seed=5).run(rt)
    return stats.snapshot(), rt.env.events_processed


@pytest.mark.parametrize("app_name", ["uts", "turing", "dmg"])
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_inert_plan_is_the_bare_run(scheduler_name, app_name):
    bare, bare_events = app_run(app_name, scheduler_name)
    inert, inert_events = app_run(app_name, scheduler_name,
                                  "straggle:p1x1")
    assert inert.pop("faults")["dropped_total"] == 0
    assert json.dumps(inert, sort_keys=True) == json.dumps(bare,
                                                           sort_keys=True)
    assert inert_events == bare_events
