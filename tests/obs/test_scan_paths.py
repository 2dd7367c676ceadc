"""Observed and faulted runs take the kernel-resident steal scan, and it
emits exactly what the generator round emits.

While both round implementations exist (the scan and the generator
``find_work`` prefix), an observer must see the same event stream from
either: same events, same fields, same order, same timestamps, the same
sampler firings — and the simulated run must not change, under a fault
plan too (crashes, message loss, latency spikes, stragglers).  The generator
prefix is forced through the stock opt-out seam: a scheduler subclass
that overrides ``find_work`` (here, by delegating straight back to
``Scheduler.find_work``) is never given the scan.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.obs import EventBus, InMemorySink
from repro.obs.metrics import MetricsRegistry
from repro.runtime import worker as worker_mod
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import SCHEDULERS
from repro.sched.base import Scheduler

APPS = ("uts", "turing", "dmg")

#: Three workers per place: co-located scans probe two peers, so the
#: scan's next-probe branch is covered, not only its first probe.
SPEC = ClusterSpec(n_places=4, workers_per_place=3, max_threads=5)


def generator_prefix(cls):
    """``cls`` with ``find_work`` overridden, forcing the generator path."""
    return type(f"Generator{cls.__name__}", (cls,),
                {"find_work": lambda self, worker:
                 Scheduler.find_work(self, worker)})


def observed(app_name, sched_cls, plan=None, runtimes=None):
    """JSONL stream, snapshot and kernel event count of one observed run,
    plus the fault injector's event list when ``plan`` is given.  The
    runtime is appended to ``runtimes``, if given."""
    _reset_task_ids()  # task ids appear in the stream
    rt = SimRuntime(SPEC, sched_cls(), seed=3)
    if runtimes is not None:
        runtimes.append(rt)
    injector = FaultInjector(plan).attach(rt) if plan is not None else None
    bus = EventBus(sample_interval=200_000)
    sink = bus.subscribe(InMemorySink())
    bus.subscribe(MetricsRegistry())
    bus.attach(rt)
    stats = make_app(app_name, scale="test", seed=5).run(rt)
    jsonl = "\n".join(ev.to_json() for ev in sink.events)
    return (jsonl, json.dumps(stats.snapshot(), sort_keys=True),
            rt.env.events_processed,
            repr(injector.events) if injector is not None else None)


#: One plan per fault kind; times in (0, 1] are fractions of the cell's
#: fault-free makespan.  The crash plans degrade orphaned sensitive tasks.
FAULT_PLANS = {
    "early-crash": "crash:p1@0.05,policy:relax",
    "mid-crash": "crash:p2@0.5,policy:relax,seed:3",
    "steal-loss": "loss:steal=0.2,seed:4",
    "spike": "spike:@0.2+0.3x8",
    "straggler": "straggle:p3x3",
}


@functools.lru_cache(maxsize=None)
def horizon(app_name, sched_name):
    """The cell's fault-free makespan."""
    _reset_task_ids()
    rt = SimRuntime(SPEC, SCHEDULERS[sched_name](), seed=3)
    return make_app(app_name, scale="test", seed=5).run(rt).makespan_cycles


def fault_plan(app_name, sched_name, plan_name):
    """``FAULT_PLANS[plan_name]`` resolved against the cell's horizon."""
    return FaultPlan.parse(FAULT_PLANS[plan_name]).resolved(
        horizon(app_name, sched_name))


def timeline(app_name, sched_cls):
    """The events of a crash-plan run whose crash comes too late to happen.

    Deferred commits make every crash plan's run the same up to its
    crash, so these events locate crash times that find a worker in a
    chosen state.
    """
    late = FaultPlan.parse("crash:p1@1e15,policy:relax")
    return [json.loads(line)
            for line in observed(app_name, sched_cls, late)[0].splitlines()]


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
def test_scan_and_generator_rounds_emit_identically(app_name, sched_name):
    cls = SCHEDULERS[sched_name]
    assert observed(app_name, cls) == observed(app_name,
                                               generator_prefix(cls))


#: Every scheduler on uts (steal-heavy) under every plan, plus the scan's
#: two shapes — with a policy tail (DistWS) and without (X10WS) — on the
#: locality-sensitive apps under the crash plans that lose tasks there.
FAULT_CASES = (
    [("uts", name, plan) for name in sorted(SCHEDULERS)
     for plan in sorted(FAULT_PLANS)]
    + [(app, name, plan) for name in ("DistWS", "X10WS")
       for app, plan in (("turing", "early-crash"), ("turing", "mid-crash"),
                         ("dmg", "mid-crash"))])


@pytest.mark.parametrize("app_name,sched_name,plan_name", FAULT_CASES)
def test_scan_and_generator_rounds_agree_under_faults(app_name, sched_name,
                                                      plan_name):
    """Snapshot (``faults`` block included), fault event list, JSONL
    stream and ``events_processed`` are byte-identical on both paths."""
    cls = SCHEDULERS[sched_name]
    plan = fault_plan(app_name, sched_name, plan_name)
    scan = observed(app_name, cls, plan)
    assert '"faults"' in scan[1]
    assert scan == observed(app_name, generator_prefix(cls), plan)


@pytest.mark.parametrize("app_name,sched_name",
                         [("uts", "DistWS"), ("turing", "X10WS")])
def test_scan_and_generator_agree_on_a_crash_after_commit(app_name,
                                                          sched_name):
    """A crash inside a post-commit stall counts the task as done.

    Candidates: one cycle before a task that spawned children ends at
    place 1.  The first candidate that commits a task at the crash is
    byte-compared on both paths.
    """
    cls = SCHEDULERS[sched_name]
    events = timeline(app_name, cls)
    parents = {ev["parent"] for ev in events if ev["kind"] == "task_spawn"}
    ends = [ev["t"] for ev in events if ev["kind"] == "task_end"
            and ev["place"] == 1 and ev["task"] in parents]
    for end in ends[len(ends) // 2:]:
        plan = FaultPlan.parse(f"crash:p1@{end - 1.0!r},policy:relax")
        scan = observed(app_name, cls, plan)
        if json.loads(scan[1])["faults"]["committed_at_crash"]:
            assert scan == observed(app_name, generator_prefix(cls), plan)
            return
    pytest.fail("no crash landed in a post-commit stall")


def test_crash_at_the_shared_deque_lock_frees_it(monkeypatch):
    """A crash that finds a worker queued for, or holding, its place's
    shared-deque lock leaves the lock free, as the generator's interrupt
    and ``finally`` do.

    Candidates: one cycle after a tier-2 attempt at place 1.  The test
    runs them until both lock states have been met, byte-comparing each
    candidate that meets a new state with the generator path.
    """
    states = []
    cancel = worker_mod._StealScan.cancel

    def recording_cancel(self):
        ev = self._lock_ev
        if ev is not None:
            states.append("held" if ev.callbacks is None else "queued")
        cancel(self)

    monkeypatch.setattr(worker_mod._StealScan, "cancel", recording_cancel)
    cls = SCHEDULERS["DistWS"]
    attempts = [ev["t"] for ev in timeline("turing", cls)
                if ev["kind"] == "steal_attempt" and ev["tier"] == "shared"
                and ev["place"] == 1]
    for at in attempts[len(attempts) // 2:]:
        plan = FaultPlan.parse(f"crash:p1@{at + 1.0!r},policy:relax")
        met = set(states)
        runtimes = []
        scan = observed("turing", cls, plan, runtimes)
        assert not runtimes[0].places[1].shared.lock.locked
        if set(states) != met:
            assert scan == observed("turing", generator_prefix(cls), plan)
        if {"held", "queued"} <= set(states):
            return
    pytest.fail(f"lock states met: {sorted(set(states))}")


def test_streams_exercise_the_scan_events():
    """The identity above is not vacuous: the scan's kinds all occur.

    DistWS ships chunks to the mailbox and takes from the local shared
    deque (tier 2); X10WS parks from the scan's kernel-resident idle
    loop.  The task events come from the execute halves the scan runs
    itself, spawns included.
    """
    kinds = set()
    tiers = set()
    for sched_name in ("DistWS", "X10WS"):
        jsonl = observed("uts", SCHEDULERS[sched_name])[0]
        for line in jsonl.splitlines():
            event = json.loads(line)
            kinds.add(event["kind"])
            if "tier" in event:
                tiers.add((event["kind"], event["tier"]))
    assert {"mailbox_get", "steal_attempt", "steal_hit", "worker_park",
            "sample", "task_start", "task_end", "task_spawn"} <= kinds
    assert {("steal_attempt", "local"), ("steal_hit", "local"),
            ("steal_attempt", "shared"), ("steal_hit", "shared")} <= tiers


def count_scan_calls(monkeypatch):
    """Count ``_StealScan.step`` and ``on_wake`` calls from now on."""
    calls = {"step": 0, "on_wake": 0}

    def counted(name):
        original = getattr(worker_mod._StealScan, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(worker_mod._StealScan, name, counted(name))
    return calls


@pytest.mark.parametrize("sched_name", ["DistWS", "X10WS"])
def test_observed_runs_take_the_scan(monkeypatch, sched_name):
    """An observer must not send the worker back to the generator round."""
    calls = count_scan_calls(monkeypatch)
    observed("uts", SCHEDULERS[sched_name])
    assert calls["step"] > 0
    if sched_name == "X10WS":
        # No policy tail: the whole idle loop is kernel-resident too.
        assert calls["on_wake"] > 0


@pytest.mark.parametrize("sched_name", ["DistWS", "X10WS"])
def test_crash_plan_runs_take_the_scan(monkeypatch, sched_name):
    """A crash plan does not send the worker back to the generator round:
    the scan runs, and the crash lost work it had to recover."""
    plan = fault_plan("turing", sched_name, "early-crash")
    calls = count_scan_calls(monkeypatch)
    snapshot = json.loads(
        observed("turing", SCHEDULERS[sched_name], plan)[1])
    assert calls["step"] > 0
    assert snapshot["faults"]["tasks_lost"] > 0
