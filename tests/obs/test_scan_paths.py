"""Observed runs take the kernel-resident steal scan, and it emits exactly
what the generator round emits.

While both round implementations exist (the scan and the generator
``find_work`` prefix), an observer must see the same event stream from
either: same events, same fields, same order, same timestamps, the same
sampler firings — and the simulated run must not change.  The generator
prefix is forced through the stock opt-out seam: a scheduler subclass
that overrides ``find_work`` (here, by delegating straight back to
``Scheduler.find_work``) is never given the scan.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
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


def observed(app_name, sched_cls):
    """JSONL stream, snapshot and kernel event count of one observed run."""
    _reset_task_ids()  # task ids appear in the stream
    rt = SimRuntime(SPEC, sched_cls(), seed=3)
    bus = EventBus(sample_interval=200_000)
    sink = bus.subscribe(InMemorySink())
    bus.subscribe(MetricsRegistry())
    bus.attach(rt)
    stats = make_app(app_name, scale="test", seed=5).run(rt)
    jsonl = "\n".join(ev.to_json() for ev in sink.events)
    return (jsonl, json.dumps(stats.snapshot(), sort_keys=True),
            rt.env.events_processed)


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
def test_scan_and_generator_rounds_emit_identically(app_name, sched_name):
    cls = SCHEDULERS[sched_name]
    scan_jsonl, scan_snap, scan_events = observed(app_name, cls)
    gen_jsonl, gen_snap, gen_events = observed(app_name,
                                               generator_prefix(cls))
    assert scan_jsonl == gen_jsonl
    assert scan_snap == gen_snap
    assert scan_events == gen_events


def test_streams_exercise_the_scan_events():
    """The identity above is not vacuous: the scan's kinds all occur.

    DistWS ships chunks to the mailbox; X10WS parks from the scan's
    kernel-resident idle loop.
    """
    kinds = set()
    for sched_name in ("DistWS", "X10WS"):
        jsonl, _, _ = observed("uts", SCHEDULERS[sched_name])
        kinds.update(json.loads(line)["kind"] for line in jsonl.splitlines())
    assert {"mailbox_get", "steal_attempt", "steal_hit", "worker_park",
            "sample"} <= kinds


@pytest.mark.parametrize("sched_name", ["DistWS", "X10WS"])
def test_observed_runs_take_the_scan(monkeypatch, sched_name):
    """An observer must not send the worker back to the generator round."""
    calls = {"step": 0, "on_wake": 0}

    def counted(name):
        original = getattr(worker_mod._StealScan, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(worker_mod._StealScan, name, counted(name))
    observed("uts", SCHEDULERS[sched_name])
    assert calls["step"] > 0
    if sched_name == "X10WS":
        # No policy tail: the whole idle loop is kernel-resident too.
        assert calls["on_wake"] > 0
