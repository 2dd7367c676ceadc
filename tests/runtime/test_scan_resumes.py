"""The worker's hot cycle stays in the kernel: generator resumes are rare.

The steal scan runs the local tiers, executes the tasks they find and
parks failed rounds without resuming the worker's generator.  The generator resumes to start, to run the policy's remote
tail (``Scheduler.find_work_tail``) and to exit — nothing else.  These
tests count ``Process._step_send``/``_step_throw`` calls per worker
process on a uts test-scale run.
"""

from __future__ import annotations

from collections import Counter

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import SCHEDULERS
from repro.sim import engine

SPEC = ClusterSpec(n_places=4, workers_per_place=3, max_threads=5)


def counted_run(monkeypatch, sched_name):
    """Run uts; return the runtime, per-process resumes outside the tail,
    and per-worker tail entries."""
    _reset_task_ids()
    rt = SimRuntime(SPEC, SCHEDULERS[sched_name](), seed=2)
    resumes: Counter = Counter()
    in_tail: dict = {}
    entries: Counter = Counter()

    def counting(name):
        original = getattr(engine.Process, name)

        def wrapper(self, value):
            if not in_tail.get(self):
                resumes[self] += 1
            return original(self, value)
        return wrapper

    for name in ("_step_send", "_step_throw"):
        monkeypatch.setattr(engine.Process, name, counting(name))
    tail = rt.scheduler.find_work_tail
    if tail is not None:
        def counted_tail(worker):
            entries[worker] += 1
            in_tail[worker.proc] = True
            try:
                return (yield from tail(worker))
            finally:
                in_tail[worker.proc] = False
        rt.scheduler.find_work_tail = counted_tail
    make_app("uts", scale="test", seed=5).run(rt)
    return rt, resumes, entries


def workers(rt):
    return [w for place in rt.places for w in place.workers]


def test_x10ws_generators_resume_only_to_start_and_exit(monkeypatch):
    rt, resumes, _ = counted_run(monkeypatch, "X10WS")
    assert sum(w.tasks_run for w in workers(rt)) > 100
    assert rt.stats.steals.failed_rounds > 0  # parks happened too
    for w in workers(rt):
        assert resumes[w.proc] <= 2, w.wid


def test_distws_generators_resume_only_for_the_remote_tier(monkeypatch):
    rt, resumes, entries = counted_run(monkeypatch, "DistWS")
    assert sum(entries.values()) > 0
    assert rt.stats.steals.shared_local_hits > 0
    assert rt.stats.steals.failed_rounds > 0
    for w in workers(rt):
        # Start and exit, plus one resume handing over each remote-tier
        # entry; tasks, local tiers and parks add none.
        assert resumes[w.proc] <= entries[w] + 2, w.wid
