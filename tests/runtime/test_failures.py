"""Failure-injection tests: runtime errors must surface, not hang."""

from __future__ import annotations

import pytest

from repro import ClusterSpec, DistWS, SimRuntime
from repro.apgas import Apgas
from repro.errors import SimulationError
from repro.obs import EventBus, InMemorySink
from repro.sched import SCHEDULERS


def small_spec():
    return ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)


def routed(sched_cls):
    """``sched_cls`` publishing tasks labelled ``to-shared`` on their home
    place's shared deque (every other task maps as usual), so a test can
    decide which steal tier finds a given task."""
    def map_task(self, task, from_worker=None):
        if task.label == "to-shared":
            self._bound_runtime()
            return self._push_shared(task)
        return sched_cls.map_task(self, task, from_worker)
    return type(f"Routed{sched_cls.__name__}", (sched_cls,),
                {"map_task": map_task})


#: Tier -> (workers per place, the (local, shared, remote) steal hits
#: counted when the failing body starts, place the body runs at).
TIERS = {
    # The root task itself, popped from its worker's own deque.
    "own": (2, (0, 0, 0), 0),
    # A sensitive child on the parent's own deque: the idle co-located
    # peer steals it from the old end.
    "colocated": (2, (1, 0, 0), 0),
    # A flexible child on place 0's shared deque: the idle co-located
    # peer takes it long before a remote request could land.
    "shared": (2, (0, 1, 0), 0),
    # Place 0's only worker is busy with the parent: place 1 steals.
    "remote": (1, (0, 0, 1), 1),
}

#: X10WS (whose whole idle loop is kernel-resident) has no shared or
#: remote tier.
CASES = [("X10WS", "own"), ("X10WS", "colocated")] + [
    (sched, tier) for sched in ("DistWS", "Lifeline") for tier in TIERS]


class TestTaskBodyFailures:
    @pytest.mark.parametrize("observed", [False, True],
                             ids=["bare", "observed"])
    @pytest.mark.parametrize("sched_name,tier", CASES)
    def test_body_exception_aborts_run(self, sched_name, tier, observed):
        """A failing body surfaces as a dead worker whichever tier found
        the task — whether the kernel-resident scan runs it or the
        worker's generator hands it over after a remote steal."""
        workers, hits, exec_place = TIERS[tier]
        spec = ClusterSpec(n_places=2, workers_per_place=workers,
                           max_threads=4)
        rt = SimRuntime(spec, routed(SCHEDULERS[sched_name])(), seed=0)
        if observed:
            bus = EventBus()
            bus.subscribe(InMemorySink())
            bus.attach(rt)
        boom = ValueError(f"boom in a task found by the {tier} tier")
        seen = []

        def bad(ctx):
            st = rt.stats.steals
            seen.append((ctx.place, (st.local_hits, st.shared_local_hits,
                                     st.remote_hits)))
            raise boom

        def parent(ctx):
            if tier == "colocated":
                ctx.spawn(bad, work=1_000, label="bad")
            else:
                ctx.spawn(bad, flexible=True, work=1_000, label="to-shared")

        def program(rt):
            if tier == "own":
                Apgas(rt).async_at(0, bad, work=1_000, label="bad")
            else:
                Apgas(rt).async_at(0, parent, work=5_000_000,
                                   label="parent")

        with pytest.raises(SimulationError) as err:
            rt.run(program)
        assert err.value.__cause__ is boom
        # The task really was found by the tier under test.
        assert seen == [(exec_place, hits)]

    def test_bad_spawn_arguments_abort_run(self):
        rt = SimRuntime(small_spec(), DistWS(), seed=0)

        def program(rt):
            ap = Apgas(rt)

            def parent(ctx):
                # Both locality forms at once is a usage error.
                from repro.runtime.task import FLEXIBLE
                ctx.spawn(None, locality=FLEXIBLE, flexible=True,
                          work=10, label="child")

            ap.async_at(0, parent, work=1000, label="parent")

        with pytest.raises(SimulationError):
            rt.run(program)

    def test_failure_in_later_task_still_surfaces(self):
        rt = SimRuntime(small_spec(), DistWS(), seed=0)
        ran = []

        def program(rt):
            ap = Apgas(rt)
            for i in range(6):
                def ok(ctx, i=i):
                    ran.append(i)
                ap.async_at(i % 2, ok, work=100_000, label="ok")

            def bad(ctx):
                raise RuntimeError("late failure")

            ap.async_at(1, bad, work=500_000, label="bad")

        with pytest.raises(SimulationError):
            rt.run(program)
        assert ran  # earlier tasks did run


class TestNonTermination:
    def test_guard_cycle_budget_enforced(self):
        rt = SimRuntime(small_spec(), DistWS(), seed=0)

        def program(rt):
            ap = Apgas(rt)
            ap.async_at(0, None, work=1e9, label="long")

        with pytest.raises(SimulationError):
            rt.run(program, max_cycles=1000.0)
