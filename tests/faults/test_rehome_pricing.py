"""A child the fault injector re-homes is priced at its final home.

``SimRuntime.spawn`` lets the injector move a child addressed to a dead
place onto a survivor before the scheduler maps it, and returns the price
of the mapping decision ``Scheduler.map_task`` actually made.  The cycles
the spawning worker charges for each re-homed child must therefore be the
price of the deque operation the child took at its final home — not a
quote of the dead place's keep-local state (DistWS) or round-robin turn
(DistWS-NS).
"""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import make_scheduler

PLAN = "crash:p2@0.3,policy:relax"


def spec():
    return ClusterSpec(n_places=4, workers_per_place=2, max_threads=6)


def run_turing(sched_name, plan=None, spawned=None):
    """One test-scale turing run; ``spawned`` collects every child spawn
    made by a worker as ``(re-homed, charged price, deque-op price)``."""
    _reset_task_ids()
    rt = SimRuntime(spec(), make_scheduler(sched_name), seed=1)
    if plan is not None:
        FaultInjector(plan).attach(rt)
    if spawned is not None:
        costs = rt.costs
        plain_spawn = rt.spawn

        def spawn(task, from_place=None, finish=None, from_worker=None):
            addressed = task.home_place
            pushes = [p.shared.pushes for p in rt.places]
            price = plain_spawn(task, from_place, finish, from_worker)
            if from_worker is not None:
                home = task.home_place
                took_shared = rt.places[home].shared.pushes > pushes[home]
                op = (costs.shared_deque_op if took_shared
                      else costs.private_deque_op)
                if sched_name == "DistWS" and task.is_flexible:
                    # Consulting the place-status object comes on top.
                    op += costs.locality_mapping_overhead
                spawned.append((home != addressed, price, op))
            return price

        rt.spawn = spawn
    stats = make_app("turing", scale="test", seed=5).run(rt)
    return stats


@pytest.mark.parametrize("sched_name", ["DistWS", "DistWS-NS"])
def test_rehomed_child_priced_at_final_home(sched_name):
    horizon = run_turing(sched_name).makespan_cycles
    plan = FaultPlan.parse(PLAN).resolved(horizon)
    spawned = []
    stats = run_turing(sched_name, plan, spawned)
    rehomed = [row for row in spawned if row[0]]
    assert stats.faults.tasks_rehomed > 0
    assert len(rehomed) >= 10  # the repro re-homes a couple dozen
    # Both kinds of deque op occur among the re-homed children, so the
    # equality below distinguishes a right price from a wrong one.
    assert len({op for _, _, op in rehomed}) == 2
    for _, charged, op in spawned:
        assert charged == op
