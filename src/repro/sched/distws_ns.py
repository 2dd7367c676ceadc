"""DistWS-NS: the non-selective control (§VIII.3).

Identical machinery to DistWS — private deques per worker, one shared deque
per place, the same four-tier steal order, chunked distributed steals — but
the locality annotation is *ignored*: tasks are "mapped among the private
and shared deques in a round robin fashion, so that there are opportunities
for both local and remote execution of tasks".

The consequence the paper measures: locality-sensitive tasks travel across
nodes, paying fine-grained remote references and result copy-backs instead
of one bulk migration, which inflates L1 miss rates (Table II), message
counts (Table III), and makespan (Fig. 6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.runtime.task import Task
from repro.sched.base import FindWork, Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


class DistWSNS(Scheduler):
    """Non-selective variant: any task may be stolen across places."""

    name = "DistWS-NS"
    remote_chunk_size = 2
    distributed = True
    #: Canonical tier shape (always-random victim order): the base
    #: collapsed-round commit replays the one permutation draw.
    _fast_round_ok = True
    #: By design: any task — sensitive included — may travel.
    enforces_locality = False

    def __init__(self, **knobs) -> None:
        super().__init__(**knobs)
        self._rr: Dict[int, int] = {}

    def map_task(self, task: Task, from_worker=None) -> float:
        self._bound_runtime()
        home = task.home_place
        turn = self._rr.get(home, 0)
        self._rr[home] = turn + 1
        if turn % 2 == 0:
            return self._push_private(task, from_worker)
        return self._push_shared(task)

    def find_work_tail(self, worker: "Worker") -> FindWork:
        task = None
        if self.rt.spec.n_places > 1:
            task = yield from self._steal_remote(
                worker, self._random_place_order(worker))
        return task
