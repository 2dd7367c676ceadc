"""RandomWS: pure randomized distributed work stealing.

The comparator the paper uses for UTS (§X): the lifeline scheduler with
lifelines disabled, i.e. an idle worker makes ``w`` independent uniformly
random remote steal attempts (single task each, no organized victim
traversal, no chunking) and gives up for the round if all fail.  "In
randomized work-stealing, a missed steal does not help future steals."

Mapping honours the locality annotation exactly like DistWS so that the
UTS comparison isolates the *steal strategy*, not the task-selection rule
(every UTS task is flexible anyway).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.task import Task
from repro.sched.base import FindWork, Scheduler
from repro.sched.distws import DistWS

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


class RandomWS(DistWS):
    """DistWS mapping + unorganized random single-task remote steals."""

    name = "RandomWS"
    remote_chunk_size = 1
    distributed = True
    #: Blind random victim selection — the point of the §X comparison.
    #: As with Lifeline, this confines the inherited collapsed-round fast
    #: path to single-place runs: a blind failed round draws victims and
    #: pays round trips no matter what the board says.
    uses_status_board = False

    def __init__(self, attempts_per_round: int = 2, **knobs) -> None:
        super().__init__(remote_chunk_size=1, **knobs)
        #: Random victims tried per failed round (lifeline papers use w=2).
        self.attempts_per_round = attempts_per_round

    def find_work_tail(self, worker: "Worker") -> FindWork:
        task = yield from self._steal_local_shared(worker)
        if task is not None:
            return task
        if self.rt.spec.n_places > 1:
            victims = self._random_victims(worker, "random-victims",
                                           self.attempts_per_round)
            task = yield from self._steal_remote(worker, victims)
        return task
