"""X10WS: the baseline X10 2.2 scheduler.

Help-first work stealing that "operates only within a place" (§III):

- every task — the locality annotation is ignored — maps to a private
  deque at its home place;
- an idle worker steals only from co-located workers; there is no shared
  deque traffic and no cross-place stealing, so inter-node imbalance can
  never be repaired (the effect Fig. 7 shows as ~35% utilization
  disparity).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.runtime.task import Task
from repro.sched.base import FindWork, Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


class X10WS(Scheduler):
    """Intra-place help-first work stealing (the paper's baseline)."""

    name = "X10WS"
    distributed = False
    #: Collapsed-round fast path: the shape is mailbox probe + co-located
    #: scan only — no shared-deque tier, no remote tier.
    _fast_round_ok = True

    def map_task(self, task: Task, from_worker=None) -> float:
        self._bound_runtime()
        return self._push_private(task, from_worker)

    # Work finding is the base prefix and nothing else: mailbox probe
    # (remote asyncs still have to arrive somehow — X10 delivers the
    # shipped activity at its destination place, and the mailbox models
    # that delivery path even though X10WS never steals through it) plus
    # the co-located steal.  No shared-deque tier, no remote tier.
    shared_tier = False
    find_work_tail = None
