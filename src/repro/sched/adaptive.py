"""AdaptiveDistWS: locality classification without annotations.

The paper (§II) notes the locality-flexibility attributes — "critical
path, remote data-access overheads, and task granularities" — "can be
derived a priori through static analyses, or can be computed on the fly",
and leaves the runtime-derived variant unexplored.  This scheduler
implements that extension: it ignores the programmer's annotation and
classifies each task at spawn time from the properties the runtime can
see,

- **granularity** — the task's declared work must be large enough to
  amortise a distributed steal (§II condition c);
- **transfer economy** — the data the task would drag along must be
  small relative to its compute (conditions a/d: bytes-per-cycle bound);
- **result affinity** — tasks with declared ``copy_back`` results are
  pinned (their output must return home anyway).

Tasks classified flexible are shipped *with* their data (the runtime
decides to encapsulate, exactly what an X10 ``at`` does with captured
state); everything else is treated as sensitive.

The ablation benchmark compares it against annotated DistWS: the paper's
premise predicts the programmer's knowledge wins (the classifier cannot
see algorithmic intent, e.g. "this cell's children will all run here"),
but the adaptive variant should recover much of the gain over X10WS with
zero annotations.
"""

from __future__ import annotations

from repro.runtime.task import Task
from repro.sched.distws import DistWS


class AdaptiveDistWS(DistWS):
    """DistWS with runtime-derived (annotation-free) task classification."""

    name = "AdaptiveDistWS"
    #: The classifier deliberately overrides annotations, so the
    #: annotation-based locality guarantee does not apply.
    enforces_locality = False

    def __init__(self, min_work: float = 400_000.0,
                 max_bytes_per_kcycle: float = 600.0,
                 remote_chunk_size: int = 2, **knobs) -> None:
        super().__init__(remote_chunk_size=remote_chunk_size, **knobs)
        #: Minimum declared work (cycles) to consider a task stealable.
        self.min_work = min_work
        #: Transfer-economy bound: footprint bytes per 1000 work cycles.
        self.max_bytes_per_kcycle = max_bytes_per_kcycle
        #: Classification counters (for the ablation report).
        self.classified_flexible = 0
        self.classified_sensitive = 0

    def classify_flexible(self, task: Task) -> bool:
        """Would this task amortise a distributed steal?"""
        if task.work < self.min_work:
            return False
        if task.copy_back:
            return False
        footprint = task.footprint_bytes + task.closure_bytes
        if footprint > self.max_bytes_per_kcycle * task.work / 1000.0:
            return False
        return True

    def map_task(self, task: Task, from_worker=None) -> float:
        rt = self._bound_runtime()
        # Every task pays for its classification plus the deque operation
        # it ends up taking.
        base = rt.costs.locality_mapping_overhead
        if not self.classify_flexible(task):
            self.classified_sensitive += 1
            return base + self._push_private(task, from_worker)
        self.classified_flexible += 1
        # The runtime decided this task travels well: ship its data with
        # the closure if it is ever stolen.
        task.encapsulates = True
        place = rt.places[task.home_place]
        if self._keep_local(place):
            place.pick_private_deque().push(task)
            return base + rt.costs.private_deque_op
        return base + self._push_shared(task)
