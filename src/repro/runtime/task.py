"""The task (activity) model.

An X10 *activity* becomes a :class:`Task`: a Python callable plus the
metadata the scheduler and cost model need —

- ``home_place`` — the ``p`` of ``async (p) S``;
- ``locality`` — :data:`SENSITIVE` (default, must run at ``home_place``)
  or :data:`FLEXIBLE` (``@AnyPlaceTask``, may be stolen by any place);
- ``work`` — pure-compute cycles of the body;
- ``reads``/``writes`` — the data blocks the body touches (priced by the
  memory model);
- ``encapsulates`` — §II condition (d): when stolen across nodes the blocks
  migrate in bulk once and all subsequent touches are thief-local;
- ``copy_back`` — blocks whose contents must be shipped back to the home
  place after remote execution (the Turing-ring inner-task pathology,
  §IV-B).

The body runs *real Python code* when the task starts executing and may
spawn children through its :class:`TaskContext`; the simulated duration is
``work`` plus the priced memory/communication effects.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.cluster.memory import DataBlock
from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.finish import FinishScope
    from repro.runtime.runtime import SimRuntime


class Locality(enum.Enum):
    """Programmer-declared locality class of a task (§II)."""

    SENSITIVE = "sensitive"
    FLEXIBLE = "flexible"


SENSITIVE = Locality.SENSITIVE
FLEXIBLE = Locality.FLEXIBLE


class TaskState(enum.Enum):
    """Lifecycle of a task inside the runtime."""

    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"


_task_ids = itertools.count()


def _reset_task_ids() -> None:
    """Restart the global id counter (test isolation only)."""
    global _task_ids
    _task_ids = itertools.count()


class Task:
    """One asynchronous activity."""

    __slots__ = (
        "task_id", "label", "body", "home_place", "locality", "work",
        "reads", "writes", "encapsulates", "copy_back", "closure_bytes",
        "state", "finish", "exec_place", "exec_worker", "stolen_locally",
        "stolen_remotely", "depth", "enqueue_time", "start_time", "end_time",
        "committed",
    )

    def __init__(
        self,
        body: Optional[Callable[["TaskContext"], None]],
        home_place: int,
        *,
        locality: Locality = SENSITIVE,
        work: float = 0.0,
        reads: Sequence[DataBlock] = (),
        writes: Sequence[DataBlock] = (),
        encapsulates: bool = False,
        copy_back: Sequence[DataBlock] = (),
        closure_bytes: int = 256,
        label: str = "",
        depth: int = 0,
    ) -> None:
        if work < 0:
            raise SchedulerError(f"negative task work: {work}")
        self.task_id = next(_task_ids)
        self.label = label
        self.body = body
        self.home_place = home_place
        self.locality = locality
        self.work = float(work)
        self.reads: Tuple[DataBlock, ...] = tuple(reads)
        self.writes: Tuple[DataBlock, ...] = tuple(writes)
        self.encapsulates = bool(encapsulates)
        self.copy_back: Tuple[DataBlock, ...] = tuple(copy_back)
        self.closure_bytes = int(closure_bytes)
        self.state = TaskState.CREATED
        self.finish: Optional["FinishScope"] = None
        self.exec_place: Optional[int] = None
        self.exec_worker: Optional[int] = None
        self.stolen_locally = False
        self.stolen_remotely = False
        #: Whether the task's real effects (body, child spawns) have become
        #: visible.  Only meaningful under crash-safe execution: a crash
        #: before the commit point loses the task cleanly (re-executable
        #: exactly once); a crash after it counts the task as completed.
        self.committed = False
        self.depth = depth
        self.enqueue_time: float = 0.0
        self.start_time: float = 0.0
        self.end_time: float = 0.0

    # -- convenience -----------------------------------------------------
    @property
    def is_flexible(self) -> bool:
        """Whether the task carries the ``@AnyPlaceTask`` annotation."""
        return self.locality is FLEXIBLE

    @property
    def footprint_bytes(self) -> int:
        """Total bytes of the blocks the task touches (dedup by id)."""
        seen = {}
        for b in self.reads + self.writes:
            seen[b.block_id] = b.nbytes
        return sum(seen.values())

    def blocks(self) -> List[DataBlock]:
        """All touched blocks in declaration order, repeats preserved."""
        return list(self.reads) + list(self.writes)

    def unique_blocks(self) -> List[DataBlock]:
        """Touched blocks, de-duplicated by id (first occurrence wins)."""
        seen: dict[int, DataBlock] = {}
        for b in self.reads + self.writes:
            seen.setdefault(b.block_id, b)
        return list(seen.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Task {self.task_id} {self.label or 'anon'} "
                f"@p{self.home_place} {self.locality.value} "
                f"work={self.work:.0f}>")


class TaskContext:
    """What a task body sees while it runs.

    ``ctx.place`` is the place the body is *actually* executing at (which
    differs from ``task.home_place`` after a remote steal).  ``ctx.spawn``
    creates child activities; children default to the executing place, which
    is how a stolen Delaunay triangle "makes work available for other
    co-located workers in the thief node" (§IV-B).
    """

    __slots__ = ("runtime", "task", "place", "worker_id", "_children")

    def __init__(self, runtime: "SimRuntime", task: Task, place: int,
                 worker_id: int) -> None:
        self.runtime = runtime
        self.task = task
        self.place = place
        self.worker_id = worker_id
        self._children: List[Task] = []

    @property
    def now(self) -> float:
        """Current simulated time in cycles."""
        return self.runtime.env.now

    @property
    def n_places(self) -> int:
        """Number of places in the cluster."""
        return self.runtime.spec.n_places

    def rng(self, *names: object):
        """Deterministic RNG substream scoped to this task's label path."""
        return self.runtime.rngs.stream("task", self.task.label, *names)

    def spawn(
        self,
        body: Optional[Callable[["TaskContext"], None]],
        place: Optional[int] = None,
        *,
        locality: Optional[Locality] = None,
        flexible: Optional[bool] = None,
        work: float = 0.0,
        reads: Sequence[DataBlock] = (),
        writes: Sequence[DataBlock] = (),
        encapsulates: bool = False,
        copy_back: Sequence[DataBlock] = (),
        closure_bytes: int = 256,
        label: str = "",
        finish: Optional["FinishScope"] = None,
    ) -> Task:
        """``async (p) S`` from inside a running activity.

        ``finish`` overrides the scope the child joins (default: the
        parent's scope).  Locality can be given either as ``locality=``
        (a :class:`Locality`) or ``flexible=`` (the ``@AnyPlaceTask``
        boolean, mirroring :meth:`repro.apgas.api.Apgas.async_at`);
        default sensitive.
        """
        if locality is not None and flexible is not None:
            raise SchedulerError("pass either locality= or flexible=")
        if locality is None:
            if flexible is not None:
                locality = FLEXIBLE if flexible else SENSITIVE
            else:
                from repro.apgas.annotations import resolve_locality
                locality = resolve_locality(body, None)
        child = Task(
            body, self.place if place is None else place,
            locality=locality, work=work, reads=reads, writes=writes,
            encapsulates=encapsulates, copy_back=copy_back,
            closure_bytes=closure_bytes, label=label,
            depth=self.task.depth + 1)
        if finish is not None:
            child.finish = finish
        self._children.append(child)
        return child

    def drain_children(self) -> List[Task]:
        """Take and clear the children spawned so far (runtime internal)."""
        children, self._children = self._children, []
        return children
