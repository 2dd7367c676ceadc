"""``finish`` semantics: hierarchical task-completion scopes.

X10's ``finish S`` blocks until every activity transitively spawned inside
``S`` terminates.  In the simulator nothing blocks a Python thread; instead
a :class:`FinishScope` counts registered tasks and fires a continuation when
the count drains.  Applications use scopes to build phase barriers (e.g. the
Turing ring's per-iteration barrier) by spawning the next phase from the
continuation.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import SimulationError


class FinishScope:
    """Counts live tasks; runs continuations when the count reaches zero.

    A scope starts *open*: tasks may still be registered, so draining to
    zero does not complete it.  :meth:`close` seals the scope; completion
    fires when (closed and pending == 0).
    """

    __slots__ = ("name", "parent", "_pending", "_closed", "_completed",
                 "_continuations")

    def __init__(self, name: str = "finish",
                 parent: Optional["FinishScope"] = None) -> None:
        self.name = name
        self.parent = parent
        self._pending = 0
        self._closed = False
        self._completed = False
        self._continuations: List[Callable[[], None]] = []
        if parent is not None:
            # A child scope counts as one unit of work in its parent so the
            # parent cannot complete while the child is live.
            parent.register()

    # -- state -----------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of registered-but-unfinished tasks (plus live child scopes)."""
        return self._pending

    @property
    def completed(self) -> bool:
        """Whether the scope has sealed and fully drained."""
        return self._completed

    # -- protocol ----------------------------------------------------------
    def register(self) -> None:
        """Account one task (or child scope) spawned under this scope."""
        if self._completed:
            raise SimulationError(f"register on completed scope {self.name!r}")
        self._pending += 1

    def task_done(self) -> None:
        """Account one completion; may complete the scope."""
        if self._pending <= 0:
            raise SimulationError(f"task_done underflow in scope {self.name!r}")
        self._pending -= 1
        if not self._pending:
            self._maybe_complete()

    def close(self) -> None:
        """Seal the scope: no further registrations are expected.

        Idempotent.  If everything already drained, completes immediately.
        """
        self._closed = True
        self._maybe_complete()

    def on_complete(self, continuation: Callable[[], None]) -> None:
        """Run ``continuation`` when the scope completes (immediately if done)."""
        if self._completed:
            continuation()
        else:
            self._continuations.append(continuation)

    # -- internals ------------------------------------------------------------
    def _maybe_complete(self) -> None:
        if self._completed or not self._closed or self._pending:
            return
        self._completed = True
        conts, self._continuations = self._continuations, []
        for cont in conts:
            cont()
        if self.parent is not None:
            self.parent.task_done()

    # -- context-manager sugar -------------------------------------------------
    def __enter__(self) -> "FinishScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Close on normal exit; on error the scope is left open so the
        # failure can propagate without firing continuations.
        if exc_type is None:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover
        state = "completed" if self._completed else (
            "closed" if self._closed else "open")
        return f"<FinishScope {self.name!r} {state} pending={self._pending}>"
