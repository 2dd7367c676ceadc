"""A place: one shared-memory node of the cluster.

Owns the shared deque, the incoming-task mailbox, and the load-status
bookkeeping Algorithm 1 consults ("The scheduler creates an object at each
place to maintain information that helps it to identify idle or
lightly-loaded places", §VI-B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cluster.topology import ClusterSpec
from repro.runtime.deques import PrivateDeque, SharedDeque
from repro.sim.engine import CAUSE_WORK, PARK_PARKED, Environment
from repro.sim.resources import Mailbox

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


class Place:
    """Runtime state of one node."""

    def __init__(self, env: Environment, place_id: int, spec: ClusterSpec) -> None:
        self.env = env
        self.place_id = place_id
        self.spec = spec
        self.shared = SharedDeque(env, place_id)
        #: Incoming task closures shipped by remote places (chunk extras,
        #: lifeline pushes, tasks spawned remotely for this home place).
        self.mailbox = Mailbox(env, name=f"mailbox-p{place_id}")
        self.workers: List["Worker"] = []
        #: Fail-stop flag set by the fault injector: a dead place's workers
        #: stop permanently and its queues have been drained.  Always False
        #: in fault-free runs.
        self.dead = False
        #: Number of activities currently executing on this place's workers.
        self.running_activities = 0
        #: The paper's per-place ``active`` flag: set false after n
        #: consecutive failed steal attempts (n = workers per place),
        #: set true when an activity is assigned to the place.
        self.active = True
        #: Consecutive failed steal attempts by this place's workers.
        self.failed_steals = 0
        #: Failed-round count after which the place goes inactive.
        #: ``None`` (the default) keeps the paper's rule — one failure
        #: per worker; schedulers and online controllers may pin it
        #: (``idle_threshold`` tuning knob).
        self.idle_threshold: Optional[int] = None
        #: Round-robin cursor for mapping tasks onto private deques.
        self._rr_cursor = 0
        #: O(1) load counters (Algorithm 1 runs per spawn, so ``size``/
        #: ``spares`` must not rescan every worker).  ``_n_private`` counts
        #: tasks across all private deques, maintained by
        #: :class:`~repro.runtime.deques.PrivateDeque` push/pop/steal;
        #: ``_n_spare`` counts idle workers with empty private deques,
        #: maintained by the deque hooks plus the ``Worker.executing``
        #: property setter.
        self._n_private = 0
        self._n_spare = 0
        #: Idle workers parked waiting for work to arrive at this place:
        #: a mix of one-shot :class:`~repro.sim.events.Event` waiters (the
        #: legacy API, kept for tests and tooling) and ``(ParkRecord,
        #: round)`` entries appended by :meth:`add_park_waiter`.
        self._work_waiters: List = []
        #: Compaction threshold for stale park entries (adaptive).
        self._compact_at = 16

    # -- load status (Algorithm 1 inputs) ----------------------------------
    @property
    def n_workers(self) -> int:
        """Worker threads on this place."""
        return len(self.workers)

    def queued_private(self) -> int:
        """Tasks waiting in this place's private deques (O(1) counter)."""
        return self._n_private

    def queued_total(self) -> int:
        """All tasks queued at this place (private + shared + mailbox)."""
        # Read straight off the containers: Algorithm 1's keep-local
        # predicate asks for this on every flexible spawn.
        return (self._n_private + len(self.shared._items)
                + len(self.mailbox._items))

    def size(self) -> int:
        """The paper's ``size(p)``: demand at the place (running + queued)."""
        return self.running_activities + self.queued_total()

    def spares(self) -> int:
        """Spare capacity: idle workers with nothing queued privately.

        A worker that is searching but already has work directed at its
        private deque is *not* spare — Algorithm 1's private-deque
        redirection should fill each idle worker once, then overflow
        flexible tasks to the shared deque.
        """
        return self._n_spare

    def is_idle(self) -> bool:
        """No running activities — every worker is searching or stopped."""
        return self.running_activities == 0

    def is_under_utilized(self) -> bool:
        """Room for additional parallel computation (``size < max_threads``)."""
        return self.size() < self.spec.max_threads

    # -- status transitions (paper §VI-B) -----------------------------------
    def note_assignment(self) -> None:
        """An activity was assigned here: the place is active again."""
        self.active = True
        self.failed_steals = 0

    def idle_round_threshold(self) -> int:
        """Failed rounds before this place advertises inactive."""
        if self.idle_threshold is not None:
            return max(1, self.idle_threshold)
        return max(1, self.n_workers)

    def note_failed_steal(self) -> None:
        """A local worker failed a steal round; after
        :meth:`idle_round_threshold` consecutive failures the place is
        marked inactive."""
        self.failed_steals += 1
        if self.failed_steals >= self.idle_round_threshold():
            self.active = False

    # -- idle-worker wakeup -----------------------------------------------------
    def work_event(self):
        """Event an idle worker parks on; triggered by :meth:`notify_work`."""
        from repro.sim.events import Event  # local import avoids a cycle
        ev = Event(self.env)
        self._work_waiters.append(ev)
        return ev

    def add_park_waiter(self, record) -> None:
        """Register a worker's park record for this round's work wakeup.

        Appending ``(record, round)`` per park (rather than registering
        persistently) keeps the wake order at notification time identical
        to the legacy per-round events: simultaneously woken workers
        resume in the order they parked.  Entries from earlier rounds are
        stale — skipped at notify time, swept once the list outgrows the
        live worker count.
        """
        waiters = self._work_waiters
        waiters.append((record, record.round))
        if len(waiters) > self._compact_at:
            live = []
            for entry in waiters:
                if type(entry) is tuple:
                    rec, rnd = entry
                    if rec.round == rnd and rec.state == PARK_PARKED:
                        live.append(entry)
                elif not entry.triggered:
                    live.append(entry)
            self._work_waiters = live
            self._compact_at = max(16, 2 * len(live) + 8)

    def notify_work(self) -> None:
        """Wake every parked worker (new work arrived at this place)."""
        waiters = self._work_waiters
        if not waiters:
            return
        self._work_waiters = []
        for entry in waiters:
            if type(entry) is tuple:
                rec, rnd = entry
                if rec.round == rnd:
                    rec._fire(CAUSE_WORK)
            elif not entry.triggered:
                entry.succeed()

    # -- private-deque mapping helpers ----------------------------------------
    def pick_private_deque(self) -> PrivateDeque:
        """Choose a private deque for a directly-mapped task.

        Prefers an idle worker ("mapping a task ... directly to an idle
        worker eliminates the need for that worker to contend ... to steal
        from the local shared deque", §V-B1), falling back to round-robin.
        """
        # Deterministic: lowest-id idle worker with the shortest deque
        # (single ascending pass; strict < keeps the lowest index on ties).
        best = None
        best_len = 0
        for w in self.workers:
            if not w._executing:
                n = len(w.deque._items)
                if best is None or n < best_len:
                    best = w
                    best_len = n
        if best is not None:
            return best.deque
        self._rr_cursor = (self._rr_cursor + 1) % self.n_workers
        return self.workers[self._rr_cursor].deque

    def least_loaded_deque(self) -> PrivateDeque:
        """Private deque with the fewest queued tasks."""
        best = min(self.workers, key=lambda w: (len(w.deque), w.worker_index))
        return best.deque

    def __repr__(self) -> str:  # pragma: no cover
        state = " DEAD" if self.dead else ""
        return (f"<Place {self.place_id} running={self.running_activities} "
                f"queued={self.queued_total()} active={self.active}{state}>")
