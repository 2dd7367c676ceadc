"""MultiStealWS: k concurrent outstanding steal requests, first-success-wins.

With non-trivial steal latency λ, a thief that probes victims one round
trip at a time pays k·λ to find the one victim in k with surplus;
launching the k requests concurrently pays ~λ for the same coverage.
This is the "multiple steal requests in flight" strategy analysed by
Khatiri et al. for latency-bound work stealing: the thief keeps up to
``steal_width`` take requests outstanding, accepts the first one that
returns work, and cancels the rest.

Cancellation runs through the resilient-steal path of PR 1: every
concurrent attempt shares one :class:`~repro.sched.base.StealToken`; the
winner claims it atomically with its deque take, and each loser observes
the claim at its own take point (or before its next fault-injection
retry) and withdraws empty-handed, emitting a ``steal_cancel`` event.
Only the thief itself ships the winning chunk home, so the
``pending_chunk`` crash-visibility protocol keeps its single writer and
exactly-once completion holds under fault plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import SchedulerError
from repro.sched.base import FindWork, StealToken
from repro.sched.distws import DistWS

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


class MultiStealWS(DistWS):
    """DistWS variant with ``steal_width`` concurrent steal requests."""

    name = "MultiStealWS"
    # Collapsed-round note: with no victim advertising surplus, the
    # batch-build loop skips every place without yielding or drawing
    # (the per-batch mailbox re-probe has no miss counters), so an
    # all-skip round is observably identical to DistWS's — the inherited
    # _fast_round_ok/_fast_remote_commit apply unchanged.

    def __init__(self, steal_width: int = 2, **knobs) -> None:
        super().__init__(**knobs)
        if int(steal_width) < 1:
            raise ValueError(f"steal_width must be >= 1, got {steal_width!r}")
        #: Maximum steal requests simultaneously in flight per thief.
        self.steal_width = int(steal_width)

    def _make_token(self) -> StealToken:
        """Seam for tests: one token per concurrent request round."""
        return StealToken()

    def find_work_tail(self, worker: "Worker") -> FindWork:
        task = None
        if self.rt.spec.n_places > 1:
            if self.victim_order == "nearest":
                order = self.rt.spec.neighbours_by_distance(
                    worker.place.place_id)
            else:
                order = self._random_place_order(worker)
            task = yield from self._steal_remote_multi(worker, order)
        return task

    def _steal_remote_multi(self, worker: "Worker",
                            victim_order: List[int]) -> FindWork:
        """Tier 3 with up to ``steal_width`` requests in flight.

        Victims are consumed from ``victim_order`` in batches; each batch
        runs the take phase of every member as its own simulated process
        and the thief waits on the composite, shipping the first chunk
        that arrives.  Losers keep unwinding in the background but can
        never acquire work once the round's token is claimed.
        """
        rt = self.rt
        env = rt.env
        home = worker.place
        faulty = rt.faults is not None
        idx, n = 0, len(victim_order)
        while idx < n:
            task = self._probe_mailbox(worker)
            if task is not None:
                return task
            batch: List[int] = []
            while idx < n and len(batch) < self.steal_width:
                pj = victim_order[idx]
                idx += 1
                if pj == home.place_id:
                    raise SchedulerError("remote steal targeting own place")
                if faulty and self._victim_blacklisted(pj):
                    continue
                if self.uses_status_board and not rt.board.has_surplus(pj):
                    continue
                batch.append(pj)
            if not batch:
                continue
            if len(batch) == 1:
                # A lone eligible victim needs no token: fall back to the
                # ordinary sequential attempt.
                if faulty:
                    task = yield from self._attempt_remote_steal_faulty(
                        worker, batch[0])
                else:
                    task = yield from self._attempt_remote_steal(
                        worker, batch[0])
                if task is not None:
                    return task
                continue
            token = self._make_token()
            take = (self._remote_take_faulty if faulty
                    else self._remote_take)
            procs = [(pj, env.process(take(worker, pj, cancel=token)))
                     for pj in batch]
            pending = [proc for _, proc in procs]
            won = None
            while pending and won is None:
                yield env.any_of(pending)
                still = []
                for pj, proc in procs:
                    if proc not in pending:
                        continue
                    if proc.triggered:
                        got = proc.value
                        if got is not None and won is None:
                            won = (pj, got)
                    else:
                        still.append(proc)
                pending = still
            if won is not None:
                pj, (chunk, request_time) = won
                task = yield from self._ship_chunk_home(
                    worker, pj, chunk, request_time=request_time)
                return task
        return None
