"""The worker: one simulated hardware thread executing activities.

A worker runs an endless loop (a simulated process):

1. pop the own private deque (LIFO — most recently created task first);
2. otherwise ask the scheduler policy to find work (mailbox probe,
   co-located steal, shared deque, distributed steal — policy-specific);
3. execute the task: run its Python body, price its memory behaviour,
   spawn its children, and advance simulated time by the total cost;
4. if no work was found anywhere, record a failed round and back off
   (exponentially, capped), waking early if work arrives at the place or
   the computation terminates.

Busy time is split into *task* cycles (executing activities) and *overhead*
cycles (searching/stealing); Fig. 7's utilization counts both, matching the
paper's observation that stealing itself raises measured node utilization.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.cache import LruCache
from repro.runtime.deques import PrivateDeque
from repro.runtime.task import Task, TaskContext, TaskState
from repro.sim import engine as _engine
from repro.sim.engine import (SCAN_MISS, CAUSE_WORK, Interrupt, KernelRound,
                              ParkRecord)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.place import Place
    from repro.runtime.runtime import SimRuntime


class _StealScan(KernelRound):
    """The worker's hot cycle, run from the kernel's dispatch loop.

    Covers everything a worker does between two entries into the
    policy's remote tier, step by step from the dispatch loop: each
    armed heap entry stands in for one legacy ``sleep`` (same due time,
    same sequence number) and each step performs the side effects the
    generator's resume would have, in the same order — see
    :class:`~repro.sim.engine.KernelRound` for the byte-identity
    contract.  That is:

    - the local tiers of ``Scheduler.find_work``: the deque-op stall and
      own pop, the mailbox probe (tier 0), the co-located scan (tier 1)
      and, for a policy with a shared tier, the local shared-deque take
      (tier 2);
    - the execution of the task a tier found — :meth:`Worker._start_task`,
      the work stall, under a crash plan :meth:`Worker._commit_task` and
      the post-commit stall, then :meth:`Worker._finish_task` — and the
      opening of the next round: the termination-gate check, then a
      collapsed round or the deque-op stall;
    - a failed round's bookkeeping and park; the park delivers its wake
      cause to :meth:`on_wake`, which opens the next round in place.

    The worker's generator resumes only to run the policy tail (the scan
    resolves with ``SCAN_MISS``) and to exit (``None``, once the gate is
    open).  The generator hands back what the tail found: a task with
    :meth:`run`, a miss with :meth:`park_failed`.  A policy without a
    tail (X10WS) therefore runs its whole life in the kernel.

    Phases: 0 = the private-deque-op stall fired (pop own deque, probe
    the mailbox, open the co-located scan); 1 = one co-located probe
    fired (attempt the steal, advance or miss out); 2 = the
    steal-success stall fired (the stolen task waits on the worker's
    ``pending_chunk``); 3 = a collapsed round's end stall fired (park);
    4 = the shared-deque-op stall fired, lock held (take the oldest
    task); 5 = the running task's work stall fired (finish it and open
    the next round).  Under a crash plan phase 5 fires twice per task:
    the work stall commits the task and arms the post-commit stall, and
    that stall (``task.committed`` now set) finishes it.

    **Tier 2's lock.**  The take appends a bound callback to the
    ``SimLock.acquire()`` event exactly where ``Process._handle`` appends
    a generator's resume, so contended acquires queue FIFO and consume
    sequence numbers as the generator's did.

    **Failures.**  An exception raised in a kernel step (a task body, the
    locality guard) is thrown into the worker's generator, so the run
    ends as a dead worker process with the original exception as the
    cause.  The entry points the generator calls itself (:meth:`open`,
    :meth:`run`, :meth:`park_failed`) let exceptions propagate normally:
    a running generator cannot be thrown into.

    **Crashes.**  A place crash interrupts the worker while the scan is
    its wait target: :meth:`cancel` detaches the scan the way
    ``Process.interrupt`` detaches a generator (stale stall, abandoned
    lock acquire, cancelled park), and :meth:`unwind`, called where the
    ``Interrupt`` lands, releases a held tier-2 lock as the generator's
    ``finally`` did.

    **Observation:** with an event bus attached the scan emits the
    events of the generator code it replaces — ``mailbox_get``,
    ``steal_attempt``/``steal_hit`` (tiers ``local`` and ``shared``) and
    ``worker_park``; the task events come from the shared execute halves
    — with the same fields, in the same order, at the same simulated
    instants, so observed runs execute this cycle too.
    """

    __slots__ = ("worker", "rt", "st", "costs", "phase", "order", "idx",
                 "peers", "mailbox_get", "deque_pop", "shared", "deferred",
                 "has_tail", "park", "board", "gate", "fast_round", "obs",
                 "_lock_cb", "_lock_ev")

    def __init__(self, env, proc, worker: "Worker", park, board, gate,
                 fast_round, has_tail: bool) -> None:
        super().__init__(env, proc)
        self.worker = worker
        rt = self.rt = worker.runtime
        self.st = rt.stats.steals
        self.costs = rt.costs
        self.phase = 0
        self.order: list = []
        self.idx = 0
        self.peers: "list[Worker] | None" = None
        self.mailbox_get = worker.place.mailbox.try_get
        self.deque_pop = worker.deque.pop
        #: The place's shared deque when the policy has tier 2.
        self.shared = worker.place.shared if rt.scheduler.shared_tier \
            else None
        #: Deferred-commit execution (a crash plan is attached).
        self.deferred = rt.faults is not None and rt.faults.crash_safe
        self.has_tail = has_tail
        self.park = park
        self.board = board
        self.gate = gate
        self.fast_round = fast_round
        #: The runtime's event bus (attached before the run starts, so
        #: fixed for the scan's lifetime); ``None`` when unobserved.
        self.obs = rt.obs
        self._lock_cb = self._locked
        #: The tier-2 ``acquire()`` event from request to release: pending
        #: while queued, processed while the lock is held, else ``None``.
        self._lock_ev = None
        park.scan_owner = self

    # -- entry points the generator calls ----------------------------------
    def open(self) -> "_StealScan":
        """Open the worker's first round; yield ``self`` afterwards."""
        self._open_round()
        return self

    def run(self, task: Task) -> "_StealScan":
        """Execute a task the policy tail found; yield ``self`` after."""
        self._run(task)
        return self

    def park_failed(self) -> "_StealScan":
        """The policy tail missed too: park; yield ``self`` after."""
        self.worker._park_failed_round(self.park, self.board)
        return self

    # -- kernel steps --------------------------------------------------------
    def step(self) -> None:
        # _arm() is inlined in every branch: this method fires hundreds of
        # thousands of times per cell and the extra call frame is measurable.
        try:
            phase = self.phase
            costs = self.costs
            worker = self.worker
            env = self.env
            if phase == 1:
                # A co-located probe fired: attempt the steal it paid for.
                worker.overhead_cycles += costs.local_steal_attempt
                task = self.peers[self.order[self.idx]].deque.steal()
                if task is not None:
                    worker.pending_chunk = [task]
                    self.phase = 2
                    env._seq += 1
                    env._arm[self._h] = env._seq
                    _heappush(env._queue,
                              (env._now + costs.local_steal_success,
                               env._seq, self._h))
                    return
                idx = self.idx + 1
                if idx < len(self.order):
                    self.idx = idx
                    self.st.local_attempts += 1
                    if self.obs is not None:
                        self._emit_attempt()
                    env._seq += 1
                    env._arm[self._h] = env._seq
                    _heappush(env._queue,
                              (env._now + costs.local_steal_attempt,
                               env._seq, self._h))
                    return
                self._local_miss()
            elif phase == 0:
                worker.overhead_cycles += costs.private_deque_op
                task = self.deque_pop()
                if task is None:
                    task = self.mailbox_get()
                    if task is None:
                        peers = self.peers
                        if peers is None:
                            peers = worker.steal_peers
                            if peers is None:
                                peers = worker.steal_peers = [
                                    w for w in worker.place.workers
                                    if w is not worker]
                            self.peers = peers
                        orders = worker.victim_orders
                        if orders is None:
                            orders = worker.victim_orders = \
                                self.rt.rngs.permutations(
                                    len(peers), "victims", *worker.wid)
                        order = orders.draw()
                        if order:
                            self.order = order
                            self.idx = 0
                            self.st.local_attempts += 1
                            if self.obs is not None:
                                self._emit_attempt()
                            self.phase = 1
                            env._seq += 1
                            env._arm[self._h] = env._seq
                            _heappush(env._queue,
                                      (env._now + costs.local_steal_attempt,
                                       env._seq, self._h))
                            return
                        self._local_miss()
                        return
                    self.st.mailbox_hits += 1
                    if self.obs is not None:
                        self.obs.emit("mailbox_get",
                                      place=worker.place.place_id,
                                      worker=worker.worker_index,
                                      task=task.task_id)
                self._run(task)
            elif phase == 5:
                # The running task's work stall fired.
                task = worker.current_task
                if self.deferred and not task.committed:
                    self._arm(worker._commit_task(task))
                    return
                worker._finish_task(task)
                # The loop top: exit at termination, else the next round.
                if self.gate.is_open:
                    self._resolve(None)
                else:
                    self._open_round()
            elif phase == 2:
                # The steal-success stall fired; run the stolen task.
                worker.overhead_cycles += costs.local_steal_success
                self.st.local_hits += 1
                if self.obs is not None:
                    victim = self.peers[self.order[self.idx]]
                    self.obs.emit("steal_hit", tier="local",
                                  place=worker.place.place_id,
                                  worker=worker.worker_index,
                                  victim=victim.worker_index, tasks=1)
                task = worker.pending_chunk[0]
                worker.pending_chunk = []
                self._run(task)
            elif phase == 4:
                # The shared-deque-op stall fired with the lock held.
                worker.overhead_cycles += costs.shared_deque_op
                shared = self.shared
                task = shared.take_oldest(remote=False)
                if not shared._items:
                    self.rt.board.retract(shared.place_id)
                self._lock_ev = None
                shared.lock.release()
                if task is None:
                    self._tail_or_park()
                    return
                self.st.shared_local_hits += 1
                if self.obs is not None:
                    place_id = worker.place.place_id
                    self.obs.emit("steal_hit", tier="shared", place=place_id,
                                  worker=worker.worker_index,
                                  victim=place_id, tasks=1)
                self._run(task)
            else:
                # Phase 3: a collapsed round's end stall fired — the
                # legacy generator would now run the failed-round path.
                self.worker._park_failed_round(self.park, self.board)
        except Exception as exc:
            proc = self.proc
            proc._waiting_on = None
            proc._step_throw(exc)

    def _emit_attempt(self) -> None:
        """``steal_attempt`` for the probe being armed (observed runs)."""
        worker = self.worker
        self.obs.emit("steal_attempt", tier="local",
                      place=worker.place.place_id,
                      worker=worker.worker_index,
                      victim=self.peers[self.order[self.idx]].worker_index)

    def _local_miss(self) -> None:
        """Tiers 0-1 missed: lock the shared deque for tier 2, if any."""
        shared = self.shared
        if shared is None:
            self._tail_or_park()
            return
        self.st.shared_local_attempts += 1
        if self.obs is not None:
            worker = self.worker
            place_id = worker.place.place_id
            self.obs.emit("steal_attempt", tier="shared", place=place_id,
                          worker=worker.worker_index, victim=place_id)
        ev = self._lock_ev = shared.lock.acquire()
        ev.callbacks.append(self._lock_cb)

    def _locked(self, _event) -> None:
        """The shared-deque lock is ours: arm the deque-op stall."""
        self.phase = 4
        env = self.env
        env._seq += 1
        env._arm[self._h] = env._seq
        _heappush(env._queue,
                  (env._now + self.costs.shared_deque_op, env._seq, self._h))

    def _tail_or_park(self) -> None:
        """Every local tier missed: hand over to the tail, or park."""
        if self.has_tail:
            self._resolve(SCAN_MISS)
        else:
            self.worker._park_failed_round(self.park, self.board)

    def _run(self, task: Task) -> None:
        """Start ``task`` and arm its work stall (phase 5)."""
        worker = self.worker
        worker._backoff = self.rt.idle_backoff_base
        cost = worker._start_task(task)
        self.phase = 5
        env = self.env
        env._seq += 1
        env._arm[self._h] = env._seq
        _heappush(env._queue, (env._now + cost, env._seq, self._h))

    # -- round boundaries ----------------------------------------------------
    def _open_round(self) -> None:
        """A collapsible round arms one stall at the round's end — the seq
        the legacy ``sleep_at`` consumed — otherwise the ordinary round
        opens with the deque-op stall."""
        env = self.env
        fr = self.fast_round
        if fr is not None:
            due = fr(self.worker)
            if due is not None:
                self.phase = 3
                env._seq += 1
                env._arm[self._h] = env._seq
                _heappush(env._queue, (due, env._seq, self._h))
                return
        self.phase = 0
        env._seq += 1
        env._arm[self._h] = env._seq
        _heappush(env._queue,
                  (env._now + self.costs.private_deque_op, env._seq, self._h))

    def on_wake(self, cause) -> None:
        """The park's wake hop landed: restart the round in the kernel.

        Replicates the legacy resume — backoff reset on a work wake, then
        the loop top: exit at termination, else open the next round.
        """
        if cause is CAUSE_WORK:
            self.worker._backoff = self.rt.idle_backoff_base
        if self.gate.is_open:
            self._resolve(None)
        else:
            self._open_round()

    # -- crash -----------------------------------------------------------------
    def cancel(self) -> None:
        """The worker was interrupted: detach from what the scan waits on.

        What ``Process.interrupt`` does to a generator's wait target: the
        armed stall goes stale, a queued tier-2 acquire is abandoned (the
        lock skips it on release) and a pending park is cancelled.  An
        idle park has no live entry, so cancelling it is a no-op.
        """
        super().cancel()
        ev = self._lock_ev
        if ev is not None and ev.callbacks is not None:
            ev.callbacks.remove(self._lock_cb)
            ev._abandoned = True
            self._lock_ev = None
        self.park.cancel()

    def unwind(self) -> None:
        """The ``Interrupt`` landed: release a held tier-2 lock."""
        if self._lock_ev is not None:
            self._lock_ev = None
            self.shared.lock.release()


class Worker:
    """One worker thread at a place."""

    def __init__(self, runtime: "SimRuntime", place: "Place",
                 worker_index: int) -> None:
        self.runtime = runtime
        self.place = place
        self.worker_index = worker_index
        self.deque = PrivateDeque(place.place_id, worker_index,
                                  place=place, owner=self)
        self.cache = LruCache(runtime.costs.l1_capacity_lines)
        self._executing = False
        # A fresh worker is idle with an empty deque: one spare slot.
        place._n_spare += 1
        #: Task currently executing (between :meth:`_start_task` and
        #: :meth:`_finish_task`).  The fault injector reads this to find
        #: in-flight work at a crash; the runtime reads it to attribute
        #: spawn parentage for the observability layer.
        self.current_task: Task | None = None
        #: Stolen tasks in transit to this worker: a remote chunk from the
        #: instant it leaves the victim's shared deque until it lands in
        #: the home mailbox / starts executing, and a co-located steal's
        #: task for the steal-success stall.  The fault injector drains it
        #: at a crash — these tasks are otherwise invisible (neither
        #: queued nor anyone's ``current_task``).
        self.pending_chunk: list[Task] = []
        #: The simulated process running :meth:`run` (set by the runtime).
        self.proc = None
        #: The kernel-resident hot cycle, when :meth:`_run_loop` takes it.
        self.scan: _StealScan | None = None
        self.task_cycles = 0.0
        self.overhead_cycles = 0.0
        self.tasks_run = 0
        self._backoff = runtime.idle_backoff_base
        #: Whether this worker's park is registered with the termination
        #: gate (done once, at its first failed round).
        self._park_registered = False
        #: Steal-tier caches (scheduler-owned, lazily filled): the victim
        #: draw sources are keyed by this worker's id and the peer/place
        #: lists are structurally constant, so re-deriving them on every
        #: steal attempt was pure overhead.
        self.victim_orders = None
        self.steal_peers: "list[Worker] | None" = None
        self.place_orders = None
        self.other_places: list[int] | None = None
        #: Batched remote-victim indices into ``other_places`` (the
        #: blind-random tails: Lifeline, RandomWS).
        self.remote_victims = None

    def reset_backoff(self) -> None:
        """Re-arm the idle backoff at the runtime's (possibly tuned) base."""
        self._backoff = self.runtime.idle_backoff_base

    @property
    def executing(self) -> bool:
        """Whether an activity is currently running on this worker.

        A property so the place's O(1) spare-worker counter stays in sync
        when tests poke the flag directly; the execute halves flip it
        with the same bookkeeping inlined.
        """
        return self._executing

    @executing.setter
    def executing(self, flag: bool) -> None:
        if flag != self._executing:
            self._executing = flag
            if not self.deque._items:
                self.place._n_spare += -1 if flag else 1

    @property
    def wid(self) -> tuple[int, int]:
        """Globally unique (place, worker) id pair."""
        return (self.place.place_id, self.worker_index)

    def charge_overhead(self, cycles: float) -> None:
        """Account CPU-bound scheduling work (deque ops, steal service).

        Time a thief spends *waiting* on the interconnect is simulated but
        deliberately not charged here, so Fig. 7's utilization reflects CPU
        activity rather than network latency.
        """
        self.overhead_cycles += cycles

    # -- main loop ----------------------------------------------------------
    def run(self) -> Generator[Event, object, None]:
        """The worker's simulated process body.

        A fail-stop crash of this worker's place (fault injection)
        delivers an :class:`Interrupt`; the worker then stops permanently
        — its in-flight task has already been accounted for (re-executed
        or committed) by the injector.  Where the interrupt lands, the
        worker lets go of what it held, in the same dispatch as a
        generator's ``finally`` blocks: a kernel-resident scan's tier-2
        lock and the running task.
        """
        try:
            yield from self._run_loop()
        except Interrupt:
            if self.scan is not None:
                self.scan.unwind()
            if self.current_task is not None:
                self._end_activity()
            if self.place.dead:
                return  # fail-stop: this worker never runs again
            raise

    def _run_loop(self) -> Generator[Event, object, None]:
        rt = self.runtime
        env = rt.env
        costs = rt.costs
        place = self.place
        gate = rt.done_gate
        scheduler = rt.scheduler
        # Collapsed probe round (flat kernel only): when every steal tier
        # is provably empty and no other heap entry comes due before the
        # round would end, the scheduler commits the round's counters and
        # RNG draws in one call and the kernel sleeps once to the round's
        # end time instead of resuming this generator per probe.  Fault
        # plans act at the intermediate micro-events, and an observer
        # would see one heap entry stand in for many probes (wrong event
        # timestamps, sampler firing at different points), so either one
        # disables the collapse.
        fast_round = None
        sleep_at = None
        if (_engine.KERNEL == "flat" and scheduler.collapses_rounds()
                and rt.faults is None and rt.obs is None):
            fast_round = scheduler.fast_round
            sleep_at = env.sleep_at
        # One reusable park replaces the per-round AnyOf garbage; the
        # board a parking worker watches is fixed per policy.
        park = ParkRecord(env, self.proc)
        board = scheduler.park_board()
        # Kernel-resident hot cycle (flat kernel only): the local tiers,
        # task execution, failed rounds and parks all run from the
        # dispatch loop (_StealScan); this generator resumes only to run
        # the policy's remote tail and to exit.  Fault plans included:
        # the scan defers commits and unwinds at a crash as the generator
        # does.  Only sound when the scheduler uses the stock find_work
        # (an override may reorder the tiers); an override falls back to
        # the generator path below.
        if _engine.KERNEL == "flat":
            from repro.sched.base import Scheduler as _SchedulerBase
            if type(scheduler).find_work is _SchedulerBase.find_work:
                tail = scheduler.find_work_tail
                scan = self.scan = _StealScan(env, self.proc, self, park,
                                              board, gate, fast_round,
                                              tail is not None)
                if gate.is_open:
                    return
                outcome = yield scan.open()
                while outcome is SCAN_MISS:
                    task = yield from tail(self)
                    if task is None:
                        outcome = yield scan.park_failed()
                    else:
                        outcome = yield scan.run(task)
                return
        # Hot-loop locals: these lookups are loop-invariant, and the
        # per-round deque-op stall is by far the most common sleep.
        sleep = env.sleep
        deque_pop = self.deque.pop
        find_work = scheduler.find_work
        deque_op = costs.private_deque_op
        while not gate.is_open:
            if place.dead:
                return
            if fast_round is not None and (due := fast_round(self)) is not None:
                yield sleep_at(due)
                task = None
            else:
                yield sleep(deque_op)
                self.overhead_cycles += deque_op
                task = deque_pop()
                if task is None:
                    task = yield from find_work(self)
            if task is not None:
                self._backoff = rt.idle_backoff_base
                yield from self.execute(task)
                continue
            # Nothing anywhere: failed round, then back off.
            self._park_failed_round(park, board)
            cause = yield park
            if cause is CAUSE_WORK:
                # Work arrived at this place: search eagerly again.
                self._backoff = rt.idle_backoff_base

    def _park_failed_round(self, park: ParkRecord, board) -> None:
        """Failed-round bookkeeping, then arm ``park`` with the backoff.

        Shared by the generator loop and the kernel-resident scan; the
        caller waits on the park (or, in the scan, owns its wake).
        """
        rt = self.runtime
        place = self.place
        gate = rt.done_gate
        place.note_failed_steal()
        rt.scheduler.note_failed_round(self)
        rt.stats.steals.failed_rounds += 1
        if rt.obs is not None:
            rt.obs.emit("worker_park", place=place.place_id,
                        worker=self.worker_index, backoff=self._backoff)
        park.begin(self._backoff, gate.is_open)
        if not self._park_registered:
            # The gate fires at most once (termination), so the park
            # registers exactly once — no per-round waiter leak.
            gate.register_park(park)
            self._park_registered = True
        place.add_park_waiter(park)
        if board is not None:
            board.add_park_waiter(park)
        # Backoff is read by the runtime's idle parameters live: online
        # controllers may retune base/cap mid-run.
        self._backoff = min(self._backoff * 2, rt.idle_backoff_cap)

    # -- execution -------------------------------------------------------------
    def execute(self, task: Task) -> Generator[Event, object, None]:
        """Run one activity to completion in simulated time.

        The generator-path form of the halves the kernel-resident scan
        runs around its own armed stalls.  Under a crash plan the commit
        (running the real body and spawning children) waits until after
        the work stall, so a fail-stop crash mid-task loses the task
        cleanly — no real side effects, re-executable exactly once.
        """
        rt = self.runtime
        yield rt.env.sleep(self._start_task(task))
        if rt.faults is not None and rt.faults.crash_safe:
            yield rt.env.sleep(self._commit_task(task))
        self._finish_task(task)

    def _start_task(self, task: Task) -> float:
        """Everything before an activity's work stall; returns its cycles.

        Marks the task running (after the locality guard), runs its real
        body, prices its memory behaviour and spawns its children.  Under
        a crash plan the body and the spawns are left to
        :meth:`_commit_task`.  If the body raises, the worker's running
        state is unwound first.
        """
        rt = self.runtime
        place = self.place
        place_id = place.place_id
        task.state = TaskState.RUNNING
        task.exec_place = place_id
        task.exec_worker = self.worker_index
        remote = place_id != task.home_place
        if (remote and rt.scheduler.enforces_locality
                and not task.is_flexible):
            from repro.errors import SchedulerError
            raise SchedulerError(
                f"locality violation: sensitive task {task.task_id} "
                f"(home p{task.home_place}) executing at "
                f"p{place_id} under {rt.scheduler.name}")
        task.start_time = rt.env._now
        place.running_activities += 1
        place.note_assignment()
        # The ``executing`` setter, inlined (this runs once per task): the
        # worker was idle, and with an empty deque it stops being spare.
        self._executing = True
        if not self.deque._items:
            place._n_spare -= 1
        self.current_task = task
        if rt.obs is not None:
            rt.obs.emit("task_start", task=task.task_id,
                        place=place_id, worker=self.worker_index)
        try:
            cost = task.work
            faults = rt.faults
            deferred = False
            if faults is not None:
                cost *= faults.slow_factor(place_id)
                deferred = faults.crash_safe
            memory = rt.memory
            # An encapsulating task (§II condition d) carried its data in
            # the closure: the blocks it touches become persistent local
            # replicas, paid for once — wherever the task runs (a bucket
            # merge *gathers* even at home).  Every other task is left
            # with X10 `at` semantics: per-access remote references priced
            # in :meth:`MemoryManager.access`.
            if task.encapsulates:
                for block in task.unique_blocks():
                    cost += memory.migrate(block, place_id,
                                           warm_cache=self.cache)
            if not deferred:
                # Run the real body; children are collected, not mapped.
                ctx = TaskContext(rt, task, place_id, self.worker_index)
                if task.body is not None:
                    task.body(ctx)
                children = ctx.drain_children()
            # Price every declared memory access at the executing place.
            for block in task.reads:
                cost += memory.access(place_id, self.cache, block)
            for block in task.writes:
                cost += memory.access(place_id, self.cache, block,
                                      write=True)
            if deferred:
                return cost
            # Help-first: children become available as the parent
            # continues, each priced by the mapping that placed it.
            if children:
                spawn = rt.spawn
                spawn_overhead = rt.costs.spawn_overhead
                finish = task.finish
                for child in children:
                    cost = cost + spawn_overhead + spawn(
                        child, place_id, finish, self)
            # Results that must explicitly travel back after a remote
            # execution (e.g. the Turing-ring inner population update).
            if remote:
                for block in task.copy_back:
                    cost += memory.copy_back(block, place_id)
        except BaseException:
            self._end_activity()
            raise
        return cost

    def _commit_task(self, task: Task) -> float:
        """The commit point of a deferred (crash-plan) execution.

        Runs after the work stall: the real body runs, ``task.committed``
        flips and the children are spawned; returns the post-commit
        cycles (spawn and copy-back prices), stalled even when zero.  A
        crash before the commit loses the task with no visible effect —
        the fault injector re-executes it on a survivor; a crash after it
        finds ``committed`` set and counts the task as done.  Memory
        effects (migrations, cache warming) happen before the commit:
        data movement, unlike computation results, survives a crash.
        """
        rt = self.runtime
        place_id = self.place.place_id
        try:
            ctx = TaskContext(rt, task, place_id, self.worker_index)
            if task.body is not None:
                task.body(ctx)
            children = ctx.drain_children()
            task.committed = True
            post = 0.0
            for child in children:
                post = post + rt.costs.spawn_overhead + rt.spawn(
                    child, place_id, task.finish, self)
            if place_id != task.home_place:
                for block in task.copy_back:
                    post += rt.memory.copy_back(block, place_id)
        except BaseException:
            self._end_activity()
            raise
        return post

    def _end_activity(self) -> None:
        """Clear the running state :meth:`_start_task` set."""
        place = self.place
        self._executing = False
        if not self.deque._items:
            place._n_spare += 1
        self.current_task = None
        place.running_activities -= 1

    def _finish_task(self, task: Task) -> None:
        """Everything after an activity's work stall."""
        self._end_activity()
        task.state = TaskState.DONE
        now = task.end_time = self.runtime.env._now
        self.task_cycles += now - task.start_time
        self.tasks_run += 1
        self.runtime.task_finished(task, self)
