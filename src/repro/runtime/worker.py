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
    """Kernel-resident deque-pop + mailbox + co-located-steal round.

    Executes the universal prefix of ``Scheduler.find_work`` (the tiers
    every policy shares) step by step from the dispatch loop, arming one
    heap entry per legacy ``sleep`` with the same due time and sequence
    number and performing the same side effects in the same order — see
    :class:`~repro.sim.engine.KernelRound` for the byte-identity
    contract.  Resolves with the acquired task, or with ``SCAN_MISS`` so
    the worker's generator runs the policy tail (shared deque, remote
    steals) in ordinary yielded-event style.

    Phases: 0 = the private-deque-op stall fired (pop own deque, probe
    the mailbox, open the co-located scan); 1 = one co-located probe
    fired (attempt the steal, advance or miss out); 2 = the
    steal-success stall fired (settle the stolen task); 3 = a collapsed
    round's end stall fired (idle mode: park straight from the kernel).

    **Idle mode** (:meth:`attach_idle`): for a scheduler with no policy
    tail past the co-located tier (``find_work_tail is None``), the
    *whole* idle cycle — failed round, park, wake, next round — runs
    kernel-resident.  A miss performs the failed-round bookkeeping and
    parks the worker without resuming the generator; the park delivers
    its wake cause to :meth:`on_wake`, which starts the next round (or a
    collapsed one) in place.  The generator resumes only with a task in
    hand, or with ``None`` once the termination gate opens.

    **Observation:** with an event bus attached the scan emits the
    events of the generator prefix it replaces — ``mailbox_get``,
    ``steal_attempt``/``steal_hit`` (tier ``local``) and, in idle mode,
    ``worker_park`` — with the same fields, in the same order, at the
    same simulated instants, so observed runs execute this round too.
    """

    __slots__ = ("worker", "st", "costs", "phase", "order", "idx",
                 "peers", "task", "mailbox_get", "deque_pop",
                 "idle", "park", "board", "gate", "fast_round",
                 "gate_registered", "obs")

    def __init__(self, env, proc, worker: "Worker") -> None:
        super().__init__(env, proc)
        self.worker = worker
        rt = worker.runtime
        self.st = rt.stats.steals
        self.costs = rt.costs
        self.phase = 0
        self.order: list = []
        self.idx = 0
        self.peers: "list[Worker] | None" = None
        self.task: Task | None = None
        self.mailbox_get = worker.place.mailbox.try_get
        self.deque_pop = worker.deque.pop
        self.idle = False
        self.park = None
        self.board = None
        self.gate = None
        self.fast_round = None
        self.gate_registered = False
        #: The runtime's event bus (attached before the run starts, so
        #: fixed for the scan's lifetime); ``None`` when unobserved.
        self.obs = rt.obs

    def attach_idle(self, park, board, gate, fast_round) -> None:
        """Enter idle mode: this scan owns the worker's park and rounds."""
        self.idle = True
        self.park = park
        self.board = board
        self.gate = gate
        self.fast_round = fast_round
        park.scan_owner = self

    def begin(self) -> "_StealScan":
        """Arm the round's opening deque-op stall; yield ``self`` after."""
        self.phase = 0
        env = self.env
        env._seq += 1
        env._arm[self._h] = env._seq
        _heappush(env._queue,
                  (env._now + self.costs.private_deque_op, env._seq, self._h))
        return self

    def step(self) -> None:
        # _arm() is inlined in every branch: this method fires hundreds of
        # thousands of times per cell and the extra call frame is measurable.
        phase = self.phase
        costs = self.costs
        worker = self.worker
        env = self.env
        if phase == 1:
            # A co-located probe fired: attempt the steal it paid for.
            worker.overhead_cycles += costs.local_steal_attempt
            task = self.peers[self.order[self.idx]].deque.steal()
            if task is not None:
                self.task = task
                self.phase = 2
                env._seq += 1
                env._arm[self._h] = env._seq
                _heappush(env._queue, (env._now + costs.local_steal_success,
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
                _heappush(env._queue, (env._now + costs.local_steal_attempt,
                                       env._seq, self._h))
                return
            if self.idle:
                self._park_failed_round()
            else:
                self._resolve(SCAN_MISS)
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
                            worker.runtime.rngs.permutations(
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
                    if self.idle:
                        self._park_failed_round()
                    else:
                        self._resolve(SCAN_MISS)
                    return
                self.st.mailbox_hits += 1
                if self.obs is not None:
                    self.obs.emit("mailbox_get",
                                  place=worker.place.place_id,
                                  worker=worker.worker_index,
                                  task=task.task_id)
            self._resolve(task)
        elif phase == 2:
            # The steal-success stall fired; settle the task.
            worker.overhead_cycles += costs.local_steal_success
            self.st.local_hits += 1
            if self.obs is not None:
                victim = self.peers[self.order[self.idx]]
                self.obs.emit("steal_hit", tier="local",
                              place=worker.place.place_id,
                              worker=worker.worker_index,
                              victim=victim.worker_index, tasks=1)
            task = self.task
            self.task = None
            self._resolve(task)
        else:
            # Phase 3 (idle mode): a collapsed round's end stall fired —
            # the legacy generator would now run the failed-round path.
            self._park_failed_round()

    def _emit_attempt(self) -> None:
        """``steal_attempt`` for the probe being armed (observed runs)."""
        worker = self.worker
        self.obs.emit("steal_attempt", tier="local",
                      place=worker.place.place_id,
                      worker=worker.worker_index,
                      victim=self.peers[self.order[self.idx]].worker_index)

    # -- kernel-resident idle loop (tail-less schedulers) ---------------------
    def begin_idle(self) -> "_StealScan":
        """Open a round in idle mode; yield ``self`` afterwards.

        Mirrors the legacy loop top: a collapsible round (every tier
        provably empty, heap quiescent) arms one stall at the round's end
        — the seq the legacy ``sleep_at`` consumed — otherwise the
        ordinary scan opens with the deque-op stall.
        """
        fr = self.fast_round
        if fr is not None:
            due = fr(self.worker)
            if due is not None:
                self.phase = 3
                env = self.env
                env._seq += 1
                env._arm[self._h] = env._seq
                _heappush(env._queue, (due, env._seq, self._h))
                return self
        return self.begin()

    def _park_failed_round(self) -> None:
        """Failed-round bookkeeping + park, in the legacy generator's order."""
        worker = self.worker
        place = worker.place
        rt = worker.runtime
        place.note_failed_steal()
        rt.scheduler.note_failed_round(worker)
        self.st.failed_rounds += 1
        if self.obs is not None:
            self.obs.emit("worker_park", place=place.place_id,
                          worker=worker.worker_index,
                          backoff=worker._backoff)
        park = self.park
        gate = self.gate
        park.begin(worker._backoff, gate.is_open)
        if not self.gate_registered:
            gate.register_park(park)
            self.gate_registered = True
        place.add_park_waiter(park)
        if self.board is not None:
            self.board.add_park_waiter(park)
        worker._backoff = min(worker._backoff * 2, rt.idle_backoff_cap)

    def on_wake(self, cause) -> None:
        """The park's wake hop landed: restart the round in the kernel.

        Replicates the legacy resume — backoff reset on a work wake, the
        loop-top gate check (resolving ``None`` hands the generator its
        exit), then the next round's fast-path probe or opening stall.
        """
        worker = self.worker
        if cause is CAUSE_WORK:
            worker._backoff = worker.runtime.idle_backoff_base
        if self.gate.is_open:
            self._resolve(None)
            return
        fr = self.fast_round
        if fr is not None:
            due = fr(worker)
            if due is not None:
                self.phase = 3
                env = self.env
                env._seq += 1
                env._arm[self._h] = env._seq
                _heappush(env._queue, (due, env._seq, self._h))
                return
        self.phase = 0
        env = self.env
        env._seq += 1
        env._arm[self._h] = env._seq
        _heappush(env._queue,
                  (env._now + self.costs.private_deque_op, env._seq, self._h))


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
        #: Task currently in :meth:`execute`.  The fault injector reads
        #: this to find in-flight work at a crash; the runtime reads it
        #: to attribute spawn parentage for the observability layer.
        self.current_task: Task | None = None
        #: Stolen chunk in transit to this worker's place: populated from
        #: the instant the tasks leave the victim's shared deque until
        #: they land in the home mailbox / start executing.  The fault
        #: injector drains it at a crash — these tasks are otherwise
        #: invisible (neither queued nor anyone's ``current_task``).
        self.pending_chunk: list[Task] = []
        #: The simulated process running :meth:`run` (set by the runtime).
        self.proc = None
        self.task_cycles = 0.0
        self.overhead_cycles = 0.0
        self.tasks_run = 0
        self._backoff = runtime.idle_backoff_base
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
        no matter who flips the flag (the execute paths here, or tests
        poking it directly).
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
        or committed) by the injector.
        """
        try:
            yield from self._run_loop()
        except Interrupt:
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
        steal_stats = rt.stats.steals
        # Hot-loop locals: these lookups are loop-invariant, and the
        # per-round deque-op stall is by far the most common sleep.
        sleep = env.sleep
        deque_pop = self.deque.pop
        find_work = scheduler.find_work
        deque_op = costs.private_deque_op
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
        # Kernel-resident steal scan (flat kernel only): the universal
        # find_work prefix — deque-op stall, own pop, mailbox probe,
        # co-located scan — runs from the dispatch loop without resuming
        # this generator per probe, emitting the prefix's bus events
        # itself when observed.  Only sound when the scheduler uses the
        # stock find_work (an override may reorder the tiers), and fault
        # plans act at the per-probe resumes, so either one falls back to
        # the generator path.
        scan = None
        find_work_tail = None
        if _engine.KERNEL == "flat" and rt.faults is None:
            from repro.sched.base import Scheduler as _SchedulerBase
            if type(scheduler).find_work is _SchedulerBase.find_work:
                scan = _StealScan(env, self.proc, self)
                find_work_tail = scheduler.find_work_tail
        # One reusable park replaces the per-round AnyOf garbage; the
        # board a parking worker watches is fixed per policy.
        park = ParkRecord(env, self.proc)
        board = scheduler.park_board()
        gate_registered = False
        if scan is not None and find_work_tail is None:
            # No policy tier past the co-located scan: the whole idle
            # cycle — round, failed-round bookkeeping, park, wake — runs
            # kernel-resident.  The generator resumes per *task*, not per
            # round: with a task in hand, or with None at termination.
            scan.attach_idle(park, board, gate, fast_round)
            while not gate.is_open:
                if place.dead:
                    return
                task = yield scan.begin_idle()
                if task is None:
                    continue
                self._backoff = rt.idle_backoff_base
                yield from self.execute(task)
            return
        while not gate.is_open:
            if place.dead:
                return
            if fast_round is not None and (due := fast_round(self)) is not None:
                yield sleep_at(due)
                task = None
            elif scan is not None:
                task = yield scan.begin()
                if task is SCAN_MISS:
                    task = None if find_work_tail is None \
                        else (yield from find_work_tail(self))
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
            place.note_failed_steal()
            scheduler.note_failed_round(self)
            steal_stats.failed_rounds += 1
            if rt.obs is not None:
                rt.obs.emit("worker_park", place=place.place_id,
                            worker=self.worker_index,
                            backoff=self._backoff)
            park.begin(self._backoff, gate.is_open)
            if not gate_registered:
                # The gate fires at most once (termination), so the park
                # registers exactly once — no per-round waiter leak.
                gate.register_park(park)
                gate_registered = True
            place.add_park_waiter(park)
            if board is not None:
                board.add_park_waiter(park)
            # Backoff is read by the runtime's idle parameters live:
            # online controllers may retune base/cap mid-run.
            self._backoff = min(self._backoff * 2, rt.idle_backoff_cap)
            cause = yield park
            if cause is CAUSE_WORK:
                # Work arrived at this place: search eagerly again.
                self._backoff = rt.idle_backoff_base

    # -- execution -------------------------------------------------------------
    def execute(self, task: Task) -> Generator[Event, object, None]:
        """Run one activity to completion in simulated time.

        When a fault plan includes crashes, execution defers the *commit*
        (running the real body and spawning children) until after the
        work stall, so a fail-stop crash mid-task loses the task cleanly
        — no real side effects, re-executable exactly once.  The default
        path below is untouched when no injector is attached.
        """
        rt = self.runtime
        faults = rt.faults
        if faults is not None and faults.crash_safe:
            yield from self._execute_crash_safe(task)
            return
        env = rt.env
        costs = rt.costs
        place = self.place
        task.state = TaskState.RUNNING
        task.exec_place = place.place_id
        task.exec_worker = self.worker_index
        if (rt.scheduler.enforces_locality and not task.is_flexible
                and task.exec_place != task.home_place):
            from repro.errors import SchedulerError
            raise SchedulerError(
                f"locality violation: sensitive task {task.task_id} "
                f"(home p{task.home_place}) executing at "
                f"p{task.exec_place} under {rt.scheduler.name}")
        task.start_time = env.now
        place.running_activities += 1
        place.note_assignment()
        self.executing = True
        self.current_task = task
        if rt.obs is not None:
            rt.obs.emit("task_start", task=task.task_id,
                        place=place.place_id, worker=self.worker_index)
        try:
            cost = task.work
            if faults is not None:
                cost *= faults.slow_factor(place.place_id)
            remote = task.exec_place != task.home_place
            # An encapsulating task (§II condition d) carried its data in
            # the closure: the blocks it touches become persistent local
            # replicas, paid for once — wherever the task runs (a bucket
            # merge *gathers* even at home).  Every other task is left
            # with X10 `at` semantics: per-access remote references priced
            # in :meth:`MemoryManager.access`.
            if task.encapsulates:
                for block in task.unique_blocks():
                    cost += rt.memory.migrate(block, place.place_id,
                                              warm_cache=self.cache)
            # Run the real body; children are collected, not yet mapped.
            ctx = TaskContext(rt, task, place.place_id, self.worker_index)
            if task.body is not None:
                task.body(ctx)
            children = ctx.drain_children()
            # Price every declared memory access at the executing place.
            for block in task.reads:
                cost += rt.memory.access(place.place_id, self.cache, block)
            for block in task.writes:
                cost += rt.memory.access(place.place_id, self.cache, block,
                                         write=True)
            # Help-first: children become available as the parent continues.
            for child in children:
                cost += costs.spawn_overhead
                cost += rt.scheduler.mapping_cost(child)
                rt.spawn(child, from_place=place.place_id,
                         finish=task.finish, from_worker=self)
            # Results that must explicitly travel back after a remote
            # execution (e.g. the Turing-ring inner population update).
            if remote:
                for block in task.copy_back:
                    cost += rt.memory.copy_back(block, place.place_id)
            yield env.sleep(cost)
        finally:
            self.executing = False
            self.current_task = None
            place.running_activities -= 1
        task.state = TaskState.DONE
        task.end_time = env.now
        self.task_cycles += env.now - task.start_time
        self.tasks_run += 1
        rt.task_finished(task, self)

    def _execute_crash_safe(self, task: Task) -> Generator[Event, object, None]:
        """Deferred-commit execution for runs with planned crashes.

        The work stall happens *first*; the real body runs, children are
        spawned, and ``task.committed`` flips only at the commit point.
        An interrupt (place crash) before the commit leaves no visible
        effects: the fault injector re-executes the task on a survivor.
        An interrupt after it finds ``committed`` set and counts the task
        as done instead.  Memory effects (migrations, cache warming) may
        partially happen before the commit — data movement, unlike
        computation results, survives a crash honestly.
        """
        rt = self.runtime
        env = rt.env
        costs = rt.costs
        place = self.place
        faults = rt.faults
        task.state = TaskState.RUNNING
        task.exec_place = place.place_id
        task.exec_worker = self.worker_index
        if (rt.scheduler.enforces_locality and not task.is_flexible
                and task.exec_place != task.home_place):
            from repro.errors import SchedulerError
            raise SchedulerError(
                f"locality violation: sensitive task {task.task_id} "
                f"(home p{task.home_place}) executing at "
                f"p{task.exec_place} under {rt.scheduler.name}")
        task.start_time = env.now
        place.running_activities += 1
        place.note_assignment()
        self.executing = True
        self.current_task = task
        if rt.obs is not None:
            rt.obs.emit("task_start", task=task.task_id,
                        place=place.place_id, worker=self.worker_index)
        try:
            cost = task.work * faults.slow_factor(place.place_id)
            remote = task.exec_place != task.home_place
            if task.encapsulates:
                for block in task.unique_blocks():
                    cost += rt.memory.migrate(block, place.place_id,
                                              warm_cache=self.cache)
            for block in task.reads:
                cost += rt.memory.access(place.place_id, self.cache, block)
            for block in task.writes:
                cost += rt.memory.access(place.place_id, self.cache, block,
                                         write=True)
            yield env.sleep(cost)
            # ---- commit point: effects become visible atomically ----
            ctx = TaskContext(rt, task, place.place_id, self.worker_index)
            if task.body is not None:
                task.body(ctx)
            children = ctx.drain_children()
            task.committed = True
            post = 0.0
            for child in children:
                post += costs.spawn_overhead
                post += rt.scheduler.mapping_cost(child)
                rt.spawn(child, from_place=place.place_id,
                         finish=task.finish, from_worker=self)
            if remote:
                for block in task.copy_back:
                    post += rt.memory.copy_back(block, place.place_id)
            yield env.sleep(post)
        finally:
            self.executing = False
            self.current_task = None
            place.running_activities -= 1
        task.state = TaskState.DONE
        task.end_time = env.now
        self.task_cycles += env.now - task.start_time
        self.tasks_run += 1
        rt.task_finished(task, self)
