"""Property-based scheduler invariants over seeded random task graphs.

Three guarantees the paper's schedulers must hold for *every* workload,
not just the curated ones:

- **Selectivity** (§X-A): a locality-sensitive ``async (p)`` task never
  executes outside its home place, whatever the graph shape, scheduler
  or seed.
- **Steal discipline** (§V-A/B): distributed steals only ever touch
  shared deques, and each takes the FIFO-oldest chunk of at most
  ``remote_chunk_size`` (2) tasks.
- **Exactly-once completion**: every spawned task's body runs exactly
  once, including under randomized fault plans (crashes, message loss,
  latency spikes, stragglers).

Each property runs dozens of hypothesis-generated cases (>=200 across
the module); failures replay from the printed falsifying example /
``reproduce_failure`` blob (``print_blob`` is enabled).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apgas import Apgas
from repro.cluster.topology import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import LatencySpike, PlaceCrash, SensitivePolicy, Straggler
from repro.runtime.deques import SharedDeque
from repro.runtime.runtime import SimRuntime
from repro.sched import make_scheduler

#: Shared settings: randomized but replayable — hypothesis prints the
#: failure blob, and ``deadline=None`` keeps slow-host runs green.
PROPERTY_SETTINGS = dict(deadline=None, print_blob=True,
                         suppress_health_check=[HealthCheck.too_slow])


@st.composite
def task_graphs(draw):
    """A random two-level task graph on a random tiny cluster.

    Returns ``(spec, tasks)`` where each task is
    ``(home_place, flexible, work, n_children)``; children spawn at the
    parent's executing place (help-first), inheriting its flexibility.
    """
    n_places = draw(st.integers(min_value=2, max_value=4))
    spec = ClusterSpec(n_places=n_places, workers_per_place=2,
                       max_threads=4)
    tasks = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=n_places - 1),
                  st.booleans(),
                  st.sampled_from([100_000, 250_000, 600_000]),
                  st.integers(min_value=0, max_value=2)),
        min_size=6, max_size=18))
    return spec, tasks


def run_graph(spec, tasks, sched_name, seed, scheduler=None):
    """Execute a drawn graph; returns ``(runtime, trace)``.

    ``trace`` records ``(task_id, home, executed_place, flexible)`` per
    body execution — a child's home is its spawn-time place (the place
    its parent was executing at), so the selectivity and steal checks
    apply to the whole graph, not just the roots.  ``scheduler`` lets a
    test pass a pre-built (possibly instrumented) policy instance.
    """
    if scheduler is None:
        scheduler = make_scheduler(sched_name)
    rt = SimRuntime(spec, scheduler, seed=seed)
    trace = []

    def program(runtime):
        ap = Apgas(runtime)

        def record(ctx, flexible):
            trace.append((ctx.task.task_id, ctx.task.home_place,
                          ctx.place, flexible))

        def leaf(flexible):
            def body(ctx):
                record(ctx, flexible)
            return body

        def parent(flexible, n_children, work):
            def body(ctx):
                record(ctx, flexible)
                for _ in range(n_children):
                    ctx.spawn(leaf(flexible), work=work // 2,
                              flexible=flexible, label="child")
            return body

        for home, flexible, work, n_children in tasks:
            ap.async_at(home, parent(flexible, n_children, work),
                        work=work, flexible=flexible, label="root")

    rt.run(program)
    return rt, trace


class TestSelectivity:
    @settings(max_examples=70, **PROPERTY_SETTINGS)
    @given(graph=task_graphs(),
           sched_name=st.sampled_from(["DistWS", "X10WS", "RandomWS",
                                       "Lifeline", "StealHalfWS",
                                       "MultiStealWS", "LocalizedWS"]),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_sensitive_tasks_never_leave_home(self, graph, sched_name,
                                              seed):
        """No locality-honouring policy moves a sensitive task, ever."""
        spec, tasks = graph
        _rt, trace = run_graph(spec, tasks, sched_name, seed)
        expected = len(tasks) + sum(t[3] for t in tasks)
        assert len(trace) == expected
        for task_id, home, place, flexible in trace:
            if not flexible:
                assert place == home, (
                    f"sensitive task {task_id} (home {home}) ran at "
                    f"{place} under {sched_name}")


class TestStealDiscipline:
    @settings(max_examples=60, **PROPERTY_SETTINGS)
    @given(graph=task_graphs(),
           sched_name=st.sampled_from(["DistWS", "RandomWS", "Lifeline",
                                       "MultiStealWS", "LocalizedWS"]),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_remote_steals_take_fifo_oldest_chunk_from_shared(
            self, graph, sched_name, seed):
        """Distributed steals: shared deques only, FIFO-oldest, <=chunk.

        Wraps the two shared-deque take paths to check every remote take
        against the deque's state at that instant, then cross-checks
        that exactly the remotely-taken tasks executed away from home.
        Tasks leave a place over the network through two channels only:
        chunked distributed steals (``take_chunk``) and, for the
        Lifeline policy, mapping-time pushes to registered lifeliners
        (single ``take_oldest`` takes).
        """
        spec, tasks = graph
        chunk_taken = set()
        push_taken = set()
        violations = []
        in_chunk = []
        original_chunk = SharedDeque.take_chunk
        original_oldest = SharedDeque.take_oldest

        def checked_chunk(self, n, remote):
            before = list(self._items)
            in_chunk.append(True)
            try:
                chunk = original_chunk(self, n, remote)
            finally:
                in_chunk.pop()
            if remote:
                if len(chunk) > n:
                    violations.append(f"chunk of {len(chunk)} > {n}")
                if chunk != before[:len(chunk)]:
                    violations.append("remote chunk was not FIFO-oldest")
                for task in chunk:
                    chunk_taken.add(task.task_id)
            return chunk

        def checked_oldest(self, remote):
            before = self._items[0] if self._items else None
            task = original_oldest(self, remote)
            if remote and not in_chunk and task is not None:
                if task is not before:
                    violations.append("remote take was not the oldest")
                push_taken.add(task.task_id)
            if remote and task is not None and not task.is_flexible:
                violations.append(
                    f"sensitive task {task.task_id} left via the "
                    "shared deque")
            return task

        SharedDeque.take_chunk = checked_chunk
        SharedDeque.take_oldest = checked_oldest
        try:
            rt, trace = run_graph(spec, tasks, sched_name, seed)
        finally:
            SharedDeque.take_chunk = original_chunk
            SharedDeque.take_oldest = original_oldest

        assert not violations, violations
        counters = rt.stats.steals
        # Each successful distributed steal took at most one chunk.
        assert len(chunk_taken) \
            <= counters.remote_hits * rt.scheduler.remote_chunk_size
        # Every remote take went through a shared deque (the wrappers saw
        # it), and the stats agree with the per-deque counters.
        remote_taken = chunk_taken | push_taken
        assert counters.remote_tasks_received == len(remote_taken) \
            == sum(p.shared.remote_takes for p in rt.places)
        # Exactly the remotely-stolen tasks executed away from home; the
        # paper's discipline leaves no other migration channel.
        executed_off_home = {task_id
                             for task_id, home, place, _flex in trace
                             if place != home}
        assert executed_off_home == remote_taken
        assert rt.stats.tasks_executed_remote == len(executed_off_home)


class TestStealHalfContract:
    @settings(max_examples=40, **PROPERTY_SETTINGS)
    @given(graph=task_graphs(),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_remote_takes_exactly_ceil_half(self, graph, seed):
        """Every StealHalfWS distributed take asks for — and receives —
        exactly ``ceil(n/2)`` of the victim deque's ``n`` tasks, oldest
        first, measured under the victim's lock at the take instant."""
        spec, tasks = graph
        violations = []
        remote_takes = []
        original_chunk = SharedDeque.take_chunk

        def checked_chunk(self, n, remote):
            before = list(self._items)
            chunk = original_chunk(self, n, remote)
            if remote:
                want = -(-len(before) // 2)
                if n != want:
                    violations.append(
                        f"requested {n} from a deque of {len(before)}, "
                        f"expected ceil half = {want}")
                if len(chunk) != want:
                    violations.append(
                        f"took {len(chunk)} from a deque of "
                        f"{len(before)}, expected {want}")
                if chunk != before[:len(chunk)]:
                    violations.append("chunk was not the FIFO-oldest half")
                remote_takes.append(len(chunk))
            return chunk

        SharedDeque.take_chunk = checked_chunk
        try:
            rt, trace = run_graph(spec, tasks, "StealHalfWS", seed)
        finally:
            SharedDeque.take_chunk = original_chunk
        assert not violations, violations
        expected = len(tasks) + sum(t[3] for t in tasks)
        assert len(trace) == expected
        assert rt.stats.steals.remote_tasks_received == sum(remote_takes)


class TestMultiStealContract:
    @settings(max_examples=40, **PROPERTY_SETTINGS)
    @given(graph=task_graphs(),
           steal_width=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_no_double_claim_across_in_flight_requests(self, graph,
                                                       steal_width, seed):
        """Concurrent in-flight requests never double-deliver: each
        round's token is claimed at most once, and no task is ever taken
        remotely twice."""
        spec, tasks = graph
        from repro.sched import MultiStealWS, StealToken

        class CountingToken(StealToken):
            __slots__ = ("claims",)

            def __init__(self):
                super().__init__()
                self.claims = 0

            def claim(self):
                self.claims += 1
                super().claim()

        tokens = []
        sched = make_scheduler("MultiStealWS", steal_width=steal_width)
        assert isinstance(sched, MultiStealWS)

        def make_token():
            token = CountingToken()
            tokens.append(token)
            return token

        sched._make_token = make_token
        taken = []
        original_chunk = SharedDeque.take_chunk

        def recording_chunk(self, n, remote):
            chunk = original_chunk(self, n, remote)
            if remote:
                taken.extend(t.task_id for t in chunk)
            return chunk

        SharedDeque.take_chunk = recording_chunk
        try:
            rt, trace = run_graph(spec, tasks, "MultiStealWS", seed,
                                  scheduler=sched)
        finally:
            SharedDeque.take_chunk = original_chunk
        assert len(taken) == len(set(taken)), (
            "a task was delivered by two in-flight steal requests")
        assert all(token.claims <= 1 for token in tokens), (
            "one steal round claimed work twice")
        expected = len(tasks) + sum(t[3] for t in tasks)
        assert len(trace) == expected
        assert rt.stats.steals.remote_tasks_received == len(taken)


class TestLocalizedContract:
    @settings(max_examples=40, **PROPERTY_SETTINGS)
    @given(graph=task_graphs(),
           radius_strikes=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_never_probes_beyond_radius_before_strikes(self, graph,
                                                       radius_strikes,
                                                       seed):
        """On a ring, radius-1 rounds only visit hop-1 neighbours until
        ``radius_strikes`` consecutive local failures ran up; every
        wider round is an earned global fallback."""
        _spec, tasks = graph
        spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4,
                           topology="ring")
        tasks = [(home % spec.n_places, flexible, work, n_children)
                 for home, flexible, work, n_children in tasks]
        sched = make_scheduler("LocalizedWS", steal_radius=1,
                               radius_strikes=radius_strikes)
        rounds = []
        original_round = sched._steal_remote

        def recording_round(worker, order):
            rounds.append((worker.place.place_id,
                           sched._strikes.get(worker.wid, 0), list(order)))
            return original_round(worker, order)

        sched._steal_remote = recording_round
        rt, trace = run_graph(spec, tasks, "LocalizedWS", seed,
                              scheduler=sched)
        assert len(trace) == len(tasks) + sum(t[3] for t in tasks)
        for place, strikes, order in rounds:
            beyond = [pj for pj in order
                      if spec.hop_distance(place, pj) > 1]
            if beyond:
                assert strikes >= radius_strikes, (
                    f"place {place} probed beyond the radius "
                    f"({beyond}) after only {strikes} strikes")
            else:
                assert strikes < radius_strikes


@st.composite
def fault_runs(draw):
    """A random fan-out workload plus a random (valid) fault plan."""
    n_places = draw(st.integers(min_value=3, max_value=4))
    n_tasks = draw(st.integers(min_value=8, max_value=20))
    flexible_mask = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    crash_place = draw(st.integers(min_value=0, max_value=n_places - 1))
    # Absolute cycle times: values in (0, 1] would denote horizon
    # fractions, so draw comfortably above 1.
    crash_at = draw(st.floats(min_value=10.0, max_value=4e6))
    loss_steal = draw(st.sampled_from([0.0, 0.05, 0.2]))
    with_spike = draw(st.booleans())
    straggle_factor = draw(st.sampled_from([1.0, 2.0, 4.0]))
    inj_seed = draw(st.integers(min_value=0, max_value=10_000))
    sched_seed = draw(st.integers(min_value=0, max_value=10_000))

    spikes = ()
    if with_spike:
        spikes = (LatencySpike(start=draw(st.floats(min_value=10.0,
                                                    max_value=1e6)),
                               duration=5e5, factor=8.0),)
    stragglers = ()
    if straggle_factor > 1.0:
        # Slow a place other than the crashed one.
        stragglers = (Straggler(place=(crash_place + 1) % n_places,
                                factor=straggle_factor),)
    loss = {}
    if loss_steal:
        loss = {"steal_request": loss_steal, "steal_reply": loss_steal}
    plan = FaultPlan(crashes=(PlaceCrash(crash_place, crash_at),),
                     loss=loss, spikes=spikes, stragglers=stragglers,
                     sensitive_policy=SensitivePolicy.RELAX,
                     seed=inj_seed)
    return n_places, n_tasks, flexible_mask, plan, sched_seed


class TestExactlyOnceUnderFaults:
    @settings(max_examples=80, **PROPERTY_SETTINGS)
    @given(case=fault_runs(),
           sched_name=st.sampled_from(["DistWS", "StealHalfWS",
                                       "MultiStealWS", "LocalizedWS",
                                       "X10WS", "Lifeline"]))
    def test_every_task_completes_exactly_once(self, case, sched_name):
        """Random crash/loss/spike/straggler plans never lose or double-
        execute a task (relax policy: orphaned sensitive tasks degrade),
        for the paper's scheduler, all three steal variants, the
        baseline without a remote tier and the lifeline policy."""
        n_places, n_tasks, flexible_mask, plan, sched_seed = case
        plan.validate(n_places)
        spec = ClusterSpec(n_places=n_places, workers_per_place=2,
                           max_threads=4)
        rt = SimRuntime(spec, make_scheduler(sched_name), seed=sched_seed)
        FaultInjector(plan).attach(rt)
        executed = []

        def program(runtime):
            ap = Apgas(runtime)

            def leaf(i):
                def body(ctx):
                    executed.append(i)
                return body

            for i in range(n_tasks):
                ap.async_at(
                    i % n_places, leaf(i), work=300_000,
                    flexible=bool(flexible_mask[i % len(flexible_mask)]),
                    label="leaf")

        stats = rt.run(program)
        assert sorted(executed) == list(range(n_tasks)), (
            f"bodies ran {sorted(executed)}, expected exactly once each "
            f"under {plan}")
        assert stats.tasks_executed == stats.tasks_spawned
        # Loss accounting stays consistent: every loss event was answered
        # by exactly one relocation.
        assert stats.faults.tasks_reexecuted == stats.faults.tasks_lost
