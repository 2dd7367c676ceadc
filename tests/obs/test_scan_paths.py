"""Observed and faulted runs take the kernel-resident steal scan, and it
emits exactly what the generator round it replaced emitted.

An observer must see the same event stream the generator round produced:
same events, same fields, same order, same timestamps, the same sampler
firings — and the simulated run must not change, under a fault plan too
(crashes, message loss, latency spikes, stragglers).  The reference is
``golden_scan_timelines.json``: one timeline per case, recorded while the
generator round (and, for the bare and bench cells, the object kernel)
still ran beside the scan, and written only where both agreed byte for
byte.  Each case now runs once and is compared with its timeline.

A timeline is ``events_processed``, sha256 digests of the sorted snapshot
(``faults`` block included), the JSONL stream and the fault injector's
event list, and the makespan and ``faults`` block in clear, so a failing
comparison stays readable.  Re-record only for a deliberate physics
change::

    PYTHONPATH=src:. python -c "from tests.obs.test_scan_paths import \
regenerate; regenerate()"
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.harness import bench
from repro.obs import EventBus, InMemorySink
from repro.obs.metrics import MetricsRegistry
from repro.runtime import worker as worker_mod
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import SCHEDULERS, make_scheduler

APPS = ("uts", "turing", "dmg")

#: Three workers per place: co-located scans probe two peers, so the
#: scan's next-probe branch is covered, not only its first probe.
SPEC = ClusterSpec(n_places=4, workers_per_place=3, max_threads=5)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_scan_timelines.json")


def observed(app_name, sched_cls, plan=None, runtimes=None):
    """JSONL stream, snapshot and kernel event count of one observed run,
    plus the fault injector's event list when ``plan`` is given.  The
    runtime is appended to ``runtimes``, if given."""
    _reset_task_ids()  # task ids appear in the stream
    rt = SimRuntime(SPEC, sched_cls(), seed=3)
    if runtimes is not None:
        runtimes.append(rt)
    injector = FaultInjector(plan).attach(rt) if plan is not None else None
    bus = EventBus(sample_interval=200_000)
    sink = bus.subscribe(InMemorySink())
    bus.subscribe(MetricsRegistry())
    bus.attach(rt)
    stats = make_app(app_name, scale="test", seed=5).run(rt)
    jsonl = "\n".join(ev.to_json() for ev in sink.events)
    return (jsonl, json.dumps(stats.snapshot(), sort_keys=True),
            rt.env.events_processed,
            repr(injector.events) if injector is not None else None)


def cell_run(app_name, sched_name, places, workers, max_threads, seed,
             app_seed, faults=None):
    """``observed``'s tuple for an unobserved run (no JSONL stream) under
    the fault plan spec ``faults``, if given, configured as
    :func:`repro.harness.bench.run_cell` configures a cell."""
    _reset_task_ids()
    rt = SimRuntime(ClusterSpec(n_places=places, workers_per_place=workers,
                                max_threads=max_threads),
                    make_scheduler(sched_name), seed=seed)
    injector = None
    if faults is not None:
        injector = FaultInjector(FaultPlan.parse(faults)).attach(rt)
    stats = make_app(app_name, scale="test", seed=app_seed).run(
        rt, validate=False)
    return (None, json.dumps(stats.snapshot(), sort_keys=True),
            rt.env.events_processed,
            repr(injector.events) if injector is not None else None)


def _sha(text):
    if text is None:
        return None
    return hashlib.sha256(text.encode()).hexdigest()


def digest(run):
    """A run's timeline: its event count, digests of the snapshot, the
    JSONL stream and the fault event list, and the makespan and
    ``faults`` block in clear."""
    jsonl, snapshot, events, fault_events = run
    snap = json.loads(snapshot)
    return {"events_processed": events,
            "makespan_cycles": snap["makespan_cycles"],
            "faults": snap.get("faults"),
            "snapshot_sha256": _sha(snapshot),
            "jsonl_sha256": _sha(jsonl),
            "fault_events_sha256": _sha(fault_events)}


@functools.lru_cache(maxsize=None)
def goldens():
    with open(GOLDEN) as fh:
        return json.load(fh)


def assert_golden(key, run, **extra):
    """``run``'s timeline (with ``extra``, e.g. the crash plan a search
    found) is the recorded one."""
    assert dict(digest(run), **extra) == goldens()[key], key


#: One plan per fault kind; times in (0, 1] are fractions of the cell's
#: fault-free makespan.  The crash plans degrade orphaned sensitive tasks.
FAULT_PLANS = {
    "early-crash": "crash:p1@0.05,policy:relax",
    "mid-crash": "crash:p2@0.5,policy:relax,seed:3",
    "steal-loss": "loss:steal=0.2,seed:4",
    "spike": "spike:@0.2+0.3x8",
    "straggler": "straggle:p3x3",
}


@functools.lru_cache(maxsize=None)
def horizon(app_name, sched_name):
    """The cell's fault-free makespan."""
    _reset_task_ids()
    rt = SimRuntime(SPEC, SCHEDULERS[sched_name](), seed=3)
    return make_app(app_name, scale="test", seed=5).run(rt).makespan_cycles


def fault_plan(app_name, sched_name, plan_name):
    """``FAULT_PLANS[plan_name]`` resolved against the cell's horizon."""
    return FaultPlan.parse(FAULT_PLANS[plan_name]).resolved(
        horizon(app_name, sched_name))


def timeline(app_name, sched_cls):
    """The events of a crash-plan run whose crash comes too late to happen.

    Deferred commits make every crash plan's run the same up to its
    crash, so these events locate crash times that find a worker in a
    chosen state.
    """
    late = FaultPlan.parse("crash:p1@1e15,policy:relax")
    return [json.loads(line)
            for line in observed(app_name, sched_cls, late)[0].splitlines()]


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
def test_scan_and_generator_rounds_emit_identically(app_name, sched_name):
    assert_golden(f"observed|{app_name}|{sched_name}",
                  observed(app_name, SCHEDULERS[sched_name]))


#: Every scheduler on uts (steal-heavy) under every plan, plus the scan's
#: two shapes — with a policy tail (DistWS) and without (X10WS) — on the
#: locality-sensitive apps under the crash plans that lose tasks there.
FAULT_CASES = (
    [("uts", name, plan) for name in sorted(SCHEDULERS)
     for plan in sorted(FAULT_PLANS)]
    + [(app, name, plan) for name in ("DistWS", "X10WS")
       for app, plan in (("turing", "early-crash"), ("turing", "mid-crash"),
                         ("dmg", "mid-crash"))])


@pytest.mark.parametrize("app_name,sched_name,plan_name", FAULT_CASES)
def test_scan_and_generator_rounds_agree_under_faults(app_name, sched_name,
                                                      plan_name):
    """Snapshot (``faults`` block included), fault event list, JSONL
    stream and ``events_processed`` are the recorded ones."""
    plan = fault_plan(app_name, sched_name, plan_name)
    scan = observed(app_name, SCHEDULERS[sched_name], plan)
    assert '"faults"' in scan[1]
    assert_golden(f"faults|{app_name}|{sched_name}|{plan_name}", scan)


#: The cells the crash-after-commit search runs on.
AFTER_COMMIT_CELLS = (("uts", "DistWS"), ("turing", "X10WS"))


def crash_after_commit(app_name, sched_cls):
    """The first crash plan whose crash lands in a post-commit stall, and
    its observed run.

    Candidates: one cycle before a task that spawned children ends at
    place 1, from the second half of the run on.  Returns ``None`` when
    no candidate commits a task at the crash.
    """
    events = timeline(app_name, sched_cls)
    parents = {ev["parent"] for ev in events if ev["kind"] == "task_spawn"}
    ends = [ev["t"] for ev in events if ev["kind"] == "task_end"
            and ev["place"] == 1 and ev["task"] in parents]
    for end in ends[len(ends) // 2:]:
        spec = f"crash:p1@{end - 1.0!r},policy:relax"
        run = observed(app_name, sched_cls, FaultPlan.parse(spec))
        if json.loads(run[1])["faults"]["committed_at_crash"]:
            return spec, run
    return None


@pytest.mark.parametrize("app_name,sched_name", AFTER_COMMIT_CELLS)
def test_scan_and_generator_agree_on_a_crash_after_commit(app_name,
                                                          sched_name):
    """A crash inside a post-commit stall counts the task as done; the
    first candidate that commits a task at the crash is the recorded
    one."""
    found = crash_after_commit(app_name, SCHEDULERS[sched_name])
    if found is None:
        pytest.fail("no crash landed in a post-commit stall")
    spec, scan = found
    assert json.loads(scan[1])["faults"]["committed_at_crash"] > 0
    assert_golden(f"after-commit|{app_name}|{sched_name}", scan, plan=spec)


def shared_lock_crashes():
    """Crash plans that find a worker queued for, or holding, its place's
    shared-deque lock, with their observed runs (turing, DistWS).

    Candidates: one cycle after a tier-2 attempt at place 1, from the
    second half of the run on, until both lock states have been met.
    Every candidate must leave the dead place's lock free.  Returns the
    candidates that met a new state, as ``(spec, states, run)``, and the
    states met.
    """
    states = []
    cancel = worker_mod._StealScan.cancel

    def recording_cancel(self):
        ev = self._lock_ev
        if ev is not None:
            states.append("held" if ev.callbacks is None else "queued")
        cancel(self)

    cls = SCHEDULERS["DistWS"]
    attempts = [ev["t"] for ev in timeline("turing", cls)
                if ev["kind"] == "steal_attempt" and ev["tier"] == "shared"
                and ev["place"] == 1]
    found = []
    worker_mod._StealScan.cancel = recording_cancel
    try:
        for at in attempts[len(attempts) // 2:]:
            spec = f"crash:p1@{at + 1.0!r},policy:relax"
            met = set(states)
            runtimes = []
            run = observed("turing", cls, FaultPlan.parse(spec), runtimes)
            assert not runtimes[0].places[1].shared.lock.locked
            if set(states) != met:
                found.append((spec, sorted(set(states) - met), run))
            if {"held", "queued"} <= set(states):
                break
    finally:
        worker_mod._StealScan.cancel = cancel
    return found, set(states)


def test_crash_at_the_shared_deque_lock_frees_it():
    """A crash that finds a worker queued for, or holding, its place's
    shared-deque lock leaves the lock free, as the generator's interrupt
    and ``finally`` did.  Each candidate that meets a new lock state is
    the recorded one."""
    found, states = shared_lock_crashes()
    assert {"held", "queued"} <= states, f"lock states met: {sorted(states)}"
    recorded = sorted(key for key in goldens()
                      if key.startswith("shared-lock-"))
    assert len(found) == len(recorded)
    for i, (spec, met, scan) in enumerate(found):
        assert_golden(f"shared-lock-{i}|turing|DistWS", scan,
                      plan=spec, states=met)


#: The bare cells of the full-run identity tests in tests/sim: 4 places x
#: 2 workers, ``max_threads=6``, app seed 12345, no observer.
BARE_CELLS = (("uts", "DistWS"), ("uts", "X10WS"), ("turing", "X10WS"))


def bare_args(app_name, sched_name):
    return (app_name, sched_name, 4, 2, 6, 1, 12345)


#: The quick-grid cells run under a fixed fault plan; ``{crash_at}`` is
#: ``CRASH_FRACTION`` of the cell's fault-free makespan.
BENCH_FAULT_PLAN = ("crash:p2@{crash_at},loss:steal=0.1,straggle:p1x2,"
                    "policy:relax,seed:7")
CRASH_FRACTION = 0.4
BENCH_FAULTED = tuple(cell for cell in bench.QUICK_GRID
                      if cell["app"] in ("uts", "turing")
                      and cell["scheduler"] == "DistWS")


def bench_faulted_args(cell):
    """``cell_run`` arguments of a faulted quick-grid cell; the crash time
    comes from the cell's fault-free makespan."""
    args = (cell["app"], cell["scheduler"], cell["places"], cell["workers"],
            cell["workers"] + 4, bench.SCHED_SEED, bench.APP_SEED)
    makespan = json.loads(cell_run(*args)[1])["makespan_cycles"]
    return args + (BENCH_FAULT_PLAN.format(
        crash_at=repr(CRASH_FRACTION * makespan)),)


@pytest.mark.parametrize("cell", BENCH_FAULTED, ids=bench.cell_key)
def test_faulted_quick_cells_match_golden(cell):
    """The quick uts and turing DistWS cells under a crash + steal-loss +
    straggler plan: simulated observables, ``faults`` block included,
    and ``events_processed`` are the recorded ones."""
    args = bench_faulted_args(cell)
    assert_golden(f"bench-faulted|{bench.cell_key(cell)}", cell_run(*args),
                  plan=args[-1])


def test_streams_exercise_the_scan_events():
    """The timelines are not vacuous: the scan's kinds all occur.

    DistWS ships chunks to the mailbox and takes from the local shared
    deque (tier 2); X10WS parks from the scan's kernel-resident idle
    loop.  The task events come from the execute halves the scan runs
    itself, spawns included.
    """
    kinds = set()
    tiers = set()
    for sched_name in ("DistWS", "X10WS"):
        jsonl = observed("uts", SCHEDULERS[sched_name])[0]
        for line in jsonl.splitlines():
            event = json.loads(line)
            kinds.add(event["kind"])
            if "tier" in event:
                tiers.add((event["kind"], event["tier"]))
    assert {"mailbox_get", "steal_attempt", "steal_hit", "worker_park",
            "sample", "task_start", "task_end", "task_spawn"} <= kinds
    assert {("steal_attempt", "local"), ("steal_hit", "local"),
            ("steal_attempt", "shared"), ("steal_hit", "shared")} <= tiers


def count_scan_calls(monkeypatch):
    """Count ``_StealScan.step`` and ``on_wake`` calls from now on."""
    calls = {"step": 0, "on_wake": 0}

    def counted(name):
        original = getattr(worker_mod._StealScan, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(worker_mod._StealScan, name, counted(name))
    return calls


@pytest.mark.parametrize("sched_name", ["DistWS", "X10WS"])
def test_observed_runs_take_the_scan(monkeypatch, sched_name):
    """An observed run's local tiers run as scan steps."""
    calls = count_scan_calls(monkeypatch)
    observed("uts", SCHEDULERS[sched_name])
    assert calls["step"] > 0
    if sched_name == "X10WS":
        # No policy tail: the whole idle loop is kernel-resident too.
        assert calls["on_wake"] > 0


@pytest.mark.parametrize("sched_name", ["DistWS", "X10WS"])
def test_crash_plan_runs_take_the_scan(monkeypatch, sched_name):
    """A crash plan's run steps the scan, and the crash lost work it had
    to recover."""
    plan = fault_plan("turing", sched_name, "early-crash")
    calls = count_scan_calls(monkeypatch)
    snapshot = json.loads(
        observed("turing", SCHEDULERS[sched_name], plan)[1])
    assert calls["step"] > 0
    assert snapshot["faults"]["tasks_lost"] > 0


def recorded_cases():
    """Every golden case, as ``(key, run, extra)``."""
    for app_name in APPS:
        for sched_name in sorted(SCHEDULERS):
            yield (f"observed|{app_name}|{sched_name}",
                   observed(app_name, SCHEDULERS[sched_name]), {})
    for app_name, sched_name, plan_name in FAULT_CASES:
        yield (f"faults|{app_name}|{sched_name}|{plan_name}",
               observed(app_name, SCHEDULERS[sched_name],
                        fault_plan(app_name, sched_name, plan_name)), {})
    for app_name, sched_name in AFTER_COMMIT_CELLS:
        spec, run = crash_after_commit(app_name, SCHEDULERS[sched_name])
        yield f"after-commit|{app_name}|{sched_name}", run, {"plan": spec}
    for i, (spec, met, run) in enumerate(shared_lock_crashes()[0]):
        yield (f"shared-lock-{i}|turing|DistWS", run,
               {"plan": spec, "states": met})
    for app_name, sched_name in BARE_CELLS:
        yield (f"bare|{app_name}|{sched_name}",
               cell_run(*bare_args(app_name, sched_name)), {})
    for cell in BENCH_FAULTED:
        args = bench_faulted_args(cell)
        yield (f"bench-faulted|{bench.cell_key(cell)}", cell_run(*args),
               {"plan": args[-1]})


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Re-record every case's timeline into ``golden_scan_timelines.json``.

    For a deliberate physics change only, argued for in CHANGES.md: the
    recorded timelines are the reference the scan is checked against.
    """
    recorded = {key: dict(digest(run), **extra)
                for key, run, extra in recorded_cases()}
    with open(GOLDEN, "w") as fh:
        json.dump(recorded, fh, sort_keys=True, indent=1)
        fh.write("\n")
