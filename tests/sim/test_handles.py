"""Handle lifecycle and recorded-interleaving equivalence for the kernel.

The struct-of-arrays kernel keys every schedulable entity — process
resumes, events, park hops, backoff probes, kernel-resident steal scans —
by a small-integer handle recycled through a free-list.  These tests pin
the lifecycle invariants:

- free-list exhaustion grows every column geometrically (never a cap);
- a finished process's handle is recycled LIFO, but a *dirty* handle
  (an interrupt left a stale armed entry in the heap) is retired forever
  — a stale pop must never fire a handle's new owner;
- arm/cancel/fire interleavings produce the timeline, causes,
  ``events_processed`` and final clock recorded in
  ``golden_interleavings.json``.  The corpus was drawn from hypothesis
  strategies at a fixed seed, plus explicit same-timestamp race shapes,
  and recorded from the earlier object kernel, only where this kernel
  agreed on every input;
- full simulations reproduce their recorded timelines byte for byte,
  *including* ``events_processed`` — batched same-cycle dispatch counts
  every dispatched entry exactly as a one-pop-per-iteration loop does.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sim import engine
from repro.sim.engine import (Environment, Interrupt, ParkRecord,
                              _INITIAL_CAPACITY)
from tests.obs.test_scan_paths import assert_golden, bare_args, cell_run


# -- free-list growth --------------------------------------------------------

def test_free_list_exhaustion_grows_geometrically():
    env = Environment()
    assert env._cap == _INITIAL_CAPACITY

    def sleeper():
        yield env.sleep(1.0)

    procs = [env.process(sleeper()) for _ in range(3 * _INITIAL_CAPACITY)]
    # 192 handles force two doublings: 64 -> 128 -> 256.
    assert env._cap == 4 * _INITIAL_CAPACITY
    for col in (env._kind, env._pstate, env._pcause, env._arm, env._obj):
        assert len(col) == env._cap
    env.run()
    assert all(p.triggered for p in procs)
    # Every handle returned: no leak, no double-free.
    assert len(env._free) == env._cap
    assert sorted(env._free) == list(range(env._cap))


def test_growth_keeps_armed_entries_valid():
    """Entries armed before a growth fire correctly after it."""
    env = Environment()
    fired = []

    def early():
        yield env.sleep(5.0)
        fired.append(env.now)

    env.process(early())

    def burst():
        yield env.sleep(1.0)

    for _ in range(2 * _INITIAL_CAPACITY):  # force _grow() mid-flight
        env.process(burst())
    env.run()
    assert fired == [5.0]


# -- handle recycling --------------------------------------------------------

def test_finished_process_handle_recycled_lifo():
    env = Environment()

    def quick():
        yield env.sleep(1.0)

    p1 = env.process(quick())
    h1 = p1._h
    env.run()
    p2 = env.process(quick())
    assert p2._h == h1
    env.run()
    assert p2.triggered


def test_stale_entry_never_fires_old_or_new_owner():
    """An interrupt strands an armed sleep entry; it must pop as a no-op.

    The interrupted process's handle is *dirty*: recycling it could route
    the stale pop at t=100 to an unrelated new owner, so it is retired
    (cleared, never returned to the free-list).
    """
    env = Environment()
    log = []

    def victim_body():
        try:
            yield env.sleep(100.0)
            log.append("old-owner-resumed")  # must never happen
        except Interrupt:
            log.append("interrupted")

    victim = env.process(victim_body())

    def script():
        yield env.timeout(10.0)
        victim.interrupt("test")

    env.process(script())
    env.run()
    assert log == ["interrupted"]
    assert victim._dirty
    assert victim._h not in env._free
    # The stale entry drained as a no-op and advanced the clock.
    assert env.now == 100.0
    resumed = []

    def fresh():
        yield env.sleep(1.0)
        resumed.append(env.now)

    p2 = env.process(fresh())
    assert p2._h != victim._h
    env.run()
    assert resumed == [101.0]
    assert log == ["interrupted"]


def test_clean_interrupt_of_parked_process_recycles_handle():
    """A park cancel disarms in place: the handle stays clean."""
    env = Environment()

    def parker():
        proc = env._current
        park = ParkRecord(env, proc)
        try:
            park.begin(50.0, False)
            yield park
        except Interrupt:
            return

    p = env.process(parker())

    def script():
        yield env.timeout(5.0)
        p.interrupt("shutdown")

    env.process(script())
    env.run()
    assert p.triggered
    assert not p._dirty
    assert p._h in env._free


# -- recorded interleavings --------------------------------------------------

CORPUS = os.path.join(os.path.dirname(__file__), "golden_interleavings.json")

with open(CORPUS) as _fh:
    _CORPUS = json.load(_fh)


def _cause_label(cause):
    for name in ("CAUSE_DONE", "CAUSE_WORK", "CAUSE_TIMEOUT", "CAUSE_BOARD"):
        if cause is getattr(engine, name):
            return name
    return repr(cause)


def _park_trace(ops):
    """One parker vs a scripted waker; returns the full wake timeline."""
    env = Environment()
    trace = []
    park_box = []

    def parker():
        park = ParkRecord(env, env._current)
        park_box.append(park)
        for backoff in (3.0, 5.0, 7.0) * (len(ops) + 1):
            park.begin(backoff, False)
            cause = yield park
            trace.append((env.now, _cause_label(cause)))

    def waker():
        for dt, act in ops:
            yield env.timeout(float(dt))
            park = park_box[0]
            if act == 0:
                park._fire(engine.CAUSE_WORK)
            elif act == 1:
                park._fire(engine.CAUSE_BOARD)
            # act == 2: let the backoff deadline win this window.

    env.process(parker())
    env.process(waker())
    env.run(until=float(sum(dt for dt, _ in ops) + 40))
    return trace, env.events_processed, env.now


def _interrupt_trace(plan):
    """Sleepers interrupted at scripted times; timeline + accounting."""
    env = Environment()
    trace = []

    def sleeper(idx, dur):
        try:
            yield env.timeout(0.0)
            yield env.sleep(float(dur))
            trace.append(("slept", idx, env.now))
        except Interrupt:
            trace.append(("interrupted", idx, env.now))

    procs = [env.process(sleeper(i, dur)) for i, (dur, _) in enumerate(plan)]

    def cutter(i, at):
        yield env.timeout(float(at))
        if procs[i].is_alive:
            procs[i].interrupt("cut")

    for i, (_, cut) in enumerate(plan):
        if cut is not None:
            env.process(cutter(i, cut))
    env.run()
    trace.sort()
    return trace, env.events_processed, env.now


def _recorded(result):
    """A trace as the corpus stores it."""
    trace, events, now = json.loads(json.dumps(result))
    return {"trace": trace, "events_processed": events, "now": now}


def _assert_corpus(name, trace_of):
    entries = _CORPUS[name]
    assert len(entries) >= 400
    for entry in entries:
        expected = {key: entry[key]
                    for key in ("trace", "events_processed", "now")}
        assert _recorded(trace_of(entry["input"])) == expected, entry["input"]


def test_park_interleavings_match_object_kernel():
    """Same wakes, same causes, same event accounting, every recorded
    interleaving.

    ``dt=0`` steps make wake sources race the backoff deadline at one
    timestamp — exactly the races the arm/seq guards must resolve the
    way the object kernel's AnyOf pop order did.
    """
    _assert_corpus("park", _park_trace)


def test_sleep_interrupt_interleavings_match_object_kernel():
    """Arm/cancel/fire races on plain sleeps give the recorded traces.

    ``cut == dur`` makes the interrupt land exactly when the sleep would
    fire; ``cut > dur`` interrupts a process that already moved on.
    """
    _assert_corpus("interrupt", _interrupt_trace)


def regenerate_interleavings() -> None:  # pragma: no cover - maintenance
    """Re-record the corpus's traces for its stored inputs.

    For a deliberate kernel change only, argued for in CHANGES.md: the
    recorded traces are the reference the kernel is checked against.

        PYTHONPATH=src:. python -c "from tests.sim.test_handles import \\
    regenerate_interleavings; regenerate_interleavings()"
    """
    corpus = {
        name: [dict(_recorded(trace_of(entry["input"])),
                    input=entry["input"]) for entry in _CORPUS[name]]
        for name, trace_of in (("interrupt", _interrupt_trace),
                               ("park", _park_trace))}
    with open(CORPUS, "w") as fh:
        # One entry per line, so a changed entry diffs as one line.
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n" + ",\n".join(
                json.dumps(entry, sort_keys=True) for entry in entries)
            + "\n]" for name, entries in sorted(corpus.items())) + "\n}\n")


# -- full-simulation identity (batched-dispatch accounting) ------------------

@pytest.mark.parametrize("app,sched", [
    ("uts", "DistWS"),     # scan + policy tail (shared deque, remote tier)
    ("uts", "X10WS"),      # kernel-resident idle loop (no policy tail)
    ("turing", "X10WS"),   # barrier phases: heavy park/wake churn
])
def test_full_run_identical_across_kernels_including_event_count(app, sched):
    """Snapshots AND ``events_processed`` are the recorded ones, which
    the object kernel produced too.

    The batch drain and collapsed rounds must count every logical
    dispatch — a diverging event count means an entry was skipped or
    double-counted even if the physics happen to match.
    """
    run = cell_run(*bare_args(app, sched))
    assert run[2] > 0
    assert_golden(f"bare|{app}|{sched}", run)
