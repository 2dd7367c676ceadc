"""The benchmark's four workloads, driven from outside the program.

Every measurement is taken here, around calls into each layer's public
functions (``make_app``, ``SimRuntime``, ``ExperimentStore``, ``drain``,
``observe_run``, ``simulate``, ``ServeService.submit``), or read from the
counters the program already reports (``RunStats.snapshot()``,
``env.events_processed``, ``ServeService.snapshot()``).

Each workload has the same shape:

- ``session(seconds, spans)`` — warm up (the time is charged to
  ``setup_s``), then repeat operations until ``seconds`` have passed,
  checking every output; returns ``(set-up seconds, Measured)``.  With
  ``spans`` it also times the layer boundaries the per-layer metrics
  need; the spans are cheap and never run under the profiler;
- ``traced(seconds)`` — one operation set under ``cProfile``; called
  only in a fresh child process (see ``traced.py``), so call counts
  repeat exactly.
"""

from __future__ import annotations

import asyncio
import contextlib
import cProfile
import gc
import json
import multiprocessing
import os
import pickle
import pstats
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from benchlib import (
    LAYERS,
    OTHER,
    Ledger,
    bucket_profile,
    check_observables,
    classify_request,
    median,
    percentile,
)

#: App input seed: fixes each application's task graph (uts at bench
#: scale always has 48,861 tasks).  The workload seed varies the
#: scheduler seed instead, over a recorded set of variants.
APP_SEED = 12345
#: Scheduler-seed variants with recorded reference observables; the
#: workload seed picks ``1 + seed % SEED_VARIANTS``.
SEED_VARIANTS = 8
#: Latency limit for a simulator cell, and for a whole drain of the
#: sweep.  Only badly broken code misses it; the serving tier's limit is
#: ``SERVE_LIMIT_MS``.
CELL_LIMIT_S = 60.0

SERVE_LIMIT_MS = 100.0
SERVE_RATE = 250.0
SERVE_PLACES = 2
SERVE_WORKERS = 2
SERVE_WARMUP_S = 1.0
#: Seconds after the last arrival before an unresolved request is lost.
SERVE_COMPLETION_TIMEOUT = 30.0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def sched_seed_for(seed: int) -> int:
    return 1 + seed % SEED_VARIANTS


def cell_key(app: str, scheduler: str, places: int, workers: int,
             scale: str, sched_seed: int) -> str:
    return f"{app}|{scheduler}|{places}x{workers}|{scale}|s{sched_seed}"


def load_reference() -> Dict[str, Dict[str, object]]:
    """Recorded observables by cell key (empty before ``record.py``
    first ran, so every check then fails)."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def observables(snapshot: dict, events: Optional[int] = None) -> dict:
    """The reference observables of one run, from ``RunStats.snapshot()``."""
    out = {
        "makespan": snapshot["makespan_cycles"],
        "tasks": snapshot["tasks"]["executed"],
        "steals": steal_counts(snapshot)[1],
        "messages": snapshot["network"]["messages"],
    }
    if events is not None:
        out["events"] = events
    return out


def steal_counts(snapshot: dict) -> tuple:
    """``(attempts, hits)`` over every steal tier of one run."""
    s = snapshot["steals"]
    attempts = (s["local_attempts"] + s["shared_local_attempts"]
                + s["remote_attempts"])
    hits = (s["local_hits"] + s["shared_local_hits"] + s["mailbox_hits"]
            + s["remote_hits"])
    return attempts, hits


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_hwm_mb() -> float:
    """Peak resident memory of the live child processes (Linux
    ``VmHWM``), summed; 0.0 where ``/proc`` is unavailable."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def profiled(fn: Callable[[], object]):
    """Run ``fn`` under ``cProfile``; return ``(value, stats dict)``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        value = fn()
    finally:
        prof.disable()
    return value, pstats.Stats(prof).stats


@dataclass
class Measured:
    """What one workload run produced, before it becomes metrics."""

    ledger: Ledger
    end_to_end: Dict[str, float]
    #: Per-operation-set cost the traced run is compared against.
    untraced_cost: float
    #: Per-layer metrics measured from spans in the untraced phase.
    spans: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class _Workload:
    """Shared session shape of the in-process workloads, which provide
    ``setup()``, ``measure(seconds, spans)`` and a ``clock`` that
    converts wall intervals to reference seconds (see ``speed.py``)."""

    def session(self, seconds: float, spans: bool = False) -> tuple:
        """Warm up, then measure: ``(set-up seconds, Measured)``."""
        t0 = time.perf_counter()
        self.setup()
        setup_s = self.clock.seconds(t0, time.perf_counter())
        return setup_s, self.measure(seconds, spans)


# ---------------------------------------------------------------------------
# Simulator cells: steal-tree and phased-ring.

class SimWorkload(_Workload):
    """Bench-scale cells of one app under two schedulers.

    One operation is a *round*: one cell under each scheduler, built and
    run back to back.  Its latency is the round's time in reference
    seconds.
    """

    def __init__(self, app: str, schedulers: tuple, seed: int, clock,
                 places: int = 16, workers: int = 8,
                 scale: str = "bench") -> None:
        self.app = app
        self.schedulers = schedulers
        self.clock = clock
        self.places = places
        self.workers = workers
        self.scale = scale
        self.sched_seed = sched_seed_for(seed)
        self.reference = load_reference()

    def key(self, scheduler: str) -> str:
        return cell_key(self.app, scheduler, self.places, self.workers,
                        self.scale, self.sched_seed)

    def run_cell(self, scheduler: str, profile: bool = False) -> dict:
        """Build and run one cell; the timed region is what a user of
        the simulator waits for (app, scheduler and runtime built, run
        to completion).  Validation runs after the clock stops."""
        from repro import ClusterSpec, SimRuntime, make_scheduler
        from repro.apps import make_app

        def build_and_run():
            app = make_app(self.app, scale=self.scale, seed=APP_SEED)
            rt = SimRuntime(
                ClusterSpec(n_places=self.places,
                            workers_per_place=self.workers,
                            max_threads=self.workers + 4),
                make_scheduler(scheduler), seed=self.sched_seed)
            return app, rt, app.run(rt, validate=False)

        gc.collect()
        prof_stats = None
        t0 = time.perf_counter()
        if profile:
            (app, rt, stats), prof_stats = profiled(build_and_run)
        else:
            app, rt, stats = build_and_run()
        t1 = time.perf_counter()
        snap = stats.snapshot()
        problems = check_observables(
            observables(snap, rt.env.events_processed),
            self.reference.get(self.key(scheduler)))
        try:
            app.validate()
        except Exception as exc:  # an AppError is a wrong answer
            problems.append(f"validation: {exc}")
        return {"scheduler": scheduler, "span": (t0, t1),
                "snapshot": snap, "events": rt.env.events_processed,
                "problems": problems, "profile": prof_stats}

    def setup(self) -> None:
        self.run_cell(self.schedulers[0])

    def measure(self, seconds: float, spans: bool = False) -> Measured:
        ledger = Ledger()
        rounds: List[List[tuple]] = []
        tasks = 0
        start = time.perf_counter()
        # At least two rounds, and only whole rounds.
        while len(rounds) < 2 or time.perf_counter() - start < seconds:
            spans_of_round = []
            tasks = 0
            for scheduler in self.schedulers:
                cell = self.run_cell(scheduler)
                spans_of_round.append(cell["span"])
                tasks += cell["snapshot"]["tasks"]["executed"]
                a, z = cell["span"]
                why = "; ".join(f"{self.key(scheduler)}: {p}"
                                for p in cell["problems"])
                ledger.record(ok=not cell["problems"],
                              within_limit=z - a <= CELL_LIMIT_S,
                              wrong=bool(cell["problems"]), why=why)
            rounds.append(spans_of_round)
        round_s = [sum(self.clock.seconds(a, z) for a, z in r)
                   for r in rounds]
        wall_s = [sum(z - a for a, z in r) for r in rounds]
        median_s = median(round_s)
        cells_per_s = len(self.schedulers) / median_s
        return Measured(
            ledger=ledger,
            end_to_end={
                "us_per_task": median_s * 1e6 / max(1, tasks),
                "cells_per_s": cells_per_s,
                "goodput_rps": cells_per_s * (1.0 - ledger.failed
                                              / ledger.attempted),
                "slo_goodput_rps": (cells_per_s * ledger.within_limit
                                    / ledger.attempted),
                "latency_p50_ms": percentile(round_s, 0.50) * 1e3,
                "latency_p99_ms": percentile(round_s, 0.99) * 1e3,
                "peak_rss_mb": self_rss_mb(),
            },
            untraced_cost=median_s,
            notes=[f"latency samples: {len(rounds)} rounds of "
                   f"{'+'.join(self.schedulers)}, {tasks} tasks each",
                   f"median round: {median_s:.3f} reference s, "
                   f"{median(wall_s):.3f} wall s",
                   f"sched_seed: {self.sched_seed}"])

    def traced(self, seconds: float) -> dict:
        """One round under cProfile (the first in a fresh process)."""
        self_s = {name: 0.0 for name in (*LAYERS, OTHER)}
        calls = {name: 0 for name in (*LAYERS, OTHER)}
        cost = 0.0
        tasks = events = attempts = hits = 0
        problems: List[str] = []
        begin = time.perf_counter()
        for scheduler in self.schedulers:
            cell = self.run_cell(scheduler, profile=True)
            layer_s, layer_calls = bucket_profile(cell["profile"],
                                                  _pkg_dir())
            for name in self_s:
                self_s[name] += layer_s[name]
                calls[name] += layer_calls[name]
            cost += cell["span"][1] - cell["span"][0]
            tasks += cell["snapshot"]["tasks"]["executed"]
            events += cell["events"]
            a, h = steal_counts(cell["snapshot"])
            attempts += a
            hits += h
            problems += [f"{self.key(scheduler)}: {p}"
                         for p in cell["problems"]]
        return {"self_s": self_s, "calls": calls, "cost": cost,
                "span": (begin, time.perf_counter()),
                "counts": {"tasks": tasks, "events": events,
                           "steal_attempts": attempts, "steal_hits": hits},
                "problems": problems, "ops": len(self.schedulers)}


def _pkg_dir() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


# ---------------------------------------------------------------------------
# observed-sweep: test-scale cells drained through a fresh store.

SWEEP_APPS = ("uts", "turing", "mcpi", "dmg")
SWEEP_SCHEDULERS = ("DistWS", "X10WS", "Lifeline")


class SweepWorkload(_Workload):
    """Drain a fixed list of cells through a fresh ``ExperimentStore``
    at parallel=1 with default fleet telemetry.

    One operation is a whole drain: store opened, cells enqueued,
    claimed, simulated under observation and committed.  Each cell
    counts toward ``attempted``.
    """

    places = 8
    workers = 4
    scale = "test"

    def __init__(self, seed: int, clock, tmpdir: str) -> None:
        from repro.cluster.topology import ClusterSpec
        from repro.harness.parallel import RunSpec

        self.sched_seed = sched_seed_for(seed)
        self.clock = clock
        self.tmpdir = tmpdir
        self.reference = load_reference()
        cluster = ClusterSpec(n_places=self.places,
                              workers_per_place=self.workers,
                              max_threads=self.workers + 4)
        self.cells = [(app, sched) for app in SWEEP_APPS
                      for sched in SWEEP_SCHEDULERS]
        self.specs = [RunSpec.build(app, sched, cluster,
                                    app_seed=APP_SEED,
                                    sched_seed=self.sched_seed,
                                    scale=self.scale, validate=True)
                      for app, sched in self.cells]
        self._drains = 0

    def key(self, app: str, scheduler: str) -> str:
        return cell_key(app, scheduler, self.places, self.workers,
                        self.scale, self.sched_seed)

    def drain_once(self, ledger: Optional[Ledger] = None,
                   profile: bool = False) -> dict:
        """One drain of every cell through a fresh store file."""
        from repro.harness.db import ExperimentStore, drain

        self._drains += 1
        path = os.path.join(self.tmpdir, f"sweep-{self._drains}.db")

        def run():
            store = ExperimentStore(path)
            store.add_specs(self.specs)
            drain(store)
            return store

        gc.collect()
        t0 = time.perf_counter()
        prof_stats = None
        if profile:
            store, prof_stats = profiled(run)
        else:
            store = run()
        t1 = time.perf_counter()
        try:
            out = self._check(store, ledger, t1 - t0 <= CELL_LIMIT_S)
        finally:
            store.close()
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(path + suffix):
                    os.remove(path + suffix)
        out.update(span=(t0, t1), profile=prof_stats)
        return out

    def _check(self, store, ledger: Optional[Ledger],
               within_limit: bool) -> dict:
        ledger = ledger if ledger is not None else Ledger()
        counts = store.counts()
        telemetry = len(store.telemetry_rows())
        tasks = attempts = hits = 0
        problems: List[str] = []
        result_kb: List[float] = []
        for (app, sched), spec in zip(self.cells, self.specs):
            result = store.get_result(spec.cache_key())
            if result is None:
                why = f"{self.key(app, sched)}: no result in store"
                ledger.record(ok=False, wrong=True, why=why)
                problems.append(why)
                continue
            result_kb.append(len(pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL)) / 1024.0)
            snap = result.stats.snapshot()
            tasks += snap["tasks"]["executed"]
            a, h = steal_counts(snap)
            attempts += a
            hits += h
            diffs = check_observables(
                observables(snap), self.reference.get(self.key(app, sched)),
                keys=("makespan", "tasks", "steals", "messages"))
            why = "; ".join(f"{self.key(app, sched)}: {d}" for d in diffs)
            ledger.record(ok=not diffs, within_limit=within_limit,
                          wrong=bool(diffs), why=why)
            problems += [why] if why else []
        if counts.get("done", 0) != len(self.specs):
            why = f"done rows {counts.get('done', 0)} != {len(self.specs)}"
            ledger.violation(why)
            problems.append(why)
        if telemetry != counts.get("done", 0):
            why = (f"telemetry rows {telemetry} != done rows "
                   f"{counts.get('done', 0)}")
            ledger.violation(why)
            problems.append(why)
        if counts.get("failed", 0):
            why = f"{counts['failed']} quarantined cells"
            ledger.violation(why)
            problems.append(why)
        return {"tasks": tasks, "steal_attempts": attempts,
                "steal_hits": hits, "problems": problems,
                "result_kb": result_kb}

    def setup(self) -> None:
        self.drain_once()

    def measure(self, seconds: float, spans: bool = False) -> Measured:
        ledger = Ledger()
        drains = []
        timer = _SweepSpans() if spans else None
        start = time.perf_counter()
        with (timer if timer is not None else contextlib.nullcontext()):
            while len(drains) < 2 or time.perf_counter() - start < seconds:
                drains.append(self.drain_once(ledger))
        walls = [self.clock.seconds(*d["span"]) for d in drains]
        tasks = drains[-1]["tasks"]
        drain_s = median(walls)
        cells_per_s = len(self.specs) / drain_s
        measured = Measured(
            ledger=ledger,
            end_to_end={
                "us_per_task": drain_s * 1e6 / max(1, tasks),
                "cells_per_s": cells_per_s,
                "goodput_rps": cells_per_s * (1.0 - ledger.failed
                                              / ledger.attempted),
                "slo_goodput_rps": (cells_per_s * ledger.within_limit
                                    / ledger.attempted),
                "latency_p50_ms": percentile(walls, 0.50) * 1e3,
                "latency_p99_ms": percentile(walls, 0.99) * 1e3,
                "peak_rss_mb": self_rss_mb(),
            },
            untraced_cost=drain_s,
            notes=[f"latency samples: {len(walls)} drains of "
                   f"{len(self.specs)} cells, {tasks} tasks each",
                   f"median drain: {drain_s:.3f} reference s, "
                   f"{median(z - a for a, z in (d['span'] for d in drains)):.3f}"
                   " wall s",
                   f"sched_seed: {self.sched_seed}"])
        if timer is not None:
            measured.spans = self._span_metrics(timer, drains)
            for why in timer.problems:
                ledger.violation(why)
        return measured

    def _span_metrics(self, timer: "_SweepSpans",
                      drains: List[dict]) -> Dict[str, float]:
        """Harness and observation costs from the spans, plus one bare
        pass over the same cells for ``obs.overhead_ratio``."""
        bare: List[tuple] = []
        events = 0
        for (app, sched), spec in zip(self.cells, self.specs):
            span, snap, n_events = bare_run(spec)
            bare.append(span)
            events += n_events
            for diff in check_observables(
                    observables(snap, n_events),
                    self.reference.get(self.key(app, sched))):
                timer.problems.append(f"bare {self.key(app, sched)}: {diff}")

        def ref(spans) -> List[float]:
            return [self.clock.seconds(a, z) for a, z in spans]

        drain_spans = [d["span"] for d in drains]
        observed_per_drain = sum(ref(timer.observe)) / len(drains)
        return {
            "harness.claim_ms": median(ref(timer.claim)) * 1e3,
            "harness.complete_ms": median(ref(timer.complete)) * 1e3,
            "harness.result_kb": median(kb for d in drains
                                        for kb in d["result_kb"]),
            "harness.overhead_share": 1.0 - (sum(ref(timer.simulate))
                                             / sum(ref(drain_spans))),
            "obs.overhead_ratio": observed_per_drain / sum(ref(bare)),
            "sim.events": float(events),
        }

    def traced(self, seconds: float) -> dict:
        """One drain under cProfile (the first in a fresh process)."""
        out = self.drain_once(profile=True)
        self_s, calls = bucket_profile(out["profile"], _pkg_dir())
        return {"self_s": self_s, "calls": calls,
                "cost": out["span"][1] - out["span"][0], "span": out["span"],
                "counts": {"tasks": out["tasks"],
                           "steal_attempts": out["steal_attempts"],
                           "steal_hits": out["steal_hits"]},
                "problems": out["problems"], "ops": len(self.specs)}


def bare_run(spec) -> tuple:
    """Build and run a cell the way ``simulate`` does, with no bus and
    no store; returns ``(wall span, RunStats snapshot, events
    processed)``."""
    from repro.apps import make_app
    from repro.runtime.runtime import SimRuntime
    from repro.sched import make_scheduler

    gc.collect()
    t0 = time.perf_counter()
    app = make_app(spec.app, scale=spec.scale, seed=spec.app_seed)
    rt = SimRuntime(spec.spec, make_scheduler(spec.scheduler),
                    costs=spec.costs, seed=spec.sched_seed)
    stats = app.run(rt, validate=spec.validate)
    return (t0, time.perf_counter()), stats.snapshot(), \
        rt.env.events_processed


class _SweepSpans:
    """Records the wall spans of ``ExperimentStore.claim``/``complete``,
    ``observe_run`` and ``simulate`` while installed, by wrapping the
    public callables the drain loop looks up at call time."""

    def __init__(self) -> None:
        self.claim: List[tuple] = []
        self.complete: List[tuple] = []
        self.observe: List[tuple] = []
        self.simulate: List[tuple] = []
        self.problems: List[str] = []
        self._saved: list = []

    def _wrap(self, owner, name: str, spans: List[tuple]) -> None:
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((t0, time.perf_counter()))

        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "_SweepSpans":
        from repro.harness import db, parallel
        from repro.obs import fleet

        self._wrap(db.ExperimentStore, "claim", self.claim)
        self._wrap(db.ExperimentStore, "complete", self.complete)
        self._wrap(fleet, "observe_run", self.observe)
        self._wrap(parallel, "simulate", self.simulate)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# serve-hot: open-loop Poisson traffic against the serving tier.

class ServeWorkload:
    """2 places x 2 workers, ``selective`` balancer, Zipf-hot place 0.

    One operation is a request.  Latencies are sleep-bound and reported
    in wall time; the router's CPU cost per request is converted to
    reference time like the simulator timings.
    """

    def __init__(self, seed: int, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.service = None
        self._next_id = 0

    def traffic(self, duration_s: float, seed: int):
        from repro.serve.traffic import TrafficSpec
        return TrafficSpec(pattern="poisson", rate=SERVE_RATE,
                           duration_s=duration_s, n_places=SERVE_PLACES,
                           seed=seed, sticky_fraction=0.5,
                           service_ms=10.0, skew=1.5, hot_place=0)

    async def start(self) -> None:
        from repro.serve.service import ServeService
        self.service = ServeService(n_places=SERVE_PLACES,
                                    workers_per_place=SERVE_WORKERS,
                                    balancer="selective", seed=self.seed)
        # The router shares the speed sampler's core; the places run on
        # the other cores.
        with self.clock.elsewhere():
            await self.service.start()

    async def stop(self) -> None:
        if self.service is not None:
            await self.service.stop()

    async def replay(self, duration_s: float, seed: int) -> dict:
        """Replay one trace open-loop; every request is timed from the
        moment it was due, not from when the generator got to it."""
        from repro.serve.traffic import make_trace

        service = self.service
        arrivals = make_trace(self.traffic(duration_s, seed))
        sent = []
        migrations0 = service.counters["migrations"]
        cpu0 = time.process_time()
        t0 = time.perf_counter() + 0.05
        for arrival in arrivals:
            due = t0 + arrival.t
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            payload = arrival.payload()
            payload["id"] = self._next_id
            self._next_id += 1
            t_sub = time.perf_counter()
            rec = await service.submit(payload)
            sent.append((arrival, due, t_sub, time.perf_counter(), rec))
        pending = [rec.future for *_, rec in sent if not rec.future.done()]
        if pending:
            await asyncio.wait(pending, timeout=SERVE_COMPLETION_TIMEOUT)
        t1 = time.perf_counter()
        cpu = (time.process_time() - cpu0) * self.clock.factor(t0, t1)
        return {"sent": sent, "t0": t0, "cpu": cpu,
                "migrations": service.counters["migrations"] - migrations0}

    def judge(self, replay: dict, ledger: Ledger) -> dict:
        """Per-request outcomes, latencies and span samples."""
        latency_ms: List[float] = []
        overhead_ms: List[float] = []
        submit_ms: List[float] = []
        lag_ms: List[float] = []
        cold = done = 0
        t_end = replay["t0"]
        cold_factor = self.service.cold_factor
        for arrival, due, t_sub, t_sub_end, rec in replay["sent"]:
            submit_ms.append((t_sub_end - t_sub) * 1e3)
            lag_ms.append((t_sub - due) * 1e3)
            outcome = rec.outcome if rec.terminal else None
            lat = None if rec.t_done is None else (rec.t_done - due) * 1e3
            ok, within, wrong, why = classify_request(
                outcome, not arrival.flexible, arrival.home, rec.place,
                lat, SERVE_LIMIT_MS)
            ledger.record(ok=ok, within_limit=within, wrong=wrong,
                          why=f"request {rec.task['id']}: {why}"
                          if why else "")
            if rec.t_done is not None:
                t_end = max(t_end, rec.t_done)
                done += 1
            if ok:
                latency_ms.append(lat)
                nominal = arrival.service_ms * (1.0 if rec.warm
                                                else cold_factor)
                overhead_ms.append(lat - nominal)
                cold += 0 if rec.warm else 1
        window = t_end - replay["t0"]
        return {"latency_ms": latency_ms, "overhead_ms": overhead_ms,
                "submit_ms": submit_ms, "lag_ms": lag_ms, "cold": cold,
                "done": done, "window": window,
                "us_per_task": replay["cpu"] * 1e6 / max(1, done)}

    async def measure(self, seconds: float, spans: bool) -> Measured:
        """Replay a ``seconds``-long trace and judge it."""
        ledger = Ledger()
        replay = await self.replay(seconds, self.seed)
        j = self.judge(replay, ledger)
        measured = Measured(
            ledger=ledger,
            end_to_end={
                "us_per_task": j["us_per_task"],
                "cells_per_s": j["done"] / j["window"],
                "goodput_rps": len(j["latency_ms"]) / j["window"],
                "slo_goodput_rps": ledger.within_limit / j["window"],
                "latency_p50_ms": percentile(j["latency_ms"], 0.50),
                "latency_p99_ms": percentile(j["latency_ms"], 0.99),
                # Read while the place processes are still alive.
                "peak_rss_mb": self_rss_mb() + children_hwm_mb(),
            },
            untraced_cost=j["us_per_task"],
            notes=[f"latency samples: {len(j['latency_ms'])} ok of "
                   f"{ledger.attempted} requests",
                   f"traffic: poisson {SERVE_RATE:g} r/s for "
                   f"{seconds:g} s, seed {self.seed}"])
        if spans:
            measured.spans = {
                "serve.submit_ms_p99": percentile(j["submit_ms"], 0.99),
                "serve.overhead_p50_ms": percentile(j["overhead_ms"], 0.50),
                "serve.cold_fraction": (j["cold"]
                                        / max(1, len(j["latency_ms"]))),
                "serve.migrations_per_req": (replay["migrations"]
                                             / max(1, ledger.attempted)),
                "serve.gen_lag_p99_ms": percentile(j["lag_ms"], 0.99),
            }
        return measured

    def session(self, seconds: float, spans: bool = False) -> tuple:
        """Start the places, warm up, measure, stop: ``(setup s,
        Measured)``.  Set-up covers place-process start-up and a short
        warm-up trace."""
        async def run() -> tuple:
            t0 = time.perf_counter()
            try:
                await self.start()
                await self.warm_up()
                setup_s = self.clock.seconds(t0, time.perf_counter())
                measured = await self.measure(seconds, spans)
            finally:
                await self.stop()
            if spans:
                measured.spans["serve.steal_hit_ratio"] = \
                    self.steal_hit_ratio()
            return setup_s, measured
        return asyncio.run(run())

    async def warm_up(self) -> None:
        await self.replay(SERVE_WARMUP_S, self.seed + 1_000_003)

    def steal_hit_ratio(self) -> float:
        """Remote steal hits per probe over the service's life, from
        the place counters ``ServeService.snapshot()`` carries after
        ``stop()``."""
        places = self.service.snapshot()["places"].values()
        probes = sum(c.get("steal_probes", 0) for c in places)
        hits = sum(c.get("steal_hits", 0) for c in places)
        return hits / probes if probes else 0.0

    def traced(self, seconds: float) -> dict:
        """A fresh service and one trace with the router profiled."""
        async def run() -> dict:
            await self.start()
            try:
                ledger = Ledger()
                begin = time.perf_counter()
                replay, prof_stats = await _profiled_async(
                    self.replay(seconds, self.seed))
                span = (begin, time.perf_counter())
                j = self.judge(replay, ledger)
            finally:
                await self.stop()
            self_s, calls = bucket_profile(prof_stats, _pkg_dir())
            return {"self_s": self_s, "calls": calls,
                    "cost": j["us_per_task"], "span": span,
                    "counts": {"requests": ledger.attempted},
                    "problems": ledger.violations if not ledger.correct
                    else [], "ops": ledger.attempted}
        return asyncio.run(run())


async def _profiled_async(coro):
    """Profile a coroutine by process CPU time: the router spends most of
    its wall time waiting in the event loop's poll, which is not work."""
    prof = cProfile.Profile(time.process_time)
    prof.enable()
    try:
        value = await coro
    finally:
        prof.disable()
    return value, pstats.Stats(prof).stats


# ---------------------------------------------------------------------------
# The registry the command line selects from.

WORKLOADS = {
    "steal-tree": lambda seed, clock, tmpdir: SimWorkload(
        "uts", ("DistWS", "Lifeline"), seed, clock),
    "phased-ring": lambda seed, clock, tmpdir: SimWorkload(
        "turing", ("DistWS", "X10WS"), seed, clock),
    "observed-sweep": lambda seed, clock, tmpdir: SweepWorkload(
        seed, clock, tmpdir),
    "serve-hot": lambda seed, clock, tmpdir: ServeWorkload(seed, clock),
}

#: What each workload imports before its first operation; ``setup_s``
#: times these imports in fresh interpreters.
IMPORTS = {
    "steal-tree": "import repro, repro.apps, repro.sched",
    "phased-ring": "import repro, repro.apps, repro.sched",
    "observed-sweep": ("import repro, repro.apps, repro.sched, "
                       "repro.harness.db, repro.harness.parallel, "
                       "repro.obs.fleet"),
    "serve-hot": ("import repro.serve.service, repro.serve.traffic, "
                  "repro.serve.place"),
}
