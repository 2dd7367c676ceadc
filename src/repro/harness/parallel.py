"""Parallel sharded experiment execution with a content-addressed cache.

The paper's evaluation (§VIII) is a grid: every (application, scheduler,
cluster, seed) cell is one independent, deterministic simulation.  This
module shards that grid over a process pool and memoises finished cells
on disk, so ``examples/reproduce_paper.py`` scales with the host's cores
and repeated runs (including the ``--faults`` calibration pre-runs) skip
simulation entirely.

Three layers:

- :class:`RunSpec` — a frozen, picklable description of *one* simulation
  run.  Its :meth:`RunSpec.cache_key` is a stable SHA-256 over every
  input that can change the resulting :class:`RunStats` (app + scale +
  seeds, scheduler + kwargs, cluster spec, cost model, fault plan), so
  equal keys imply byte-identical ``RunStats.snapshot()`` output.
- :class:`ResultCache` — a content-addressed directory of pickled
  :class:`RunResult` objects, written atomically, keyed by
  :meth:`RunSpec.cache_key`.  Corrupt or unreadable entries count as
  misses and are evicted.
- :class:`ExecutionContext` — how runs execute right now: a worker
  budget (``parallel``), an optional cache, and optionally a durable
  :class:`~repro.harness.db.ExperimentStore` job queue (crash-resilient
  multi-worker sweeps).  The active context is process-global and
  installed with :func:`execution`; the serial default keeps every
  existing entry point byte-identical to the pre-parallel behaviour.

Determinism contract: a cell's result depends only on its
:class:`RunSpec`.  Sharding changes *where* a cell simulates, never its
seeds, so for any worker count (and any cache state) the grid's
``RunStats.snapshot()`` JSON is byte-identical to serial execution.
Only ``RunResult.wall_seconds`` (host-side timing) varies between
executions; it never enters a snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.cluster.topology import ClusterSpec, paper_cluster
from repro.errors import ConfigError

#: Bump when the simulation's observable behaviour changes in a way the
#: spec payload cannot express (schema migrations invalidate old entries).
#: 2: a child the fault injector re-homes is priced at its final home.
CACHE_SCHEMA_VERSION = 2


def _freeze_kwargs(kwargs: Optional[dict]) -> Tuple[Tuple[str, object], ...]:
    """Canonicalise an optional kwargs dict into a sorted item tuple."""
    if not kwargs:
        return ()
    return tuple(sorted(kwargs.items()))


def _jsonable(value):
    """Recursively convert specs/cost models/fault plans to JSON shapes."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation run's statistics."""

    app: str
    scheduler: str
    spec: ClusterSpec
    app_seed: int = 12345
    sched_seed: int = 1
    scale: str = "bench"
    costs: CostModel = DEFAULT_COST_MODEL
    validate: bool = True
    #: Sorted ``(key, value)`` items; use :meth:`build` to pass dicts.
    sched_kwargs: Tuple[Tuple[str, object], ...] = ()
    app_overrides: Tuple[Tuple[str, object], ...] = ()
    fault_plan: Optional[object] = None  # a resolved FaultPlan, or None

    @classmethod
    def build(cls, app: str, scheduler: str,
              spec: Optional[ClusterSpec] = None,
              app_seed: int = 12345, sched_seed: int = 1,
              scale: str = "bench",
              costs: CostModel = DEFAULT_COST_MODEL,
              validate: bool = True,
              sched_kwargs: Optional[dict] = None,
              app_overrides: Optional[dict] = None,
              fault_plan=None) -> "RunSpec":
        """Normalising constructor mirroring ``run_once``'s signature."""
        return cls(app=app, scheduler=scheduler,
                   spec=spec or paper_cluster(),
                   app_seed=app_seed, sched_seed=sched_seed, scale=scale,
                   costs=costs, validate=validate,
                   sched_kwargs=_freeze_kwargs(sched_kwargs),
                   app_overrides=_freeze_kwargs(app_overrides),
                   fault_plan=fault_plan)

    def payload(self) -> Dict[str, object]:
        """Canonical JSON-shaped view of every result-determining input."""
        return {
            "version": CACHE_SCHEMA_VERSION,
            "app": self.app,
            "scheduler": self.scheduler,
            "spec": _jsonable(self.spec),
            "app_seed": self.app_seed,
            "sched_seed": self.sched_seed,
            "scale": self.scale,
            "costs": _jsonable(self.costs),
            "validate": self.validate,
            "sched_kwargs": _jsonable(dict(self.sched_kwargs)),
            "app_overrides": _jsonable(dict(self.app_overrides)),
            "fault_plan": _jsonable(self.fault_plan),
        }

    def cache_key(self) -> str:
        """Stable content hash: equal keys => byte-identical snapshots."""
        canon = json.dumps(self.payload(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def simulate(spec: RunSpec, bus=None):
    """Execute one :class:`RunSpec` in this process (pool entry point).

    Top-level (picklable) on purpose; builds a fresh app + scheduler +
    runtime, so runs are independent whichever process hosts them.

    ``bus`` (an :class:`repro.obs.EventBus`, optional) attaches before
    the run so fleet workers can observe without touching this hot path
    for everyone else — with no bus the run is byte-identical to PR-2's
    no-sink contract.
    """
    import time

    from repro.apps import make_app
    from repro.harness.experiment import RunResult
    from repro.runtime.runtime import SimRuntime
    from repro.sched import make_scheduler

    app = make_app(spec.app, scale=spec.scale, seed=spec.app_seed,
                   **dict(spec.app_overrides))
    sched = make_scheduler(spec.scheduler, **dict(spec.sched_kwargs))
    rt = SimRuntime(spec.spec, sched, costs=spec.costs,
                    seed=spec.sched_seed)
    if spec.fault_plan is not None:
        from repro.faults import FaultInjector
        FaultInjector(spec.fault_plan).attach(rt)
    if bus is not None:
        bus.attach(rt)
    t0 = time.perf_counter()
    stats = app.run(rt, validate=spec.validate)
    wall = time.perf_counter() - t0
    return RunResult(spec.app, spec.scheduler, spec.spec, spec.app_seed,
                     spec.sched_seed, stats, wall)


class ResultCache:
    """Content-addressed on-disk cache of pickled :class:`RunResult`\\ s."""

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.io_errors = 0
        self._warned: set = set()

    def _entry(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.pkl")

    def _warn(self, what: str, exc: OSError) -> None:
        """One-line, once-per-cause warning: an unusable cache must not
        degrade invisibly into a 100% miss rate."""
        self.io_errors += 1
        cause = type(exc).__name__
        if (what, cause) in self._warned:
            return
        self._warned.add((what, cause))
        warnings.warn(f"result cache {self.path}: {what} ({exc}); "
                      "continuing without this entry", RuntimeWarning,
                      stacklevel=3)

    def get(self, spec: RunSpec):
        """The cached :class:`RunResult` for ``spec``, or ``None``."""
        entry = self._entry(spec.cache_key())
        try:
            with open(entry, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except PermissionError as exc:
            # An unreadable dir is an operational problem, not a miss.
            self._warn("entry unreadable", exc)
            self.misses += 1
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, OSError) as exc:
            # A torn or stale entry is a miss; evict it so the slot heals.
            try:
                os.unlink(entry)
            except FileNotFoundError:
                pass  # racing eviction already healed the slot
            except OSError as unlink_exc:
                self._warn("cannot evict corrupt entry", unlink_exc)
            if isinstance(exc, OSError):
                self._warn("entry read failed", exc)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result) -> None:
        """Store ``result`` under ``spec``'s key (atomic rename).

        A cache that cannot be written (read-only or full directory) is
        reported once and skipped — it must not abort the simulation
        whose result it was merely memoising.
        """
        try:
            fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        except OSError as exc:
            self._warn("store failed", exc)
            return
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._entry(spec.cache_key()))
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._warn("store failed", exc)
            return
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.path)
                   if name.endswith(".pkl"))

    def clear(self) -> None:
        """Drop every cached entry."""
        for name in os.listdir(self.path):
            if name.endswith(".pkl"):
                try:
                    os.unlink(os.path.join(self.path, name))
                except FileNotFoundError:
                    pass  # concurrent clear/eviction won the race
                except OSError as exc:
                    self._warn("clear failed", exc)


@dataclasses.dataclass(frozen=True)
class CellRequest:
    """One experiment-grid cell: a run per scheduler seed, aggregated.

    Mirrors ``run_cell``'s signature; like the serial path, only the
    first seed validates application output (repeating validation on a
    deterministic app is redundant).
    """

    app: str
    scheduler: str
    spec: ClusterSpec
    sched_seeds: Tuple[int, ...] = (1, 2, 3)
    app_seed: int = 12345
    scale: str = "bench"
    costs: CostModel = DEFAULT_COST_MODEL
    validate: bool = True
    sched_kwargs: Tuple[Tuple[str, object], ...] = ()
    app_overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def build(cls, app: str, scheduler: str,
              spec: Optional[ClusterSpec] = None,
              sched_seeds: Sequence[int] = (1, 2, 3),
              app_seed: int = 12345, scale: str = "bench",
              costs: CostModel = DEFAULT_COST_MODEL,
              validate: bool = True,
              sched_kwargs: Optional[dict] = None,
              app_overrides: Optional[dict] = None) -> "CellRequest":
        if not sched_seeds:
            raise ConfigError("a cell needs at least one scheduler seed")
        return cls(app=app, scheduler=scheduler,
                   spec=spec or paper_cluster(),
                   sched_seeds=tuple(sched_seeds), app_seed=app_seed,
                   scale=scale, costs=costs, validate=validate,
                   sched_kwargs=_freeze_kwargs(sched_kwargs),
                   app_overrides=_freeze_kwargs(app_overrides))

    def to_specs(self) -> List[RunSpec]:
        """Expand into per-seed :class:`RunSpec`\\ s (validate-first)."""
        specs = []
        validate = self.validate
        for s in self.sched_seeds:
            specs.append(RunSpec(
                app=self.app, scheduler=self.scheduler, spec=self.spec,
                app_seed=self.app_seed, sched_seed=s, scale=self.scale,
                costs=self.costs, validate=validate,
                sched_kwargs=self.sched_kwargs,
                app_overrides=self.app_overrides))
            validate = False
        return specs


class ExecutionContext:
    """How experiment runs execute: worker budget, optional cache, and
    optionally a durable :class:`~repro.harness.db.ExperimentStore`.

    With ``store=`` set, specs are enqueued as rows and drained through
    the store's lease/heartbeat/reaper protocol instead of a transient
    process pool: ``parallel - 1`` helper worker processes are spawned
    (the coordinator drains too), cells finished by a *previous* run of
    the same store are never re-simulated, and external ``repro
    workers`` processes on the same host may drain the same store
    concurrently (WAL does not span machines — see the db module
    docstring).
    """

    #: Times a spec lost to a dying pool worker may be resubmitted
    #: before the grid gives up (satellite: BrokenProcessPool recovery).
    max_spec_retries = 2

    def __init__(self, parallel: int = 1,
                 cache: Optional[ResultCache] = None,
                 store=None) -> None:
        if parallel < 1:
            raise ConfigError(f"parallel must be >= 1, got {parallel}")
        self.parallel = parallel
        self.cache = cache
        self.store = store
        #: Simulations actually executed by this context (cache hits and
        #: store rows finished elsewhere excluded).
        self.simulations = 0
        #: Process pools rebuilt after a worker died (OOM-kill etc.).
        self.pool_rebuilds = 0

    # -- execution ---------------------------------------------------------
    def run_specs(self, specs: Sequence[RunSpec],
                  on_result: Optional[Callable[[int, RunSpec, object],
                                               None]] = None) -> List[object]:
        """Execute ``specs``, returning results in input order.

        Identical specs are simulated once and fanned back out.  With a
        cache attached, hits skip simulation; fresh results are stored.
        ``on_result(index, spec, result)`` streams each run back as it
        completes (indices arrive out of order under a pool; the returned
        list is always input-ordered).
        """
        results: List[object] = [None] * len(specs)
        pending: Dict[str, List[int]] = {}

        def deliver(indices: List[int], result) -> None:
            for i in indices:
                results[i] = result
                if on_result is not None:
                    on_result(i, specs[i], result)

        for i, spec in enumerate(specs):
            key = spec.cache_key()
            if key in pending:
                pending[key].append(i)
                continue
            if self.cache is not None:
                hit = self.cache.get(spec)
                if hit is not None:
                    deliver([i], hit)
                    continue
            pending[key] = [i]

        todo = [(indices, specs[indices[0]])
                for indices in pending.values()]
        if self.store is not None and todo:
            self._run_store(todo, deliver)
        elif len(todo) > 1 and self.parallel > 1:
            self._run_pool(todo, deliver)
        else:
            for indices, spec in todo:
                result = simulate(spec)
                self.simulations += 1
                if self.cache is not None:
                    self.cache.put(spec, result)
                deliver(indices, result)
        return results

    def _run_pool(self, todo, deliver) -> None:
        """Shard ``todo`` over a process pool, streaming completions.

        Robust to dying pool workers: an OOM-killed child breaks the
        whole ``ProcessPoolExecutor`` (every in-flight future raises
        :class:`BrokenProcessPool`), so the lost specs are resubmitted
        to a fresh pool up to :attr:`max_spec_retries` times each before
        the error propagates.  An interrupt cancels queued futures and
        re-raises (finished cells are already cached/delivered).
        """
        queue = [(indices, spec, 0) for indices, spec in todo]
        while queue:
            batch, queue = queue, []
            lost = self._pool_round(batch, deliver)
            if not lost:
                break
            for indices, spec, tries in lost:
                if tries + 1 > self.max_spec_retries:
                    raise BrokenProcessPool(
                        f"a pool worker died {tries + 1} times on spec "
                        f"{spec.cache_key()[:12]} "
                        f"({spec.app} x {spec.scheduler}); giving up")
                queue.append((indices, spec, tries + 1))
            self.pool_rebuilds += 1

    def _pool_round(self, batch, deliver) -> list:
        """One pool lifetime: run ``batch``, return items lost to a
        broken pool (empty list means the round completed)."""
        workers = min(self.parallel, len(batch))
        pool = ProcessPoolExecutor(max_workers=workers)
        futures = {}
        for item in batch:
            futures[pool.submit(simulate, item[1])] = item
        outstanding = set(futures)
        lost = []
        try:
            while outstanding:
                done, outstanding = wait(outstanding,
                                         return_when=FIRST_COMPLETED)
                while done:
                    fut = done.pop()
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        # The pool is gone: everything not yet delivered
                        # — this future, its unprocessed siblings left
                        # in `done`, and all outstanding ones — must be
                        # salvaged or requeued exactly once (popping as
                        # we deliver keeps finished futures out of the
                        # salvage set).  A future holding a genuine
                        # simulation error propagates it here rather
                        # than burning a requeue round on it.
                        lost.append(futures[fut])
                        for other in done | outstanding:
                            item = futures[other]
                            try:
                                salvaged = other.result(timeout=0)
                            except (BrokenProcessPool, CancelledError,
                                    FuturesTimeoutError):
                                lost.append(item)
                            else:
                                self._finish(item, salvaged, deliver)
                        return lost
                    self._finish(futures[fut], result, deliver)
        except (KeyboardInterrupt, SystemExit):
            for fut in outstanding:
                fut.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return lost

    def _finish(self, item, result, deliver) -> None:
        indices, spec, _tries = item
        self.simulations += 1
        if self.cache is not None:
            self.cache.put(spec, result)
        deliver(indices, result)

    # -- the durable store backend ----------------------------------------
    def _run_store(self, todo, deliver) -> None:
        """Drain ``todo`` through the experiment store's job queue.

        Rows already ``done`` in the store (a previous — possibly
        killed — run of the same sweep) are served without simulating;
        quarantined rows raise with their captured tracebacks after the
        rest of the grid completes.
        """
        import multiprocessing

        from repro.harness.db import QuarantinedError, drain, run_worker

        store = self.store
        keyed = {spec.cache_key(): (indices, spec)
                 for indices, spec in todo}
        store.add_specs([spec for _, spec in todo])
        helpers = []
        mp = multiprocessing.get_context()
        for _ in range(self.parallel - 1):
            proc = mp.Process(
                target=run_worker, args=(store.path,),
                kwargs={"max_attempts": store.max_attempts},
                daemon=True)
            proc.start()
            helpers.append(proc)
        try:
            self.simulations += drain(store)
        finally:
            for proc in helpers:
                proc.join(timeout=30.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join()
        statuses = store.statuses(keyed)
        failures = {key: store.get_error(key) or ""
                    for key, status in sorted(statuses.items())
                    if status == "failed"}
        if failures:
            raise QuarantinedError(failures)
        for key, (indices, spec) in keyed.items():
            result = store.get_result(key)
            if result is None:  # pragma: no cover - defensive
                raise ConfigError(
                    f"store row {key[:12]} vanished mid-sweep")
            if self.cache is not None:
                self.cache.put(spec, result)
            deliver(indices, result)

    def run_cells(self, requests: Sequence[CellRequest]) -> List[object]:
        """Execute a grid of cells; one :class:`CellResult` per request.

        The whole grid is flattened to runs first, so the pool shards
        across cells (not just within one cell's seeds).
        """
        from repro.harness.experiment import CellResult

        specs: List[RunSpec] = []
        slices: List[Tuple[int, int]] = []
        for req in requests:
            start = len(specs)
            specs.extend(req.to_specs())
            slices.append((start, len(specs)))
        flat = self.run_specs(specs)
        return [CellResult(runs=flat[start:stop])
                for start, stop in slices]


#: The active context; the serial, cache-less default reproduces the
#: original single-process behaviour exactly.
_current = ExecutionContext()


def current_context() -> ExecutionContext:
    """The execution context harness entry points route through."""
    return _current


@contextmanager
def execution(parallel: int = 1, cache_dir: Optional[str] = None,
              cache: Optional[ResultCache] = None,
              store=None, store_path: Optional[str] = None):
    """Install an :class:`ExecutionContext` for the enclosed block.

    ``with execution(parallel=4, cache_dir=".repro-cache"): fig5()``
    shards every cell fig5 runs over four processes and memoises them.
    ``store_path`` (or an open ``store``) routes the same cells through
    a durable :class:`~repro.harness.db.ExperimentStore` job queue
    instead — resumable after any crash, drainable by other worker
    processes on the same host.
    """
    global _current
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    owns_store = False
    if store is None and store_path is not None:
        from repro.harness.db import ExperimentStore
        store = ExperimentStore(store_path)
        owns_store = True
    ctx = ExecutionContext(parallel=parallel, cache=cache, store=store)
    previous = _current
    _current = ctx
    try:
        yield ctx
    finally:
        _current = previous
        if owns_store:
            store.close()


def run_cells(requests: Sequence[CellRequest]) -> List[object]:
    """Execute cells under the active context (module-level convenience)."""
    return current_context().run_cells(requests)
