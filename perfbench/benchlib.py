"""Pure helpers for the repo benchmark: statistics, layer bucketing,
error accounting and process hygiene.

Nothing here imports :mod:`repro`; the workloads in ``workloads.py``
feed it plain numbers, so the logic is testable without running a
simulation (see ``tests/test_benchlib.py``).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import signal
import statistics
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: ``src/repro/<module>/`` packages reported as their own layer.  Self
#: time anywhere else — the standard library, builtins, files directly
#: under ``src/repro/``, and repro modules these workloads do not run
#: (faults, tune, analysis, live) — is reported as ``other``.
LAYERS = ("sim", "runtime", "sched", "apps", "obs", "harness", "serve",
          "cluster", "apgas")
OTHER = "other"


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples.

    The value returned is always one of the samples: the smallest whose
    rank is at least ``ceil(q * n)``.
    """
    xs = sorted(samples)
    if not xs:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q}")
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1]


def median(samples: Iterable[float]) -> float:
    """Median of ``samples`` (0.0 when empty)."""
    xs = list(samples)
    return statistics.median(xs) if xs else 0.0


def layer_of(filename: str, pkg_dir: str) -> str:
    """Bucket a profiled code location by the ``src/repro/<module>/``
    directory it lives in.

    ``pkg_dir`` is the repro package directory (``.../src/repro``).
    Returns the module name for a file inside a package directory of
    ``pkg_dir``, else :data:`OTHER` (builtins show up as ``~``).
    """
    root = os.path.normcase(os.path.abspath(pkg_dir)) + os.sep
    if filename.startswith(("~", "<")):
        return OTHER
    path = os.path.normcase(os.path.abspath(filename))
    if not path.startswith(root):
        return OTHER
    parts = path[len(root):].split(os.sep)
    return parts[0] if len(parts) > 1 else OTHER


def bucket_profile(stats: Mapping[tuple, tuple], pkg_dir: str
                   ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer self time and
    call counts.

    ``stats`` maps ``(filename, line, function)`` to ``(primitive calls,
    total calls, self seconds, cumulative seconds, callers)``.  Returns
    ``(self_seconds, calls)`` keyed by every name in :data:`LAYERS` plus
    :data:`OTHER`; every entry lands in exactly one bucket, so the
    buckets sum to the profile's total self time.
    """
    self_s = {name: 0.0 for name in (*LAYERS, OTHER)}
    calls = {name: 0 for name in (*LAYERS, OTHER)}
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) \
            in stats.items():
        layer = layer_of(filename, pkg_dir)
        if layer not in self_s:
            layer = OTHER
        self_s[layer] += tt
        calls[layer] += nc
    return self_s, calls


def layer_metrics(self_s: Mapping[str, float]) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.share`` for every bucket; the
    shares sum to 1 whenever any self time was recorded."""
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for name in (*LAYERS, OTHER):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.share"] = (self_s.get(name, 0.0) / total
                                if total > 0 else 0.0)
    return out


# ---------------------------------------------------------------------------
# Correctness and error accounting.

#: The simulated observables every simulator cell is checked on.
OBSERVABLES = ("makespan", "tasks", "steals", "messages", "events")


def check_observables(got: Mapping[str, object],
                      ref: Optional[Mapping[str, object]],
                      keys: Sequence[str] = OBSERVABLES) -> List[str]:
    """Differences between a cell's observables and its reference, on
    ``keys`` (a store-drained result carries no ``events`` count).

    A missing reference is itself a difference: an unchecked cell must
    not pass as correct.
    """
    if ref is None:
        return ["no reference observables recorded"]
    return [f"{key}: got {got.get(key)!r}, reference {ref.get(key)!r}"
            for key in keys if got.get(key) != ref.get(key)]


class Ledger:
    """Tallies operations (cells or requests) for the result line.

    ``failed`` counts operations that did not complete correctly: a
    cell whose observables differ from the reference, a request that
    was shed, failed, lost or executed off its home place.  Such a
    violation is recorded by name (printed before the result) and an
    operation that failed also misses the latency limit.  ``correct``
    is false as soon as any output was wrong, as opposed to refused:
    a shed request is a failure but not a wrong answer.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.within_limit = 0
        self.wrong = 0
        self.violations: List[str] = []

    def record(self, ok: bool, within_limit: bool = True,
               wrong: bool = False, why: str = "") -> None:
        """Account one operation.  ``ok`` false marks it failed (and so
        an SLO miss whatever ``within_limit`` says); ``wrong`` marks an
        incorrect output; ``why`` is printed for any failure."""
        self.attempted += 1
        if ok and not wrong:
            if within_limit:
                self.within_limit += 1
        else:
            self.failed += 1
            if why:
                self.violations.append(why)
        if wrong:
            self.wrong += 1

    def violation(self, why: str) -> None:
        """A correctness violation not tied to a single operation (for
        example telemetry rows that do not match done rows)."""
        self.wrong += 1
        self.violations.append(why)

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def classify_request(outcome: Optional[str], sticky: bool, home: int,
                     place: Optional[int], latency_ms: Optional[float],
                     limit_ms: float) -> Tuple[bool, bool, bool, str]:
    """Judge one served request: ``(ok, within_limit, wrong, why)``.

    ``outcome`` is the router's terminal outcome (``None`` if the
    request never resolved: lost).  A sticky request that executed away
    from its home place is a wrong answer, not just a failure.
    """
    if outcome is None:
        return False, False, True, "lost: accepted request never completed"
    if outcome != "ok":
        return False, False, False, f"request {outcome}"
    if sticky and place != home:
        return (False, False, True,
                f"sticky request homed at {home} ran at place {place}")
    within = latency_ms is not None and latency_ms <= limit_ms
    return True, within, False, ""


# ---------------------------------------------------------------------------
# Process hygiene: the benchmark leaves no process behind.

#: ``prctl`` option that makes orphaned descendants reparent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants (Linux), so that
    :func:`reap_children` also collects grandchildren whose parent died
    first, such as the multiprocessing resource tracker of a child.
    Returns whether the kernel accepted."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids() -> List[int]:
    """Process ids whose parent is this process (Linux ``/proc``),
    ended but unreaped ones included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _stop_resource_tracker() -> None:
    """Stop and wait for the multiprocessing resource tracker if this
    process started one.  Spawned processes start it; it ignores
    SIGTERM and only exits once every holder of its pipe has closed it,
    so without this it outlives the benchmark."""
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is None:
        return
    with contextlib.suppress(OSError):
        tracker._stop()


def reap_children(grace_s: float = 5.0) -> int:
    """Wait until this process has no child left, reaping each one.
    Children still running after ``grace_s`` seconds are killed.
    Returns how many children were reaped."""
    _stop_resource_tracker()
    deadline = time.monotonic() + grace_s
    reaped = 0
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
            continue
        if time.monotonic() >= deadline:
            for child in child_pids():
                with contextlib.suppress(OSError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)
