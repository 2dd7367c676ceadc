"""Machine-speed normalization for timings on a noisy shared host.

On a virtual machine whose cores are shared with other tenants, the
same pure-Python work can take 1.5x longer for seconds at a time, and
those slow phases do not average out inside a run of a few dozen
seconds.  :class:`SpeedSampler` measures the host's speed *while* the
benchmark runs: a child process pinned to the benchmark's core runs a
fixed pure-Python burst (about 1 ms) every ``INTERVAL_S`` and records
how long it took.  A timed interval is then converted to *reference
seconds*, the time it would have taken on a host that runs the burst
in ``NOMINAL_BURST_S``::

    reference = wall * mean(NOMINAL_BURST_S / burst_i  for bursts in it)

Both processes share one core and its slow and fast phases, which last
far longer than the sampling interval, so the ratio cancels the host's
speed while keeping the change's own cost.  The sampler takes about 3%
of the core.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from typing import Iterator, List, Sequence, Tuple

#: Seconds between speed samples.
INTERVAL_S = 0.025
#: Loop iterations of one burst (about 1 ms of interpreter work).
BURST_ITERATIONS = 5000
#: The reference host: one burst takes this long.  A fixed constant, so
#: reference seconds compare across runs and commits.
NOMINAL_BURST_S = 0.0008
#: At least this many samples estimate the speed over an interval; a
#: shorter interval borrows the nearest samples around it.
MIN_SAMPLES = 4


def burst(n: int = BURST_ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic, dict and list traffic."""
    acc = 0
    table = {}
    items: List[int] = []
    for i in range(n):
        acc += i * 3 + (i >> 2)
        if i & 7 == 0:
            table[i & 1023] = acc
            items.append(i)
            if len(items) > 64:
                items.pop(0)
    return acc


def _sample_loop(cpu: int, conn) -> None:
    """Child process: sample until told to stop; on request send the
    samples taken so far."""
    os.sched_setaffinity(0, {cpu})
    samples: List[Tuple[float, float]] = []
    while True:
        if conn.poll():
            try:
                request = conn.recv()
            except EOFError:  # the benchmark died; nobody will ask
                return
            conn.send(samples)
            if request == "stop":
                return
            samples = []
        t0 = time.perf_counter()
        burst()
        samples.append((t0, time.perf_counter() - t0))
        time.sleep(INTERVAL_S)


def speed_factor(a: float, z: float,
                 samples: Sequence[Tuple[float, float]]) -> float:
    """Reference seconds per wall second over ``[a, z]``, from the
    ``(start, burst seconds)`` samples taken in it."""
    inside = [b for t, b in samples if a <= t <= z]
    if len(inside) < MIN_SAMPLES:
        mid = (a + z) / 2.0
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))
        inside = [b for _, b in nearest[:MIN_SAMPLES]]
    if not inside:
        raise RuntimeError("no speed samples were taken")
    return sum(NOMINAL_BURST_S / b for b in inside) / len(inside)


class SpeedSampler:
    """Pins this process to one core and samples that core's speed from
    a child process pinned beside it.  Use as a context manager; the
    child is stopped and joined on exit."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.cpus = os.sched_getaffinity(0)
        self._proc = None
        self._conn = None

    def __enter__(self) -> "SpeedSampler":
        cpu = min(self.cpus)
        os.sched_setaffinity(0, {cpu})
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_sample_loop, args=(cpu, child),
                                 daemon=True, name="perfbench-speed")
        self._proc.start()
        child.close()
        time.sleep(MIN_SAMPLES * INTERVAL_S + 0.2)
        return self

    def refresh(self) -> None:
        """Fetch the samples taken since the last refresh."""
        self._conn.send("flush")
        self.samples.extend(self._conn.recv())

    def factor(self, a: float, z: float) -> float:
        """Reference seconds per wall second over ``[a, z]``, an
        interval that has already ended (``perf_counter`` times, which
        every process on the host shares)."""
        if not self.samples or self.samples[-1][0] < z:
            self.refresh()
        return speed_factor(a, z, self.samples)

    def seconds(self, a: float, z: float) -> float:
        """Reference seconds of the interval ``[a, z]``."""
        return (z - a) * self.factor(a, z)

    @contextlib.contextmanager
    def elsewhere(self) -> Iterator[None]:
        """Move this thread off the sampler's core for the block, so the
        processes it starts (the serving tier's places) leave that core
        to the benchmark and the sampler.  With a single core, nothing
        moves."""
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, (self.cpus - pinned) or self.cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, pinned)

    def __exit__(self, *exc) -> bool:
        try:
            self._conn.send("stop")
            self.samples.extend(self._conn.recv())
        except (OSError, EOFError):
            pass
        self._proc.join(timeout=10.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()
        return False


class WallClock:
    """The clock interface without a sampler: reference seconds are wall
    seconds.  Used by the traced child (its parent converts the child's
    timings with its own sampler) and by tools that only need the
    workloads' outputs.  ``cpu`` pins this process like
    :class:`SpeedSampler` does."""

    def __init__(self, cpu=None) -> None:
        self.cpus = os.sched_getaffinity(0)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    def factor(self, a: float, z: float) -> float:
        return 1.0

    def seconds(self, a: float, z: float) -> float:
        return z - a

    elsewhere = SpeedSampler.elsewhere
