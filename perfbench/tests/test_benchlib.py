"""Tests for the benchmark's own logic: percentiles, layer bucketing,
error accounting, process reaping, and that every declared metric is
produced.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from benchlib import (  # noqa: E402
    LAYERS,
    OTHER,
    Ledger,
    bucket_profile,
    check_observables,
    classify_request,
    layer_metrics,
    layer_of,
    percentile,
)

PKG = os.path.join(ROOT, "src", "repro")


# -- nearest-rank percentile ------------------------------------------------

class TestPercentile:
    def test_nearest_rank_on_1_to_100(self):
        xs = list(range(1, 101))
        assert percentile(xs, 0.50) == 50
        assert percentile(xs, 0.99) == 99
        assert percentile(xs, 1.0) == 100

    def test_rank_rounds_up(self):
        # ceil(0.5 * 5) = 3rd smallest; ceil(0.99 * 5) = 5th.
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(xs, 0.50) == 3.0
        assert percentile(xs, 0.99) == 5.0

    def test_always_returns_a_sample(self):
        xs = [0.3, 7.1, 2.2, 9.9]
        for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
            assert percentile(xs, q) in xs

    def test_q0_is_min_and_single_sample(self):
        assert percentile([4.0, 2.0, 8.0], 0.0) == 2.0
        assert percentile([7.5], 0.99) == 7.5

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_rejects_q_outside_unit_interval(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


# -- path -> layer bucketing -----------------------------------------------

class TestLayerOf:
    @pytest.mark.parametrize("rel, layer", [
        ("sim/engine.py", "sim"),
        ("runtime/worker.py", "runtime"),
        ("sched/distws.py", "sched"),
        ("apps/delaunay/mesh.py", "apps"),
        ("obs/fleet.py", "obs"),
        ("harness/db.py", "harness"),
        ("serve/place.py", "serve"),
        ("cluster/network.py", "cluster"),
    ])
    def test_module_directories(self, rel, layer):
        assert layer_of(os.path.join(PKG, *rel.split("/")), PKG) == layer

    def test_files_directly_under_repro_are_other(self):
        assert layer_of(os.path.join(PKG, "errors.py"), PKG) == OTHER
        assert layer_of(os.path.join(PKG, "__init__.py"), PKG) == OTHER

    def test_stdlib_builtins_and_synthetic_are_other(self):
        assert layer_of(os.path.join(sys.prefix, "lib", "heapq.py"),
                        PKG) == OTHER
        assert layer_of("~", PKG) == OTHER
        assert layer_of("<string>", PKG) == OTHER

    def test_a_different_repro_tree_is_other(self):
        elsewhere = os.path.join(os.sep, "elsewhere", "src", "repro",
                                 "sim", "engine.py")
        assert layer_of(elsewhere, PKG) == OTHER

    def test_sibling_prefix_is_not_inside(self):
        # ".../src/repro_extra/sim/x.py" shares a string prefix only.
        sibling = PKG + "_extra" + os.sep + os.path.join("sim", "x.py")
        assert layer_of(sibling, PKG) == OTHER


class TestBucketProfile:
    def stats(self):
        def row(tt, nc):
            return (nc, nc, tt, tt, {})
        return {
            (os.path.join(PKG, "sim", "engine.py"), 1, "run"): row(2.0, 10),
            (os.path.join(PKG, "runtime", "worker.py"), 1, "run"):
                row(3.0, 40),
            (os.path.join(PKG, "faults", "plan.py"), 1, "parse"):
                row(0.5, 1),
            (os.path.join(PKG, "errors.py"), 1, "f"): row(0.25, 1),
            ("~", 0, "<built-in method builtins.len>"): row(0.25, 100),
        }

    def test_self_time_and_calls_per_layer(self):
        self_s, calls = bucket_profile(self.stats(), PKG)
        assert self_s["sim"] == 2.0 and calls["sim"] == 10
        assert self_s["runtime"] == 3.0 and calls["runtime"] == 40
        # faults is not a reported layer: folded into other with the
        # top-level file and the builtin.
        assert self_s[OTHER] == 1.0 and calls[OTHER] == 102
        assert set(self_s) == set(LAYERS) | {OTHER}

    def test_buckets_and_shares_are_exhaustive(self):
        self_s, _ = bucket_profile(self.stats(), PKG)
        assert math.isclose(sum(self_s.values()), 6.0)
        metrics = layer_metrics(self_s)
        shares = [metrics[f"{n}.share"] for n in (*LAYERS, OTHER)]
        assert math.isclose(sum(shares), 1.0)
        assert metrics["runtime.share"] == 0.5

    def test_empty_profile_has_zero_shares(self):
        metrics = layer_metrics({})
        assert all(v == 0.0 for v in metrics.values())


# -- error accounting ------------------------------------------------------

REF = {"makespan": 10.5, "tasks": 7, "steals": 3, "messages": 2,
       "events": 99}


class TestObservables:
    def test_identical_observables_pass(self):
        assert check_observables(dict(REF), REF) == []

    def test_wrong_observable_is_reported(self):
        got = dict(REF, steals=4)
        diffs = check_observables(got, REF)
        assert len(diffs) == 1 and diffs[0].startswith("steals")

    def test_missing_reference_is_a_difference(self):
        assert check_observables(dict(REF), None)

    def test_keys_restrict_the_comparison(self):
        got = {k: v for k, v in REF.items() if k != "events"}
        assert check_observables(got, REF) != []
        assert check_observables(got, REF, keys=("makespan", "tasks",
                                                 "steals", "messages")) == []


class TestLedger:
    def test_wrong_reference_counts_as_failed_run(self):
        ledger = Ledger()
        diffs = check_observables(dict(REF, makespan=11.0), REF)
        ledger.record(ok=not diffs, wrong=bool(diffs), why="; ".join(diffs))
        assert ledger.failed == 1 and ledger.attempted == 1
        assert not ledger.correct
        assert ledger.error_rate == 1.0
        assert ledger.violations and "makespan" in ledger.violations[0]

    def test_shed_request_is_failed_and_slo_miss(self):
        ledger = Ledger()
        ledger.record(*classify_request("ok", False, 0, 1, 12.0, 100.0)[:3])
        ok, within, wrong, why = classify_request("shed", True, 0, None,
                                                  None, 100.0)
        ledger.record(ok, within, wrong, why)
        assert (ok, within, wrong) == (False, False, False)
        assert ledger.failed == 1 and ledger.within_limit == 1
        assert ledger.error_rate == 0.5
        # Shedding is a refusal, not a wrong answer.
        assert ledger.correct

    def test_failed_op_misses_slo_even_if_fast(self):
        ledger = Ledger()
        ledger.record(ok=False, within_limit=True, why="request failed")
        assert ledger.within_limit == 0 and ledger.failed == 1

    def test_lost_request_is_wrong(self):
        ok, within, wrong, _ = classify_request(None, False, 0, None,
                                                None, 100.0)
        assert (ok, within, wrong) == (False, False, True)

    def test_sticky_off_home_is_wrong(self):
        ok, _within, wrong, why = classify_request("ok", True, 0, 1, 5.0,
                                                   100.0)
        assert not ok and wrong and "homed at 0" in why

    def test_slow_ok_request_misses_slo_but_not_failed(self):
        ledger = Ledger()
        ledger.record(*classify_request("ok", False, 0, 1, 150.0,
                                        100.0)[:3])
        assert ledger.failed == 0 and ledger.within_limit == 0
        assert ledger.correct

    def test_standalone_violation_marks_incorrect(self):
        ledger = Ledger()
        ledger.record(ok=True)
        ledger.violation("telemetry rows 11 != done rows 12")
        assert not ledger.correct and ledger.failed == 0


def declared(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_wrong_reference_fails_a_real_cell():
    """End to end through a (tiny) simulator cell: a doctored reference
    makes every run of the cell a failed, incorrect operation."""
    from speed import WallClock
    from workloads import SimWorkload

    workload = SimWorkload("uts", ("DistWS",), seed=0, clock=WallClock(),
                           places=2, workers=2, scale="test")
    cell = workload.run_cell("DistWS")
    assert cell["problems"] == ["no reference observables recorded"]
    from workloads import observables
    good = observables(cell["snapshot"], cell["events"])
    workload.reference = {workload.key("DistWS"): good}
    measured = workload.measure(0.0)
    assert measured.ledger.failed == 0 and measured.ledger.correct
    assert set(measured.end_to_end) | {"setup_s"} == declared("end_to_end")
    workload.reference = {workload.key("DistWS"):
                          dict(good, steals=good["steals"] + 1)}
    measured = workload.measure(0.0)
    assert measured.ledger.failed == measured.ledger.attempted == 2
    assert not measured.ledger.correct


def test_every_declared_metric_is_produced():
    """The names in BENCHMARK.json are the names run.py emits."""
    import run
    from workloads import Measured

    child = {"self_s": {n: 1.0 for n in (*LAYERS, OTHER)},
             "calls": {n: 1 for n in (*LAYERS, OTHER)}, "cost": 2.0,
             "counts": {"tasks": 4, "steal_attempts": 2, "steal_hits": 1}}
    measured = Measured(ledger=Ledger(), end_to_end={}, untraced_cost=1.0)
    per_layer = run.per_layer_metrics(child, measured)
    assert set(per_layer) == declared("per_layer")
    assert per_layer["trace_overhead_ratio"] == 2.0


# -- process hygiene ----------------------------------------------------------

REAPER = """
import json, subprocess, sys
from benchlib import become_subreaper, child_pids, reap_children
become_subreaper()
# The child exits at once and leaves a sleeping grandchild orphaned.
subprocess.run([sys.executable, "-c", "import subprocess, sys; "
                "subprocess.Popen([sys.executable, '-c', "
                "'import time; time.sleep(60)'])"], check=True)
print(json.dumps({"reaped": reap_children(grace_s=0.5),
                  "left": child_pids()}))
"""


def test_reap_children_collects_orphaned_grandchildren():
    """A grandchild whose parent exited first is adopted, killed after
    the grace period and reaped: nothing outlives the benchmark."""
    out = subprocess.run([sys.executable, "-c", REAPER], cwd=BENCH_DIR,
                         capture_output=True, text=True, timeout=30,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"reaped": 1, "left": []}
