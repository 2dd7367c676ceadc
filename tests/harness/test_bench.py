"""The kernel benchmark gate: ``bench.compare`` on hand-built reports."""

from __future__ import annotations

import copy

from repro.harness import bench


def report(calibration=1000.0, wall=1.0, events=8237, makespan=1632789.6):
    return {"calibration_ops_per_sec": calibration,
            "cells": [{"cell": "uts|DistWS|8x4|test",
                       "best_wall_seconds": wall,
                       "events_processed": events,
                       "simulated": {"makespan_cycles": makespan,
                                     "tasks_executed": 948,
                                     "total_steals": 875}}]}


def test_identical_reports_pass():
    ok, _ = bench.compare(report(), report())
    assert ok


def test_simulated_drift_fails():
    candidate = report()
    candidate["cells"][0]["simulated"]["total_steals"] += 1
    ok, lines = bench.compare(report(), candidate)
    assert not ok
    assert any("SIMULATED METRICS DRIFTED" in line for line in lines)


def test_events_processed_drift_fails():
    ok, lines = bench.compare(report(), report(events=8238))
    assert not ok
    assert any("EVENTS_PROCESSED DRIFTED" in line for line in lines)


def test_events_processed_missing_from_candidate_fails():
    candidate = copy.deepcopy(report())
    del candidate["cells"][0]["events_processed"]
    ok, _ = bench.compare(report(), candidate)
    assert not ok


def test_normalized_wall_time_within_bound_passes():
    # 1.3 s on a machine calibrated 0.9x as fast normalizes to 1.17 s:
    # +17% against the 1.0 s baseline, inside the 20% bound.
    ok, lines = bench.compare(report(), report(calibration=900.0, wall=1.3))
    assert ok
    assert any("+17.0%" in line for line in lines)


def test_normalized_wall_time_over_bound_fails():
    ok, lines = bench.compare(report(), report(wall=1.25))
    assert not ok
    assert "FAIL: wall-clock regression over threshold" in lines
