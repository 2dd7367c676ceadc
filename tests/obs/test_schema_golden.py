"""Golden-file pin of the event vocabulary + stream determinism.

The schema (kind -> ordered field names) is the contract between the
runtime and every archived event stream.  Changing it must be a
deliberate act: update ``golden_event_schema.json`` in the same commit
and call it out in the PR.
"""

from __future__ import annotations

import io
import json
import os
from collections import Counter

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.obs import EVENT_SCHEMA, EventBus, JsonlSink
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import make_scheduler

from tests.faults.conftest import fanout_program

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_event_schema.json")


class TestGoldenSchema:
    def test_schema_matches_golden_file(self):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        current = {kind: list(fields)
                   for kind, fields in EVENT_SCHEMA.items()}
        assert current == golden, (
            "EVENT_SCHEMA changed.  If intentional, regenerate "
            "tests/obs/golden_event_schema.json and flag the break "
            "for consumers of archived JSONL streams.")

    def test_jsonl_rows_follow_schema_order(self):
        stream = io.StringIO()
        _reset_task_ids()
        rt = SimRuntime(
            ClusterSpec(n_places=4, workers_per_place=2, max_threads=4),
            make_scheduler("DistWS"), seed=7)
        bus = EventBus(sample_interval=200_000)
        bus.subscribe(JsonlSink(stream=stream))
        bus.attach(rt)
        rt.run(fanout_program(24, work=500_000, n_places=4))
        lines = stream.getvalue().splitlines()
        assert lines
        for line in lines:
            row = json.loads(line)
            keys = list(row)
            assert keys[:2] == ["t", "kind"]
            assert keys[2:] == list(EVENT_SCHEMA[row["kind"]])

    def test_no_field_shadows_a_row_key(self):
        # ObsEvent.as_row writes ``t`` and ``kind`` first; a schema field
        # of either name would overwrite them in every JSONL row.
        for kind, fields in EVENT_SCHEMA.items():
            assert not {"t", "kind"} & set(fields), kind

    def test_rows_keep_their_kind_on_a_messaging_run(self):
        # A multi-place uts run sends steal requests, ships and replies,
        # so msg_send rows are present alongside every other kind.
        stream = io.StringIO()
        _reset_task_ids()
        rt = SimRuntime(
            ClusterSpec(n_places=4, workers_per_place=2, max_threads=4),
            make_scheduler("DistWS"), seed=7)
        bus = EventBus(sample_interval=200_000)
        bus.subscribe(JsonlSink(stream=stream))
        bus.attach(rt)
        make_app("uts", scale="test", seed=5).run(rt)
        rows = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert bus.counts["msg_send"] > 0
        for row in rows:
            assert list(row) == ["t", "kind", *EVENT_SCHEMA[row["kind"]]]
        assert Counter(row["kind"] for row in rows) == \
            {k: n for k, n in bus.counts.items() if n}


class TestDeterminism:
    """Two identically-seeded runs emit byte-identical event streams."""

    @staticmethod
    def run_stream(scheduler_name="DistWS"):
        _reset_task_ids()  # task ids are a process-global counter
        stream = io.StringIO()
        rt = SimRuntime(
            ClusterSpec(n_places=4, workers_per_place=2, max_threads=4),
            make_scheduler(scheduler_name), seed=7)
        bus = EventBus(sample_interval=100_000)
        bus.subscribe(JsonlSink(stream=stream))
        bus.attach(rt)
        rt.run(fanout_program(24, work=500_000, n_places=4))
        return stream.getvalue()

    def test_byte_identical_streams(self):
        assert self.run_stream() == self.run_stream()

    def test_different_scheduler_differs(self):
        # Sanity: the check has teeth — a different policy produces a
        # different stream.
        assert self.run_stream("DistWS") != self.run_stream("X10WS")
