"""Event-bus wiring: attach semantics, schema validation, counts, routing."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.obs import EVENT_SCHEMA, EventBus, InMemorySink
from repro.obs.metrics import MetricsRegistry
from repro.runtime.runtime import SimRuntime
from repro.sched import make_scheduler

from tests.faults.conftest import fanout_program


def make_rt(n_places=4, workers=2, seed=7):
    spec = ClusterSpec(n_places=n_places, workers_per_place=workers,
                       max_threads=workers + 2)
    return SimRuntime(spec, make_scheduler("DistWS"), seed=seed)


def observed_run(sample_interval=None, n_places=4):
    rt = make_rt(n_places=n_places)
    bus = EventBus(sample_interval=sample_interval)
    sink = bus.subscribe(InMemorySink())
    bus.attach(rt)
    stats = rt.run(fanout_program(24, work=500_000, n_places=n_places))
    return bus, sink, stats


class TestAttach:
    def test_no_sinks_attach_is_noop(self):
        rt = make_rt()
        bus = EventBus()
        bus.attach(rt)
        assert rt.obs is None
        assert rt.network.obs is None
        assert not bus.active

    def test_attach_installs_bus_and_opens_sinks(self):
        rt = make_rt()
        bus = EventBus()
        bus.subscribe(InMemorySink())
        bus.attach(rt)
        assert rt.obs is bus
        assert rt.network.obs is bus
        assert bus.active

    def test_attach_after_start_rejected(self):
        rt = make_rt(n_places=2)
        rt.run(fanout_program(4, work=100_000, n_places=2))
        bus = EventBus()
        bus.subscribe(InMemorySink())
        with pytest.raises(ConfigError):
            bus.attach(rt)

    def test_double_attach_rejected(self):
        rt = make_rt()
        bus = EventBus()
        bus.subscribe(InMemorySink())
        bus.attach(rt)
        other = EventBus()
        other.subscribe(InMemorySink())
        with pytest.raises(ConfigError):
            other.attach(rt)
        with pytest.raises(ConfigError):
            bus.attach(make_rt())

    def test_bad_sample_interval_rejected(self):
        with pytest.raises(ConfigError):
            EventBus(sample_interval=0)
        with pytest.raises(ConfigError):
            EventBus(sample_interval=-5)


class TestEmit:
    def test_unknown_kind_rejected(self):
        bus, _, _ = observed_run()
        with pytest.raises(ConfigError):
            bus.emit("nosuch_event", foo=1)

    def test_wrong_fields_rejected(self):
        rt = make_rt()
        bus = EventBus()
        bus.subscribe(InMemorySink())
        bus.attach(rt)
        with pytest.raises(ConfigError):
            bus.emit("task_start", task=1)  # missing place/worker
        with pytest.raises(ConfigError):
            bus.emit("task_start", task=1, place=0, worker=0, extra=9)

    def test_counts_match_sink(self):
        bus, sink, _ = observed_run()
        assert sum(bus.counts.values()) == len(sink.events)
        for kind in sink.kinds():
            assert bus.counts[kind] == sum(
                1 for ev in sink.events if ev.kind == kind)

    def test_events_cover_core_kinds(self):
        _, sink, stats = observed_run()
        kinds = set(sink.kinds())
        assert {"task_spawn", "task_start", "task_end"} <= kinds
        ends = [ev for ev in sink.events if ev.kind == "task_end"]
        assert len(ends) == stats.tasks_executed
        spawns = [ev for ev in sink.events if ev.kind == "task_spawn"]
        assert len(spawns) == stats.tasks_spawned

    def test_every_event_matches_schema(self):
        _, sink, _ = observed_run(sample_interval=50_000)
        for ev in sink.events:
            schema = EVENT_SCHEMA[ev.kind]
            assert tuple(sorted(ev.fields)) == tuple(sorted(schema))

    def test_timestamps_monotone(self):
        _, sink, stats = observed_run()
        times = [ev.t for ev in sink.events]
        assert times == sorted(times)
        assert times[-1] <= stats.makespan_cycles


class TestSnapshot:
    def test_obs_key_present_with_sinks(self):
        _, _, stats = observed_run()
        snap = stats.snapshot()
        assert "obs" in snap
        assert snap["obs"]["events"]["task_end"] == stats.tasks_executed

    def test_sampler_emits_per_place(self):
        bus, sink, _ = observed_run(sample_interval=100_000, n_places=3)
        samples = [ev for ev in sink.events if ev.kind == "sample"]
        assert samples, "sampler produced no events"
        assert len(samples) % 3 == 0  # one per place per trigger
        for ev in samples:
            assert ev.fields["private"] >= 0
            assert ev.fields["shared"] >= 0
            assert ev.fields["mailbox"] >= 0
            assert ev.fields["outstanding"] >= 0

    def test_no_sampler_no_samples(self):
        bus, sink, _ = observed_run(sample_interval=None)
        assert "sample" not in sink.kinds()


class TestSimulatedScheduleUnchanged:
    """Sinks observe; they never perturb the simulated run."""

    def test_snapshot_identical_modulo_obs_key(self):
        import json
        rt = make_rt()
        plain = rt.run(fanout_program(24, work=500_000, n_places=4))
        bus, _, observed = observed_run()
        a = plain.snapshot()
        b = observed.snapshot()
        assert "obs" not in a
        b.pop("obs")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestRouting:
    """Sinks receive only the kinds they consume; the bus still sees all."""

    @staticmethod
    def run_with(*sinks, sample_interval=100_000):
        rt = make_rt()
        bus = EventBus(sample_interval=sample_interval)
        for sink in sinks:
            bus.subscribe(sink)
        bus.attach(rt)
        stats = rt.run(fanout_program(24, work=500_000, n_places=4))
        return bus, stats

    def test_metrics_only_bus_matches_full_bus(self):
        import json
        lone = MetricsRegistry()
        lone_bus, lone_stats = self.run_with(lone)
        full = MetricsRegistry()
        full_bus, full_stats = self.run_with(InMemorySink(), full)
        assert lone_bus.counts == full_bus.counts
        assert (json.dumps(lone.snapshot(), sort_keys=True)
                == json.dumps(full.snapshot(), sort_keys=True))
        assert lone.series and lone.series.keys() == full.series.keys()
        assert (json.dumps(lone_stats.snapshot(), sort_keys=True)
                == json.dumps(full_stats.snapshot(), sort_keys=True))

    def test_unconsumed_kind_still_schema_checked(self):
        rt = make_rt()
        bus = EventBus()
        bus.subscribe(MetricsRegistry())
        bus.attach(rt)
        assert "task_start" not in MetricsRegistry.consumes
        with pytest.raises(ConfigError, match="do not match schema"):
            bus.emit("task_start", task=1)
        with pytest.raises(ConfigError, match="do not match schema"):
            bus.emit("task_start", task=1, place=0, worker=0, extra=9)
        with pytest.raises(ConfigError, match="unknown event kind"):
            bus.emit("nosuch_event", foo=1)

    def test_consuming_sink_gets_exactly_its_kinds_in_order(self):
        class Picky(InMemorySink):
            consumes = frozenset({"steal_attempt", "task_end", "sample"})

        everything = InMemorySink()
        picky = Picky()
        self.run_with(everything, picky)
        expected = [ev for ev in everything.events
                    if ev.kind in Picky.consumes]
        assert set(picky.kinds()) == Picky.consumes
        assert picky.events == expected  # same objects, same order

    def test_sink_subscribed_after_attach_is_routed(self):
        class Ends(InMemorySink):
            consumes = frozenset({"task_end"})

        rt = make_rt()
        bus = EventBus()
        bus.subscribe(MetricsRegistry())
        bus.attach(rt)
        late = bus.subscribe(Ends())
        stats = rt.run(fanout_program(24, work=500_000, n_places=4))
        assert late.kinds() == ["task_end"]
        assert len(late.events) == stats.tasks_executed

    def test_unknown_consumed_kind_rejected(self):
        class Typo(InMemorySink):
            consumes = frozenset({"task_ends"})

        with pytest.raises(ConfigError, match="task_ends"):
            EventBus().subscribe(Typo())
