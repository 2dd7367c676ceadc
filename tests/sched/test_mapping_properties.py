"""Property tests for Algorithm 1's mapping rules."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterSpec, DistWS, SimRuntime
from repro.runtime.task import FLEXIBLE, SENSITIVE, Task


def fresh_rt(workers=4, max_threads=6):
    spec = ClusterSpec(n_places=2, workers_per_place=workers,
                       max_threads=max_threads)
    return SimRuntime(spec, DistWS(), seed=0)


class TestMappingProperties:
    @settings(max_examples=40, deadline=None)
    @given(flags=st.lists(st.booleans(), min_size=1, max_size=40))
    def test_sensitive_tasks_never_enter_shared_deque(self, flags):
        rt = fresh_rt()
        for flexible in flags:
            rt.scheduler.map_task(Task(
                None, 0, locality=FLEXIBLE if flexible else SENSITIVE))
        shared_tasks = list(rt.places[0].shared._items)
        assert all(t.is_flexible for t in shared_tasks)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=60))
    def test_conservation_every_task_lands_somewhere(self, n):
        rt = fresh_rt()
        for i in range(n):
            rt.scheduler.map_task(Task(
                None, 0, locality=FLEXIBLE if i % 3 else SENSITIVE))
        place = rt.places[0]
        total = place.queued_private() + len(place.shared)
        assert total == n

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=60))
    def test_flexible_overflow_only_after_saturation(self, n):
        """Nothing reaches the shared deque while the place still has
        spare capacity (Algorithm 1 lines 4-6)."""
        rt = fresh_rt(workers=4, max_threads=6)
        place = rt.places[0]
        for i in range(n):
            before_spares = place.spares()
            before_size = place.size()
            shared_before = len(place.shared)
            rt.scheduler.map_task(Task(None, 0, locality=FLEXIBLE))
            if len(place.shared) > shared_before:
                # It overflowed: the place really was saturated.
                assert before_spares == 0
                assert before_size >= rt.spec.max_threads

    def test_mapping_cost_consistent_with_destination(self):
        rt = fresh_rt(workers=2, max_threads=2)
        place = rt.places[0]
        costs = rt.costs
        # Saturate the place.
        for _ in range(4):
            rt.scheduler.map_task(Task(None, 0, locality=FLEXIBLE))
        assert len(place.shared) > 0
        # With the place saturated the flexible mapping lands on the
        # shared deque, and the price map_task returns is the shared cost.
        t = Task(None, 0, locality=FLEXIBLE)
        shared_before = len(place.shared)
        price = rt.scheduler.map_task(t)
        assert len(place.shared) == shared_before + 1
        assert place.shared._items[-1] is t
        assert price == pytest.approx(
            costs.locality_mapping_overhead + costs.shared_deque_op)
