"""Every scheduler must fail clearly when used before bind()."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.runtime.task import FLEXIBLE, Task
from repro.sched import SCHEDULERS, make_scheduler


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_mapping_cost_unbound_raises_scheduler_error(name):
    """``map_task`` (which returns the mapping cost) needs a runtime."""
    sched = make_scheduler(name)
    task = Task(None, 0, locality=FLEXIBLE, work=100)
    with pytest.raises(SchedulerError, match="scheduler not bound"):
        sched.map_task(task)
