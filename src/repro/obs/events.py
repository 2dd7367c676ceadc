"""The typed event vocabulary of the observability layer.

Every instrumentation point in the runtime emits one of the event kinds
below through the :class:`~repro.obs.bus.EventBus`.  The schema is the
*contract* between the runtime and every sink: each kind has a fixed,
ordered tuple of field names, and the JSONL serialization writes fields
in exactly that order (pinned by the golden-file test in
``tests/obs/test_schema_golden.py``).  Add new kinds freely; changing an
existing kind's fields is a breaking change to archived event streams
and must update the golden file deliberately.

Event taxonomy
==============

Task lifecycle (runtime):
    ``task_spawn``   — an activity was submitted (``parent`` is the task
                       executing on the spawning worker, if any);
    ``task_start``   — a worker began executing an activity;
    ``task_end``     — an activity completed (``t`` is the end time,
                       ``start``/``work`` allow duration/granularity).

Steal paths (scheduler):
    ``steal_attempt`` — one probe of a victim (``tier``: ``local`` =
                        co-located private deque, ``victim`` is a worker
                        index; ``shared`` = own place's shared deque,
                        ``victim`` is the place id);
    ``steal_hit``     — a tiered probe returned work;
    ``steal_request`` — a distributed steal request left for ``victim``;
    ``steal_miss``    — a distributed steal resolved empty (empty deque,
                        exhausted retries, or dead victim);
    ``chunk_arrive``  — a stolen chunk landed at the thief
                        (``latency`` = request-send → chunk-arrival);
    ``steal_cancel``  — a concurrent steal attempt (MultiStealWS) was
                        withdrawn because a sibling request claimed work
                        first, or the thief's place died mid-flight;
    ``radius_fallback`` — a LocalizedWS worker exhausted
                        ``radius_strikes`` consecutive in-radius rounds
                        and ran one unrestricted global round.

Mailbox:
    ``mailbox_put``  — a task closure was deposited in a place's mailbox;
    ``mailbox_get``  — a worker took a task out of its place's mailbox.

Network:
    ``msg_send``     — one priced transmission attempt (every packet of
                       it), with the latency the caller will pay
                       (``msg_kind`` = the network message kind).

Worker loop:
    ``worker_park``  — a worker found nothing anywhere and parked
                       (``backoff`` = the timeout it armed).

Fault injection:
    ``fault``        — one injection or recovery action (``what`` is the
                       :class:`~repro.faults.stats.FaultEvent` kind).

Sampled state (emitted by the bus's own sampler, when enabled):
    ``sample``       — per-place queue depths and the place's number of
                       outstanding (unresolved) distributed steal
                       requests at the sample instant.

Online tuning (``repro.tune.controllers``):
    ``knob_update``  — a feedback controller changed a scheduler knob
                       (``place`` is -1 for cluster-wide knobs like the
                       remote chunk size).

Experiment store (``repro.harness.db``; emitted by a *standalone* bus —
wall-clock ``t``, no runtime attached):
    ``store_lease``          — a worker leased one pending cell
                               (``attempt`` is 1-based);
    ``store_heartbeat_miss`` — the reaper found a lease that expired
                               without a heartbeat (``overdue`` seconds
                               past the deadline);
    ``store_reclaim``        — an expired lease's cell was re-opened for
                               another worker (``owner`` is the presumed-
                               dead previous holder);
    ``store_quarantine``     — a cell exhausted ``max_attempts`` and was
                               parked as ``failed`` (poison cell) with
                               the last line of its error.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Tuple

#: kind -> ordered field names.  THE event vocabulary; JSONL field order
#: follows this tuple exactly.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "task_spawn": ("task", "label", "parent", "home", "flexible"),
    "task_start": ("task", "place", "worker"),
    "task_end": ("task", "label", "home", "place", "worker", "start",
                 "work", "flexible", "stolen"),
    "steal_attempt": ("tier", "place", "worker", "victim"),
    "steal_hit": ("tier", "place", "worker", "victim", "tasks"),
    "steal_request": ("place", "worker", "victim"),
    "steal_miss": ("place", "worker", "victim"),
    "chunk_arrive": ("place", "worker", "victim", "tasks", "latency"),
    "steal_cancel": ("place", "worker", "victim"),
    "radius_fallback": ("place", "worker", "strikes"),
    "mailbox_put": ("place", "task"),
    "mailbox_get": ("place", "worker", "task"),
    "msg_send": ("src", "dst", "msg_kind", "bytes", "packets", "latency"),
    "worker_park": ("place", "worker", "backoff"),
    "fault": ("what", "place", "detail"),
    "sample": ("place", "private", "shared", "mailbox", "outstanding"),
    "knob_update": ("name", "place", "value"),
    "store_lease": ("key", "owner", "attempt"),
    "store_heartbeat_miss": ("key", "owner", "overdue"),
    "store_reclaim": ("key", "owner", "attempt"),
    "store_quarantine": ("key", "attempts", "error"),
}


class ObsEvent:
    """One clock-stamped event: ``t`` (cycles), ``kind``, and its fields."""

    __slots__ = ("t", "kind", "fields")

    def __init__(self, t: float, kind: str,
                 fields: Mapping[str, object]) -> None:
        self.t = t
        self.kind = kind
        self.fields = fields

    def as_row(self) -> Dict[str, object]:
        """Plain dict with deterministic key order (t, kind, schema order)."""
        row: Dict[str, object] = {"t": self.t, "kind": self.kind}
        for name in EVENT_SCHEMA[self.kind]:
            row[name] = self.fields[name]
        return row

    def to_json(self) -> str:
        """Compact single-line JSON (the JSONL wire format)."""
        return json.dumps(self.as_row(), separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObsEvent {self.kind} @{self.t:.0f} {dict(self.fields)}>"
