"""Chrome ``trace_event`` JSON exporter (``chrome://tracing`` / Perfetto).

One process represents the simulated cluster, one thread track per host.
Every phase becomes a complete ("X") event on each host's track lasting the
barrier-to-barrier modeled duration; the host's own busy seconds and its
counters ride along in ``args``. Sync phases additionally emit flow events
(``s``/``t``/``f`` with a shared id) tying the participating hosts'
tracks together, making the BSP communication structure visible.

Timestamps are microseconds of *modeled* time, starting at zero.
"""

from __future__ import annotations

import json
from typing import Any

from repro.cluster.metrics import STATISTIC_FIELDS
from repro.trace.timeline import Timeline, TimelineSlice

_US = 1e6  # trace_event timestamps are microseconds

TRACE_PID = 0


def _event_name(s: TimelineSlice) -> str:
    name = s.kind.value
    if s.label:
        name = f"{name}:{s.label}"
    return name


def _slice_event(s: TimelineSlice) -> dict[str, Any]:
    counters = {k: v for k, v in s.counters.as_dict().items() if v}
    args: dict[str, Any] = {
        "round": s.round,
        "operator": s.operator,
        "kind": s.kind.value,
        "busy_s": s.busy,
        "wait_s": s.duration - s.busy,
        "counters": counters,
    }
    if s.chunk is not None:
        # Async-engine phases carry their chunk ordinal so the trace shows
        # scheduling order; absent under BSP (keeps those traces identical).
        args["chunk"] = s.chunk
        args["engine"] = "async"
    return {
        "name": _event_name(s),
        "cat": "sync" if s.kind.is_sync else "compute",
        "ph": "X",
        "ts": s.start * _US,
        "dur": s.duration * _US,
        "pid": TRACE_PID,
        "tid": s.host,
        "args": args,
    }


def _flow_events(slices: list[TimelineSlice], flow_id: int) -> list[dict[str, Any]]:
    """Flow start on the busiest sender, steps on other participants, end on
    the busiest receiver - one flow per sync phase."""
    participants = [s for s in slices if s.busy > 0.0]
    if len(participants) < 2:
        return []
    name = _event_name(slices[0])
    first = participants[0]
    last = participants[-1]
    events: list[dict[str, Any]] = []
    for index, s in enumerate(participants):
        if s is first:
            ph = "s"
        elif s is last:
            ph = "f"
        else:
            ph = "t"
        event = {
            "name": f"flow:{name}",
            "cat": "sync-flow",
            "ph": ph,
            "id": flow_id,
            "ts": (s.start + s.busy / 2) * _US,
            "pid": TRACE_PID,
            "tid": s.host,
        }
        if ph == "f":
            event["bp"] = "e"  # bind to the enclosing slice
        events.append(event)
    return events


def to_chrome_trace(timeline: Timeline) -> dict[str, Any]:
    """Render a :class:`Timeline` as a ``trace_event`` JSON object."""
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "args": {"name": "kimbap-sim"},
        }
    ]
    for host in range(timeline.num_hosts):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": host,
                "args": {"name": f"host {host}"},
            }
        )
    by_phase: dict[int, list[TimelineSlice]] = {}
    for s in timeline.slices:
        by_phase.setdefault(s.phase_index, []).append(s)
        events.append(_slice_event(s))
    for phase_index in sorted(by_phase):
        slices = by_phase[phase_index]
        if slices[0].kind.is_sync:
            events.extend(_flow_events(slices, flow_id=phase_index))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro (Kimbap reproduction) modeled timeline",
            "hosts": timeline.num_hosts,
            "threads_per_host": timeline.threads,
            "modeled_total_s": timeline.total,
            "statistic_counters": sorted(STATISTIC_FIELDS),
        },
    }


def write_chrome_trace(path: str, timeline: Timeline) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(timeline), handle, indent=1)
