"""Trace and metrics exporters: JSONL, Chrome trace-event JSON, Prometheus.

Three output formats, one deterministic contract — a seeded run exports
byte-identically because every float is rounded to a fixed precision,
every mapping is emitted with sorted keys, and wall-clock annotations are
excluded unless explicitly requested:

- :func:`to_jsonl` — one JSON object per record, in completion order; the
  machine-readable event log tests diff byte-for-byte.
- :func:`to_chrome_trace` — the Chrome trace-event format (``ph: "X"``
  complete spans, ``ph: "i"`` instants), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Span/parent ids ride
  in ``args`` so tools can rebuild the hierarchy.
- :func:`metrics_to_prometheus` — text exposition of a
  :class:`~repro.util.metrics.MetricsRegistry` (counters as ``_total``,
  histograms as summaries with p50/p90 quantiles).

:func:`validate_chrome_trace` is the schema check CI runs on the trace of
a smoke-scale ``--trace-out`` run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.obs.tracer import Span, TraceEvent, Tracer
from repro.util.metrics import MetricsRegistry

__all__ = [
    "to_jsonl",
    "to_chrome_trace",
    "write_jsonl",
    "write_chrome_trace",
    "validate_chrome_trace",
    "metrics_to_prometheus",
]

#: Decimal places for simulated-time fields (matches the golden traces).
SIM_PRECISION = 9
#: Decimal places for wall-clock annotations (microsecond resolution).
WALL_PRECISION = 6


def _rounded(value: object, precision: int = SIM_PRECISION) -> object:
    """Round floats (recursively, in containers) for stable serialisation."""
    if isinstance(value, float):
        return round(value, precision)
    if isinstance(value, dict):
        return {k: _rounded(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v, precision) for v in value]
    return value


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def _span_row(span: Span, include_wall: bool) -> Dict[str, object]:
    row: Dict[str, object] = {
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "depth": span.depth,
        "name": span.name,
        "cat": span.category,
        "t0_s": round(span.start_s, SIM_PRECISION),
        "t1_s": round(span.end_s, SIM_PRECISION),
        "dur_s": round(span.duration_s, SIM_PRECISION),
        "args": _rounded(span.args),
    }
    if include_wall:
        row["wall_dur_s"] = round(span.wall_duration_s, WALL_PRECISION)
    return row


def _event_row(event: TraceEvent) -> Dict[str, object]:
    return {
        "type": "event",
        "id": event.event_id,
        "parent": event.parent_id,
        "name": event.name,
        "cat": event.category,
        "t_s": round(event.t_s, SIM_PRECISION),
        "args": _rounded(event.args),
    }


def to_jsonl(tracer: Tracer, include_wall: bool = False) -> str:
    """The full trace as one JSON object per line, completion-ordered."""
    lines = []
    for record in tracer.records:
        if isinstance(record, Span):
            row = _span_row(record, include_wall)
        else:
            row = _event_row(record)
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str, tracer: Tracer, include_wall: bool = False) -> None:
    """Write :func:`to_jsonl` output to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(tracer, include_wall=include_wall))


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def to_chrome_trace(
    tracer: Tracer, include_wall: bool = False, process_name: str = "repro-sim"
) -> Dict[str, object]:
    """The trace in Chrome trace-event form (open in Perfetto).

    Timestamps are microseconds of *simulated* time; everything runs on one
    pid/tid so nesting renders from the timestamps alone.
    """
    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    for record in tracer.records:
        if isinstance(record, Span):
            args: Dict[str, object] = {
                "id": record.span_id,
                "parent": record.parent_id,
            }
            args.update(_rounded(record.args))
            if include_wall:
                args["wall_dur_s"] = round(record.wall_duration_s, WALL_PRECISION)
            events.append(
                {
                    "ph": "X",
                    "name": record.name,
                    "cat": record.category or "repro",
                    "pid": 1,
                    "tid": 1,
                    "ts": round(record.start_s * 1e6, 3),
                    "dur": round(record.duration_s * 1e6, 3),
                    "args": args,
                }
            )
        elif record.category == "slo" and isinstance(
            record.args.get("value"), (int, float)
        ):
            # Health gauges (rolling IRR, staleness p99) render as Chrome
            # counter tracks: one series per event name, plotted over
            # simulated time alongside the spans that produced them.
            events.append(
                {
                    "ph": "C",
                    "name": record.name,
                    "cat": "slo",
                    "pid": 1,
                    "tid": 1,
                    "ts": round(record.t_s * 1e6, 3),
                    "args": {
                        "value": _rounded(record.args["value"]),
                    },
                }
            )
        else:
            args = {"id": record.event_id, "parent": record.parent_id}
            args.update(_rounded(record.args))
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": record.name,
                    "cat": record.category or "repro",
                    "pid": 1,
                    "tid": 1,
                    "ts": round(record.t_s * 1e6, 3),
                    "args": args,
                }
            )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(
    path: str, tracer: Tracer, include_wall: bool = False
) -> None:
    """Write :func:`to_chrome_trace` output (deterministic JSON) to a file."""
    document = to_chrome_trace(tracer, include_wall=include_wall)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def validate_chrome_trace(document: object) -> List[str]:
    """Schema-check a Chrome trace document; returns problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["top level must be an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in ("X", "i", "M", "B", "E", "C"):
            problems.append(f"{where}: bad ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key}")
        if ph in ("X", "i", "C"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing ts")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: C event needs non-empty args")
            elif not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: C event args must be numeric")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"{where}: X event missing dur")
            elif dur < 0:
                problems.append(f"{where}: negative dur {dur}")
    return problems


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """A dotted metric name as a legal Prometheus identifier."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return safe


def _prom_value(value: Union[int, float]) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """A MetricsRegistry in Prometheus text exposition format.

    Counters are suffixed ``_total`` per convention; histograms are
    rendered as summaries (``_count``, ``_sum``, p50/p90 quantile samples).
    Output order is sorted, so same-seed runs export byte-identically.
    """
    lines: List[str] = []
    export = registry.to_dict()
    for name in sorted(export):
        data = dict(export[name])
        kind = data.pop("type")
        prom = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {prom}_total counter")
            lines.append(f"{prom}_total {_prom_value(data['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(data['value'])}")
        else:  # histogram -> summary exposition
            lines.append(f"# TYPE {prom} summary")
            for quantile, key in (("0.5", "p50"), ("0.9", "p90")):
                if key in data:
                    lines.append(
                        f'{prom}{{quantile="{quantile}"}} '
                        f"{_prom_value(data[key])}"
                    )
            lines.append(f"{prom}_count {_prom_value(data['count'])}")
            lines.append(f"{prom}_sum {_prom_value(data['sum'])}")
    return "\n".join(lines) + ("\n" if lines else "")
