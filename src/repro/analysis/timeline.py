"""Machine-activity timelines from the performance-collection network.

The paper's instrumentation streams timestamped event records to a
central collection board "for analysis or transfer to mass storage"
(§III-B).  This module is that analysis: text-rendered Gantt charts of
instruction overlap (where β-parallelism is visible as stacked bars)
and per-cluster activity strips built from the monitoring records.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..machine.perfnet import EventCode, PerfRecord
from ..machine.report import InstructionTrace, MachineRunReport


def instruction_gantt(
    traces: Sequence[InstructionTrace],
    width: int = 64,
    max_rows: int = 40,
) -> str:
    """Render instruction issue→complete spans as a text Gantt chart.

    Overlapping PROPAGATE bars are the visual signature of
    β-parallelism; a bar starting only after another ends shows a
    marker-dependency barrier.
    """
    if not traces:
        return "(no instructions)"
    end = max(t.complete_time for t in traces)
    start = min(t.issue_time for t in traces)
    span = max(end - start, 1e-9)
    lines = [
        f"{'#':>3} {'opcode':<18} "
        f"|{'time -> (total ' + f'{span:.0f} us)':<{width}}|"
    ]
    for trace in traces[:max_rows]:
        left = int((trace.issue_time - start) / span * width)
        right = max(left + 1, int((trace.complete_time - start) / span * width))
        bar = " " * left + "#" * (right - left)
        lines.append(
            f"{trace.index:>3} {trace.opcode:<18} |{bar:<{width}}|"
        )
    if len(traces) > max_rows:
        lines.append(f"... {len(traces) - max_rows} more instructions")
    return "\n".join(lines)


#: Event codes that count as "activity" for a source row.
_ACTIVITY_CODES = {
    EventCode.TASK_START,
    EventCode.TASK_END,
    EventCode.MSG_SEND,
    EventCode.MSG_RECV,
    EventCode.MSG_FORWARD,
}


def cluster_activity(
    records: Iterable[PerfRecord],
    total_time_us: float,
    width: int = 64,
) -> str:
    """Per-cluster activity strips from monitoring records.

    Each row is a cluster (row ``ctl`` is the controller, source -1);
    a ``#`` marks a time bucket with at least one monitored event.
    """
    records = list(records)
    if not records or total_time_us <= 0:
        return "(no monitoring records)"
    buckets: Dict[int, List[bool]] = {}
    for record in records:
        if record.code not in _ACTIVITY_CODES and record.source != -1:
            continue
        row = buckets.setdefault(record.source, [False] * width)
        index = min(width - 1, int(record.time / total_time_us * width))
        row[index] = True
    lines = []
    for source in sorted(buckets):
        label = "ctl" if source == -1 else f"c{source:02d}"
        strip = "".join("#" if b else "." for b in buckets[source])
        lines.append(f"{label:>4} |{strip}|")
    return "\n".join(lines)


def overlap_factor(traces: Sequence[InstructionTrace]) -> float:
    """Mean number of simultaneously in-flight instructions.

    Computed as Σ latencies / makespan — the measured, dynamic
    counterpart of the static β analysis.
    """
    if not traces:
        return 0.0
    total_latency = sum(t.latency for t in traces)
    start = min(t.issue_time for t in traces)
    end = max(t.complete_time for t in traces)
    makespan = end - start
    if makespan <= 0:
        return 0.0
    return total_latency / makespan


def render_report_timeline(report: MachineRunReport, width: int = 64) -> str:
    """Both views for one run report."""
    parts = [
        "instruction overlap (Gantt):",
        instruction_gantt(report.traces, width=width),
    ]
    if report.perf_records:
        parts += [
            "",
            "cluster activity (perf-collection network):",
            cluster_activity(
                report.perf_records, report.total_time_us, width=width
            ),
        ]
    else:
        parts.append(
            "\ncluster activity: no perfnet records (run with "
            "perf=PerformanceCollector() to collect them)"
        )
    parts.append(
        f"\nmean in-flight instructions: {overlap_factor(report.traces):.2f}"
    )
    return "\n".join(parts)
