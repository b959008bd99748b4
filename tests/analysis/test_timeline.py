"""Timeline rendering and overlap measurement."""

import pytest

from repro.analysis import (
    cluster_activity,
    instruction_gantt,
    overlap_factor,
    render_report_timeline,
)
from repro.isa import assemble
from repro.machine import MachineConfig, SnapMachine
from repro.machine.perfnet import EventCode, PerfRecord, PerformanceCollector
from repro.machine.report import InstructionTrace


def trace(index, opcode, issue, complete):
    return InstructionTrace(
        index=index, opcode=opcode, category="propagate",
        issue_time=issue, complete_time=complete,
    )


class TestGantt:
    def test_bars_cover_span(self):
        traces = [trace(0, "PROPAGATE", 0.0, 50.0),
                  trace(1, "PROPAGATE", 10.0, 60.0)]
        text = instruction_gantt(traces, width=20)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "#" in lines[1] and "#" in lines[2]
        # Second bar starts later than the first.
        assert lines[2].index("#") > lines[1].index("#")

    def test_empty(self):
        assert instruction_gantt([]) == "(no instructions)"

    def test_row_cap(self):
        traces = [trace(i, "X", i, i + 1) for i in range(50)]
        text = instruction_gantt(traces, max_rows=10)
        assert "more instructions" in text


class TestClusterActivity:
    def test_rows_per_source(self):
        records = [
            PerfRecord(1.0, 0, EventCode.TASK_START),
            PerfRecord(5.0, 3, EventCode.MSG_SEND),
            PerfRecord(9.0, -1, EventCode.BARRIER),
        ]
        text = cluster_activity(records, total_time_us=10.0, width=10)
        assert " ctl |" in text
        assert " c00 |" in text
        assert " c03 |" in text

    def test_empty(self):
        assert "no monitoring" in cluster_activity([], 0.0)


class TestOverlapFactor:
    def test_sequential_is_one(self):
        traces = [trace(0, "A", 0.0, 10.0), trace(1, "B", 10.0, 20.0)]
        assert overlap_factor(traces) == pytest.approx(1.0)

    def test_fully_overlapped_is_two(self):
        traces = [trace(0, "A", 0.0, 10.0), trace(1, "B", 0.0, 10.0)]
        assert overlap_factor(traces) == pytest.approx(2.0)

    def test_empty(self):
        assert overlap_factor([]) == 0.0


class TestEndToEnd:
    PROGRAM = """
        SEARCH-NODE w:we m1
        SEARCH-NODE w:saw m2
        PROPAGATE m1 m3 chain(is-a) identity
        PROPAGATE m2 m4 chain(is-a) identity
        COLLECT-NODE m3
        """

    def test_render_real_report(self, fig5_kb):
        machine = SnapMachine(fig5_kb, MachineConfig(4, 2))
        report = machine.run(
            assemble(self.PROGRAM), perf=PerformanceCollector()
        )
        text = render_report_timeline(report)
        assert "Gantt" in text
        assert "PROPAGATE" in text
        assert "cluster activity" in text
        assert "mean in-flight" in text
        # The two independent propagates overlap in real runs.
        assert overlap_factor(report.traces) > 1.0

    def test_render_without_perfnet_notes_missing_records(self, fig5_kb):
        machine = SnapMachine(fig5_kb, MachineConfig(4, 2))
        report = machine.run(assemble(self.PROGRAM))
        assert report.perf_records == []
        text = render_report_timeline(report)
        notes = [line for line in text.splitlines()
                 if line.startswith("cluster activity")]
        assert notes == [
            "cluster activity: no perfnet records (run with "
            "perf=PerformanceCollector() to collect them)"
        ]
        assert "mean in-flight" in text

    def test_perfnet_collection_leaves_simulation_unchanged(self, fig5_kb):
        plain = SnapMachine(fig5_kb, MachineConfig(4, 2)).run(
            assemble(self.PROGRAM)
        )
        collector = PerformanceCollector()
        watched = SnapMachine(fig5_kb, MachineConfig(4, 2)).run(
            assemble(self.PROGRAM), perf=collector
        )
        assert watched.perf_records == collector.records
        assert collector.histogram()["instr-issue"] == 5
        assert watched.to_json() == plain.to_json()
