"""Functional engine: end-to-end programs and the Fig. 5 example."""

import pytest

from repro.baselines import SimdMachine
from repro.core import (
    ExecutionError, FunctionalEngine, MachineState, run_program,
)
from repro.isa import SetColor, assemble
from repro.network import Color, generate_hierarchy_kb

FIG5_PROGRAM = """
SEARCH-NODE w:we m1 0.0
PROPAGATE m1 m4 spread(is-a,last) add-weight
COLLECT-NODE m4
"""


class TestFig5:
    def test_spread_reaches_classes(self, fig5_kb):
        result = run_program(fig5_kb, assemble(FIG5_PROGRAM))
        reached = {name for _gid, name in result.records[-1].result}
        assert reached == {"animate", "thing", "noun-phrase"}

    def test_spread_switches_to_last(self, fig5_kb):
        # From an element, spread(next,last) walks the sequence then
        # jumps to the root via last.
        program = assemble("""
        SEARCH-NODE seeing-event.experiencer m1
        PROPAGATE m1 m2 spread(next,last) identity
        COLLECT-NODE m2
        """)
        result = run_program(fig5_kb, program)
        reached = {name for _gid, name in result.records[-1].result}
        assert reached == {
            "seeing-event.see", "seeing-event.object", "seeing-event"
        }

    def test_full_fig5_parse_fragment(self, fig5_kb):
        """The L1-L7 structure: two propagations + AND + collect."""
        program = assemble("""
        SEARCH-NODE w:we m1 0.0
        SEARCH-NODE w:saw m2 0.0
        PROPAGATE m1 m3 chain(is-a) add-weight
        PROPAGATE m2 m4 chain(is-a) add-weight
        OR-MARKER m3 m4 m5 add
        COLLECT-NODE m5
        """)
        result = run_program(fig5_kb, program)
        reached = {name for _gid, name in result.records[-1].result}
        assert "thing" in reached
        assert "verb-phrase" in reached


class TestRunResult:
    def test_category_counts(self, fig5_kb):
        result = run_program(fig5_kb, assemble(FIG5_PROGRAM))
        counts = result.category_counts()
        assert counts == {"search": 1, "propagate": 1, "collect": 1}

    def test_total_work_positive(self, fig5_kb):
        result = run_program(fig5_kb, assemble(FIG5_PROGRAM))
        assert result.total_work().total() > 0

    def test_collects_listed_in_order(self, fig5_kb):
        program = assemble("""
        SEARCH-NODE w:we m1
        COLLECT-NODE m1
        SEARCH-NODE w:saw m2
        COLLECT-NODE m2
        """)
        result = run_program(fig5_kb, program)
        collects = result.collects
        assert len(collects) == 2
        assert collects[0].result[0][1] == "w:we"
        assert collects[1].result[0][1] == "w:saw"

    def test_unsupported_instruction_raises(self, fig5_kb):
        from repro.core.state import ExecutionError
        from repro.isa.instructions import Instruction

        class Bogus(Instruction):
            opcode = "BOGUS"
            category = "maintenance"

        engine = FunctionalEngine(fig5_kb)
        with pytest.raises(ExecutionError):
            engine.execute(Bogus())


class TestStatePersistence:
    def test_markers_persist_across_programs(self, fig5_kb):
        engine = FunctionalEngine(fig5_kb)
        engine.run(assemble("SEARCH-NODE w:we m1"))
        result = engine.run(assemble("COLLECT-NODE m1"))
        assert result.records[-1].result[0][1] == "w:we"


class TestSetColorOfUnhostedNode:
    def test_typed_error_and_network_unchanged(self, fig5_kb):
        """A node added to the network object directly is not in the
        tables: SET-COLOR names it in a typed error before changing
        anything."""
        engine = FunctionalEngine(fig5_kb, 2)
        engine.state.network.add_node("stray")
        with pytest.raises(ExecutionError, match="stray"):
            engine.execute(SetColor("stray", 7))
        assert engine.state.network.node("stray").color == 0


class TestDispatchSeesClassWrappers:
    def test_wrapper_installed_after_import_counts_collects(
        self, monkeypatch
    ):
        """The engine looks its primitives up per call, so a wrapper
        put on ``MachineState`` after import sees every non-PROPAGATE
        call, including the CM-2 baseline's."""
        calls = []
        original = MachineState.collect_node

        def counting(self, cid, instruction):
            calls.append(cid)
            return original(self, cid, instruction)

        monkeypatch.setattr(MachineState, "collect_node", counting)
        machine = SimdMachine(generate_hierarchy_kb(40, branching=3))
        report = machine.run(assemble("""
        SEARCH-NODE thing m1
        PROPAGATE m1 m2 chain(inverse:is-a)
        COLLECT-NODE m2
        """))
        assert report.results()[-1]
        assert len(calls) > 0
