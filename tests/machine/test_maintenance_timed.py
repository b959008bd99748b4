"""Node-maintenance instructions on the timed machine.

CREATE/DELETE/SET-COLOR are controller housekeeping: they drain the
pipeline before executing (§III-C) and charge their table updates to
the affected node's home cluster.
"""

import pytest

from repro.isa import (
    CollectNode,
    Create,
    Delete,
    Propagate,
    SearchNode,
    SetColor,
    SnapProgram,
    chain,
    complex_marker,
)
from repro.core import ExecutionError
from repro.machine import MachineConfig, SnapMachine

M0, M1 = complex_marker(0), complex_marker(1)


@pytest.fixture
def machine(fig5_kb):
    return SnapMachine(fig5_kb, MachineConfig(num_clusters=4,
                                              mus_per_cluster=2))


class TestTimedMaintenance:
    def test_create_then_propagate_through_new_link(self, machine):
        report = machine.run(SnapProgram([
            Create("fresh-a", "is-a", 0.5, "fresh-b"),
            SearchNode("fresh-a", M0),
            Propagate(M0, M1, chain("is-a"), "add-weight"),
            CollectNode(M1),
        ]))
        names = {name for _gid, name in report.results()[-1]}
        assert "fresh-b" in names

    def test_create_waits_for_inflight_propagates(self, machine):
        report = machine.run(SnapProgram([
            SearchNode("w:we", M0),
            Propagate(M0, M1, chain("is-a"), "identity"),
            Create("later-a", "r", 0.0, "later-b"),
        ]))
        propagate = report.traces[1]
        create = report.traces[2]
        assert create.issue_time >= propagate.complete_time

    def test_delete_stops_propagation(self, machine):
        report = machine.run(SnapProgram([
            Delete("w:we", "is-a", "animate"),
            SearchNode("w:we", M0),
            Propagate(M0, M1, chain("is-a"), "identity"),
            CollectNode(M1),
        ]))
        names = {name for _gid, name in report.results()[-1]}
        assert "animate" not in names
        assert "noun-phrase" in names  # the other is-a link survives

    def test_set_color_timed(self, machine):
        report = machine.run(SnapProgram([SetColor("w:we", 42)]))
        assert machine.state.network.node("w:we").color == 42
        assert report.traces[0].latency > 0

    def test_maintenance_appears_in_category_busy(self, machine):
        report = machine.run(SnapProgram([
            Create("m-a", "r", 0.0, "m-b"),
        ]))
        assert report.category_busy_us.get("maintenance", 0) > 0


class TestUnhostedNode:
    """A node added to the network object directly is not in any
    cluster's tables, so it has no home cluster to charge."""

    def test_delete_of_absent_link_is_charged_to_cluster_zero(self, machine):
        machine.state.network.add_node("stray")
        report = machine.run(SnapProgram([
            Delete("stray", "is-a", "animate"),
        ]))
        assert not report.aborted
        mu_jobs = [busy["mu_jobs"] for busy in report.cluster_busy]
        assert mu_jobs == [1, 0, 0, 0]

    def test_set_color_is_a_typed_error_before_any_change(self, machine):
        machine.state.network.add_node("stray")
        with pytest.raises(ExecutionError, match="stray"):
            machine.run(SnapProgram([SetColor("stray", 42)]))
        assert machine.state.network.node("stray").color == 0

    def test_other_lookup_failures_propagate(self, machine, monkeypatch):
        def broken_address(ref):
            raise KeyError(ref)

        monkeypatch.setattr(machine.state, "address", broken_address)
        with pytest.raises(KeyError):
            machine.run(SnapProgram([Create("m-a", "r", 0.0, "m-b")]))
