"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

Workloads run at the same size as on the command line.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import runner  # noqa: E402
from perfbench.reference import NOMINAL_NS  # noqa: E402
from perfbench.workloads import Sample  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("faulted", "inherit", "parse", "serve")
SEED_A, SEED_B = runner.DEFAULT_SEED, runner.HELDOUT_SEED

#: Per-layer metrics that must be nonzero on each workload they are
#: listed for (the per-layer table in README.md).  Every per-layer
#: metric must be present on every workload.
REQUIRED = {
    "inherit": [
        "network.generate_s", "core.state.init_s",
        "core.state.expand.calls", "core.state.expand.self_s",
        "core.state.deliver.calls", "core.state.deliver.self_s",
        "core.tables.links.calls", "core.tables.links.self_s",
        "core.state.collect.calls", "core.state.collect.self_s",
        "core.backends.propagate.calls", "core.backends.propagate.self_s",
        "core.engine.execute.calls", "machine.run.calls",
        "machine.run.self_s", "machine.des.schedule.calls",
        "machine.des.submit.calls", "machine.des.submit.self_s",
        "machine.des.events", "machine.sync.calls", "machine.sync.self_s",
        "machine.perfnet.record.calls", "machine.perfnet.record.self_s",
        "sim.overhead.communication_us", "sim.mu_utilization",
        "sim.icn.messages", "sim.icn.mean_hops", "sim.sync.msgs_per_sync",
    ],
    "parse": [
        "network.generate_s", "core.state.init_s",
        "core.tables.links.calls", "core.tables.links.self_s",
        "core.state.logic.calls", "core.state.logic.self_s",
        "core.state.collect.calls", "core.state.collect.self_s",
        "core.state.mutate.calls", "core.state.mutate.self_s",
        "core.state.mutations", "machine.run.calls", "machine.run.self_s",
        "apps.parse.self_s", "apps.speech.self_s",
        "sim.overhead.broadcast_us", "sim.mu_utilization",
        "sim.icn.messages", "sim.sync.msgs_per_sync",
    ],
    "serve": [
        "machine.des.schedule.calls", "machine.des.cancel.calls",
        "machine.des.submit.calls", "machine.des.submit.self_s",
        "machine.des.events", "host.serve.self_s", "host.execute.calls",
        "host.execute.hit_ratio", "fleet.serve.self_s",
        "fleet.legs_per_query",
    ],
    "faulted": [
        "core.state.expand.calls", "core.state.deliver.calls",
        "machine.icn.route.calls", "machine.icn.route.self_s",
        "machine.icn.route_avoiding.calls",
        "machine.icn.route_avoiding.self_s",
        "machine.perfnet.record.calls", "machine.faults.injected",
        "sim.overhead.communication_us", "sim.icn.messages",
    ],
}
#: Traced-run metrics that are counts, hence must repeat exactly.
DETERMINISTIC_UNITS = ("count",)


def _traced(name, seed):
    return runner.measure_traced(name, seed)


def _counts(name, seed):
    """Every deterministic count of one workload and seed."""
    workload, ops, _ = runner.build(name, seed)
    records = runner.verify_pass(workload, ops)
    samples = [r.sample for r in records]
    assert all(r.error is None for r in records), [r.error for r in records]
    result, _rec, _traced_records = _traced(name, seed)
    calls = {
        k: v for k, (v, unit) in result["metrics"].items()
        if unit in DETERMINISTIC_UNITS
    }
    return {
        "events": [s.events for s in samples],
        "instructions": [s.instructions for s in samples],
        "sim_us_per_op": sum(s.sim_us for s in samples) / len(samples),
        "digests": [s.digest for s in samples],
        "calls": calls,
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [
    [],
    ["--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"],
    ["--workload", "inherit", "--seed", "abc", "--seconds", "1", "--trace", "0"],
    ["--workload", "inherit", "--seed", "-5", "--seconds", "1", "--trace", "0"],
    ["--workload", "inherit", "--seed", "1", "--seconds", "0", "--trace", "0"],
    ["--workload", "inherit", "--seed", "1", "--seconds", "1", "--trace", "2"],
    ["--workload", "inherit", "--seed", "1", "--seconds", "1"],
    ["--workload", "inherit", "--seed", "1", "--seconds", "1", "--trace",
     "0", "--bogus"],
])
def test_cli_rejects_bad_arguments_with_usage(argv):
    proc = subprocess.run(
        [sys.executable, RUN, *argv], capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inherit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, 2)
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_percentile_with_ten_beyond():
    walls = list(range(1, 101))
    pct, value = runner.tail(walls)
    assert pct == 90.0 and value == 90
    assert sum(w > value for w in walls) == runner.TAIL_BEYOND


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _drop_one(collected):
    """Remove a node from a COLLECT-NODE result, in place."""
    collected.pop()


def _corrupt_inherit(out):
    report, _cm2 = out
    _drop_one(report.results()[-1])
    return out


def _corrupt_faulted(out):
    report, _cm2 = out
    report.results()[-1].append((10 ** 9, "not-a-descendant"))
    return out


def _corrupt_serve(out):
    """Add a bogus node to the first served answer (host or fleet)."""
    for outcome in out.outcomes:
        answers = outcome.results
        if isinstance(answers, dict):  # fleet: one answer per shard leg
            for sid, legs in answers.items():
                if legs:
                    answers[sid] = [list(legs[-1]) + [(-1, "bogus")]]
                    return out
        elif answers and answers[-1]:
            outcome.results = [list(answers[-1]) + [(-1, "bogus")]]
            return out
    raise AssertionError("no served answer to corrupt")


@pytest.mark.parametrize("name,corrupt", [
    ("inherit", _corrupt_inherit),
    ("faulted", _corrupt_faulted),
    ("serve", _corrupt_serve),
])
def test_corrupted_result_counts_as_failure(name, corrupt):
    workload, ops, _ = runner.build(name, SEED_A)
    # A copy: the same operation may appear twice in a pool.
    call = ops[0].call
    ops[0] = dataclasses.replace(ops[0], call=lambda ctx: corrupt(call(ctx)))
    records = runner.verify_pass(workload, ops)
    assert records[0].error is not None
    assert all(r.error is None for r in records[1:])


def test_parse_replay_catches_a_corrupted_machine_result():
    workload, ops, _ = runner.build("parse", SEED_A)
    op = ops[0]
    call = op.call

    def corrupted(ctx):
        out = call(ctx)
        log = workload.parser.trace_log or workload.speech.trace_log
        _program, report = log[-1]
        report.traces[-1].result = [(-1, "bogus")]
        return out

    op.call = corrupted
    records = runner.verify_pass(workload, ops)
    assert "differ from replay" in records[0].error


def test_parse_wrong_reading_counts_as_failure():
    workload, ops, _ = runner.build("parse", SEED_A)
    index = next(i for i, op in enumerate(ops) if op.label == "S3")
    call = ops[index].call

    def misread(ctx):
        out = call(ctx)
        out.winner = "bombing-event"
        return out

    ops[index].call = misread
    records = runner.verify_pass(workload, ops)
    assert records[index].error == "S3 read as bombing-event"


@pytest.mark.parametrize("name", WORKLOADS)
def test_default_seed_matches_pinned_digests(name):
    workload, ops, _ = runner.build(name, runner.DEFAULT_SEED)
    pinned = runner.load_pinned()[name]
    records = runner.verify_pass(workload, ops, pinned)
    assert [r.error for r in records] == [None] * len(pinned)


def test_drift_from_pinned_digest_counts_as_failure():
    pinned = runner.load_pinned()["inherit"]
    workload, ops, _ = runner.build("inherit", SEED_A)
    drifted = ["0" * 16] + pinned[1:]
    records = runner.verify_pass(workload, ops, drifted)
    assert "drifted" in records[0].error
    assert all(r.error is None for r in records[1:])


def test_untraced_run_rebuilds_each_round_without_failures(monkeypatch):
    # A host where the reference takes twice its nominal time: every
    # calibrated time reads at half its raw value, every rate at twice.
    monkeypatch.setattr(runner, "reference_ns", lambda: 2 * NOMINAL_NS)
    result = runner.measure("parse", runner.DEFAULT_SEED, 8)
    assert result["failed"] == 0, result["errors"]
    assert result["digests"] == runner.load_pinned()["parse"]
    # Every round ran at least one whole pass on its own build.
    assert result["timed_ops"] >= runner.ROUNDS * len(result["pool"])
    assert result["timed_ops"] % len(result["pool"]) == 0
    assert result["reference_ms"] == [2 * NOMINAL_NS / 1e6] * runner.ROUNDS
    for name, (raw, unit) in result["raw"].items():
        factor = 2.0 if unit == "1/s" else 0.5
        if name == "op_tail_ms":
            factor = 1.0  # reported uncalibrated
        assert result["metrics"][name][0] == pytest.approx(raw * factor), name


def test_repetition_that_changes_output_counts_as_failure():
    workload, ops, _ = runner.build("serve", SEED_A)
    verified = runner.verify_pass(workload, ops)
    verified[0].sample = Sample(
        digest="0" * 16, answer="0" * 16, events=0, instructions=0,
        queries=0, sim_us=0.0)
    timed = runner.timed_loop(workload, ops, 0.05, verified)
    assert "changed on repetition" in timed[0].error


# ----------------------------------------------------------------------
# determinism and the traced run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_for_a_seed_and_differ_across_seeds(name):
    first = _counts(name, SEED_A)
    assert _counts(name, SEED_A) == first
    other = _counts(name, SEED_B)
    for key in ("events", "digests", "sim_us_per_op"):
        assert other[key] != first[key], key
    assert other["calls"] != first["calls"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run(name):
    result, recorder, traced = _traced(name, SEED_A)
    assert result["failed"] == 0, result["errors"]
    metrics = result["metrics"]
    # Self times of one operation's spans sum to its wall time.
    own = recorder.self_ns()
    per_op = {}
    for index, op_id in enumerate(recorder.op_id):
        if op_id >= 0:
            per_op[op_id] = per_op.get(op_id, 0) + own[index]
    assert sorted(per_op) == [r.index for r in traced]
    for record in traced:
        assert abs(per_op[record.index] - record.wall_ns) <= 1_000
    # Every per-layer metric is present; the listed ones are nonzero.
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [m["name"] for m in json.load(handle)["per_layer"]]
    assert sorted(metrics) == sorted(names)
    for key in REQUIRED[name]:
        assert metrics[key][0] > 0, key
    # A second traced run counts exactly the same calls.
    again, _rec, _records = _traced(name, SEED_A)
    for key, (value, unit) in metrics.items():
        if unit in DETERMINISTIC_UNITS:
            assert again["metrics"][key][0] == value, key
