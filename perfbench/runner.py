"""Runs one workload: set-up, a checked warm-up pass, then either the
timed closed loop (end-to-end metrics, in rounds that each build the
workload afresh) or the traced pass (per-layer metrics).

Host-time metrics other than ``op_tail_ms`` are calibrated by the
reference timed between operations (see :mod:`reference`); the raw
figures are printed too.

Every operation's output is checked outside the clock; an operation
fails if it raises or its output disagrees with the oracle, with its
own first (verified) repetition, or — for the default seed — with the
digest pinned in ``pinned.json``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from .reference import NOMINAL_NS, reference_ns
from .spans import Recorder
from .workloads import WORKLOADS, Op, Sample, Workload

#: The seed every recorded figure uses; its digests are pinned.
DEFAULT_SEED = 1
#: Held out: never used while tuning; re-check claims on it.
HELDOUT_SEED = 7919
#: Rounds per untraced run.  Each round builds the workload afresh,
#: with the previous round's build freed first, timing the set-up (at
#: least once and until ``SETUP_SECONDS / ROUNDS`` have been spent, at
#: most ``SETUP_MAX`` times), then runs its share of the timed passes.
#: Set-up is thus sampled across the whole run, as the operations are;
#: ``setup_s`` is the median of every sample.  Each round's times are
#: calibrated by the median of the reference times taken in it.
ROUNDS = 4
SETUP_SECONDS = 2.0
SETUP_MAX = 10
#: One reference time is taken after each timed operation, plus one
#: more per this much of its wall time: the reference then samples the
#: host about as evenly as the operations' wall time does.
PROBE_EVERY_NS = 100_000_000
#: Operations that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


@dataclass
class Record:
    """One executed operation."""

    index: int
    wall_ns: int
    sample: Optional[Sample]
    error: Optional[str]


def load_pinned() -> Dict[str, List[str]]:
    with open(PINNED) as handle:
        return json.load(handle)


def pinned_for(name: str, seed: int) -> Optional[List[str]]:
    """The pinned digests a run must reproduce (default seed only)."""
    return load_pinned().get(name) if seed == DEFAULT_SEED else None


def build(name: str, seed: int, seconds: float = 0.0,
          probes: Optional[List[int]] = None
          ) -> Tuple[Workload, List[Op], List[float]]:
    """Build the workload once, and again until ``seconds`` have been
    spent (at most ``SETUP_MAX`` times), timing each build; keep the
    last.  Each build starts with the previous one freed, so
    only one is ever resident.  With ``probes``, a reference time is
    taken before each build."""
    cls = WORKLOADS[name]
    times: List[float] = []
    while True:
        gc.collect()
        if probes is not None:
            probes.append(reference_ns())
        workload = cls(seed)
        start = perf_counter()
        ops = workload.build()
        times.append(perf_counter() - start)
        if sum(times) >= seconds or len(times) >= SETUP_MAX:
            break
        workload = ops = None
    workload.prepare_oracles()
    return workload, ops, times


def execute(op: Op, index: int, recorder: Optional[Recorder] = None) -> Record:
    """Prepare, time and check one operation."""
    try:
        ctx = op.prepare()
        if recorder is None:
            start = perf_counter_ns()
            out = op.call(ctx)
            wall = perf_counter_ns() - start
        else:
            out, wall = recorder.run_op(index, op.call, ctx)
    except Exception:  # an operation that raises is a failed operation
        return Record(index, 0, None, traceback.format_exc(limit=3))
    try:
        sample = op.finish(ctx, out)
    except Exception:
        return Record(index, wall, None, traceback.format_exc(limit=3))
    return Record(index, wall, sample, sample.error)


def verify_pass(workload: Workload, ops: List[Op],
                pinned: Optional[List[str]] = None) -> List[Record]:
    """Run every pool operation once, untimed, checking each output
    (and, when given, its digest against the pinned one)."""
    records = []
    for index, op in enumerate(ops):
        record = execute(op, index)
        if (record.error is None and pinned is not None
                and record.sample.digest != pinned[index]):
            record.error = (
                f"{op.label}: digest {record.sample.digest} != pinned "
                f"{pinned[index]} (simulated output drifted)"
            )
        records.append(record)
    workload.end_verification()
    return records


def repeat_error(op: Op, first: Record, again: Record) -> Optional[str]:
    """A repetition must reproduce its verified first output: answers
    and simulated timing."""
    if first.sample is None or again.sample is None:
        return None
    if (again.sample.answer != first.sample.answer
            or again.sample.digest != first.sample.digest):
        return f"{op.label}: output changed on repetition"
    return None


def repeat_pass(workload: Workload, ops: List[Op], verified: List[Record],
                recorder: Optional[Recorder] = None,
                probes: Optional[List[int]] = None) -> List[Record]:
    """One more pass over the pool, from the state the verification
    pass started in, each operation checked against its verified first
    repetition.  With ``probes``, reference times are taken after each
    operation (see ``PROBE_EVERY_NS``)."""
    workload.start_pass()
    records = []
    for index, op in enumerate(ops):
        record = execute(op, index, recorder)
        if probes is not None:
            probes += [reference_ns()
                       for _ in range(1 + record.wall_ns // PROBE_EVERY_NS)]
        record.error = record.error or repeat_error(
            op, verified[index], record)
        records.append(record)
    return records


def timed_loop(workload: Workload, ops: List[Op], seconds: float,
               verified: List[Record],
               probes: Optional[List[int]] = None) -> List[Record]:
    """Whole passes over the pool until ``seconds`` of operation wall
    time have been spent (or, should operations keep failing fast,
    four times that in total).  Whole passes keep every operation class
    equally represented, so the median and the tail always fall at the
    same rank within the same class."""
    budget = seconds * 1e9
    give_up = perf_counter() + 4 * seconds
    records: List[Record] = []
    while (sum(r.wall_ns for r in records) < budget
           and perf_counter() < give_up):
        records += repeat_pass(workload, ops, verified, probes=probes)
    return records


def tail(walls_ms: List[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` operations beyond
    it, and its value: the (``TAIL_BEYOND`` + 1)-th largest wall."""
    ordered = sorted(walls_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _rates(records: List[Record], walls_ns: List[float]) -> Dict[str, float]:
    samples = [r.sample for r in records if r.sample is not None]
    # Operations that raised have no wall time; if nothing succeeded
    # the rates are 0 (and ``failed`` says why).
    seconds = sum(walls_ns) / 1e9 or float("inf")
    return {
        "sim_events_per_s": sum(s.events for s in samples) / seconds,
        "snap_instr_per_s": sum(s.instructions for s in samples) / seconds,
        "queries_per_s": sum(s.queries for s in samples) / seconds,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (one workload per process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host_metrics(setups: List[float], timed: List[Record],
                  walls_ns: List[float]) -> Tuple[Dict[str, Any], float]:
    """The host-time metrics from set-up times and the timed
    operations' wall times (raw or calibrated), and the tail
    percentile."""
    walls_ms = [w / 1e6 for r, w in zip(timed, walls_ns)
                if r.sample is not None]
    walls_ms = walls_ms or [0.0]  # every timed operation raised
    pct, tail_ms = tail(walls_ms)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(walls_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        **{k: (v, "1/s") for k, v in _rates(timed, walls_ns).items()},
    }, pct


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric.  The first round's
    build is verified; later rounds' operations must repeat it.  Each
    round's set-up and operation times are calibrated by the median of
    the reference times taken in it, before each build and after each
    operation."""
    setups: List[float] = []
    raw_setups: List[float] = []
    verified: List[Record] = []
    timed: List[Record] = []
    calibrated_ns: List[float] = []
    reference_ms: List[float] = []
    for round_ in range(1, ROUNDS + 1):
        probes: List[int] = []
        workload = ops = None  # only one build is ever resident
        workload, ops, times = build(
            name, seed, SETUP_SECONDS / ROUNDS, probes)
        if not verified:
            verified = verify_pass(workload, ops, pinned_for(name, seed))
        else:
            workload.end_verification()
        spent = sum(r.wall_ns for r in timed) / 1e9
        records = timed_loop(workload, ops, seconds * round_ / ROUNDS - spent,
                             verified, probes)
        reference = statistics.median(probes)
        reference_ms.append(reference / 1e6)
        scale = NOMINAL_NS / reference
        raw_setups += times
        setups += [t * scale for t in times]
        timed += records
        calibrated_ns += [r.wall_ns * scale for r in records]
    metrics, pct = _host_metrics(setups, timed, calibrated_ns)
    raw, _pct = _host_metrics(raw_setups, timed, [r.wall_ns for r in timed])
    # The tail is one rank held by a few runs of the largest operations,
    # which slow down with the host much less than the reference does:
    # calibrated, it takes each round's over-correction in full.
    metrics["op_tail_ms"] = raw["op_tail_ms"]
    done = verified + timed
    failures = [r for r in done if r.error is not None]
    first = [r.sample for r in verified if r.sample is not None]
    metrics.update({
        "sim_us_per_op": (
            sum(s.sim_us for s in first) / max(1, len(first)), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    return {
        "workload": name,
        "seed": seed,
        "attempted": len(done),
        "failed": len(failures),
        "errors": [r.error for r in failures[:5]],
        "timed_ops": len(timed),
        "tail_percentile": round(pct, 2),
        "pool": [op.label for op in ops],
        "digests": [s.digest for s in first],
        "reference_ms": reference_ms,
        "raw": raw,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _layer_metrics(recorder: Recorder, traced: List[Record],
                   overhead: float) -> Dict[str, Tuple[float, str]]:
    totals: Dict[str, Tuple[int, int]] = {}
    setup: Dict[str, int] = {}
    own = recorder.self_ns()
    for index, nid in enumerate(recorder.name_id):
        name = recorder.names[nid]
        if recorder.op_id[index] < 0:
            setup[name] = setup.get(name, 0) + own[index]
            continue
        calls, ns = totals.get(name, (0, 0))
        totals[name] = (calls + 1, ns + own[index])

    def calls(name):
        return (totals.get(name, (0, 0))[0], "count")

    def self_s(name):
        return (totals.get(name, (0, 0))[1] / 1e9, "s")

    counts = recorder.counts
    samples = [r.sample for r in traced if r.sample is not None]
    ops = max(1, len(samples))
    reports = recorder.reports
    overheads = {k: 0.0 for k in (
        "broadcast", "communication", "synchronization", "collection")}
    messages = hops = syncs = sync_msgs = 0
    util = []
    injected = 0
    for report in reports:
        for key, value in report.overheads.as_dict().items():
            overheads[key] += value
        icn = report.icn_stats
        messages += icn.messages
        hops += icn.mean_hops * icn.messages
        per_sync = report.sync_stats.messages_per_sync()
        syncs += len(per_sync)
        sync_msgs += sum(per_sync)
        util.append(report.mu_utilization())
        if report.faults_enabled and report.fault_stats is not None:
            injected += report.fault_stats.total_injected()
    fleet = [s for s in samples if s.legs]
    hedges = sum(s.hedges for s in samples)
    executes = counts["host.execute"]
    out: Dict[str, Tuple[float, str]] = {
        "network.generate_s": (setup.get("network.generate", 0) / 1e9, "s"),
        "core.state.init_s": (setup.get("core.state.init", 0) / 1e9, "s"),
    }
    for layer in ("core.state.expand", "core.state.deliver",
                  "core.tables.links", "core.state.logic",
                  "core.state.collect", "core.state.mutate",
                  "core.backends.propagate", "machine.run",
                  "machine.des.submit", "machine.icn.route",
                  "machine.icn.route_avoiding", "machine.sync",
                  "machine.perfnet.record"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = self_s(layer)
    out.update({
        "core.state.mutations": (sum(s.mutations for s in samples), "count"),
        "core.engine.execute.calls": (counts["core.engine.execute"], "count"),
        "machine.des.schedule.calls": (counts["machine.des.schedule"], "count"),
        "machine.des.cancel.calls": (counts["machine.des.cancel"], "count"),
        "machine.des.events": (sum(s.events for s in samples), "count"),
        "machine.faults.injected": (injected, "count"),
        "apps.parse.self_s": self_s("apps.parse"),
        "apps.speech.self_s": self_s("apps.speech"),
        "host.serve.self_s": self_s("host.serve"),
        "host.execute.calls": (executes, "count"),
        "host.execute.hit_ratio": (
            counts["host.execute.hits"] / executes if executes else 0.0,
            "ratio"),
        "host.hedge_win_ratio": (
            recorder.hedge_wins / hedges if hedges else 0.0, "ratio"),
        "fleet.serve.self_s": self_s("fleet.serve"),
        "fleet.legs_per_query": (
            sum(s.legs for s in fleet) / sum(s.queries for s in fleet)
            if fleet else 0.0, "ratio"),
        **{f"sim.overhead.{k}_us": (v / ops, "us")
           for k, v in overheads.items()},
        "sim.mu_utilization": (
            sum(util) / len(util) if util else 0.0, "ratio"),
        "sim.icn.messages": (messages / ops, "count"),
        "sim.icn.mean_hops": (hops / messages if messages else 0.0, "count"),
        "sim.sync.msgs_per_sync": (
            sync_msgs / syncs if syncs else 0.0, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return out


def measure_traced(name: str, seed: int, spans_out: Optional[str] = None
                   ) -> Tuple[Dict[str, Any], Recorder, List[Record]]:
    """The traced run: one set-up and one pass over the pool with
    every layer wrapped, after an identical untraced pass.  As in
    :func:`measure`, the default seed's digests must match the pinned
    ones."""
    recorder = Recorder()
    recorder.install()
    try:
        cls = WORKLOADS[name]
        workload = cls(seed)
        ops, _wall = recorder.run_op(-1, workload.build)
        recorder.reset_counts()  # set-up is reported through its spans
        workload.prepare_oracles()
        verified = verify_pass(workload, ops, pinned_for(name, seed))
        recorder.uninstall()
        plain = repeat_pass(workload, ops, verified)
        recorder.install()
        traced = repeat_pass(workload, ops, verified, recorder)
    finally:
        recorder.uninstall()
    plain_ns = sum(r.wall_ns for r in plain)
    traced_ns = sum(r.wall_ns for r in traced)
    metrics = _layer_metrics(recorder, traced, traced_ns / plain_ns - 1.0)
    done = verified + plain + traced
    failures = [r for r in done if r.error is not None]
    if spans_out:
        recorder.dump(spans_out)
    result = {
        "workload": name,
        "seed": seed,
        "attempted": len(done),
        "failed": len(failures),
        "errors": [r.error for r in failures[:5]],
        "metrics": metrics,
    }
    return result, recorder, traced
