"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``parse "SENTENCE"``
    Parse a newswire sentence on the simulated 72-PE machine and print
    the extracted event template with timing.
``speech "SENTENCE"``
    Synthesize a noisy word lattice from the sentence and run the
    speech parser over it.
``experiments [IDS...] [--full] [--list] [--trace PATH]``
    Regenerate the paper's tables/figures and extension studies
    (including ``faultdeg``, the fault-injection degradation sweep,
    and ``overload``, the serving-under-overload sweep);
    same as ``python -m repro.experiments.runner``.  With ``--trace``
    every simulation in the run is captured into one Perfetto file
    (best with a single experiment id).
``serve [--queries N] [--load X] [--fault-fraction F] [--trace PATH]``
    Drive the concurrent query-serving host layer with a synthetic
    arrival stream of inheritance queries and print the serving
    report (admission, shedding, deadlines, hedges, breakers).
    ``--trace`` additionally writes a Chrome-trace-event/Perfetto
    JSON timeline of the run.
``trace WORKLOAD [--out trace.json] [--smoke] [--metrics-out PATH]``
    Capture a canonical workload (``propagate``, ``faults``,
    ``overload``, ``chaos``, or ``fleetchaos``, the sharded fleet
    through a regional outage) as a validated Perfetto trace with the
    metrics registry embedded; open the file in ``ui.perfetto.dev``.  See
    ``docs/OBSERVABILITY.md``.  ``--metrics-out`` additionally dumps
    the metrics registry as a standalone JSON document.
``analyze TRACE [--report out.md] [--compare golden.json]``
    Run the trace-analysis engine over a capture: critical paths,
    per-query latency attribution, measured α/β, structural
    anomalies, and (with ``--compare``) the metric-drift gate against
    a golden snapshot — exits non-zero on drift beyond tolerance.
``bench [WORKLOADS...] [--smoke] [--backend B] [--out BENCH_PERF.json]``
    Measure wall-clock events/sec of the simulator hot paths: the
    propagate-heavy, fault-recovery, overload-serving, and
    instruction-dispatch workloads, plus ``propagate-vec``, which runs
    the large-KB functional lane on both propagation backends and
    pins their bit-for-bit equivalence (exits non-zero on
    divergence).  ``--backend python|vectorized|both`` selects the
    backend for engine lanes.  Every run also appends one record per
    lane — per-run walls, environment fingerprint — to
    ``BENCH_HISTORY.jsonl`` (``--history PATH`` / ``--no-history``).
``perf profile WORKLOAD [--folded-out F --report R --json J]``
    Run a bench lane under the wall-clock sampling profiler: folded
    flamegraph stacks, a hot-spot report with subsystem bucket
    rollups, and (with ``--trace-join``) a wall-vs-simulated join of
    real seconds onto pipeline phases.  See ``docs/PERF.md``.
``perf check [--history PATH] [--window N]``
    Statistical regression gate over the bench-history trajectory:
    the newest record per lane vs its trailing window (median
    baseline, MAD/bootstrap bands).  Exits 1 on a significant
    regression — the wall-clock counterpart of the ``analyze`` drift
    gate.
``info``
    Print the machine configuration and knowledge-base statistics.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence


def _build(kb_nodes: int):
    from repro.apps.nlu import build_domain_kb
    from repro.machine import SnapMachine, snap1_16cluster

    kb = build_domain_kb(total_nodes=kb_nodes)
    machine = SnapMachine(kb.network, snap1_16cluster())
    return kb, machine


def cmd_parse(args) -> int:
    """Handle the `parse` subcommand."""
    from repro.apps.nlu import MemoryBasedParser, extract_template

    kb, machine = _build(args.kb_nodes)
    parser = MemoryBasedParser(machine, kb)
    result = parser.parse(args.sentence)
    template = extract_template(result, kb)
    if template is None:
        print("no completed hypothesis")
        if result.oov:
            print(f"out of vocabulary: {', '.join(result.oov)}")
        return 1
    print(template.render())
    print(
        f"\nP.P. {result.pp_time_us / 1e3:.2f} ms + "
        f"M.B. {result.mb_time_us / 1e3:.2f} ms simulated, "
        f"{result.instruction_count} SNAP instructions"
    )
    return 0


def cmd_speech(args) -> int:
    """Handle the `speech` subcommand."""
    from repro.apps import SpeechParser, synthesize_lattice

    kb, machine = _build(args.kb_nodes)
    parser = SpeechParser(machine, kb)
    lattice = synthesize_lattice(
        args.sentence, confusability=args.confusability
    )
    print("lattice: " + " ".join(
        "/".join(h.word for h in slot) for slot in lattice.slots
    ))
    result = parser.understand(lattice)
    print(f"meaning: {result.winner} (cost {result.cost})")
    print(
        f"{result.time_us / 1e3:.2f} ms simulated, beta max "
        f"{result.beta_max:.0f}"
    )
    return 0 if result.winner else 1


def cmd_experiments(args) -> int:
    """Handle the `experiments` subcommand."""
    from repro.experiments.runner import main as runner_main

    argv = list(args.ids)
    if args.full:
        argv.append("--full")
    if args.backend:
        argv.extend(["--backend", args.backend])
    if args.out:
        argv.extend(["--out", args.out])
    if args.profile:
        argv.extend(["--profile", args.profile])
    if args.list:
        argv.append("--list")
    if not args.trace:
        return runner_main(argv)
    # Install a process-global tracer so every nested simulation the
    # selected experiments start is captured, without threading a
    # tracer through each experiment's signature.
    from repro.obs import Tracer, set_tracer, write_chrome_json

    tracer = Tracer()
    set_tracer(tracer)
    try:
        code = runner_main(argv)
    finally:
        set_tracer(None)
    write_chrome_json(args.trace, tracer)
    print(f"wrote {args.trace} ({tracer.num_events} trace events)")
    return code


def _positive(kind):
    """argparse type: a finite, strictly positive ``kind`` (int/float)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be finite and > 0, got {text}"
            )
        return value

    return parse


def cmd_serve(args) -> int:
    """Handle the `serve` subcommand."""
    from repro.experiments.overload import (
        build_queries, uncontended_profile,
    )
    from repro.host import HostConfig, ServingHost
    from repro.network.generator import generate_hierarchy_kb

    network = generate_hierarchy_kb(args.kb_nodes, branching=3)
    config = HostConfig(
        num_replicas=args.replicas,
        queue_capacity=args.queue_capacity,
        shed_policy=args.shed_policy,
        faulty_replica_fraction=args.fault_fraction,
        fault_seed=args.seed,
    )
    mean_service, p99 = uncontended_profile(network, config)
    sustainable = config.num_replicas / mean_service
    deadline_us = args.deadline_us or 2.5 * p99
    queries = build_queries(
        args.queries, args.load * sustainable, deadline_us, seed=args.seed
    )
    tracer = metrics = None
    if args.trace:
        from repro.obs import MetricsRegistry, Tracer

        tracer, metrics = Tracer(), MetricsRegistry()
    report = ServingHost(
        network, config, tracer=tracer, metrics=metrics
    ).serve(queries)
    print(
        f"offered {args.load:.1f}x sustainable "
        f"({args.load * sustainable * 1e6:.0f} q/s), "
        f"deadline {deadline_us:.0f} us"
    )
    for key, value in report.summary().items():
        print(f"  {key}: {value}")
    if args.trace:
        from repro.obs import write_chrome_json

        write_chrome_json(args.trace, tracer, metrics=metrics)
        print(f"wrote {args.trace} ({tracer.num_events} trace events)")
    return 0


def cmd_trace(args) -> int:
    """Handle the `trace` subcommand."""
    from repro.obs.capture import main as capture_main

    argv = [args.workload, "--out", args.out]
    if args.smoke:
        argv.append("--smoke")
    if args.metrics_out:
        argv.extend(["--metrics-out", args.metrics_out])
    return capture_main(argv)


def cmd_analyze(args) -> int:
    """Handle the `analyze` subcommand."""
    from repro.obs.analyze import main as analyze_main

    argv = [args.trace]
    if args.report:
        argv.extend(["--report", args.report])
    if args.json:
        argv.extend(["--json", args.json])
    if args.compare:
        argv.extend(["--compare", args.compare])
    if args.snapshot_out:
        argv.extend(["--snapshot-out", args.snapshot_out])
    return analyze_main(argv)


def cmd_monitor(args) -> int:
    """Handle the `monitor` subcommand."""
    from repro.obs.live.cli import main as monitor_main

    argv = [args.workload]
    if args.full:
        argv.append("--full")
    if args.from_trace:
        argv.extend(["--from-trace", args.from_trace])
    if args.report:
        argv.extend(["--report", args.report])
    if args.json:
        argv.extend(["--json", args.json])
    if args.compare:
        argv.extend(["--compare", args.compare])
    if args.check:
        argv.append("--check")
    if args.mute:
        argv.extend(["--mute", args.mute])
    return monitor_main(argv)


def cmd_bench(args) -> int:
    """Handle the `bench` subcommand."""
    from repro.bench import main as bench_main

    argv = list(args.workloads)
    if args.smoke:
        argv.append("--smoke")
    if args.backend:
        argv.extend(["--backend", args.backend])
    argv.extend(["--out", args.out])
    if args.snapshot:
        argv.extend(["--snapshot", args.snapshot])
    argv.extend(["--history", args.history])
    if args.no_history:
        argv.append("--no-history")
    return bench_main(argv)


def cmd_perf(args) -> int:
    """Handle the `perf` subcommand (profile / check)."""
    from repro.obs.perf.cli import main as perf_main

    return perf_main(args.perf_args)


def cmd_info(args) -> int:
    """Handle the `info` subcommand."""
    from repro.machine import snap1_16cluster, snap1_full

    kb, machine = _build(args.kb_nodes)
    full = snap1_full()
    print("SNAP-1 prototype (full configuration):")
    print(f"  clusters: {full.num_clusters}, PEs: {full.total_pes}, "
          f"node capacity: {full.node_capacity}")
    experiment = snap1_16cluster()
    print("experiment configuration (paper SS IV):")
    print(f"  clusters: {experiment.num_clusters}, "
          f"PEs: {experiment.total_pes}")
    stats = kb.network.stats()
    print(f"knowledge base ({args.kb_nodes} requested nodes):")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    print(f"  concept sequences: {len(kb.cs_roots)} "
          f"({len(kb.core_roots)} core)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.bench import lane_id

    cli = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = cli.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a newswire sentence")
    p.add_argument("sentence")
    p.add_argument("--kb-nodes", type=int, default=3000)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("speech", help="understand a noisy word lattice")
    p.add_argument("sentence")
    p.add_argument("--kb-nodes", type=int, default=3000)
    p.add_argument("--confusability", type=float, default=0.8)
    p.set_defaults(fn=cmd_speech)

    p = sub.add_parser("experiments", help="regenerate paper artifacts")
    p.add_argument("ids", nargs="*")
    p.add_argument("--full", action="store_true")
    p.add_argument("--backend", default=None,
                   choices=["python", "vectorized"],
                   help="process-wide propagation backend for all "
                        "functional-engine runs")
    p.add_argument("--out")
    p.add_argument("--list", action="store_true",
                   help="list experiment ids and exit")
    p.add_argument("--trace", metavar="PATH",
                   help="capture every simulation into a Perfetto trace")
    p.add_argument("--profile", metavar="PATH",
                   help="write wall-clock folded stacks of the whole run")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser(
        "serve", help="run the concurrent query-serving host layer"
    )
    p.add_argument("--queries", type=_positive(int), default=100,
                   help="number of queries in the arrival stream")
    p.add_argument("--load", type=_positive(float), default=1.0,
                   help="offered load as a multiple of sustainable")
    p.add_argument("--fault-fraction", type=float, default=0.0,
                   help="fraction of replicas built degraded")
    p.add_argument("--replicas", type=_positive(int), default=4)
    p.add_argument("--queue-capacity", type=int, default=16)
    p.add_argument("--shed-policy", default="reject-newest",
                   choices=["reject-newest", "reject-over-deadline"])
    p.add_argument("--deadline-us", type=float, default=None,
                   help="per-query deadline (default: 2.5x p99)")
    p.add_argument("--kb-nodes", type=int, default=240)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="PATH",
                   help="write a Perfetto trace of the serving run")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "trace", help="capture a workload as a Perfetto trace"
    )
    p.add_argument("workload",
                   choices=["propagate", "faults", "overload", "chaos",
                            "fleetchaos"],
                   help="scenario to capture")
    p.add_argument("--out", default="trace.json",
                   help="output path (default: trace.json)")
    p.add_argument("--smoke", action="store_true",
                   help="small sizes for CI smoke runs")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="also dump the metrics registry as standalone JSON")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "analyze",
        help="critical paths, latency attribution, drift gate on a trace",
    )
    p.add_argument("trace",
                   help="trace JSON from `trace`/`serve` (or a metrics "
                        "snapshot JSON for drift-only checks)")
    p.add_argument("--report", metavar="PATH",
                   help="write the markdown report here (default: stdout)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the analysis record as JSON")
    p.add_argument("--compare", metavar="GOLDEN",
                   help="golden snapshot; exit 1 on drift beyond tolerance")
    p.add_argument("--snapshot-out", metavar="PATH",
                   help="write this run's metrics snapshot")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "monitor",
        help="live SLO monitor: windowed telemetry, burn-rate alerts, "
             "ground-truth detection scoring",
    )
    p.add_argument("workload", choices=["chaos", "fleetchaos"],
                   help="workload to replay under the monitor")
    p.add_argument("--full", action="store_true",
                   help="full-size run (default: fast/smoke size)")
    p.add_argument("--from-trace", metavar="TRACE",
                   help="ingest an existing trace capture instead of "
                        "replaying (timeline only, no ground truth)")
    p.add_argument("--report", metavar="PATH",
                   help="write the ops timeline report here "
                        "(default: stdout)")
    p.add_argument("--json", metavar="PATH",
                   help="write the monitor snapshot (drift-gate "
                        "document) here")
    p.add_argument("--compare", metavar="GOLDEN",
                   help="golden snapshot; exit 1 on drift")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless the detection gate passes")
    p.add_argument("--mute", metavar="RULES",
                   help="comma-separated alert rules to mute")
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser(
        "bench", help="wall-clock events/sec on the simulator hot paths"
    )
    p.add_argument("workloads", nargs="*", type=lane_id,
                   help="workload ids (default: propagate propagate-vec "
                        "faults overload dispatch)")
    p.add_argument("--smoke", action="store_true",
                   help="small sizes for CI smoke runs")
    p.add_argument("--backend", default=None,
                   choices=["python", "vectorized", "both"],
                   help="propagation backend for the engine lanes; "
                        "'both' also checks cross-backend equivalence")
    p.add_argument("--out", default="BENCH_PERF.json")
    p.add_argument("--snapshot", metavar="PATH",
                   help="write deterministic fields as a drift snapshot")
    p.add_argument("--history", default="BENCH_HISTORY.jsonl",
                   metavar="PATH",
                   help="append per-lane records to this JSONL trajectory")
    p.add_argument("--no-history", action="store_true",
                   help="skip appending to the bench history")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "perf",
        help="wall-clock observatory: sampling profiler + bench-history "
             "regression gate",
    )
    p.add_argument("perf_args", nargs=argparse.REMAINDER,
                   help="perf subcommand and flags: "
                        "`profile WORKLOAD [--folded-out ...]` or "
                        "`check [--history ...]`")
    p.set_defaults(fn=cmd_perf)

    p = sub.add_parser("info", help="machine + knowledge base statistics")
    p.add_argument("--kb-nodes", type=int, default=3000)
    p.set_defaults(fn=cmd_info)

    args = cli.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
