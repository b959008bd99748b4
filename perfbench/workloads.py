"""The four benchmark workloads: ``inherit``, ``parse``, ``serve``,
``faulted``.

A workload is built from the benchmark seed alone.  Building it
(:meth:`Workload.build`) is what ``setup_s`` measures; it returns the
*pool*: the operations one cycle of the closed loop runs, in a seeded
order.  Each :class:`Op` has three parts:

* ``prepare()`` — untimed per-operation set-up (the serving host and
  fleet router serve exactly one stream each, so a fresh one is built
  before every ``serve`` operation);
* ``call(ctx)`` — the timed work, one public call into the program;
* ``finish(ctx, out)`` — untimed: turns the output into a
  :class:`Sample` (deterministic counts, an answer digest) and checks
  it against :mod:`oracle`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro.apps.inheritance import inheritance_program, property_lookup_program
from repro.apps.nlu import MUC4_SENTENCES, MemoryBasedParser, kbgen
from repro.apps.speech import SpeechParser, synthesize_lattice
from repro.baselines.simd import SimdMachine
from repro.core.engine import FunctionalEngine
from repro.experiments import chaos, fleetchaos, overload
from repro.experiments.common import nlu_config
from repro.experiments.speech_robustness import UTTERANCES
from repro.fleet import FleetRouter
from repro.fleet.sharding import build_shards
from repro.host import HostConfig, QueryStatus, ServingHost
from repro.machine import FaultConfig, SnapMachine, snap1_full
from repro.network import generator
from repro.network.generator import HIERARCHY_ROOT

from . import oracle


@dataclass
class Sample:
    """What one operation produced, reduced to checkable numbers."""

    #: Short digest of the operation's simulated output (answers and
    #: simulated timing); pinned for the default seed.
    digest: str
    #: Short digest of the answers alone: every repetition of a pool
    #: operation must reproduce its first one.
    answer: str
    #: DES events processed (machine runs, or the host/fleet kernel).
    events: int
    #: SNAP instructions completed by the simulated machine.
    instructions: int
    #: Queries resolved: 1 per inference/sentence, the stream for serve.
    queries: int
    #: Simulated time of the operation, in µs.
    sim_us: float
    #: ``MachineState.mutation_version`` advance (KB writes).
    mutations: int = 0
    #: Scatter-gather legs dispatched (fleet streams).
    legs: int = 0
    #: Hedged attempts launched (host streams).
    hedges: int = 0
    #: Oracle disagreement, or ``None`` when the output is correct.
    error: Optional[str] = None


@dataclass
class Op:
    """One operation of a workload's pool (see module docstring)."""

    label: str
    call: Callable[[Any], Any]
    finish: Callable[[Any, Any], Sample]
    prepare: Callable[[], Any] = lambda: None


def digest(*parts: Any) -> str:
    """Stable 16-hex digest of JSON-able parts (floats by ``repr``)."""
    blob = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Workload:
    """Base: a seeded input generator that builds an operation pool."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")

    def jitter(self, nodes: int, share: float) -> int:
        """``nodes`` with seeded relative jitter of up to ``share``."""
        return round(nodes * self.rng.uniform(1.0 - share, 1.0 + share))

    def build(self) -> List[Op]:
        """Build KBs, machines and hosts; return the operation pool."""
        raise NotImplementedError

    def prepare_oracles(self) -> None:
        """Untimed: compute reference answers after :meth:`build`."""

    def end_verification(self) -> None:
        """Called once the verification pass has run every operation."""

    def start_pass(self) -> None:
        """Untimed: called before every pass over the pool after the
        verification pass; restores whatever state operations change,
        so every pass repeats the verified one exactly."""


# ----------------------------------------------------------------------
# inherit / faulted: fig15- and scaling-style inference
# ----------------------------------------------------------------------
#: Flood KBs: one root-to-leaf inheritance per KB per pass.  Sizes are
#: fig15's doubling sweep up to 3200 plus scaling's 8K (seeded ±3%
#: jitter) and the branching factors a seeded permutation, so every run
#: sees the same mix of KB shapes.  Three KBs have 800 nodes: the median
#: operation is one of them, and three per pass give the median enough
#: samples to ride out the host's swings in speed.
FLOOD_NODES = (400, 800, 800, 800, 1600, 3200, 8000)
FLOOD_BRANCHING = (3, 3, 4, 5, 4, 5, 4)
#: The flood that runs twice per pass: with the 8K flood once per pass,
#: the tail (11th-largest operation) then falls on this one operation
#: for any run of 4 to 10 passes.
TWICE = 3200
#: Attributes per flood (marker-disjoint, so the controller overlaps
#: them: beta = 2).
FLOOD_PROPERTIES = 2
#: The lookup KB approaches the 32-cluster machine's 32K-node capacity.
LOOKUP_NODES = 24_000
#: Three lookups make eleven operations per pass, so the median is the
#: middle 800-node flood.
LOOKUPS_PER_PASS = 3


class Inherit(Workload):
    """Root-to-leaf floods and property lookups on the 32-cluster
    machine, each also run on the CM-2 ``SimdMachine`` baseline."""

    name = "inherit"
    baseline = True

    def machine_config(self, index: int):
        return snap1_full()

    def build(self) -> List[Op]:
        rng = self.rng
        sizes = [self.jitter(n, 0.03) for n in FLOOD_NODES]
        shapes = rng.sample(FLOOD_BRANCHING, len(FLOOD_BRANCHING))
        self._floods = []
        for index, (nodes, branching) in enumerate(zip(sizes, shapes)):
            network = generator.generate_hierarchy_kb(nodes, branching=branching)
            self._floods.append((
                f"flood{index}-n{nodes}-b{branching}", network,
                SnapMachine(network, self.machine_config(index)),
                SimdMachine(network) if self.baseline else None,
            ))
        nodes = self.jitter(LOOKUP_NODES, 0.02)
        network = generator.generate_hierarchy_kb(
            nodes, branching=rng.choice((3, 4, 5))
        )
        self._lookup_net = network
        self._lookup_snap = SnapMachine(
            network, self.machine_config(len(FLOOD_NODES))
        )
        self._lookup_simd = SimdMachine(network) if self.baseline else None
        self._lookups = [
            (f"c{rng.randrange(1, nodes)}", f"attr{rng.randrange(4)}")
            for _ in range(LOOKUPS_PER_PASS)
        ]
        program = inheritance_program(num_properties=FLOOD_PROPERTIES)
        ops = []
        for nominal, (label, _net, snap, simd) in zip(FLOOD_NODES, self._floods):
            op = self._op(label, snap, simd, program)
            ops += [op, op] if nominal == TWICE else [op]
        ops += [
            self._op(
                f"lookup-{concept}-{prop}", self._lookup_snap,
                self._lookup_simd, property_lookup_program(concept, prop),
            )
            for concept, prop in self._lookups
        ]
        rng.shuffle(ops)
        return ops

    def prepare_oracles(self) -> None:
        self._expected: Dict[str, FrozenSet[str]] = {}
        for label, network, _snap, _simd in self._floods:
            self._expected[label] = oracle.descendants(network, HIERARCHY_ROOT)
        for concept, prop in self._lookups:
            self._expected[f"lookup-{concept}-{prop}"] = oracle.inherits(
                self._lookup_net, concept, prop
            )

    def _op(self, label, snap, simd, program) -> Op:
        def call(_ctx):
            report = snap.run(program)
            cm2 = simd.run(program) if simd is not None else None
            return report, cm2

        def finish(_ctx, out) -> Sample:
            report, cm2 = out
            expected = self._expected[label]
            got = [oracle.names(r) for r in report.results()]
            damage = 0
            injected = 0
            if report.faults_enabled and report.fault_stats is not None:
                damage = report.fault_stats.query_visible_failures()
                injected = report.fault_stats.total_injected()
            error = None
            if not got:
                error = "no collected result"
            for answer in got:
                # Lost messages can only shrink a marked set: a damaged
                # run is a simulated outcome, never a superset.
                if answer != expected and (damage == 0 or not answer <= expected):
                    error = (
                        f"collected {len(answer)} nodes, oracle "
                        f"{len(expected)} (damage {damage})"
                    )
            cm2_us = None
            if cm2 is not None:
                cm2_us = cm2.total_time_us
                if [oracle.names(r) for r in cm2.results()] != [expected] * len(got):
                    error = error or "CM-2 baseline disagrees with the oracle"
            answer = digest(label, [sorted(a) for a in got])
            return Sample(
                digest=digest(
                    answer, report.total_time_us, report.events_processed,
                    len(report.traces), damage, injected, cm2_us,
                ),
                answer=answer,
                events=report.events_processed,
                instructions=len(report.traces),
                queries=1,
                sim_us=report.total_time_us,
                error=error,
            )

        return Op(label, call, finish)


class Faulted(Inherit):
    """The ``inherit`` programs on a seeded :class:`FaultConfig` per
    machine: failed clusters, MU loss, dead links, transfer corruption
    and SCP timeouts (no CM-2 baseline: it has no fault model)."""

    name = "faulted"
    baseline = False

    def machine_config(self, index: int):
        rng = self.rng
        faults = FaultConfig(
            seed=rng.randrange(2 ** 31),
            failed_clusters=tuple(sorted(rng.sample(range(32), 2))),
            mu_loss_prob=0.10,
            link_fail_prob=0.05,
            transfer_corrupt_prob=0.02,
            scp_timeout_prob=0.05,
        )
        return replace(snap1_full(), faults=faults)


# ----------------------------------------------------------------------
# parse: MUC-4 sentences and speech lattices on the NLU machine
# ----------------------------------------------------------------------
PARSE_KB_NODES = 1500
#: Expected MUC-4 readings (paper Table III sentences).
MUC4_WINNERS = {
    "S1": "attack-event", "S2": "attack-event",
    "S3": "kidnap-event", "S4": "bombing-event",
}
#: Lattice noise levels: every pool holds each level the same number
#: of times (seeded order), so pools cost the same across seeds.
CONFUSABILITY = (0.0, 0.5, 1.0)
SPEECH_PER_LEVEL = 3


class Parse(Workload):
    """MUC-4 sentences through ``MemoryBasedParser.parse`` and speech
    lattices through ``SpeechParser.understand`` on one 16-cluster
    machine that stays alive across a pass.  Sentences write to the KB,
    so every later pass gets a fresh machine on an untouched copy of it
    (outside the clock): the work per pass does not grow with the number
    of passes a host manages to run.  In the verification pass every
    recorded program is replayed through the python-backend
    ``FunctionalEngine`` to check its collected results."""

    name = "parse"

    def build(self) -> List[Op]:
        rng = self.rng
        kb = kbgen.build_domain_kb(total_nodes=PARSE_KB_NODES)
        self._kb = kb
        # The replay engine and every later pass start from an
        # untouched copy of the KB.
        self._pristine = copy.deepcopy(kb.network)
        self._assemble(kb.network)
        ops = [self._op(sid, False, text, sid)
               for sid, text in MUC4_SENTENCES]
        levels = list(CONFUSABILITY) * SPEECH_PER_LEVEL
        rng.shuffle(levels)
        for j, level in enumerate(levels):
            utterance = UTTERANCES[j % len(UTTERANCES)]
            lattice = synthesize_lattice(
                utterance, confusability=level, seed=rng.randrange(2 ** 31)
            )
            ops.append(self._op(f"utt{j}-{level}", True, lattice, None))
        rng.shuffle(ops)
        return ops

    def _assemble(self, network) -> None:
        self.machine = SnapMachine(network, nlu_config())
        self.parser = MemoryBasedParser(self.machine, self._kb, keep_trace=True)
        self.speech = SpeechParser(self.machine, self._kb, keep_trace=True)

    def start_pass(self) -> None:
        self._assemble(copy.deepcopy(self._pristine))

    def prepare_oracles(self) -> None:
        self.engine = FunctionalEngine(
            self._pristine, num_clusters=self.machine.num_clusters,
            partition_policy=self.machine.config.partition_policy,
            backend="python",
        )

    def end_verification(self) -> None:
        # The engine mirrors the machine's KB only while it replays
        # every program; later repetitions are checked against their
        # verified first answers instead.
        self.engine = None

    def _replay(self, log) -> Optional[str]:
        """Run each logged program on the golden engine; compare."""
        execute = self.engine.execute
        for program, report in log:
            results = []
            for instruction in program:
                record = execute(instruction)
                if record.result is not None:
                    results.append(record.result)
            if results != report.results():
                return f"{program.name}: machine results differ from replay"
        return None

    def _op(self, label, speech, arg, sentence_id) -> Op:
        def prepare():
            self.parser.trace_log.clear()
            self.speech.trace_log.clear()
            return self.machine.state.mutation_version

        if speech:
            def call(_ctx):
                return self.speech.understand(arg)
        else:
            def call(_ctx):
                return self.parser.parse(arg)

        def finish(version, out) -> Sample:
            log = self.parser.trace_log + self.speech.trace_log
            reports = [report for _program, report in log]
            error = self._replay(log) if self.engine is not None else None
            if sentence_id is not None and out.winner != MUC4_WINNERS[sentence_id]:
                error = f"{sentence_id} read as {out.winner}"
            answer = (out.winner, out.cost, out.candidates,
                      getattr(out, "bindings", None))
            sim_us = sum(r.total_time_us for r in reports)
            events = sum(r.events_processed for r in reports)
            instructions = sum(len(r.traces) for r in reports)
            return Sample(
                digest=digest(label, answer, sim_us, events, instructions),
                answer=digest(label, answer),
                events=events,
                instructions=instructions,
                queries=1,
                sim_us=sim_us,
                mutations=self.machine.state.mutation_version - version,
                error=error,
            )

        return Op(label, call, finish, prepare)


# ----------------------------------------------------------------------
# serve: host and fleet streams with warm nested-run caches
# ----------------------------------------------------------------------
#: Offered loads of the overload streams, as multiples of what the four
#: healthy replicas sustain: below saturation hedges are launched; above
#: it admission sheds and watchdogs expire queries.
OVERLOAD_FACTORS = (0.75, 1.25, 2.0)
#: Queries per stream, sized so every operation costs about the same.
QUERIES = {"overload0.75": 6000, "overload1.25": 8000, "overload2.0": 10800,
           "chaos": 5400, "fleet": 1500}
#: The stream that runs more than once per pass.  The other streams'
#: costs fall in a seeded order close to it, so with each stream once
#: the median operation would jump between streams from seed to seed;
#: holding a majority of the pool, this stream is always the median.
MEDIAN_STREAM = "overload1.25"


class Serve(Workload):
    """``ServingHost.serve`` over overload (hedges, watchdogs,
    shedding, damaged replicas) and chaos (gray replicas, health
    lifecycle) streams, and ``FleetRouter.serve`` over fleetchaos
    streams (regional outage and repair)."""

    name = "serve"

    def build(self) -> List[Op]:
        rng = self.rng
        # overload: the experiment's host at each of OVERLOAD_FACTORS.
        net = generator.generate_hierarchy_kb(240, branching=3)
        base = HostConfig(
            num_replicas=4, clusters_per_replica=4, mus_per_cluster=2,
            queue_capacity=8, shed_policy="reject-newest", max_attempts=2,
            breaker_failure_threshold=2, breaker_cooldown_us=10_000.0,
            fault_seed=3,
        )
        mean_us, p99_us = overload.uncontended_profile(net, base)
        cfg = replace(base, hedge_after_us=0.75 * p99_us,
                      faulty_replica_fraction=0.25)
        self._host_streams = [
            (f"overload{factor}", net, cfg, overload.build_queries(
                QUERIES[f"overload{factor}"],
                factor * base.num_replicas / mean_us, 2.5 * p99_us,
                seed=rng.randrange(2 ** 31)))
            for factor in OVERLOAD_FACTORS
        ]
        # chaos: rolling gray replicas with the health lifecycle.
        net, cfg, _queries, profile = chaos.build_scenario(fast=True)
        self._host_streams.append(
            ("chaos", net, cfg, overload.build_queries(
                QUERIES["chaos"], profile["rate_per_us"],
                profile["deadline_us"], seed=rng.randrange(2 ** 31))))
        # fleetchaos: region outage + repair + gray region.
        net, cfg, _queries, profile = fleetchaos.build_scenario(fast=True)
        self._fleet_net, self._fleet_cfg = net, cfg
        fleet_queries = fleetchaos.build_fleet_queries(
            QUERIES["fleet"], profile["mean_gap_us"], profile["deadline_us"],
            seed=rng.randrange(2 ** 31),
        )
        # Warm the nested-run caches once: every (template, replica,
        # fault regime) a stream touches is simulated here, so timed
        # operations measure host and fleet work only.
        self._host_cache: Dict[int, tuple] = {}
        for _label, net, cfg, queries in self._host_streams:
            host = ServingHost(net, cfg)
            host.serve(queries)
            warm = self._host_cache.setdefault(id(cfg), ({}, {}, {}))
            warm[0].update(host.array._cache)
            warm[1].update(host.array._healthy_cache)
            warm[2].update(host.array._reference_cache)
        router = FleetRouter(self._fleet_net, self._fleet_cfg)
        router.serve(fleet_queries)
        self._fleet_cache = [dict(e._cache) for e in router.executors]
        ops = [self._host_op(*stream) for stream in self._host_streams]
        ops.append(self._fleet_op("fleet", fleet_queries))
        median = next(op for op in ops if op.label == MEDIAN_STREAM)
        ops += [median] * (len(ops) - 1)
        rng.shuffle(ops)
        return ops

    def prepare_oracles(self) -> None:
        self._expected: Dict[tuple, FrozenSet[str]] = {}
        for _label, net, _cfg, queries in self._host_streams:
            for query in queries:
                root = query.program[0].node
                key = (id(net), root)
                if key not in self._expected:
                    self._expected[key] = oracle.descendants(net, root)
        for shard in build_shards(self._fleet_net, self._fleet_cfg):
            for root in fleetchaos.ROOTS:
                self._expected[(shard.shard_id, root)] = (
                    oracle.descendants(self._fleet_net, root, shard.names)
                    if root in shard.names else frozenset()
                )

    def _host_op(self, label, net, cfg, queries) -> Op:
        warm = self._host_cache[id(cfg)]
        by_id = {q.query_id: q for q in queries}
        # Served answers are the cached attempts' result lists, shared
        # by every repetition: name each list once (per length, so an
        # in-place append or pop is still seen).
        named: Dict[tuple, FrozenSet[str]] = {}

        def names_of(results):
            key = (id(results), len(results[-1]))
            got = named.get(key)
            if got is None:
                got = named[key] = oracle.names(results[-1])
            return got

        # Only a replica built or scheduled with faults may serve an
        # answer short of the reference (a seed node or marker lost
        # without a query-visible error); every other mismatch fails.
        degraded = set(cfg.faulty_replicas()) | {
            event.replica for event in cfg.replica_timeline
            if event.faults is not None
        }

        def prepare():
            host = ServingHost(net, cfg)
            host.array._cache.update(warm[0])
            host.array._healthy_cache.update(warm[1])
            host.array._reference_cache.update(warm[2])
            return host

        def call(host):
            return host.serve(queries)

        def finish(host, report) -> Sample:
            error = None
            if not report.accounted() or report.submitted != len(queries):
                error = f"{report.submitted}/{len(queries)} queries accounted"
            silent = 0
            instructions = 0
            for outcome in report.outcomes:
                if outcome.status is not QueryStatus.SERVED:
                    continue
                query = by_id[outcome.query_id]
                instructions += len(query.program)
                got = names_of(outcome.results)
                expected = self._expected[(id(net), query.program[0].node)]
                if got == expected:
                    continue
                if got < expected and outcome.replica in degraded:
                    silent += 1  # a simulated outcome, pinned by the digest
                else:
                    error = error or f"query {query.query_id}: wrong answer"
            answer = digest(label, repr([
                (o.query_id, o.status.value, o.latency_us, o.service_us,
                 o.attempts, o.hedges, o.replica)
                for o in report.outcomes
            ]), report.total_time_us, silent)
            return Sample(
                digest=answer,
                answer=answer,
                events=host.sim.events_processed,
                instructions=instructions,
                queries=report.submitted,
                sim_us=report.total_time_us,
                hedges=sum(o.hedges for o in report.outcomes),
                error=error,
            )

        return Op(label, call, finish, prepare)

    def _fleet_op(self, label, queries) -> Op:
        by_id = {q.query_id: q for q in queries}

        def prepare():
            router = FleetRouter(self._fleet_net, self._fleet_cfg)
            for warm, executor in zip(self._fleet_cache, router.executors):
                executor._cache.update(warm)
            return router

        def call(router):
            return router.serve(queries)

        def finish(router, report) -> Sample:
            error = None
            if len(report.outcomes) != len(queries):
                error = f"{len(report.outcomes)}/{len(queries)} queries accounted"
            legs = 0
            instructions = 0
            for outcome in report.outcomes:
                query = by_id[outcome.query_id]
                legs += (len(outcome.shards_fresh) + len(outcome.shards_stale)
                         + len(outcome.shards_shed))
                for sid, results in (outcome.results or {}).items():
                    got = oracle.names(results[-1]) if results else frozenset()
                    if results:
                        instructions += len(query.program)
                    if got != self._expected[(sid, query.template)]:
                        error = error or (
                            f"query {query.query_id} shard {sid}: wrong answer"
                        )
            answer = digest(
                label,
                [(o.query_id, o.status.value, o.latency_us,
                  o.shards_fresh, o.shards_stale, o.shards_shed)
                 for o in report.outcomes],
                report.total_time_us,
            )
            return Sample(
                digest=answer,
                answer=answer,
                events=router.sim.events_processed,
                instructions=instructions,
                queries=len(report.outcomes),
                sim_us=report.total_time_us,
                legs=legs,
                error=error,
            )

        return Op(label, call, finish, prepare)


WORKLOADS = {w.name: w for w in (Inherit, Parse, Serve, Faulted)}
