"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed at class (or module) level from this file,
before any machine is built; nothing under ``src/`` changes.  A
*span* wrapper records one span per call (name, start, end, parent,
operation id); a *count* wrapper only counts calls.  Spans stay in
memory (flat integer arrays) until :meth:`Recorder.dump` writes them
out when the run ends.

A layer's self time is its span's duration minus the time covered by
its wrapped children; each operation runs inside a root ``op`` span,
so the self times of one operation's spans sum to its wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: (metric name, "module:Class.method" targets) wrapped with spans.
SPAN_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("network.generate", (
        "repro.network.generator:generate_hierarchy_kb",
        "repro.apps.nlu.kbgen:build_domain_kb",
    )),
    ("core.state.init", ("repro.core.state:MachineState.__init__",)),
    ("core.state.expand", ("repro.core.state:MachineState.expand",)),
    ("core.state.deliver", ("repro.core.state:MachineState.deliver",)),
    ("core.tables.links", (
        "repro.core.tables:RelationTable.links_of",
        "repro.core.tables:RelationTable.entries",
    )),
    ("core.state.logic", tuple(
        f"repro.core.state:MachineState.{m}" for m in (
            "and_marker", "or_marker", "not_marker", "set_marker",
            "clear_marker", "func_marker",
        )
    )),
    ("core.state.collect", tuple(
        f"repro.core.state:MachineState.{m}" for m in (
            "collect_node", "collect_marker", "collect_relation",
            "collect_color",
        )
    )),
    ("core.state.mutate", tuple(
        f"repro.core.state:MachineState.{m}" for m in (
            "marker_create", "create", "delete", "add_link_runtime",
            "garbage_collect",
        )
    )),
    ("core.backends.propagate", (
        "repro.core.backends:PythonBackend.propagate",
        "repro.core.backends:VectorizedBackend.propagate",
    )),
    ("machine.run", ("repro.machine.machine:SnapMachine.run",)),
    ("machine.des.submit", (
        "repro.machine.des:Server.submit",
        "repro.machine.des:ServerPool.submit",
        "repro.machine.des:ServerPool.submit_batch",
    )),
    ("machine.icn.route", ("repro.machine.icn:HypercubeTopology.route",)),
    ("machine.icn.route_avoiding", (
        "repro.machine.icn:HypercubeTopology.route_avoiding",
    )),
    ("machine.sync", (
        "repro.machine.sync:TieredSynchronizer.produce",
        "repro.machine.sync:TieredSynchronizer.consume",
    )),
    ("machine.perfnet.record", (
        "repro.machine.perfnet:PerformanceCollector.record",
    )),
    ("apps.parse", ("repro.apps.nlu.parser:MemoryBasedParser.parse",)),
    ("apps.speech", ("repro.apps.speech:SpeechParser.understand",)),
    ("host.serve", ("repro.host.host:ServingHost.serve",)),
    ("fleet.serve", ("repro.fleet.router:FleetRouter.serve",)),
)

#: (metric name, targets) wrapped with call counters only.
COUNT_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("core.engine.execute", ("repro.core.engine:FunctionalEngine.execute",)),
    ("machine.des.schedule", ("repro.machine.des:Simulator.schedule",)),
    ("machine.des.cancel", ("repro.machine.des:Simulator.cancel",)),
    ("host.execute", ("repro.host.executor:ReplicaArray.execute",)),
)

#: Root span name of one operation.
OP = "op"


def _resolve(target: str) -> Tuple[Any, str]:
    """``module:Class.attr`` → (owner object, attribute name)."""
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.op_id = array("q")
        self.parent = array("q")
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self._op = -1
        self.counts: Counter = Counter()
        #: Reports returned by ``SnapMachine.run`` while active.
        self.reports: List[Any] = []
        self.hedge_wins = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    def reset_counts(self) -> None:
        """Forget call counts and captured reports (spans are kept)."""
        self.counts.clear()
        self.reports.clear()
        self.hedge_wins = 0

    # -- span store ------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.op_id.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(nid)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_index: int, fn: Callable, *args) -> Tuple[Any, int]:
        """Run one operation inside a root span; (result, wall ns)."""
        self._op = op_index
        self.active = True
        index = self.open(self._intern(OP))
        try:
            result = fn(*args)
        finally:
            self.close(index)
            self.active = False
        return result, self.end[index] - self.start[index]

    # -- wrappers --------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        rec = self
        on_run = name == "machine.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec.counts[name] += 1
            index = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if on_run:
                rec.reports.append(result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        rec = self
        hit_check = name == "host.execute"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec.counts[name] += 1
            if not hit_check:
                return fn(*args, **kwargs)
            runs = rec.counts["machine.run"]
            result = fn(*args, **kwargs)
            if rec.counts["machine.run"] == runs:
                rec.counts["host.execute.hits"] += 1
            return result

        return wrapper

    def _hedge(self, fn: Callable) -> Callable:
        """Counts hedged attempts that completed first with a good
        answer (the host's own ``_attempt_done`` boundary)."""
        rec = self

        @functools.wraps(fn)
        def wrapper(host, attempt):
            if rec.active and attempt.hedged and attempt.result.ok \
                    and not attempt.state.terminal:
                rec.hedge_wins += 1
            return fn(host, attempt)

        return wrapper

    def install(self) -> None:
        """Wrap every listed target (idempotent)."""
        if self._installed:
            return
        plan = [(name, t, self._span) for name, ts in SPAN_LAYERS for t in ts]
        plan += [(name, t, self._count) for name, ts in COUNT_LAYERS for t in ts]
        for name, target, make in plan:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, make(name, original))
        owner, attr = _resolve("repro.host.host:ServingHost._attempt_done")
        original = owner.__dict__[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._hedge(original))

    def uninstall(self) -> None:
        """Restore every original (for the untraced comparison pass)."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- analysis --------------------------------------------------------
    def self_ns(self) -> List[int]:
        """Per-span self time: duration minus wrapped children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, op, parent, start,
        end in ns)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for index in range(len(self.start)):
                handle.write(json.dumps([
                    index, self.names[self.name_id[index]],
                    self.op_id[index], self.parent[index],
                    self.start[index], self.end[index],
                ]) + "\n")
