"""The serving host builds each arrival's state one ahead and leaves no
cyclic garbage.

``serve`` reserves the stream's sequence numbers up front but builds an
arrival's ``_QueryState`` and event only when its predecessor fires.
The property below pins that this changes nothing simulated, against a
reference copy of the earlier serve loop that built every state and
scheduled every arrival before the run.  The lifecycle test pins that
a host which has served a stream is freed by reference counting.
"""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.host import HostConfig, Query, ServingHost
from repro.host.host import _Attempt, _QueryState
from repro.host.query import QueryOutcome
from repro.isa import assemble
from repro.machine.faults import FaultConfig, RetryPolicy
from repro.network.generator import generate_hierarchy_kb

PROGRAM = assemble("""
SEARCH-NODE thing b0
PROPAGATE b0 b1 chain(inverse:is-a)
COLLECT-NODE b1
""")

#: Arrival times, deadlines and hedge delays sit on this grid, so
#: arrivals tie with each other and with the watchdogs of earlier
#: queries: the tie-break order is what the property exercises.
GRID_US = 50.0

DAMAGING = FaultConfig(
    transfer_corrupt_prob=0.6, retry=RetryPolicy(max_retries=0)
)


@pytest.fixture(scope="module")
def network():
    return generate_hierarchy_kb(60, branching=3)


class UpFrontHost(ServingHost):
    """The serve loop before one-ahead arrivals, kept as the reference:
    every query's state and arrival event exist before the run."""

    def serve(self, queries):
        self._ran = True
        self._on_arrival_cb = self._on_arrival
        self._hopeless_cb = self._hopeless
        self._attempt_done_cb = self._attempt_done
        self._maybe_hedge_cb = self._maybe_hedge
        self._on_deadline_cb = self._on_deadline
        # self._stream stays empty, so _on_arrival schedules nothing.
        states = []
        default_deadline = self.config.default_deadline_us
        for query in sorted(queries, key=lambda q: (q.arrival_us, q.query_id)):
            deadline = (
                query.deadline_us
                if query.deadline_us is not None
                else default_deadline
            )
            state = _QueryState(
                query=query,
                deadline_us=deadline,
                deadline_abs=(
                    None if deadline is None else query.arrival_us + deadline
                ),
            )
            states.append(state)
            self.sim.schedule(query.arrival_us, self._on_arrival, state)
        self.sim.run()
        assert all(state.terminal for state in states)
        return self._build_report()


def make_queries(slots, deadlines, order):
    """Queries at grid slots, ids permuted so that sorting by
    (arrival, id) differs from list order."""
    return [
        Query(
            query_id=order[i],
            program=PROGRAM,
            arrival_us=slot * GRID_US,
            deadline_us=None if d is None else d * GRID_US,
            template="inherit",
        )
        for i, (slot, d) in enumerate(zip(slots, deadlines))
    ]


def warm(host, reference):
    """Share the reference host's nested-run caches (same config)."""
    host.array._cache.update(reference.array._cache)
    host.array._healthy_cache.update(reference.array._healthy_cache)
    host.array._reference_cache.update(reference.array._reference_cache)
    return host


def observe(host, report):
    return (
        [(o.as_dict(), o.results) for o in report.outcomes],
        host.sim.events_processed,
        report.total_time_us,
        report.replicas,
    )


streams = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 12), min_size=n, max_size=n),
    st.lists(st.one_of(st.none(), st.integers(1, 8)),
             min_size=n, max_size=n),
    st.permutations(range(n)),
))

configs = st.builds(
    lambda replicas, capacity, policy, hedge, faulty, default, attempts,
    seed: HostConfig(
        num_replicas=replicas,
        clusters_per_replica=2,
        mus_per_cluster=2,
        queue_capacity=capacity,
        shed_policy=policy,
        hedge_after_us=None if hedge is None else hedge * GRID_US,
        faulty_replica_fraction=faulty,
        replica_fault_template=DAMAGING if faulty else None,
        default_deadline_us=None if default is None else default * GRID_US,
        max_attempts=attempts,
        breaker_failure_threshold=2,
        breaker_cooldown_us=4 * GRID_US,
        fault_seed=seed,
    ),
    st.integers(1, 3),
    st.sampled_from([None, 0, 1, 3]),
    st.sampled_from(["reject-newest", "reject-over-deadline"]),
    st.one_of(st.none(), st.integers(1, 4)),
    st.sampled_from([0.0, 0.5]),
    st.one_of(st.none(), st.integers(2, 10)),
    st.integers(1, 2),
    st.integers(0, 5),
)


class TestOneAheadArrivals:
    @given(stream=streams, config=configs)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_up_front_reference(self, network, stream, config):
        queries = make_queries(*stream)
        reference = UpFrontHost(network, config)
        expected = observe(reference, reference.serve(queries))
        host = warm(ServingHost(network, config), reference)
        assert observe(host, host.serve(queries)) == expected

    def test_empty_stream(self, network):
        host = ServingHost(network, HostConfig(num_replicas=1))
        report = host.serve([])
        assert report.outcomes == []
        assert host.sim.pending == 0


class TestLifecycle:
    def test_served_host_is_freed_by_reference_counting(self, network):
        """With the collector off, dropping a host that served a stream
        with hedges, deadlines, shedding and damaged replicas frees it at
        once, and a collection then finds nothing: no query state, no
        outcome, nothing of the host was left for the cyclic collector.
        (The nested-run caches are warmed first, so the stream runs no
        machine simulation, whose own objects are not in question.)"""
        config = HostConfig(
            num_replicas=3, clusters_per_replica=2, mus_per_cluster=2,
            queue_capacity=1, hedge_after_us=GRID_US, max_attempts=2,
            faulty_replica_fraction=0.5, replica_fault_template=DAMAGING,
            fault_seed=1,
        )
        queries = make_queries(
            [i * 3 // 2 for i in range(60)],
            [None if i % 4 else 3 for i in range(60)],
            list(range(60)),
        )
        first = ServingHost(network, config)
        first.serve(queries)
        gc.collect()
        gc.disable()
        try:
            host = warm(ServingHost(network, config), first)
            report = host.serve(queries)
            statuses = {o.status for o in report.outcomes}
            assert len(statuses) == 4  # served, shed, timed out, failed
            assert sum(o.hedges for o in report.outcomes) > 0
            ref = weakref.ref(host)
            del host, report
            assert ref() is None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = [type(o).__name__ for o in gc.garbage]
            assert not [name for name in left if name in (
                _QueryState.__name__, QueryOutcome.__name__,
                _Attempt.__name__,
            )]
            assert left == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
