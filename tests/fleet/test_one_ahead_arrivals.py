"""The fleet router builds each arrival's state one ahead and leaves no
cyclic garbage.

As in the serving host, ``FleetRouter.serve`` reserves the stream's
sequence numbers after the region events' and builds an arrival's
state only when its predecessor fires.  The property pins that this
changes nothing simulated, against a reference copy of the earlier
serve loop that scheduled every arrival before the run; the lifecycle
test pins that a router which has served a stream (through a regional
outage, repair and re-replication) is freed by reference counting.
"""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet import FleetConfig, FleetRouter
from repro.fleet.router import _FleetQueryState, _Leg
from repro.fleet.report import FleetOutcome
from repro.host import Query
from repro.isa import assemble
from repro.machine.faults import RegionEvent, RegionSchedule
from repro.network.generator import generate_hierarchy_kb

ROOTS = ("thing", "c1", "c2", "c5")

PROGRAMS = {
    name: assemble(
        f"SEARCH-NODE {name} b0\n"
        "PROPAGATE b0 b1 chain(inverse:is-a)\n"
        "COLLECT-NODE b1\n"
    )
    for name in ROOTS
}

#: Arrivals, deadlines and region events sit on this grid so they tie;
#: it is finer than a leg's service time (~150 us), so deadlines expire
#: while legs are in flight and arrivals meet a full admission window.
GRID_US = 50.0


@pytest.fixture(scope="module")
def network():
    return generate_hierarchy_kb(120, branching=3)


class UpFrontRouter(FleetRouter):
    """The serve loop before one-ahead arrivals, kept as the reference:
    region events first, then every arrival, all before the run."""

    def serve(self, queries):
        self._ran = True
        self._arrive_cb = self._arrive
        self._leg_done_cb = self._leg_done
        self._leg_deadline_cb = self._leg_deadline
        self._query_deadline_cb = self._query_deadline
        self.rebalancer.on_complete = self._rebuild_done
        self.rebalancer.on_abort = self._rebuild_aborted
        for event in self.config.region_schedule.events:
            self.sim.schedule(event.time_us, self._region_event, event)
        # self._stream stays empty, so _arrive schedules nothing.
        default_deadline = self.config.default_deadline_us
        for query in sorted(queries, key=lambda q: (q.arrival_us, q.query_id)):
            deadline = (
                query.deadline_us
                if query.deadline_us is not None
                else default_deadline
            )
            state = _FleetQueryState(
                query=query,
                deadline_abs=(
                    None if deadline is None else query.arrival_us + deadline
                ),
            )
            self.sim.schedule(query.arrival_us, self._arrive, state)
        self.sim.run()
        return self._build_report()


def make_queries(slots, deadlines, order, grid_us=GRID_US):
    return [
        Query(
            query_id=order[i],
            program=PROGRAMS[ROOTS[i % len(ROOTS)]],
            arrival_us=slot * grid_us,
            deadline_us=None if d is None else d * grid_us,
            template=ROOTS[i % len(ROOTS)],
        )
        for i, (slot, d) in enumerate(zip(slots, deadlines))
    ]


def warm(router, reference):
    for executor, done in zip(router.executors, reference.executors):
        executor._cache.update(done._cache)
    return router


def observe(router, report):
    return (
        [(o.query_id, o.status, o.arrival_us, o.finish_us, o.latency_us,
          o.shards_fresh, o.shards_stale, o.shards_shed, o.correct,
          o.shed_reason, o.results) for o in report.outcomes],
        router.sim.events_processed,
        report.total_time_us,
        report.shards,
        report.primary_changes,
        (report.rebuilds_completed, report.rebuilds_aborted),
    )


streams = st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 30), min_size=n, max_size=n),
    st.lists(st.one_of(st.none(), st.integers(1, 6)),
             min_size=n, max_size=n),
    st.permutations(range(n)),
))

region_events = st.lists(
    st.builds(
        lambda slot, kind, region, slow: RegionEvent(
            slot * GRID_US, kind, region,
            slow if kind == "region-slowdown" else None,
        ),
        st.integers(0, 30),
        st.sampled_from(["region-fail", "region-repair", "region-slowdown"]),
        st.integers(0, 2),
        st.sampled_from([1.0, 3.0]),
    ),
    max_size=4,
)

configs = st.builds(
    lambda events, capacity, default, shard, health, concurrency:
    FleetConfig(
        num_regions=3, num_shards=3, replication_factor=2,
        queue_capacity=capacity,
        default_deadline_us=None if default is None else default * GRID_US,
        shard_deadline_us=None if shard is None else shard * GRID_US,
        region_schedule=RegionSchedule(tuple(events)),
        rebalance_setup_us=GRID_US,
        rebalance_concurrency=concurrency,
        health_enabled=health,
        health_min_samples=2,
    ),
    region_events,
    st.sampled_from([None, 1, 4]),
    st.one_of(st.none(), st.integers(1, 6)),
    st.one_of(st.none(), st.integers(1, 4)),
    st.booleans(),
    st.integers(1, 2),
)


class TestOneAheadArrivals:
    @given(stream=streams, config=configs)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_up_front_reference(self, network, stream, config):
        queries = make_queries(*stream)
        reference = UpFrontRouter(network, config)
        expected = observe(reference, reference.serve(queries))
        router = warm(FleetRouter(network, config), reference)
        assert observe(router, router.serve(queries)) == expected


class TestLifecycle:
    def test_served_router_is_freed_by_reference_counting(self, network):
        """With the collector off, dropping a router that served a
        stream through an outage, a repair and re-replication frees it
        at once, and a collection then finds nothing of it: no query
        state, leg, outcome or per-shard server.  (The shard caches are
        warmed first, so the stream runs no machine simulation.)"""
        config = FleetConfig(
            num_regions=3, num_shards=3, replication_factor=2,
            queue_capacity=4, shard_deadline_us=2_000.0,
            region_schedule=RegionSchedule((
                RegionEvent(2_500.0, "region-fail", 0),
                RegionEvent(20_000.0, "region-repair", 0),
            )),
            rebalance_setup_us=500.0,
        )
        queries = make_queries(
            [i // 2 for i in range(80)],
            [None if i % 3 else 2 for i in range(80)],
            list(range(80)),
            grid_us=500.0,
        )
        first = FleetRouter(network, config)
        first.serve(queries)
        gc.collect()
        gc.disable()
        try:
            router = warm(FleetRouter(network, config), first)
            report = router.serve(queries)
            assert report.rebuilds_completed > 0
            assert len({o.status for o in report.outcomes}) >= 3
            ref = weakref.ref(router)
            del router, report
            assert ref() is None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = [type(o).__name__ for o in gc.garbage]
            assert not [name for name in left if name in (
                _FleetQueryState.__name__, _Leg.__name__,
                FleetOutcome.__name__,
            )]
            assert left == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
