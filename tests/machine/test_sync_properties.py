"""Property-based tests for the tiered synchronization protocol.

The unit tests in ``test_sync.py`` pin individual behaviours; these
hypothesis properties check protocol invariants over arbitrary
schedules: level balances never go negative, ``all_complete`` is
exactly "SIGI high and every level balanced", and protocol violations
name the offending PE and level.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import SyncError, TieredSynchronizer

NUM_PES = 4
NUM_LEVELS = 3

#: One PE/level pair, the currency of the protocol.
pe_levels = st.tuples(
    st.integers(0, NUM_PES - 1), st.integers(0, NUM_LEVELS - 1)
)


class TestBalanceInvariants:
    @given(events=st.lists(
        st.tuples(pe_levels, st.booleans()), max_size=80,
    ))
    @settings(max_examples=100, deadline=None)
    def test_balance_never_negative(self, events):
        """Whatever interleaving of produce/consume the machine
        generates, an over-consumption raises instead of driving a
        level balance negative — afterwards every balance is >= 0."""
        sync = TieredSynchronizer(num_pes=NUM_PES)
        for (pe, level), is_produce in events:
            if is_produce:
                sync.produce(pe, level)
            else:
                try:
                    sync.consume(pe, level)
                except SyncError:
                    pass  # rejected, state must stay consistent
        for level in range(NUM_LEVELS):
            assert sync.level_balance(level) >= 0

    @given(events=st.lists(pe_levels, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_produce_then_consume_balances_every_level(self, events):
        sync = TieredSynchronizer(num_pes=NUM_PES)
        for pe, level in events:
            sync.produce(pe, level)
        # Markers migrate: consume on a different PE than produced.
        for pe, level in events:
            sync.consume((pe + 1) % NUM_PES, level)
        assert sync.all_complete()
        for level in range(NUM_LEVELS):
            assert sync.level_balance(level) == 0


class TestSigiConsistency:
    @given(
        events=st.lists(pe_levels, max_size=40),
        busy_pes=st.sets(st.integers(0, NUM_PES - 1)),
    )
    @settings(max_examples=100, deadline=None)
    def test_all_complete_iff_sigi_and_balanced(self, events, busy_pes):
        """``all_complete`` must be exactly SIGI AND all-balanced —
        never true while a PE is busy, always true once counters are
        balanced and every idle line is high."""
        sync = TieredSynchronizer(num_pes=NUM_PES)
        for pe, level in events:
            sync.produce(pe, level)
            sync.consume(pe, level)
        for pe in busy_pes:
            sync.set_idle(pe, False)
        assert sync.sigi == (len(busy_pes) == 0)
        assert sync.all_complete() == sync.sigi  # balances all zero
        for level in range(NUM_LEVELS):
            assert sync.level_complete(level) == sync.sigi

    @given(events=st.lists(pe_levels, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_unbalanced_level_blocks_all_complete(self, events):
        sync = TieredSynchronizer(num_pes=NUM_PES)
        for pe, level in events:
            sync.produce(pe, level)
        assert not sync.all_complete()  # markers still in transit
        assert sync.sigi  # ...even though every PE is idle


class TestErrorMessages:
    @given(pe=st.integers(0, NUM_PES - 1), level=st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_overconsumption_names_pe_and_level(self, pe, level):
        sync = TieredSynchronizer(num_pes=NUM_PES)
        with pytest.raises(SyncError) as excinfo:
            sync.consume(pe, level)
        message = str(excinfo.value)
        assert f"pe {pe}" in message
        assert f"level {level}" in message

    @given(
        pe=st.integers(NUM_PES, NUM_PES + 10),
        level=st.integers(0, 5),
        is_produce=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_pe_names_pe_and_level(
        self, pe, level, is_produce
    ):
        sync = TieredSynchronizer(num_pes=NUM_PES)
        action = sync.produce if is_produce else sync.consume
        with pytest.raises(SyncError) as excinfo:
            action(pe, level)
        message = str(excinfo.value)
        assert f"pe {pe}" in message
        assert f"level {level}" in message
        assert f"[0, {NUM_PES})" in message


class _SumOverPes:
    """Reference model: the per-PE, per-level counters the hardware
    keeps, with every barrier decision taken from their sum."""

    def __init__(self, num_pes):
        self.num_pes = num_pes
        self.counters = {}

    def balance(self, level):
        return sum(self.counters.get(level, ()))

    def apply(self, op, pe, level, count):
        """Apply one report; returns False where the protocol must
        reject it (and leaves the counters untouched)."""
        if op == "reset":
            if self.balance(level) != 0:
                return False
            self.counters.pop(level, None)
            return True
        if not 0 <= pe < self.num_pes:
            return False
        if op == "consume" and self.balance(level) - count < 0:
            return False
        row = self.counters.setdefault(level, [0] * self.num_pes)
        row[pe] += count if op == "produce" else -count
        return True


def _report(sync, op, pe, level, count):
    if op == "reset":
        sync.reset_level(level)
    else:
        getattr(sync, op)(pe, level, count)


class TestRunningBalanceMatchesSumOverPes:
    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(("produce", "consume", "reset")),
            st.integers(-1, NUM_PES),
            st.integers(0, NUM_LEVELS - 1),
            st.integers(1, 3),
        ),
        max_size=120,
    ))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_reference_after_every_report(self, ops):
        """Over random produce/consume/reset sequences the O(1) running
        balance reports exactly what summing per-PE counters would, and
        a rejected report raises and changes nothing."""
        sync = TieredSynchronizer(num_pes=NUM_PES)
        model = _SumOverPes(NUM_PES)
        for op, pe, level, count in ops:
            accepted = model.apply(op, pe, level, count)
            before = [sync.level_balance(lv) for lv in range(NUM_LEVELS)]
            if accepted:
                _report(sync, op, pe, level, count)
            else:
                with pytest.raises(SyncError):
                    _report(sync, op, pe, level, count)
                after = [sync.level_balance(lv) for lv in range(NUM_LEVELS)]
                assert after == before
            for lv in range(NUM_LEVELS):
                assert sync.level_balance(lv) == model.balance(lv)
            assert sync.active_levels() == sorted(
                lv for lv in model.counters if model.balance(lv) != 0
            )
            assert sync.all_complete() == all(
                model.balance(lv) == 0 for lv in model.counters
            )
