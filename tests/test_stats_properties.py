"""Property-based tests: MessageStats counter conservation.

Hypothesis drives arbitrary interleavings of the full MessageStats
surface — charge, record, record_drop, snapshot, diff, reset — and
asserts the accounting identities the verification oracle relies on:
running totals always equal the per-kind and per-category counter sums,
snapshots are faithful copies, and diffs of successive snapshots are
themselves conserved.  ``derandomize=True`` keeps the corpus fixed so CI
runs are reproducible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.messages import Message
from repro.sim.stats import MessageStats
from repro.verify import check_stats_conservation

KINDS = ("join", "newcluster", "ack1", "ack2", "probe", "update")
CATEGORIES = ("clustering", "repair", "query", "maintenance")
REASONS = ("dead_destination", "dead_source", "link_down", "no_route")

#: One abstract operation against the stats object.
_operations = st.one_of(
    st.tuples(
        st.just("charge"),
        st.sampled_from(KINDS),
        st.sampled_from(CATEGORIES),
        st.integers(min_value=1, max_value=8),   # values
        st.integers(min_value=1, max_value=12),  # hops
    ),
    st.tuples(st.just("drop"), st.sampled_from(KINDS), st.sampled_from(REASONS)),
    st.tuples(st.just("reset")),
)


def _conserved(stats: MessageStats) -> None:
    assert check_stats_conservation(stats) == [], check_stats_conservation(stats)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(_operations, max_size=40))
def test_totals_equal_counter_sums_under_any_op_sequence(operations):
    """The running totals are conserved at every step, not just at the end."""
    stats = MessageStats()
    for operation in operations:
        if operation[0] == "charge":
            _, kind, category, values, hops = operation
            stats.charge(kind, category, values, hops=hops)
        elif operation[0] == "drop":
            _, kind, reason = operation
            stats.record_drop(
                Message(src=0, dst=1, kind=kind, category=CATEGORIES[0]), reason
            )
        else:
            stats.reset()
        _conserved(stats)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.sampled_from(CATEGORIES),
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=1, max_value=5),
        ),
        max_size=20,
    ),
    st.integers(min_value=0, max_value=20),
)
def test_snapshot_and_diff_are_conserved(charges, cut):
    """snapshot() copies faithfully; diff() of a later state is conserved
    and adds back up to the later totals."""
    stats = MessageStats()
    earlier = None
    for index, (kind, category, values, hops) in enumerate(charges):
        if index == cut:
            earlier = stats.snapshot()
            _conserved(earlier)
        stats.charge(kind, category, values, hops=hops)
    if earlier is None:
        earlier = stats.snapshot()
    delta = stats.diff(earlier)
    _conserved(delta)
    assert earlier.total_values + delta.total_values == stats.total_values
    assert earlier.total_packets + delta.total_packets == stats.total_packets


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.data())
def test_snapshot_is_independent_of_source(data):
    """Mutating the source after snapshot() never changes the snapshot."""
    stats = MessageStats()
    stats.charge("join", "clustering", 2, hops=2)
    frozen = stats.snapshot()
    before = (frozen.total_packets, frozen.total_values)
    kind = data.draw(st.sampled_from(KINDS))
    stats.charge(kind, "repair", 1, hops=3)
    assert (frozen.total_packets, frozen.total_values) == before
    _conserved(frozen)
    _conserved(stats)


# ----------------------------------------------------------------------
# charge over n hops == n single-hop charges; totals maintained in O(1)
# ----------------------------------------------------------------------
@given(
    st.sampled_from(KINDS),
    st.sampled_from(CATEGORIES),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=20),
)
@settings(derandomize=True, max_examples=60)
def test_charge_over_hops_equals_repeated_single_hop_charges(kind, category, values, count):
    """The identity the vectorised ELink rounds charge a cohort by."""
    batched = MessageStats()
    batched.charge(kind, category, values, hops=count)
    looped = MessageStats()
    for _ in range(count):
        looped.charge(kind, category, values)
    assert batched.snapshot() == looped.snapshot()
    assert batched.total_packets == looped.total_packets
    assert batched.total_values == looped.total_values
    check_stats_conservation(batched)


def test_charge_validates_inputs():
    import pytest

    stats = MessageStats()
    with pytest.raises(ValueError):
        stats.charge("join", "clustering", 0, hops=3)
    with pytest.raises(ValueError):
        stats.charge("join", "clustering", 2, hops=0)
    # failed validation must not have charged anything
    assert stats.total_packets == 0
    assert stats.total_values == 0


def test_snapshot_and_diff_carry_totals_without_rederiving():
    stats = MessageStats()
    stats.charge("join", "clustering", 4, hops=3)
    stats.charge("probe", "repair", 1, hops=5)
    snap = stats.snapshot()
    assert snap.total_packets == stats.total_packets == 8
    assert snap.total_values == stats.total_values == 17
    stats.charge("update", "maintenance", 2)
    delta = stats.snapshot().diff(snap)
    assert delta.total_packets == 1
    assert delta.total_values == 2
    check_stats_conservation(delta)
