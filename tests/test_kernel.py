"""Tests for the discrete-event kernel."""

import heapq
import itertools

import pytest

from repro.sim import Event, EventKernel


def test_events_run_in_time_order():
    kernel = EventKernel()
    seen = []
    kernel.schedule(3.0, seen.append, "c")
    kernel.schedule(1.0, seen.append, "a")
    kernel.schedule(2.0, seen.append, "b")
    kernel.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_fifo():
    kernel = EventKernel()
    seen = []
    for label in "abcde":
        kernel.schedule(1.0, seen.append, label)
    kernel.run()
    assert seen == list("abcde")


def test_now_advances_to_event_time():
    kernel = EventKernel()
    times = []
    kernel.schedule(2.5, lambda: times.append(kernel.now))
    kernel.run()
    assert times == [2.5]
    assert kernel.now == 2.5


def test_nested_scheduling():
    kernel = EventKernel()
    seen = []

    def outer():
        seen.append(("outer", kernel.now))
        kernel.schedule(1.0, inner)

    def inner():
        seen.append(("inner", kernel.now))

    kernel.schedule(1.0, outer)
    kernel.run()
    assert seen == [("outer", 1.0), ("inner", 2.0)]


def test_cancelled_event_does_not_fire():
    kernel = EventKernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "x")
    event.cancel()
    kernel.run()
    assert seen == []
    assert kernel.events_executed == 0


def test_cancel_is_idempotent():
    kernel = EventKernel()
    event = kernel.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    kernel.run()


def test_run_until_stops_before_later_events():
    kernel = EventKernel()
    seen = []
    kernel.schedule(1.0, seen.append, "a")
    kernel.schedule(5.0, seen.append, "b")
    kernel.run(until=2.0)
    assert seen == ["a"]
    assert kernel.now == 2.0
    kernel.run()
    assert seen == ["a", "b"]


def test_run_until_advances_time_when_heap_empty():
    kernel = EventKernel()
    kernel.run(until=10.0)
    assert kernel.now == 10.0


def test_negative_delay_rejected():
    kernel = EventKernel()
    with pytest.raises(ValueError):
        kernel.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    kernel = EventKernel()
    kernel.schedule(5.0, lambda: None)
    kernel.run()
    with pytest.raises(ValueError):
        kernel.schedule_at(1.0, lambda: None)


def test_schedule_at_absolute_time():
    kernel = EventKernel()
    times = []
    kernel.schedule_at(4.0, lambda: times.append(kernel.now))
    kernel.run()
    assert times == [4.0]


def test_max_events_guard_raises():
    kernel = EventKernel()

    def loop():
        kernel.schedule(1.0, loop)

    kernel.schedule(1.0, loop)
    with pytest.raises(RuntimeError, match="max_events"):
        kernel.run(max_events=10)


def test_max_events_is_resumable():
    """The guard is checked before the pop, so the offending event stays
    queued and the kernel can be resumed with a larger budget."""
    kernel = EventKernel()
    order = []
    for i in range(5):
        kernel.schedule(float(i + 1), order.append, i)
    with pytest.raises(RuntimeError, match="max_events"):
        kernel.run(max_events=3)
    assert order == [0, 1, 2]
    assert kernel.pending == 2
    kernel.run()
    assert order == [0, 1, 2, 3, 4]
    assert kernel.now == 5.0


def test_events_executed_counter():
    kernel = EventKernel()
    for _ in range(5):
        kernel.schedule(1.0, lambda: None)
    kernel.run()
    assert kernel.events_executed == 5


def test_pending_counts_queued_events():
    kernel = EventKernel()
    kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    assert kernel.pending == 2
    kernel.run()
    assert kernel.pending == 0


# ----------------------------------------------------------------------
# cancellation safety for crashed nodes' timers
# ----------------------------------------------------------------------
def test_cancel_after_fire_is_noop():
    kernel = EventKernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "a")
    kernel.run()
    assert event.fired and seen == ["a"]
    event.cancel()  # blanket-cancel of a crashed node's timers hits these
    assert seen == ["a"]
    assert "fired" in repr(event)


def test_double_cancel_is_safe():
    kernel = EventKernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "a")
    event.cancel()
    event.cancel()
    kernel.run()
    assert seen == []
    assert not event.fired
    assert "cancelled" in repr(event)


def test_kernel_resumes_across_fault_events():
    """run(until=...) then more scheduling then run() — the pattern a
    fault injector interleaves with a protocol."""
    kernel = EventKernel()
    seen = []
    kernel.schedule(1.0, seen.append, "protocol-1")
    kernel.schedule(5.0, seen.append, "protocol-2")
    kernel.run(until=2.0)
    assert seen == ["protocol-1"]
    assert kernel.now == 2.0
    kernel.schedule(1.0, seen.append, "fault")  # lands at t=3, before p-2
    kernel.run()
    assert seen == ["protocol-1", "fault", "protocol-2"]
    assert kernel.now == 5.0


# ----------------------------------------------------------------------
# timestamp buckets: (time, seq) order across schedule, post and cancel
# ----------------------------------------------------------------------
def test_wheel_time_order_and_fifo():
    kernel = EventKernel()
    seen = []
    kernel.schedule(3.0, seen.append, "c")
    kernel.schedule(1.0, seen.append, "a1")
    kernel.post(1.0, seen.append, "a2")
    kernel.schedule(2.0, seen.append, "b")
    kernel.post(1.0, seen.append, "a3")
    kernel.run()
    assert seen == ["a1", "a2", "a3", "b", "c"]
    assert kernel.events_executed == 5
    assert kernel.pending == 0


def test_wheel_interleaved_schedule_and_post_share_fifo():
    kernel = EventKernel()
    seen = []

    def reschedule(label):
        seen.append(label)
        if label == "x":
            kernel.post(0.0, seen.append, "nested")

    kernel.post(1.0, reschedule, "x")
    kernel.schedule(1.0, seen.append, "y")
    kernel.run()
    # The nested 0-delay post lands at the same timestamp, after "y".
    assert seen == ["x", "y", "nested"]


def test_wheel_cancellation_and_pending():
    kernel = EventKernel()
    seen = []
    event = kernel.schedule(1.0, seen.append, "dead")
    kernel.schedule(1.0, seen.append, "live")
    event.cancel()
    assert kernel.pending == 2  # cancelled entries stay queued until reaped
    kernel.run()
    assert seen == ["live"]
    assert kernel.events_executed == 1
    assert kernel.pending == 0


def test_wheel_until_stops_before_later_events():
    kernel = EventKernel()
    seen = []
    kernel.schedule(1.0, seen.append, "a")
    kernel.schedule(5.0, seen.append, "b")
    assert kernel.run(until=2.5) == 2.5
    assert seen == ["a"]
    assert kernel.pending == 1
    kernel.run()
    assert seen == ["a", "b"]


def test_wheel_max_events_resumable():
    """max_events is checked before the pop: the offending event stays
    queued and the kernel resumes cleanly with a larger budget."""
    kernel = EventKernel()
    seen = []
    for label in "abcde":
        kernel.schedule(1.0, seen.append, label)
    with pytest.raises(RuntimeError, match="max_events"):
        kernel.run(max_events=2)
    assert seen == ["a", "b"]
    assert kernel.pending == 3
    kernel.run()
    assert seen == list("abcde")
    assert kernel.events_executed == 5


class _HeapReference:
    """The ordering contract spelled out: one heap of ``(time, seq)``
    entries, cancelled entries skipped when they reach the head."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()

    def schedule(self, delay, callback, *args):
        event = Event(self.now + delay, callback, args)
        heapq.heappush(self._heap, (event.time, next(self._seq), event))
        return event

    post = schedule

    def run(self):
        while self._heap:
            time, _seq, event = heapq.heappop(self._heap)
            if not event.cancelled:
                self.now = time
                event.callback(*event.args)


def test_wheel_matches_heap_on_random_workload():
    """A pseudo-random schedule/post/cancel workload executes in the same
    order on the bucket kernel as on the heap reference — the (time, seq)
    contract end to end."""
    import random

    def drive(kernel):
        rng = random.Random(1234)
        seen = []
        handles = []

        def fire(tag):
            seen.append((round(kernel.now, 6), tag))
            if rng.random() < 0.3:
                kernel.post(rng.choice([0.0, 1.0, 1.0, 2.5]), fire, f"{tag}+")

        for k in range(60):
            delay = rng.choice([0.0, 1.0, 1.0, 1.0, 2.0, 7.25])
            if rng.random() < 0.5:
                handles.append(kernel.schedule(delay, fire, f"s{k}"))
            else:
                kernel.post(delay, fire, f"p{k}")
        for handle in handles[::3]:
            handle.cancel()
        kernel.run()
        return seen

    assert drive(EventKernel()) == drive(_HeapReference())


def test_wheel_pushes_counter_monotone():
    kernel = EventKernel()
    assert kernel.pushes == 0
    kernel.post(1.0, lambda: None)
    kernel.schedule(1.0, lambda: None)
    assert kernel.pushes == 2
    kernel.run()
    assert kernel.pushes == 2  # firing does not push
