"""Environment: clock, queue ordering, run() termination modes."""

from __future__ import annotations

import math

import pytest

from repro.sim import EmptySchedule, Environment

NAN = float("nan")


def test_initial_time_defaults_to_zero(env):
    assert env.now == 0.0


def test_initial_time_configurable():
    assert Environment(initial_time=5.5).now == 5.5


def test_peek_empty_queue_is_inf(env):
    assert env.peek() == float("inf")


def test_peek_returns_next_event_time(env):
    env.timeout(3.0)
    env.timeout(1.5)
    assert env.peek() == 1.5


def test_len_counts_scheduled_events(env):
    env.timeout(1)
    env.timeout(2)
    assert len(env) == 2


def test_step_advances_clock(env):
    env.timeout(2.0)
    env.step()
    assert env.now == 2.0


def test_step_on_empty_queue_raises(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_number_stops_clock(env):
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_number_excludes_events_at_boundary(env):
    fired = []
    env.timeout(4.0).callbacks.append(lambda e: fired.append(env.now))
    env.run(until=4.0)
    assert fired == []  # boundary events are not processed (simpy semantics)


def test_run_until_past_time_raises(env):
    env.timeout(5)
    env.run(until=3)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_until_event_returns_its_value(env):
    t = env.timeout(2.0, value="payload")
    assert env.run(until=t) == "payload"
    assert env.now == 2.0


def test_run_until_already_processed_event_returns_immediately(env):
    t = env.timeout(1.0, value="v")
    env.run()
    assert env.run(until=t) == "v"


def test_run_drains_queue_when_no_until(env):
    env.timeout(1)
    env.timeout(7)
    env.run()
    assert env.now == 7.0
    assert len(env) == 0


def test_run_until_event_never_triggering_raises(env):
    pending = env.event()
    env.timeout(1)
    with pytest.raises(RuntimeError, match="exhausted"):
        env.run(until=pending)


def test_same_time_events_fire_in_scheduling_order(env):
    order = []
    for tag in ("a", "b", "c"):
        env.timeout(1.0, value=tag).callbacks.append(
            lambda e: order.append(e.value)
        )
    env.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_schedule_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=-0.5)


# NaN compares false with everything: a `delay < 0` test would let it
# in, and the heap would pop a NaN time out of order.


def test_nan_delay_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(NAN)
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=NAN)
    assert len(env) == 0


def test_nan_delay_cannot_run_the_clock_backwards(env):
    clock = []

    def waiter(env, delay):
        yield env.timeout(delay)
        clock.append(env.now)

    for delay in (5.0, NAN, 1.0):
        env.process(waiter(env, delay))
    with pytest.raises(ValueError):
        env.run()
    assert not any(math.isnan(t) for t in clock)
    assert clock == sorted(clock)


def test_run_until_nan_rejected(env):
    env.timeout(3.0)
    with pytest.raises(ValueError):
        env.run(until=NAN)
    assert env.now == 0.0
    env.run()
    assert env.now == 3.0


def test_failed_event_without_handler_crashes_run(env):
    class Boom(Exception):
        pass

    def proc(env):
        yield env.timeout(1)
        raise Boom("inside process")

    env.process(proc(env))
    with pytest.raises(Boom):
        env.run()


def test_run_until_failed_event_reraises(env):
    class Boom(Exception):
        pass

    def proc(env):
        yield env.timeout(1)
        raise Boom()

    p = env.process(proc(env))
    with pytest.raises(Boom):
        env.run(until=p)


def test_clock_is_monotonic_across_many_events(env):
    times = []

    def proc(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    for d in (5, 1, 3, 2, 4):
        env.process(proc(env, d))
    env.run()
    assert times == sorted(times) == [1, 2, 3, 4, 5]


def test_active_process_visible_during_execution(env):
    observed = []

    def proc(env):
        observed.append(env.active_process)
        yield env.timeout(0)

    p = env.process(proc(env))
    env.run()
    assert observed == [p]
    assert env.active_process is None
