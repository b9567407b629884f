"""Property-based tests (hypothesis) on the simulation kernel."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.scheduling import RoundRobinSendQueue
from repro.sim import Environment, Interrupt, Resource, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=40))
def test_clock_visits_events_in_sorted_order(delays):
    env = Environment()
    seen = []
    for d in delays:
        env.timeout(d).callbacks.append(lambda e, d=d: seen.append(env.now))
    env.run()
    assert seen == sorted(seen)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=20))
def test_processes_accumulate_delays_exactly(delays):
    env = Environment()

    def worker(env):
        for d in delays:
            yield env.timeout(d)
        return env.now

    p = env.process(worker(env))
    env.run()
    assert p.value == sum(delays)


@settings(max_examples=50)
@given(
    capacity=st.integers(min_value=1, max_value=5),
    hold_times=st.lists(st.floats(min_value=0.1, max_value=10, allow_nan=False), min_size=1, max_size=25),
)
def test_resource_never_exceeds_capacity(capacity, hold_times):
    env = Environment()
    res = Resource(env, capacity=capacity)
    overage = []

    def worker(env, hold):
        with res.request() as req:
            yield req
            if res.count > capacity:
                overage.append(res.count)
            yield env.timeout(hold)

    for hold in hold_times:
        env.process(worker(env, hold))
    env.run()
    assert not overage
    assert res.count == 0 and res.queue_length == 0


@settings(max_examples=50)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    n_jobs=st.integers(min_value=1, max_value=20),
)
def test_unit_hold_resource_finishes_in_ceil_batches(capacity, n_jobs):
    # n identical unit-time jobs through a c-slot resource take
    # ceil(n / c) time units.
    env = Environment()
    res = Resource(env, capacity=capacity)

    def worker(env):
        with res.request() as req:
            yield req
            yield env.timeout(1.0)

    for _ in range(n_jobs):
        env.process(worker(env))
    env.run()
    assert env.now == -(-n_jobs // capacity) * 1.0


@settings(max_examples=50)
@given(items=st.lists(st.integers(), min_size=0, max_size=30))
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            yield env.timeout(0.5)
            yield store.put(item)

    def consumer(env):
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


@settings(max_examples=30)
@given(
    n_producers=st.integers(min_value=1, max_value=5),
    items_each=st.integers(min_value=1, max_value=10),
    capacity=st.integers(min_value=1, max_value=3),
)
def test_bounded_store_conserves_items(n_producers, items_each, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    total = n_producers * items_each
    received = []

    def producer(env, pid):
        for i in range(items_each):
            yield store.put((pid, i))
            yield env.timeout(0.1)

    def consumer(env):
        for _ in range(total):
            received.append((yield store.get()))

    for pid in range(n_producers):
        env.process(producer(env, pid))
    env.process(consumer(env))
    env.run()
    assert len(received) == total
    assert len(set(received)) == total  # no duplication, no loss


class _CountingEnvironment(Environment):
    """Counts the events that enter the queue."""

    def __init__(self) -> None:
        super().__init__()
        self.scheduled = 0

    def schedule(self, event, *args, **kwargs) -> None:
        self.scheduled += 1
        super().schedule(event, *args, **kwargs)


def _run_queue_program(queue_cls, producers, consumers, nowait):
    """Run one producer/consumer program; ``(log, scheduled, puts)``.

    Producers enqueue fire-and-forget, either through the event ``put``
    (its event is never yielded) or through ``put_nowait``.  Every
    process resumption appends ``(time, label)`` to the log.
    """
    env = _CountingEnvironment()
    queue = queue_cls(env)
    enqueue = queue.put_nowait if nowait else queue.put
    log = []
    puts = 0

    def producer(pid, steps):
        nonlocal puts
        for step, (delay, count, msg_id) in enumerate(steps):
            yield env.timeout(delay)
            log.append((env.now, ("woke", pid, step)))
            for j in range(count):
                # A message id, as the round-robin queue classifies items.
                message = SimpleNamespace(msg_id=msg_id)
                enqueue(SimpleNamespace(message=message, label=(pid, step, j)))
                puts += 1

    def consumer(cid, delays):
        for delay in delays:
            item = yield queue.get()
            log.append((env.now, ("got", cid, item.label)))
            yield env.timeout(delay)
            log.append((env.now, ("slept", cid)))

    for pid, steps in enumerate(producers):
        env.process(producer(pid, steps))
    for cid, delays in enumerate(consumers):
        env.process(consumer(cid, delays))
    env.run()
    return log, env.scheduled, puts


# Integer delays so that many events tie on time and sequence order decides.
_delay = st.integers(min_value=0, max_value=3)


@pytest.mark.parametrize("queue_cls", [Store, RoundRobinSendQueue])
@settings(max_examples=60, deadline=None)
@given(
    producers=st.lists(
        st.lists(
            st.tuples(_delay, st.integers(min_value=1, max_value=3), st.integers(0, 2)),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=4,
    ),
    consumers=st.lists(st.lists(_delay, min_size=1, max_size=8), min_size=1, max_size=3),
)
def test_dropping_unwaited_put_events_keeps_the_order(queue_cls, producers, consumers):
    # An event nobody waits on has no callbacks.  Not scheduling it
    # leaves every other event's relative (time, priority, sequence)
    # order alone, so every process wakes at the same time, in the same
    # order, with the same item, one event fewer per put.
    log, scheduled, puts = _run_queue_program(queue_cls, producers, consumers, nowait=False)
    log_nowait, scheduled_nowait, puts_nowait = _run_queue_program(
        queue_cls, producers, consumers, nowait=True
    )
    assert log_nowait == log
    assert puts_nowait == puts
    assert scheduled - scheduled_nowait == puts


def _run_sleep_program(sleepers, pairs, users, interrupts, as_timeout):
    """Run one program of sleepers, producer/consumer pairs and resource
    users; ``(log, scheduled)``.

    Every sleep is ``yield env.timeout(d)`` when ``as_timeout`` and
    ``yield d`` otherwise.  Every resumption appends ``(time, label,
    value)`` to the log, where ``value`` is what the ``yield`` returned
    or the text of what it raised (an interrupt, a refused delay).
    """
    env = _CountingEnvironment()
    log = []

    def sleep(delay):
        return env.timeout(delay) if as_timeout else delay

    def sleeper(sid, delays):
        for step, delay in enumerate(delays):
            try:
                value = yield sleep(delay)
            except (Interrupt, ValueError) as exc:
                value = f"{type(exc).__name__}: {exc}"
            log.append((env.now, ("sleeper", sid, step), value))

    def producer(pid, store, delays):
        for step, delay in enumerate(delays):
            log.append((env.now, ("put", pid, step), (yield sleep(delay))))
            store.put_nowait((pid, step))

    def consumer(pid, store, delays):
        for delay in delays:
            item = yield store.get()
            log.append((env.now, ("got", pid), item))
            log.append((env.now, ("digested", pid), (yield sleep(delay))))

    def user(uid, resource, start, hold):
        log.append((env.now, ("arrived", uid), (yield sleep(start))))
        with resource.request() as request:
            yield request
            log.append((env.now, ("holds", uid), (yield sleep(hold))))

    def interrupter(victim, at, cause):
        yield sleep(at)
        if victim.is_alive and victim.target is not None:
            victim.interrupt(cause)

    processes = [env.process(sleeper(sid, delays)) for sid, delays in enumerate(sleepers)]
    for pid, (produce, digest) in enumerate(pairs):
        store = Store(env)
        env.process(producer(pid, store, produce))
        env.process(consumer(pid, store, digest))
    resource = Resource(env, capacity=2)
    for uid, (start, hold) in enumerate(users):
        env.process(user(uid, resource, start, hold))
    for victim, at in interrupts:
        if victim < len(processes):
            env.process(interrupter(processes[victim], at, f"at {at}"))
    env.run()
    return log, env.scheduled


#: Float and integer delays, zero included; many tie on time.
_sleep = st.one_of(
    st.integers(0, 4), st.sampled_from([0.0, 0.5, 1.5]), st.floats(0, 5, allow_nan=False)
)
#: A sleeper's delays may also be refused: negative or NaN.
_any_sleep = st.one_of(_sleep, st.sampled_from([-1, -0.5, float("nan")]))


@settings(max_examples=150, deadline=None)
@given(
    sleepers=st.lists(st.lists(_any_sleep, min_size=1, max_size=6), max_size=4),
    pairs=st.lists(
        st.tuples(st.lists(_sleep, max_size=5), st.lists(_sleep, max_size=5)), max_size=2
    ),
    users=st.lists(st.tuples(_sleep, _sleep), max_size=5),
    interrupts=st.lists(st.tuples(st.integers(0, 3), _sleep), max_size=3),
)
def test_sleeping_by_yielding_a_delay_is_a_timeout(sleepers, pairs, users, interrupts):
    # A yielded delay schedules the process's own wake event at the
    # sequence number Timeout(env, d) takes just before its yield, so
    # both programs wake every process at the same time, in the same
    # order, with the same value, through the same number of events.
    # An interrupted sleep leaves its entry queued, as an abandoned
    # Timeout does; the log equality shows it never wakes the sleeper.
    with_timeouts = _run_sleep_program(sleepers, pairs, users, interrupts, as_timeout=True)
    with_delays = _run_sleep_program(sleepers, pairs, users, interrupts, as_timeout=False)
    assert with_delays == with_timeouts


def test_interrupted_sleeper_is_not_woken_by_its_abandoned_entry():
    env = Environment()
    woke = []

    def sleeper():
        try:
            yield 10
        except Interrupt:
            woke.append(("interrupted", env.now))
        yield 20  # re-arms a fresh wake event; the t=10 entry is stale
        woke.append(("slept", env.now))

    def interrupter(victim):
        yield 3
        victim.interrupt()

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert woke == [("interrupted", 3), ("slept", 23)]
    assert env.now == 23
