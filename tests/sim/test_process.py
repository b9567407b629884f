"""Process semantics: yielding, return values, failures, interrupts."""

from __future__ import annotations

import pytest

from repro.sim import Environment, Interrupt, InvalidEventUsage


def test_process_requires_generator(env):
    def not_a_generator(env):
        return 42

    with pytest.raises(TypeError, match="generator"):
        env.process(not_a_generator(env))


def test_return_value_becomes_event_value(env):
    def proc(env):
        yield env.timeout(1)
        return "result"

    p = env.process(proc(env))
    env.run()
    assert p.value == "result"


def test_yield_receives_event_value(env):
    got = []

    def proc(env):
        got.append((yield env.timeout(2, value="tick")))

    env.process(proc(env))
    env.run()
    assert got == ["tick"]


def test_process_waits_on_another_process(env):
    def inner(env):
        yield env.timeout(3)
        return 7

    def outer(env):
        value = yield env.process(inner(env))
        return value * 2

    p = env.process(outer(env))
    env.run()
    assert p.value == 14 and env.now == 3


def test_yield_already_processed_event_continues_synchronously(env):
    t = env.timeout(1, value="x")
    env.run()

    def proc(env):
        v = yield t  # already processed: resumes without advancing time
        return v

    p = env.process(proc(env))
    env.run()
    assert p.value == "x" and env.now == 1


def test_yield_non_event_raises():
    # Numbers are delays (``yield 42`` sleeps); a bool is not one.
    for value in ("42", True, None, [1.0]):
        env = Environment()

        def proc(env):
            yield value

        env.process(proc(env))
        with pytest.raises(InvalidEventUsage, match="not an Event"):
            env.run()


def test_exception_in_process_fails_its_event(env):
    class Boom(Exception):
        pass

    def failer(env):
        yield env.timeout(1)
        raise Boom()

    def watcher(env, target):
        try:
            yield target
        except Boom:
            return "caught"

    target = env.process(failer(env))
    w = env.process(watcher(env, target))
    env.run()
    assert w.value == "caught"


def test_is_alive_transitions(env):
    def proc(env):
        yield env.timeout(1)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_interrupt_raises_inside_process(env):
    caught = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as i:
            caught.append(i.cause)
        return "done"

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run(until=victim)
    assert caught == ["wake up"]
    assert victim.value == "done"
    assert env.now == 5
    # The abandoned 100-unit timeout stays queued (simpy semantics);
    # a full drain advances the clock past it harmlessly.
    env.run()
    assert env.now == 100


def test_interrupt_finished_process_rejected(env):
    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(InvalidEventUsage):
        p.interrupt()


def test_interrupted_process_can_rewait(env):
    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            yield env.timeout(2)  # resumes waiting after interrupt
        return env.now

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == 3


def test_process_name_from_function(env):
    def my_worker(env):
        yield env.timeout(0)

    p = env.process(my_worker(env))
    assert p.name == "my_worker"


def test_process_name_override(env):
    def my_worker(env):
        yield env.timeout(0)

    p = env.process(my_worker(env), name="custom")
    assert p.name == "custom"


def test_target_tracks_current_wait(env):
    def proc(env, t):
        yield t

    t = env.timeout(5)
    p = env.process(proc(env, t))
    env.run(until=1)
    assert p.target is t


def test_many_processes_share_clock_deterministically(env):
    log = []

    def worker(env, wid, delay):
        yield env.timeout(delay)
        log.append(wid)

    for wid, delay in enumerate([3, 1, 2, 1, 3]):
        env.process(worker(env, wid, delay))
    env.run()
    # Equal delays resolve in creation order.
    assert log == [1, 3, 2, 0, 4]
