"""Store and FilterStore semantics."""

from __future__ import annotations

import pytest

from repro.sim import FilterStore, Store, StoreFull


def test_capacity_must_be_positive(env):
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_put_then_get_fifo(env):
    s = Store(env)
    got = []

    def proc(env):
        s.put("a")
        s.put("b")
        got.append((yield s.get()))
        got.append((yield s.get()))

    env.process(proc(env))
    env.run()
    assert got == ["a", "b"]


def test_get_blocks_until_put(env):
    s = Store(env)
    got = []

    def consumer(env):
        item = yield s.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(4)
        s.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(4, "late")]


def test_bounded_put_blocks_until_space(env):
    s = Store(env, capacity=1)
    log = []

    def producer(env):
        yield s.put("one")
        log.append((env.now, "put one"))
        yield s.put("two")
        log.append((env.now, "put two"))

    def consumer(env):
        yield env.timeout(5)
        yield s.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [(0, "put one"), (5, "put two")]


def test_size_tracks_contents(env):
    s = Store(env)
    s.put(1)
    s.put(2)
    env.run()
    assert s.size == 2


def test_multiple_consumers_served_in_request_order(env):
    s = Store(env)
    got = []

    def consumer(env, tag):
        got.append((tag, (yield s.get())))

    env.process(consumer(env, "c1"))
    env.process(consumer(env, "c2"))

    def producer(env):
        yield env.timeout(1)
        s.put("x")
        s.put("y")

    env.process(producer(env))
    env.run()
    assert got == [("c1", "x"), ("c2", "y")]


# -- FilterStore ---------------------------------------------------------------

def test_filter_get_selects_matching_item(env):
    s = FilterStore(env)
    got = []

    def proc(env):
        s.put(1)
        s.put(2)
        s.put(3)
        got.append((yield s.get(lambda x: x % 2 == 0)))

    env.process(proc(env))
    env.run()
    assert got == [2]
    assert list(s.items) == [1, 3]


def test_filter_get_waits_for_matching_item(env):
    s = FilterStore(env)
    got = []

    def consumer(env):
        item = yield s.get(lambda x: x == "wanted")
        got.append((env.now, item))

    def producer(env):
        s.put("other")
        yield env.timeout(3)
        s.put("wanted")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(3, "wanted")]


def test_unsatisfiable_filter_does_not_block_others(env):
    s = FilterStore(env)
    got = []

    def blocked(env):
        got.append(("blocked", (yield s.get(lambda x: x == "never"))))

    def easy(env):
        got.append(("easy", (yield s.get())))

    env.process(blocked(env))
    env.process(easy(env))
    s.put("anything")
    env.run()
    assert got == [("easy", "anything")]


def test_filterstore_plain_get_takes_oldest(env):
    s = FilterStore(env)
    got = []

    def proc(env):
        s.put("old")
        s.put("new")
        got.append((yield s.get()))

    env.process(proc(env))
    env.run()
    assert got == ["old"]


# -- put_nowait ----------------------------------------------------------------

def test_put_nowait_stores_without_scheduling(env):
    s = Store(env)
    assert s.put_nowait("a") is None
    assert len(env) == 0
    assert list(s.items) == ["a"]


def test_put_nowait_serves_a_waiting_get_at_once(env):
    s = Store(env)
    got = []

    def consumer(env):
        item = yield s.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(2)
        s.put_nowait("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(2, "x")]
    assert s.size == 0


def test_put_nowait_on_full_bounded_store_raises(env):
    s = Store(env, capacity=1)
    s.put_nowait("one")
    with pytest.raises(StoreFull):
        s.put_nowait("two")
    assert list(s.items) == ["one"]


def test_put_nowait_feeds_a_filter_get(env):
    s = FilterStore(env)
    got = []

    def consumer(env):
        got.append((yield s.get(lambda x: x == "b")))

    env.process(consumer(env))
    env.run()
    s.put_nowait("a")
    s.put_nowait("b")
    env.run()
    assert got == ["b"]
    assert list(s.items) == ["a"]
