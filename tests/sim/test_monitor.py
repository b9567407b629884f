"""LevelMonitor."""

from __future__ import annotations

import pytest

from repro.sim import LevelMonitor


def test_level_monitor_peak(env):
    mon = LevelMonitor(env)

    def proc(env):
        mon.change(+2)
        yield env.timeout(1)
        mon.change(+3)
        yield env.timeout(1)
        mon.change(-4)

    env.process(proc(env))
    env.run()
    assert mon.peak == 5
    assert mon.level == 1


def test_level_monitor_negative_level_rejected(env):
    mon = LevelMonitor(env)
    with pytest.raises(ValueError):
        mon.change(-1)


def test_level_monitor_time_average(env):
    mon = LevelMonitor(env)

    def proc(env):
        mon.change(+4)          # level 4 during [0, 2)
        yield env.timeout(2)
        mon.change(-2)          # level 2 during [2, 4)
        yield env.timeout(2)
        mon.finalize()

    env.process(proc(env))
    env.run()
    assert mon.time_average == pytest.approx((4 * 2 + 2 * 2) / 4)


def test_level_monitor_zero_duration_average(env):
    mon = LevelMonitor(env)
    assert mon.time_average == 0.0


def test_level_monitor_created_mid_simulation(env):
    """Regression: the averaging window starts at creation, not t=0.

    A monitor born at t=10 that holds level 4 for 2 time units must
    average 4.0 — dividing by ``end`` instead of ``end - start`` used
    to dilute it to 8/12.
    """
    holder = {}

    def proc(env):
        yield env.timeout(10)
        mon = holder["mon"] = LevelMonitor(env)
        mon.change(+4)
        yield env.timeout(2)
        mon.finalize()

    env.process(proc(env))
    env.run()
    assert holder["mon"].time_average == pytest.approx(4.0)
