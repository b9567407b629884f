"""Shared oracles and instruments of the plan-service tests."""

from __future__ import annotations

import asyncio
import threading

from repro.service import PlanRequest, batching, plan


def compact_result(request: PlanRequest) -> dict:
    """The compact answer form of ``request``, built from ``plan()``'s full
    form: the same fields without ``"schedule"``, with the machine's
    ``"ports"`` ahead of ``"excluded"``."""
    fields = plan(request).to_dict()
    del fields["schedule"]
    excluded = fields.pop("excluded")
    fields.update(ports=request.params.ports, excluded=excluded)
    return fields


async def until(condition, timeout: float = 10.0, what: str = "the condition") -> None:
    """Poll ``condition()`` on the running loop until it holds.

    Fails the test with an ``AssertionError`` after ``timeout`` seconds
    instead of hanging it.
    """

    async def poll():
        while not condition():
            await asyncio.sleep(0.005)

    try:
        await asyncio.wait_for(poll(), timeout)
    except asyncio.TimeoutError:
        raise AssertionError(f"{what} did not happen within {timeout} s") from None


class PlanGate:
    """Holds every executor hop of the plan service until :meth:`open`.

    A cold multi-port plan is the only one a server computes in its
    executor, through the module global ``batching.plan_chunk``; this
    gate replaces that global, so a test can keep such a plan in flight
    for as long as it needs (to shed a burst, time out a request, drain
    a shutdown or meet single-flight followers).  Use it through the
    ``plan_gate`` fixture, which opens it at teardown so no worker
    thread outlives the test.
    """

    def __init__(self, monkeypatch) -> None:
        self._computing = threading.Event()
        self._opened = threading.Event()
        plan_chunk = batching.plan_chunk

        def held(requests):
            self._computing.set()
            self._opened.wait(30)
            return plan_chunk(requests)

        monkeypatch.setattr(batching, "plan_chunk", held)

    def open(self) -> None:
        """Let every held and later hop compute."""
        self._opened.set()

    async def entered(self, timeout: float = 10.0) -> None:
        """Wait until a hop is held in the executor.

        Bounded: a plan answered on the read loop never reaches the
        gate, and the test then fails after ``timeout`` seconds.
        """
        await until(self._computing.is_set, timeout, "a plan reaching the executor")
