"""Clients for the plan service: async, pipelined, plus sync wrappers.

:class:`PlanClient` multiplexes any number of concurrent ``plan`` calls
over one connection — requests carry monotonically increasing ids, and
the connection's read callback (a
:class:`~repro.service.framing.LineProtocol`) routes each response
line to its waiter, so N in-flight calls cost one socket (and identical
ones in flight together share one server-side computation).  The
requests of one loop pass go out in one send, and deadlines cost one timer per connection, armed
for the soonest pending request.  Service-level
failures surface as :class:`PlanServiceError` (with
:class:`OverloadedError` split out so callers can branch on back-off
without string-matching codes).

Transient failures are retryable: :class:`RetryPolicy` drives
exponential backoff with seeded (deterministic) jitter, and every
failure mode carries a typed exception — connection refusal is
``PlanServiceError(code="unavailable")``, a blown deadline is
:class:`PlanTimeoutError`, shedding is :class:`OverloadedError` — so
callers branch on class, never on string-matching codes.

Every plan and amend is answered in the paper's compact (k, chain)
form: about 150 bytes at any n, which
:meth:`~repro.service.planner.PlanResult.from_dict` expands locally
into the :class:`~repro.service.planner.PlanResult` that ``plan()``
returns (see :mod:`repro.service.planner`).

Answers are routed by their id-first prefix (:mod:`.framing`) without
being decoded: :meth:`PlanClient.request_raw` hands back the answer line
as bytes, and :meth:`PlanClient.request` decodes it for everyone else.
A waiter need not be a future: the cluster router registers an object
with a future's ``set_result``/``set_exception`` and relays a shard's
plan from the read callback, with no task in between.  A lost
connection fails the next request at once with ``ConnectionError``
instead of waiting out its timeout.

For scripts and the CLI, :func:`plan_remote` and :func:`stats_remote`
wrap one connect/request/close round trip in ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence

from ..params import MachineParams
from . import framing
from .planner import PlanResult

__all__ = [
    "OverloadedError",
    "PlanClient",
    "PlanServiceError",
    "PlanTimeoutError",
    "RetryPolicy",
    "SourceFailedError",
    "StaleMapError",
    "amend_remote",
    "metrics_remote",
    "plan_remote",
    "stats_remote",
]


class PlanServiceError(RuntimeError):
    """An error response from the plan service."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class OverloadedError(PlanServiceError):
    """The server shed this request; retry with backoff."""


class PlanTimeoutError(PlanServiceError):
    """A client-side deadline expired before the response arrived."""

    def __init__(self, message: str) -> None:
        super().__init__("timeout", message)


class SourceFailedError(PlanServiceError):
    """The amend delta removed the multicast source (position 0).

    The wire twin of :class:`repro.faults.repair.SourceFailedError`:
    not retryable — the same delta fails the same way — the caller
    must elect a new source and plan afresh.
    """

    def __init__(self, message: str) -> None:
        super().__init__("source_failed", message)


class StaleMapError(PlanServiceError):
    """The request's ring epoch predates the shard's — refresh the map.

    Not blind-retryable: the same request against the same shard fails
    the same way.  :attr:`ring_epoch` is the shard's current epoch (or
    ``None`` on a malformed error), the target a refreshed map must
    reach before the retry is worth sending.
    """

    def __init__(self, code: str, message: str, ring_epoch: Optional[int] = None) -> None:
        super().__init__(code, message)
        self.ring_epoch = ring_epoch


#: Error codes that indicate a transient condition worth retrying.
RETRYABLE_CODES = frozenset({"overloaded", "timeout", "unavailable"})


def _raise_for(error: dict) -> None:
    code = error.get("code", "internal")
    message = error.get("message", "")
    if code == "overloaded":
        raise OverloadedError(code, message)
    if code == "stale_map":
        raise StaleMapError(code, message, ring_epoch=error.get("ring_epoch"))
    if code == "source_failed":
        raise SourceFailedError(message)
    raise PlanServiceError(code, message)


def _plan_result(response: dict) -> PlanResult:
    """The plan of a decoded ``plan``/``amend`` answer; raises its error."""
    if not response.get("ok"):
        _raise_for(response.get("error", {}))
    return PlanResult.from_dict(response["result"])


def _plan_payload(n, m, params=None, exclude=(), epoch=None) -> dict:
    """The ``plan`` request object (without its ``id``)."""
    payload: dict = {"type": "plan", "n": n, "m": m}
    if params is not None:
        payload["params"] = params.to_dict()
    if exclude:
        payload["exclude"] = sorted(set(exclude))
    if epoch is not None:
        payload["epoch"] = epoch
    return payload


def _amend_payload(n, m, params=None, exclude=(), join=0, leave=(), epoch=None) -> dict:
    """The ``amend`` request object (without its ``id``)."""
    payload: dict = {"type": "amend", "n": n, "m": m, "delta": {}}
    if join:
        payload["delta"]["join"] = join
    if leave:
        payload["delta"]["leave"] = sorted(set(leave))
    if params is not None:
        payload["params"] = params.to_dict()
    if exclude:
        payload["exclude"] = sorted(set(exclude))
    if epoch is not None:
        payload["epoch"] = epoch
    return payload


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempt ``0, 1, 2, ...`` grows as
    ``base_delay * multiplier**attempt`` capped at ``max_delay``, then
    jittered by a factor drawn uniformly from ``[1 - jitter, 1]`` —
    backing *off* the full delay, never beyond it, so a retry storm
    decorrelates without extending worst-case latency.  The jitter RNG
    is seeded, so a given policy instance replays the same delays
    (deterministic tests; distinct seeds decorrelate distinct clients).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self) -> Iterator[float]:
        """The backoff delay before each retry (``attempts - 1`` values)."""
        rng = random.Random(self.seed)
        for attempt in range(self.attempts - 1):
            raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
            yield raw * (1.0 - self.jitter * rng.random())


class _Link(framing.LineProtocol):
    """A client's side of the line protocol.

    It keeps reading answers while its requests back up: a server stops
    reading a peer that does not read its answers, so a client that
    stopped reading in turn would deadlock with it.  An answer line
    over the frame limit closes the connection without a reply.
    """

    too_long_answer = None

    def __init__(self, client: "PlanClient") -> None:
        super().__init__(client._answer_received)
        self._client = client

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self._client._connection_lost(
            exc or self.error or ConnectionError("server closed the connection")
        )

    def pause_writing(self) -> None:
        pass

    def resume_writing(self) -> None:
        pass


class PlanClient:
    """One pipelined connection to a :class:`~repro.service.server.PlanServer`.

    Use as an async context manager, or pair :meth:`connect` with
    :meth:`close`::

        async with await PlanClient.connect("127.0.0.1", 7017) as client:
            result = await client.plan(64, 8)
    """

    def __init__(self) -> None:
        self._link = _Link(self)
        self._ids = itertools.count(1)
        # request id -> (waiter, deadline or None, timeout); a waiter is
        # anything with a future's done/set_result/set_exception.
        self._waiters: Dict[int, tuple] = {}
        self._closed = False
        #: Why the connection stopped, once it has.
        self._lost: Optional[Exception] = None
        # One timer, armed for the soonest deadline of a pending request.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_at = math.inf
        self._loop = asyncio.get_running_loop()

    @classmethod
    async def connect(
        cls, host: str, port: int, timeout: Optional[float] = None
    ) -> "PlanClient":
        """Open a connection; its answers are routed from the read callback.

        Connection failures (refused, unreachable, DNS) raise
        ``PlanServiceError(code="unavailable")`` rather than a raw
        ``OSError``, and ``timeout`` seconds (if given) bounds the
        attempt with :class:`PlanTimeoutError` — both retryable.  Answer
        lines may be up to :data:`~.framing.MAX_FRAME_BYTES` long.
        """
        client = cls()
        dial = client._loop.create_connection(lambda: client._link, host, port)
        try:
            if timeout is not None:
                await asyncio.wait_for(dial, timeout)
            else:
                await dial
        except asyncio.TimeoutError:
            raise PlanTimeoutError(
                f"connect to {host}:{port} timed out after {timeout}s"
            ) from None
        except OSError as exc:
            raise PlanServiceError(
                "unavailable", f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        return client

    async def __aenter__(self) -> "PlanClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def alive(self) -> bool:
        """Whether the connection can still carry requests.

        ``close()`` flips :attr:`_closed`, but a *server*-side drop
        only ends the connection — pool owners (the cluster router)
        check this before reusing a cached connection.
        """
        return not self._closed and self._lost is None

    # -- requests -----------------------------------------------------------
    async def request(self, payload: dict, timeout: Optional[float] = None) -> dict:
        """Send one raw request object, await its decoded response
        (see :meth:`request_raw`)."""
        return json.loads(await self.request_raw(payload, timeout))

    async def request_raw(self, payload: dict, timeout: Optional[float] = None) -> bytes:
        """Send one raw request object, await its response line undecoded.

        ``timeout`` (seconds) bounds the wait with
        :class:`PlanTimeoutError`; the stale response, if it ever
        arrives, is dropped (its waiter is gone).  A closed client
        raises ``RuntimeError``; a lost connection raises
        ``ConnectionError`` at once.
        """
        future = self._loop.create_future()
        request_id = self._send(payload, future, timeout)
        try:
            return await future
        finally:
            self._waiters.pop(request_id, None)

    def _send(self, payload: dict, waiter, timeout: Optional[float]) -> int:
        """Write one request; its answer line goes to ``waiter.set_result``.

        A timeout (:class:`PlanTimeoutError`) or a lost connection goes
        to ``waiter.set_exception``.  Returns the request's id.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        if self._lost is not None:
            raise ConnectionError(f"connection lost: {self._lost!r}")
        request_id = next(self._ids)
        deadline = None
        if timeout is not None:
            deadline = self._loop.time() + timeout
            if deadline < self._timer_at:
                self._arm(deadline)
        self._waiters[request_id] = (waiter, deadline, timeout)
        self._link.write_soon(json.dumps(dict(payload, id=request_id)).encode() + b"\n")
        return request_id

    async def plan(
        self,
        n: int,
        m: int,
        params: Optional[MachineParams] = None,
        *,
        exclude: Sequence[int] = (),
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        epoch: Optional[int] = None,
    ) -> PlanResult:
        """Request a plan for ``(n, m[, params])``; raises on service errors.

        ``exclude`` forwards dead chain positions for failure-aware
        re-planning.  ``retry`` re-sends on transient failures
        (:data:`RETRYABLE_CODES`: overloaded / timeout / server-side
        fault injection reporting unavailable) with the policy's
        backoff; the last failure propagates when attempts run out.
        ``epoch`` stamps the request with the ring epoch of the shard
        map it was routed by; a shard ahead of that epoch answers
        :class:`StaleMapError` instead of a plan (cluster clients
        refresh their map and re-route — deliberately *not* part of
        the blind retry loop here).
        """
        payload = _plan_payload(n, m, params, exclude, epoch)
        return await self._plan_call(payload, timeout, retry)

    async def amend(
        self,
        n: int,
        m: int,
        params: Optional[MachineParams] = None,
        *,
        exclude: Sequence[int] = (),
        join: int = 0,
        leave: Sequence[int] = (),
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        epoch: Optional[int] = None,
    ) -> PlanResult:
        """Amend a live plan by a membership delta; raises on service errors.

        ``join`` counts new members grafted at the chain tail and
        ``leave`` lists departing chain positions (``1 .. n - 1``); the
        server folds both into an equivalent plan request, so identical
        deltas from a churn burst coalesce in its single-flight dedupe.
        A delta naming position 0 raises :class:`SourceFailedError`
        (not retryable).  ``retry`` and ``epoch`` behave exactly as in
        :meth:`plan`.
        """
        payload = _amend_payload(n, m, params, exclude, join, leave, epoch)
        return await self._plan_call(payload, timeout, retry)

    async def _plan_call(
        self, payload: dict, timeout: Optional[float], retry: Optional[RetryPolicy]
    ) -> PlanResult:
        """Send a ``plan``/``amend`` payload, re-sending transient failures."""
        delays = retry.delays() if retry is not None else iter(())
        while True:
            try:
                return _plan_result(await self.request(payload, timeout=timeout))
            except PlanServiceError as exc:
                if exc.code not in RETRYABLE_CODES:
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise
                await asyncio.sleep(delay)

    async def health(self) -> dict:
        """The server's health report (status, inflight, fault mode)."""
        response = await self.request({"type": "health"})
        if not response.get("ok"):
            _raise_for(response.get("error", {}))
        return response["health"]

    async def stats(self) -> dict:
        """The server's :meth:`~repro.service.metrics.ServiceMetrics.snapshot`."""
        response = await self.request({"type": "stats"})
        if not response.get("ok"):
            _raise_for(response.get("error", {}))
        return response["stats"]

    async def metrics(self) -> str:
        """The server's Prometheus text-format exposition (a scrape)."""
        response = await self.request({"type": "metrics"})
        if not response.get("ok"):
            _raise_for(response.get("error", {}))
        return response["metrics"]

    async def ping(self) -> bool:
        """Liveness probe."""
        response = await self.request({"type": "ping"})
        return bool(response.get("pong"))

    async def configure(
        self, *, ring_epoch: int, shard_id: Optional[int] = None
    ) -> dict:
        """Push cluster identity to the server (the router's failover hook)."""
        payload: dict = {"type": "configure", "ring_epoch": ring_epoch}
        if shard_id is not None:
            payload["shard_id"] = shard_id
        response = await self.request(payload)
        if not response.get("ok"):
            _raise_for(response.get("error", {}))
        return response["configured"]

    async def close(self) -> None:
        """Close the connection and fail any outstanding waiters."""
        if self._closed:
            return
        self._closed = True
        self._link.close()
        self._fail_waiters(ConnectionError("client closed"))
        await asyncio.sleep(0)  # let the transport let go of its socket

    # -- internals ----------------------------------------------------------
    def _answer_received(self, line: bytes, link: _Link) -> None:
        """Route one answer line to its waiter, from the read callback."""
        request_id, _ = framing.leading_id(line)
        try:
            if request_id is None:  # not id-first: parse to find the id
                request_id = json.loads(line).get("id")
            entry = self._waiters.pop(request_id, None)
        except Exception as exc:  # noqa: BLE001 - an unroutable answer
            link.error = exc
            link.close()
            return
        if entry is not None and not entry[0].done():
            entry[0].set_result(line)

    def _connection_lost(self, exc: Exception) -> None:
        if self._lost is None:
            self._lost = exc
        self._fail_waiters(self._lost)

    def _arm(self, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(deadline, self._expire)
        self._timer_at = deadline

    def _expire(self) -> None:
        """Time out every request past its deadline; re-arm for the next."""
        self._timer, self._timer_at = None, math.inf
        now = self._loop.time()
        soonest = math.inf
        for request_id, (waiter, deadline, timeout) in list(self._waiters.items()):
            if deadline is None:
                continue
            if deadline > now:
                soonest = min(soonest, deadline)
                continue
            del self._waiters[request_id]
            if not waiter.done():
                waiter.set_exception(
                    PlanTimeoutError(f"no response to request {request_id} within {timeout}s")
                )
        if soonest < self._timer_at:
            self._arm(soonest)

    def _fail_waiters(self, exc: Exception) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer, self._timer_at = None, math.inf
        waiters, self._waiters = self._waiters, {}
        for waiter, _, _ in waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)


async def _one_shot(host: str, port: int, payload: dict) -> dict:
    client = await PlanClient.connect(host, port)
    try:
        return await client.request(payload)
    finally:
        await client.close()


def plan_remote(
    host: str,
    port: int,
    n: int,
    m: int,
    params: Optional[MachineParams] = None,
    exclude: Sequence[int] = (),
) -> PlanResult:
    """Synchronous one-shot plan request (the CLI's ``--connect`` path)."""
    payload = _plan_payload(n, m, params, exclude)
    return _plan_result(asyncio.run(_one_shot(host, port, payload)))


def amend_remote(
    host: str,
    port: int,
    n: int,
    m: int,
    params: Optional[MachineParams] = None,
    exclude: Sequence[int] = (),
    *,
    join: int = 0,
    leave: Sequence[int] = (),
) -> PlanResult:
    """Synchronous one-shot amend request (the CLI's ``--connect`` path)."""
    payload = _amend_payload(n, m, params, exclude, join, leave)
    return _plan_result(asyncio.run(_one_shot(host, port, payload)))


def stats_remote(host: str, port: int) -> dict:
    """Synchronous one-shot stats request."""
    response = asyncio.run(_one_shot(host, port, {"type": "stats"}))
    if not response.get("ok"):
        _raise_for(response.get("error", {}))
    return response["stats"]


def metrics_remote(host: str, port: int) -> str:
    """Synchronous one-shot scrape of the Prometheus exposition."""
    response = asyncio.run(_one_shot(host, port, {"type": "metrics"}))
    if not response.get("ok"):
        _raise_for(response.get("error", {}))
    return response["metrics"]
