"""The asyncio JSON-lines front end of the plan service.

Wire protocol — one JSON object per line, newline-terminated, over
TCP.  Requests carry a ``type`` and an optional ``id`` the response
echoes back (so clients may pipeline):

* ``{"type": "plan", "id": 1, "n": 64, "m": 8, "params": {...}?,
  "exclude": [3, 7]?}`` →
  ``{"id": 1, "ok": true, "result": <plan_compact_json(request)>}`` —
  the paper's (k, chain) form of the plan: the object
  :meth:`~repro.service.planner.PlanResult.to_dict` writes without its
  ``"schedule"``, with ``"ports"`` ahead of ``"excluded"``, about 150
  bytes at any n, which
  :meth:`~repro.service.planner.PlanResult.from_dict` expands into
  ``plan(request)`` (:mod:`repro.service.planner`).  A line may still
  name ``"form": "compact"``, the only form there is; any other
  ``"form"`` is a ``bad_request``.
* ``{"type": "amend", "id": 2, "n": 64, "m": 8, "params": {...}?,
  "exclude": [...]?, "delta": {"join": 2?, "leave": [5, 9]?}}`` →
  ``{"id": 2, "ok": true, "result": ..., "amended": {"n": ...,
  "m": ..., "exclude": [...]}}`` — live plan amendment: the delta is
  folded into an equivalent plan request
  (:func:`repro.membership.amend.amended_request`), so equal deltas
  against the same plan collapse in the batcher's single-flight
  dedupe and a churn burst costs one computation.  A delta whose
  ``leave`` names position 0 (the source) is refused with the
  structured ``source_failed`` error.
* ``{"type": "stats"}`` → ``{"ok": true, "stats": <ServiceMetrics.snapshot()>}``
* ``{"type": "ping"}`` → ``{"ok": true, "pong": true}``
* ``{"type": "health"}`` → ``{"ok": true, "health": {"status":
  "ok"|"draining", "inflight": ..., "max_inflight": ..., "fault_mode":
  ..., "recovered_entries": ..., "metrics": <GLOBAL_METRICS snapshot>,
  "slo": <burn-rate snapshot>?}}`` — bypasses admission, so health
  stays answerable while the server sheds plan load, and carries the
  unified registry so one call sees every layer.
* ``{"type": "metrics"}`` → ``{"ok": true, "content_type":
  "text/plain; version=0.0.4", "metrics": "<Prometheus text>"}`` — the
  scrape endpoint: the whole ``GLOBAL_METRICS`` registry rendered in
  the Prometheus text exposition format (also admission-exempt; a
  shard-configured server stamps every series with its ``shard``
  label so the router can aggregate scrapes without collisions).
* ``{"type": "configure", "ring_epoch": 3, "shard_id": 1?}`` →
  ``{"ok": true, "configured": {"shard_id": ..., "ring_epoch": ...}}``
  — the cluster router's reconfiguration hook (admission-exempt):
  after a membership change it pushes the new ring epoch to every
  surviving shard.  The epoch is monotonic; pushing an older one is a
  ``bad_request``.

Cluster epoch fencing: a plan request may carry ``"epoch": E`` (the
ring epoch of the shard map the client routed with).  A request from
*behind* — ``E`` older than this server's ``ring_epoch`` — is refused
with a ``stale_map`` error carrying the current ``ring_epoch``, which
tells the client its map predates a membership change and it must
refresh before retrying.  Requests from ahead (the router configures
shards before publishing the new map, so a client can never legally be
ahead for long) are served: plan results do not depend on placement,
only dedupe locality does.

Errors come back as ``{"id": ..., "ok": false, "error": {"code": ...,
"message": ...}}`` with codes ``bad_request``, ``overloaded``,
``timeout``, ``stale_map``, ``source_failed``, ``response_too_large``,
and ``internal``.

Framing (:mod:`repro.service.framing`): every line, request or answer,
is at most ``MAX_FRAME_BYTES`` long, newline included.  A longer
request line is answered ``bad_request`` and closes the connection; an
answer that would be longer is replaced by the non-retryable
``response_too_large`` error and the connection keeps serving.  Every
answer begins ``{"id":<id>,``.

Encoding: the server never builds a :class:`PlanResult` or a schedule
row.  A ``"result"`` is the scalar fields of a memo holding k and the
schedule's shape (:mod:`repro.service.planner`).  Every connection is
a :class:`~repro.service.framing.LineProtocol`, whose read callback
hands each received line to :meth:`PlanServer._answer_line`, which
decodes it once and handles it to its answer without yielding: checks,
admission, journal, then
:func:`~repro.service.planner.plan_compact_json_warm`.  A plan already
in the memo is filled right there, at any n, since its fill costs
O(|exclude|).  The answers of one received chunk go out in one write,
and after :data:`~repro.service.framing.LINES_PER_CALLBACK` lines the
callback hands the loop to the other connections before going on.
Only a cold key waits in the batcher, in a task of its own: the
batcher's worker encodes each computation's ``"result"`` once, and
every waiter sharing the computation (single-flight followers, and
amends that fold into the same plan) gets those bytes behind its own
id.  Either way an amend's ``"amended"`` echo follows the result.

Request size: ``max_n`` bounds ``n``, and
:data:`~repro.service.planner.MAX_PLAN_WORK` bounds the schedule work
``(n - |exclude|) × m`` (for an amend, of the folded request).  Either
is a ``bad_request`` before admission and journaling, so no single
request can stall the workers or exhaust memory.

Overload policy: at most ``max_inflight`` plan requests may wait in
the batcher server-wide; while that many wait, every further plan or
amend, warm ones included, is *refused immediately* with
``overloaded`` instead of queuing — bounded admission means bounded
latency, and a client that sees ``overloaded`` can back off, while a
client stuck in an invisible queue cannot.  A plan answered in the
read callback never holds a slot, and ``request_timeout`` applies only to
plans that wait.  ``stats``/``ping``/``health``/``metrics`` bypass
admission so the service stays observable while saturated.

Shutdown: :meth:`PlanServer.shutdown` stops accepting connections,
flushes the batcher, and waits up to ``drain_timeout`` for in-flight
requests to answer before closing sockets — SIGTERM never drops an
admitted request on the floor (see :meth:`run_until_signal`).
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from typing import Coroutine, NamedTuple, Optional, Set, Union

from ..durable.errors import check_positive_int, check_positive_number
from ..obs.exposition import render_prometheus
from ..obs.metrics import GLOBAL_METRICS
from ..obs.profiler import NULL_PROFILER
from ..obs.slo import SLOSet
from ..obs.tracer import Tracer
from ..params import PAPER_MACHINE, MachineParams
from . import framing
from .batching import PlanBatcher
from .journal import RequestJournal
from .metrics import ServiceMetrics
from .planner import MAX_PLAN_WORK, PlanRequest, plan_compact_json_warm, plan_work

__all__ = ["PlanServer"]


class _BadRequest(ValueError):
    """Parse/validation failure with a client-facing message."""


class _Waiting(NamedTuple):
    """A line whose answer must wait: a cold plan or an armed fault.

    ``answer`` is the not-yet-started coroutine that resolves to the
    response; the rest is what finishing the line needs (its span and
    SLO records).
    """

    kind: str
    request_id: object
    span_start: float
    answer: Coroutine


def _check_size(request: PlanRequest, max_n: int, what: str) -> None:
    """Refuse a request over ``max_n`` or
    :data:`~repro.service.planner.MAX_PLAN_WORK`."""
    if request.n > max_n:
        raise _BadRequest(f"{what}={request.n} exceeds this server's max_n={max_n}")
    work = plan_work(request)
    if work > MAX_PLAN_WORK:
        raise _BadRequest(
            f"plan work (n - excluded) x m = {work} exceeds the limit of {MAX_PLAN_WORK}"
        )


def _check_form(payload: dict) -> None:
    """Refuse a plan or amend line naming a ``"form"`` other than
    ``"compact"``, the one answer form."""
    if "form" in payload and payload["form"] != "compact":
        raise _BadRequest(f'form must be "compact" or absent, got {payload["form"]!r}')


def _parse_plan_request(payload: dict, max_n: int) -> PlanRequest:
    """Validate a plan payload at the wire boundary."""
    params_raw = payload.get("params")
    exclude_raw = payload.get("exclude", ())
    if not isinstance(exclude_raw, (list, tuple)):
        raise _BadRequest(f"exclude must be a list of positions, got {exclude_raw!r}")
    try:
        params = PAPER_MACHINE if params_raw is None else MachineParams.from_dict(params_raw)
        request = PlanRequest(
            n=payload.get("n"),
            m=payload.get("m"),
            params=params,
            exclude=tuple(exclude_raw),
        )
    except (TypeError, ValueError) as exc:
        raise _BadRequest(str(exc)) from exc
    _check_size(request, max_n, "n")
    return request


def _parse_amend_request(payload: dict, max_n: int) -> PlanRequest:
    """Fold an amend payload's delta into an equivalent PlanRequest.

    :class:`~repro.faults.repair.SourceFailedError` propagates (the
    caller answers the structured ``source_failed`` error); every
    other validation failure is a plain ``bad_request``.
    """
    from ..faults.repair import SourceFailedError
    from ..membership.amend import amended_request

    delta = payload.get("delta")
    if not isinstance(delta, dict):
        raise _BadRequest(f"amend needs a delta object, got {delta!r}")
    unknown = sorted(set(delta) - {"join", "leave"})
    if unknown:
        raise _BadRequest(f"unknown delta fields: {unknown}")
    leave_raw = delta.get("leave", ())
    if not isinstance(leave_raw, (list, tuple)):
        raise _BadRequest(f"delta.leave must be a list of positions, got {leave_raw!r}")
    params_raw = payload.get("params")
    exclude_raw = payload.get("exclude", ())
    if not isinstance(exclude_raw, (list, tuple)):
        raise _BadRequest(f"exclude must be a list of positions, got {exclude_raw!r}")
    try:
        params = PAPER_MACHINE if params_raw is None else MachineParams.from_dict(params_raw)
        request = amended_request(
            payload.get("n"),
            payload.get("m"),
            params,
            tuple(exclude_raw),
            join=delta.get("join", 0),
            leave=tuple(leave_raw),
        )
    except SourceFailedError:
        raise
    except (TypeError, ValueError) as exc:
        raise _BadRequest(str(exc)) from exc
    _check_size(request, max_n, "amended n")
    return request


class PlanServer:
    """A long-running multicast plan service on one TCP endpoint.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port, published on
        :attr:`port` after :meth:`start`.
    batcher:
        Inject a configured :class:`~repro.service.batching.PlanBatcher`
        (tests use this); by default one is built from ``workers``,
        ``max_batch`` and ``max_delay``.
    max_inflight:
        Admission bound on concurrent plan requests; excess load is
        shed with ``overloaded``.
    request_timeout:
        Per-request deadline in seconds; expiry answers ``timeout``
        (the shared computation keeps running for other waiters).
    drain_timeout:
        Seconds :meth:`shutdown` waits for in-flight requests.
    max_n:
        Largest accepted multicast set size (the request-size half of
        admission control;
        :data:`~repro.service.planner.MAX_PLAN_WORK` bounds ``n · m``).
    tracer:
        A wall-clock :class:`repro.obs.Tracer`: when enabled, every
        handled line gets one span (request type, id, outcome) on the
        ``service/requests`` track — export after shutdown for a
        Perfetto view of request concurrency.
    profiler:
        A :class:`repro.obs.SamplingProfiler` started with the server
        and stopped at shutdown, so a live service can answer "where
        is the time going" (defaults to the free ``NULL_PROFILER``).
    slos:
        An :class:`repro.obs.SLOSet`: every plan outcome feeds the
        ``request_errors`` and ``plan_latency_p99`` trackers, and the
        burn-rate snapshot rides along in :meth:`health_report`.
    shard_id, ring_epoch:
        Cluster identity: which shard this server is and which ring
        epoch it was configured with.  Both ride in
        :meth:`health_report` (the router's failover decisions key off
        them), the epoch fences ``stale_map`` rejections, and a
        shard-configured server labels its Prometheus exposition with
        ``shard="<id>"``.  ``shard_id=None`` (the default) keeps the
        standalone single-server behavior exactly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batcher: Optional[PlanBatcher] = None,
        metrics: Optional[ServiceMetrics] = None,
        max_inflight: int = 256,
        request_timeout: float = 5.0,
        drain_timeout: float = 5.0,
        max_n: int = 65536,
        workers: int = 1,
        max_batch: int = 64,
        max_delay: float = 0.001,
        tracer: Optional[Tracer] = None,
        journal: Optional[RequestJournal] = None,
        profiler=None,
        slos: Optional[SLOSet] = None,
        shard_id: Optional[int] = None,
        ring_epoch: int = 0,
    ) -> None:
        check_positive_int("max_inflight", max_inflight)
        if shard_id is not None:
            check_positive_int("shard_id", shard_id, minimum=0)
        check_positive_int("ring_epoch", ring_epoch, minimum=0)
        # `not x > 0` (rather than `x <= 0`) also rejects NaN, whose
        # comparisons are all false — a NaN deadline would disable
        # asyncio.wait_for silently.
        check_positive_number("request_timeout", request_timeout)
        check_positive_number("drain_timeout", drain_timeout)
        check_positive_int("max_n", max_n, minimum=2)
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.batcher = (
            batcher
            if batcher is not None
            else PlanBatcher(
                max_batch=max_batch,
                max_delay=max_delay,
                workers=workers,
                metrics=self.metrics,
            )
        )
        if self.batcher.metrics is None:
            self.batcher.metrics = self.metrics
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.max_n = max_n
        self.journal = journal
        self.tracer = tracer
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.slos = slos
        self.shard_id = shard_id
        self.ring_epoch = ring_epoch
        GLOBAL_METRICS.register("server", self._server_gauges)
        self._obs_track = (
            tracer.track("service", "requests")
            if tracer is not None and tracer.enabled
            else None
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._active_plans = 0
        self._request_tasks: Set[asyncio.Task] = set()
        self._connections: Set[framing.LineProtocol] = set()
        self._draining = False
        self._fault_mode: Optional[str] = None
        self._fault_remaining = 0
        self._fault_delay = 0.0

    # -- fault injection (testing hook) --------------------------------------
    def inject_fault(self, code: str, count: int = 1, delay: float = 0.0) -> None:
        """Make the next ``count`` plan requests fail with ``code``.

        A testing hook for the client's retry path: ``code`` is the
        error code to answer with (e.g. ``"overloaded"``,
        ``"unavailable"``, ``"internal"``), and ``delay`` seconds are
        slept first (to exercise client timeouts; pass a delay beyond
        the client deadline with ``code="timeout"``-style scenarios).
        ``count=0`` clears the mode.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._fault_mode = code if count else None
        self._fault_remaining = count
        self._fault_delay = delay

    def _server_gauges(self) -> dict:
        """The admission-state gauges published under ``"server"``."""
        gauges = {
            "inflight": self._active_plans,
            "max_inflight": self.max_inflight,
            "draining": 1 if self._draining else 0,
            "recovered_entries": (
                self.journal.recovered_entries if self.journal is not None else 0
            ),
            "ring_epoch": self.ring_epoch,
        }
        if self.shard_id is not None:
            gauges["shard_id"] = self.shard_id
        return gauges

    def health_report(self) -> dict:
        """The health payload (also exposed on the wire as ``health``).

        Beyond liveness/admission state, it carries the unified
        ``GLOBAL_METRICS`` snapshot (so health and stats no longer
        answer with overlapping-but-different payloads — health is the
        superset) and, when an :class:`~repro.obs.SLOSet` is wired in,
        the per-SLO burn-rate snapshot.
        """
        report = {
            "status": "draining" if self._draining else "ok",
            "inflight": self._active_plans,
            "max_inflight": self.max_inflight,
            "fault_mode": self._fault_mode,
            "shard_id": self.shard_id,
            "ring_epoch": self.ring_epoch,
            "recovered_entries": (
                self.journal.recovered_entries if self.journal is not None else 0
            ),
            "metrics": GLOBAL_METRICS.snapshot(),
        }
        if self.slos is not None:
            report["slo"] = self.slos.snapshot()
        return report

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.journal is not None:
            # Warm restart: re-plan every journaled request so the memo
            # tables are hot *before* the first client connects.  The
            # replay is CPU work on the event-loop thread, but it runs
            # strictly pre-bind — no request can race it.
            await asyncio.get_running_loop().run_in_executor(
                None, self.journal.replay
            )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: framing.LineProtocol(self._line_received, self._connections),
            self.host,
            self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.profiler.enabled:
            self.profiler.start()

    async def serve_forever(self) -> None:
        """Block until the server is closed (e.g. by :meth:`shutdown`)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, close sockets.

        Draining waits at most ``drain_timeout`` in all.  A plan still
        computing then is abandoned: its requests get no answer, and
        the batcher lets go of its worker without waiting for it.
        """
        self._draining = True
        if self._server is not None:
            # close() stops the accept loop; we deliberately skip
            # wait_closed(), which (3.12+) waits for every connection
            # to end.  Closing the connections below ends them.
            self._server.close()
        if drain:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.drain_timeout
            # Resolve parked batches first so request tasks can answer.
            try:
                await asyncio.wait_for(self.batcher.drain(), self.drain_timeout)
            except asyncio.TimeoutError:
                pass
            tasks = [t for t in self._request_tasks if not t.done()]
            if tasks:
                await asyncio.wait(tasks, timeout=max(deadline - loop.time(), 0.0))
        # A request task holds its admission slot from before its first
        # step; let every task start, so a cancelled one releases it.
        await asyncio.sleep(0)
        for task in self._request_tasks:
            task.cancel()
        await self.batcher.close()
        for connection in list(self._connections):
            connection.close()
        if self.profiler.enabled:
            self.profiler.stop()

    async def run_until_signal(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully."""
        if self._server is None:
            await self.start()
        stop = asyncio.get_running_loop().create_future()
        loop = asyncio.get_running_loop()

        def _request_stop(signame: str) -> None:
            if not stop.done():
                stop.set_result(signame)

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, _request_stop, sig.name)
        try:
            await stop
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
            await self.shutdown(drain=True)

    # -- connection handling ------------------------------------------------
    def _line_received(self, line: bytes, connection: framing.LineProtocol) -> Optional[bytes]:
        """A connection's line: its answer now, or ``None`` once a task
        waits for it (:meth:`_handle_line` writes it)."""
        answer = self._answer_line(line)
        if type(answer) is bytes:
            return answer
        task = asyncio.ensure_future(self._handle_line(answer, connection))
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)
        return None

    def _answer_line(self, line: bytes) -> Union[bytes, _Waiting]:
        """Handle one request line up to its answer, without yielding.

        Returns the finished answer line, or a :class:`_Waiting` for a
        cold plan (or an armed fault) that :meth:`_handle_line` awaits
        in its own task.
        """
        self.metrics.requests.inc()
        tracer = self.tracer
        span_start = tracer.now() if tracer is not None and tracer.enabled else 0.0
        request_id = None
        kind = None
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise _BadRequest("request must be a JSON object")
            request_id = payload.get("id")
            kind = payload.get("type")
            if kind == "plan" or kind == "amend":
                response = self._handle_plan(payload, kind, request_id)
                if asyncio.iscoroutine(response):
                    return _Waiting(kind, request_id, span_start, response)
            elif kind == "stats":
                response = {"id": request_id, "ok": True, "stats": self.metrics.snapshot()}
            elif kind == "ping":
                response = {"id": request_id, "ok": True, "pong": True}
            elif kind == "health":
                response = {"id": request_id, "ok": True, "health": self.health_report()}
            elif kind == "metrics":
                labels = (
                    {"shard": str(self.shard_id)} if self.shard_id is not None else None
                )
                response = {
                    "id": request_id,
                    "ok": True,
                    "content_type": "text/plain; version=0.0.4",
                    "metrics": render_prometheus(labels=labels),
                }
            elif kind == "configure":
                response = self._handle_configure(payload, request_id)
            else:
                raise _BadRequest(f"unknown request type {kind!r}")
        except _BadRequest as exc:
            response = _error(request_id, "bad_request", str(exc))
            self.metrics.errors.inc()
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            response = _error(request_id, "bad_request", f"invalid JSON: {exc}")
            self.metrics.errors.inc()
        except Exception as exc:  # noqa: BLE001 - the service must answer
            response = _internal(request_id, exc)
            self.metrics.errors.inc()
        return self._finish(kind, request_id, span_start, response)

    async def _handle_line(self, waiting: _Waiting, connection: framing.LineProtocol) -> None:
        """Await a waiting line's answer, then finish and write it."""
        try:
            response = await waiting.answer
        except Exception as exc:  # noqa: BLE001 - the service must answer
            response = _internal(waiting.request_id, exc)
            self.metrics.errors.inc()
        connection.write(
            self._finish(waiting.kind, waiting.request_id, waiting.span_start, response)
        )

    def _finish(self, kind, request_id, span_start: float, response) -> bytes:
        """The answer line of ``response``: frame limit, span and SLO applied."""
        data = response if isinstance(response, bytes) else _encode(response)
        if len(data) > framing.MAX_FRAME_BYTES:
            self.metrics.errors.inc()
            response = _too_large(request_id, len(data))
            data = _encode(response)
        ok = isinstance(response, bytes) or bool(response.get("ok"))
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.complete(
                str(kind) if kind is not None else "invalid",
                self._obs_track,
                span_start,
                cat="service",
                args={"id": request_id, "ok": ok},
            )
        if self.slos is not None and kind == "plan" and "request_errors" in self.slos.trackers:
            self.slos.record("request_errors", ok)
        return data

    def _handle_configure(self, payload: dict, request_id) -> dict:
        """Adopt a new ring epoch (and optionally a shard id) from the router."""
        epoch = payload.get("ring_epoch")
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise _BadRequest(f"ring_epoch must be an integer >= 0, got {epoch!r}")
        if epoch < self.ring_epoch:
            raise _BadRequest(
                f"ring_epoch {epoch} is older than the current {self.ring_epoch}"
            )
        if "shard_id" in payload:
            shard_id = payload["shard_id"]
            if isinstance(shard_id, bool) or not isinstance(shard_id, int) or shard_id < 0:
                raise _BadRequest(
                    f"shard_id must be an integer >= 0, got {shard_id!r}"
                )
            self.shard_id = shard_id
        self.ring_epoch = epoch
        return {
            "id": request_id,
            "ok": True,
            "configured": {"shard_id": self.shard_id, "ring_epoch": self.ring_epoch},
        }

    def _fence_epoch(self, payload: dict, request_id) -> Optional[dict]:
        """The ``stale_map`` refusal shared by ``plan`` and ``amend``."""
        epoch = payload.get("epoch")
        if epoch is None:
            return None
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise _BadRequest(f"epoch must be an integer >= 0, got {epoch!r}")
        if epoch < self.ring_epoch:
            self.metrics.errors.inc()
            return _error(
                request_id,
                "stale_map",
                f"request epoch {epoch} predates ring epoch {self.ring_epoch};"
                " refresh the shard map and retry",
                ring_epoch=self.ring_epoch,
            )
        return None

    async def _injected_fault(self, code: str, request_id) -> dict:
        """Answer one consumed testing fault, after its delay."""
        if self._fault_delay:
            await asyncio.sleep(self._fault_delay)
        self.metrics.errors.inc()
        return _error(request_id, code, "injected fault (testing mode)")

    def _handle_plan(self, payload: dict, kind: str, request_id) -> Union[bytes, dict, Coroutine]:
        """A plan or amend: its answer, or the coroutine that waits for it.

        The checks run in this order: the epoch fence, an armed fault,
        parsing (form included) and size, admission, then the journal.
        An admitted request already in the compact memo is answered
        here; any other waits in the batcher.
        """
        fenced = self._fence_epoch(payload, request_id)
        if fenced is not None:
            return fenced
        if self._fault_remaining > 0:
            self._fault_remaining -= 1
            code = self._fault_mode or "internal"
            if self._fault_remaining == 0:
                self._fault_mode = None
            return self._injected_fault(code, request_id)
        echo = None
        _check_form(payload)
        if kind == "plan":
            request = _parse_plan_request(payload, self.max_n)
        else:
            from ..faults.repair import SourceFailedError

            try:
                request = _parse_amend_request(payload, self.max_n)
            except SourceFailedError as exc:
                self.metrics.errors.inc()
                return _error(request_id, "source_failed", str(exc))
            self.metrics.amends.inc()
            # Echo the equivalent plan request so the caller can track
            # the amended group without re-deriving the delta fold.
            echo = {"n": request.n, "m": request.m, "exclude": sorted(request.exclude)}
        if self._active_plans >= self.max_inflight:
            self.metrics.shed.inc()
            self.metrics.errors.inc()
            return _error(
                request_id,
                "overloaded",
                f"server at max_inflight={self.max_inflight}; retry with backoff",
            )
        self.metrics.plans.inc()
        if self.journal is not None:
            # Journal after validation and admission: only requests the
            # server actually plans are worth replaying at restart.
            self.journal.record(request)
        started = time.monotonic()
        result = plan_compact_json_warm(request)
        if result is not None:
            self.metrics.memo_hits.inc()
            self._observe_plan(started)
            return _plan_line(request_id, result, echo)
        # The slot is taken now, not when the task first runs, so the
        # rest of a pipelined burst sees it at admission.
        self._active_plans += 1
        return self._submit_plan(request, request_id, echo, started)

    async def _submit_plan(
        self, request: PlanRequest, request_id, echo: Optional[dict], started: float
    ) -> Union[bytes, dict]:
        """Wait in the batcher for a cold plan; release its admission slot."""
        try:
            result = await asyncio.wait_for(
                self.batcher.submit(request), self.request_timeout
            )
        except asyncio.TimeoutError:
            self.metrics.timeouts.inc()
            self.metrics.errors.inc()
            return _error(
                request_id,
                "timeout",
                f"no answer within {self.request_timeout}s",
            )
        finally:
            self._active_plans -= 1
        self._observe_plan(started)
        return _plan_line(request_id, result, echo)

    def _observe_plan(self, started: float) -> None:
        """Record one answered plan's latency, in the histogram and the SLO."""
        elapsed = time.monotonic() - started
        self.metrics.plan_latency.record(elapsed)
        if self.slos is not None:
            tracker = self.slos.trackers.get("plan_latency_p99")
            if tracker is not None:
                bound = tracker.spec.bound or float("inf")
                self.slos.record("plan_latency_p99", elapsed * 1e6 <= bound)


def _plan_line(request_id, result: bytes, echo: Optional[dict]) -> bytes:
    """The answer line: the shared ``"result"`` bytes behind this
    request's id, followed by ``echo`` (an amend's ``"amended"``)."""
    amended = b""
    if echo is not None:
        amended = b',"amended":' + json.dumps(echo, separators=(",", ":")).encode()
    return b"".join(
        (
            framing.ID_PREFIX,
            framing.encode_id(request_id),
            b',"ok":true,"result":',
            result,
            amended,
            b"}\n",
        )
    )


def _encode(response: dict) -> bytes:
    """One answer line."""
    return json.dumps(response, separators=(",", ":")).encode() + b"\n"


def _too_large(request_id, size: int) -> dict:
    """The error that replaces an answer line over the frame limit."""
    return _error(
        request_id,
        "response_too_large",
        f"the answer is {size} bytes, over the {framing.MAX_FRAME_BYTES}-byte frame limit",
    )


def _internal(request_id, exc: Exception) -> dict:
    """The ``internal`` error that answers an unexpected exception."""
    return _error(request_id, "internal", f"{type(exc).__name__}: {exc}")


def _error(request_id, code: str, message: str, **extra) -> dict:
    """An error response; ``extra`` fields ride inside the error object
    (``stale_map`` carries the server's current ``ring_epoch`` so the
    client refreshes toward a known-good target)."""
    error = {"code": code, "message": message}
    error.update(extra)
    return {"id": request_id, "ok": False, "error": error}
