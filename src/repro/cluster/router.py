"""The cluster's asyncio frontend: ring routing, replication, failover.

The router speaks the same JSON-lines protocol as the shards, so a
plain :class:`~repro.service.PlanClient` pointed at it just works —
every ``plan`` is forwarded to the shard the ring names, over one
pipelined connection per shard.  Three cluster-only request types ride
alongside:

* ``{"type": "shard_map"}`` → ``{"ok": true, "map": <HashRing.to_map()>,
  "shards": {sid: {host, port}}}`` — clients that want to skip the
  router's extra hop fetch this and route directly (epoch-stamped;
  see :mod:`repro.cluster.client`).
* ``{"type": "status"}`` → membership, epoch, per-shard health
  summaries, forward/failover counters — the ``repro-mcast cluster
  status`` payload.
* ``{"type": "metrics"}`` → the *cluster* Prometheus exposition: every
  live shard's registry snapshot labeled ``shard="<id>"`` plus the
  router's own series labeled ``shard="router"``, merged per family by
  :func:`repro.obs.exposition.render_prometheus_cluster`.

Request path: every connection, the router's clients' and its links
to the shards, is a :class:`~repro.service.framing.LineProtocol`.  A
client's line is decoded, validated and, for a ``plan`` or ``amend``,
written to its primary's link in the read callback; the shard's answer
is relayed from that link's read callback (a :class:`_Relay` is the
link's waiter).  A successful forward therefore makes no task, future,
lock or drain, and its deadline is the link's one timer, armed for its
soonest pending request.  The forwards and relayed answers of one
loop pass go out in one send per connection
(:meth:`~repro.service.framing.LineProtocol.write_soon`).  Only a
forward whose primary has no live link, or whose primary failed it,
runs :meth:`ClusterRouter._forward`, the async walk down the replica
chain that dials shards as it goes.

Failure handling, in one place:

* **Inline failover** — a forward that dies on a connection error or
  timeout is retried down the key's replica chain; only when every
  replica fails does the client see ``unavailable``.  Dedupe locality
  survives failover because all requests for a key walk the *same*
  chain in the same order.
* **Health probing** — a background task probes every member's
  ``health`` endpoint; ``fail_after`` consecutive misses evict the
  shard: the ring drops it (epoch bump), survivors get a ``configure``
  push with the new epoch, and clients holding the old map are fenced
  off by the shards' ``stale_map`` rejection.
* **Rejoin** — probes keep watching evicted addresses; a shard that
  answers again (a respawned worker replaying its journal — warm
  handoff) is added back, with another epoch bump and configure push.
* **Hot-key warming** — keys hotter than ``hot_threshold`` forwards
  get one fire-and-forget plan sent to their replica, so the replica's
  memo tables are warm *before* a failover makes it primary.

Byte relay: a forwarded ``plan`` or ``amend`` is answered with the
shard's own bytes.  The router takes the shard's ``"ok":true`` line,
swaps the id-first prefix for its client's id and appends
``,"shard":<sid>`` — the plan body is never decoded or re-encoded on
this hop.  It drops a shard's ``"amended"`` echo, so a routed amend
answers ``{"id", "ok", "result", "shard"}`` like a routed plan.  Only
lines that are not ``"ok":true`` are parsed, to classify the error for
failover.  A forward carries ``params`` only when its client sent
them, so a shard parses no machine the client did not name.  It never
carries ``"form"``: the router refuses any form but ``"compact"``, the
one a shard answers in, so the relay never looks inside the result.
"""

from __future__ import annotations

import asyncio
import json
from typing import Coroutine, Dict, Optional, Sequence, Set, Union

from ..durable.errors import check_positive_int, check_positive_number
from ..obs.exposition import render_prometheus_cluster
from ..obs.metrics import GLOBAL_METRICS
from ..service import framing
from ..service.client import (
    OverloadedError,
    PlanClient,
    PlanServiceError,
    PlanTimeoutError,
    _amend_payload,
    _plan_payload,
    _raise_for,
)
from ..service.metrics import Counter
from ..service.server import (
    _BadRequest,
    _check_form,
    _encode,
    _error,
    _internal,
    _parse_plan_request,
    _too_large,
)
from .ring import HashRing, plan_key
from .shard import ShardSpec

__all__ = ["ClusterRouter"]

#: Failures that mean "this shard, right now" — worth the replica hop.
_TRANSIENT = (PlanTimeoutError, ConnectionError)

#: What follows the id of a shard's successful answer.
_OK = b'"ok":true,'
#: Where a shard's amend answer starts the echo the relay drops.
_AMENDED = b',"amended":'


def _is_transient(exc: Exception) -> bool:
    if isinstance(exc, _TRANSIENT):
        return True
    if isinstance(exc, OverloadedError):
        return True
    return isinstance(exc, PlanServiceError) and exc.code == "unavailable"


class ClusterRouter:
    """Consistent-hash frontend over a set of plan-service shards.

    Parameters
    ----------
    shards:
        The initial membership as :class:`~repro.cluster.shard.ShardSpec`
        records (id + address); the ring is built from the ids.
    vnodes, seed:
        Ring construction knobs (forwarded to :class:`HashRing`).
    replication:
        Replica-chain length per key (2 = primary + one replica).
    request_timeout:
        Per-forward deadline, seconds; expiry triggers the replica hop.
    probe_interval, probe_timeout, fail_after:
        Health-probe cadence, per-probe deadline, and the consecutive-
        miss count that evicts a shard.
    hot_threshold:
        Forward count after which a key is warmed on its replica
        (``0`` disables warming).
    rejoin:
        Whether probes keep watching evicted shards and re-admit them.
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = 64,
        seed: int = 0,
        replication: int = 2,
        request_timeout: float = 5.0,
        probe_interval: float = 0.2,
        probe_timeout: float = 1.0,
        fail_after: int = 2,
        hot_threshold: int = 8,
        rejoin: bool = True,
        max_n: int = 65536,
    ) -> None:
        check_positive_int("replication", replication)
        check_positive_number("request_timeout", request_timeout)
        check_positive_number("probe_interval", probe_interval)
        check_positive_number("probe_timeout", probe_timeout)
        check_positive_int("fail_after", fail_after)
        check_positive_int("hot_threshold", hot_threshold, minimum=0)
        check_positive_int("max_n", max_n, minimum=2)
        self.host = host
        self.port = port
        self.ring = HashRing([s.shard_id for s in shards], vnodes=vnodes, seed=seed)
        self.replication = replication
        self.request_timeout = request_timeout
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.fail_after = fail_after
        self.hot_threshold = hot_threshold
        self.rejoin = rejoin
        self.max_n = max_n
        self._specs: Dict[int, ShardSpec] = {s.shard_id: s for s in shards}
        if len(self._specs) != len(shards):
            raise ValueError("duplicate shard ids in the initial membership")
        self._clients: Dict[int, PlanClient] = {}
        # Serializes dials so concurrent forwards to a cold shard share
        # one connection instead of stampeding (and leaking the losers).
        self._connect_lock = asyncio.Lock()
        self._strikes: Dict[int, int] = {}
        self._down: Set[int] = set()
        self._health: Dict[int, dict] = {}
        self._hot_counts: Dict[str, int] = {}
        self._warmed: Set[str] = set()
        self.forwarded = Counter()
        self.failovers = Counter()
        self.failed_shards = Counter()
        self.rejoins = Counter()
        self.warmed_keys = Counter()
        self.errors = Counter()
        self._server: Optional[asyncio.base_events.Server] = None
        self._probe_task: Optional[asyncio.Task] = None
        self._request_tasks: Set[asyncio.Task] = set()
        self._connections: Set[framing.LineProtocol] = set()
        # Relays on a shard link that have not had their outcome yet,
        # and the future shutdown waits on until that count is 0.
        self._relays = 0
        self._idle: Optional[asyncio.Future] = None
        self._draining = False
        self._closed = False
        GLOBAL_METRICS.register("router", self._router_tree)

    # -- observability -------------------------------------------------

    def _router_tree(self) -> dict:
        """The router's registry subtree (its ``shard="router"`` series)."""
        return {
            "counters": {
                "forwarded": self.forwarded.value,
                "failovers": self.failovers.value,
                "failed_shards": self.failed_shards.value,
                "rejoins": self.rejoins.value,
                "warmed_keys": self.warmed_keys.value,
                "errors": self.errors.value,
            },
            "ring_epoch": self.ring.epoch,
            "members": len(self.ring.members),
            "down": len(self._down),
        }

    def status_report(self) -> dict:
        """The ``status`` wire payload / ``cluster status`` CLI view."""
        shards = {}
        for sid, spec in sorted(self._specs.items()):
            health = self._health.get(sid)
            shards[str(sid)] = {
                "host": spec.host,
                "port": spec.port,
                "up": sid not in self._down,
                "strikes": self._strikes.get(sid, 0),
                "status": health.get("status") if health else None,
                "ring_epoch": health.get("ring_epoch") if health else None,
                "recovered_entries": (
                    health.get("recovered_entries") if health else None
                ),
            }
        return {
            "ring": self.ring.to_map(),
            "down": sorted(self._down),
            "replication": self.replication,
            "shards": shards,
            "counters": {
                "forwarded": self.forwarded.value,
                "failovers": self.failovers.value,
                "failed_shards": self.failed_shards.value,
                "rejoins": self.rejoins.value,
                "warmed_keys": self.warmed_keys.value,
                "errors": self.errors.value,
            },
        }

    def _cluster_exposition(self) -> str:
        """The merged per-shard Prometheus document (see module doc)."""
        snapshots: Dict[str, dict] = {"router": {"router": self._router_tree()}}
        for sid, health in self._health.items():
            if sid in self._down:
                continue
            metrics = health.get("metrics")
            if isinstance(metrics, dict):
                snapshots[str(sid)] = metrics
        return render_prometheus_cluster(snapshots)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Connect to the shards, push epoch 0 config, bind, start probes."""
        if self._server is not None:
            raise RuntimeError("router already started")
        await self._configure_members()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: framing.LineProtocol(self._line_received, self._connections),
            self.host,
            self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def shutdown(self) -> None:
        """Stop probing and accepting; close every shard connection."""
        self._draining = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._probe_task = None
        if self._server is not None:
            self._server.close()
        # In-flight forwards finish first: relays on their links, and
        # tasks walking a replica chain.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.request_timeout
        if self._relays:
            self._idle = loop.create_future()
            await asyncio.wait([self._idle], timeout=self.request_timeout)
        tasks = [t for t in self._request_tasks if not t.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=max(deadline - loop.time(), 0.0))
        self._closed = True
        for task in self._request_tasks:
            task.cancel()
        for connection in list(self._connections):
            connection.close()
        for client in list(self._clients.values()):
            await client.close()
        self._clients.clear()
        GLOBAL_METRICS.unregister("router")

    async def run_until_signal(self) -> None:
        """Serve until SIGTERM/SIGINT (the CLI's ``cluster route`` loop)."""
        import signal as _signal

        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        stop = loop.create_future()

        def _request_stop(signame: str) -> None:
            if not stop.done():
                stop.set_result(signame)

        for sig in (_signal.SIGTERM, _signal.SIGINT):
            loop.add_signal_handler(sig, _request_stop, sig.name)
        try:
            await stop
        finally:
            for sig in (_signal.SIGTERM, _signal.SIGINT):
                loop.remove_signal_handler(sig)
            await self.shutdown()

    # -- shard connections ---------------------------------------------

    async def _client(self, shard_id: int) -> Optional[PlanClient]:
        """A live pipelined connection to ``shard_id`` (or ``None``)."""
        client = self._clients.get(shard_id)
        if client is not None and client.alive:
            return client
        async with self._connect_lock:
            client = self._clients.get(shard_id)  # a waiter may have dialed
            if client is not None and client.alive:
                return client
            if client is not None:
                await client.close()
                self._clients.pop(shard_id, None)
            spec = self._specs[shard_id]
            try:
                client = await PlanClient.connect(
                    spec.host, spec.port, timeout=self.probe_timeout
                )
            except PlanServiceError:
                return None
            self._clients[shard_id] = client
            return client

    def _strike(self, shard_id: int) -> None:
        self._strikes[shard_id] = self._strikes.get(shard_id, 0) + 1
        if (
            self._strikes[shard_id] >= self.fail_after
            and shard_id in self.ring.members
            and len(self.ring.members) > 1
        ):
            asyncio.ensure_future(self._fail_shard(shard_id))

    async def _fail_shard(self, shard_id: int) -> None:
        """Evict a dead shard: ring drop, epoch bump, survivor config."""
        if shard_id not in self.ring.members or len(self.ring.members) <= 1:
            return
        self.ring.remove_shard(shard_id)
        self._down.add(shard_id)
        self.failed_shards.inc()
        client = self._clients.pop(shard_id, None)
        if client is not None:
            await client.close()
        await self._configure_members()

    async def _rejoin_shard(self, shard_id: int) -> None:
        """Re-admit a recovered shard (respawned worker, warm journal)."""
        if shard_id in self.ring.members:
            return
        self.ring.add_shard(shard_id)
        self._down.discard(shard_id)
        self._strikes[shard_id] = 0
        self.rejoins.inc()
        # A fresh epoch invalidates warm-set bookkeeping: ownership moved.
        self._warmed.clear()
        await self._configure_members()

    async def _configure_members(self) -> None:
        """Best-effort ``configure`` push of the current epoch to members."""
        for sid in self.ring.members:
            client = await self._client(sid)
            if client is None:
                continue
            try:
                await client.configure(ring_epoch=self.ring.epoch, shard_id=sid)
            except (PlanServiceError, ConnectionError, RuntimeError):
                continue

    # -- health probing ------------------------------------------------

    async def _probe_loop(self) -> None:
        while not self._draining:
            await asyncio.sleep(self.probe_interval)
            await self._probe_once()

    async def _probe_once(self) -> None:
        watched = set(self.ring.members) | (self._down if self.rejoin else set())
        for sid in sorted(watched):
            client = await self._client(sid)
            if client is None:
                self._miss(sid)
                continue
            try:
                response = await client.request(
                    {"type": "health"}, timeout=self.probe_timeout
                )
                health = response.get("health") if response.get("ok") else None
            except (PlanServiceError, ConnectionError, RuntimeError):
                health = None
            if health is None:
                self._miss(sid)
                continue
            self._health[sid] = health
            self._strikes[sid] = 0
            if sid in self._down:
                await self._rejoin_shard(sid)

    def _miss(self, sid: int) -> None:
        self._strikes[sid] = self._strikes.get(sid, 0) + 1
        if (
            sid in self.ring.members
            and self._strikes[sid] >= self.fail_after
            and len(self.ring.members) > 1
        ):
            asyncio.ensure_future(self._fail_shard(sid))

    # -- hot-key warming -----------------------------------------------

    def _note_hot(self, key: str, request, params, chain) -> None:
        if self.hot_threshold == 0 or len(chain) < 2:
            return
        count = self._hot_counts.get(key, 0) + 1
        self._hot_counts[key] = count
        if count >= self.hot_threshold and key not in self._warmed:
            self._warmed.add(key)
            self.warmed_keys.inc()
            asyncio.ensure_future(self._warm_replica(chain[1], request, params))

    async def _warm_replica(self, shard_id: int, request, params) -> None:
        """Fire-and-forget: have the replica compute (and memoize) the key.

        The replica memoizes the entry its answers read.  The answer is
        only a side effect, so its bytes are dropped undecoded.
        """
        client = await self._client(shard_id)
        if client is None:
            return
        wire = _plan_payload(request.n, request.m, params, request.exclude)
        try:
            await client.request_raw(wire, timeout=self.request_timeout)
        except (PlanServiceError, ConnectionError, RuntimeError):
            pass

    # -- request handling ----------------------------------------------

    def _line_received(self, line: bytes, connection: framing.LineProtocol) -> Optional[bytes]:
        """A client's line: its answer now, or ``None`` once it is forwarded."""
        request_id = None
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise _BadRequest("request must be a JSON object")
            request_id = payload.get("id")
            kind = payload.get("type")
            if kind == "plan" or kind == "amend":
                response = self._forward_request(payload, kind, request_id, connection)
                if response is None:
                    return None
            elif kind == "shard_map":
                response = {
                    "id": request_id,
                    "ok": True,
                    "map": self.ring.to_map(),
                    "shards": {
                        str(sid): spec.to_dict()
                        for sid, spec in sorted(self._specs.items())
                        if sid in self.ring.members
                    },
                    "router": {"host": self.host, "port": self.port},
                }
            elif kind == "status":
                response = {"id": request_id, "ok": True, "status": self.status_report()}
            elif kind == "health":
                response = {
                    "id": request_id,
                    "ok": True,
                    "health": {
                        "status": "draining" if self._draining else "ok",
                        "role": "router",
                        "ring_epoch": self.ring.epoch,
                        "members": list(self.ring.members),
                        "down": sorted(self._down),
                    },
                }
            elif kind == "ping":
                response = {"id": request_id, "ok": True, "pong": True}
            elif kind == "stats":
                response = {"id": request_id, "ok": True, "stats": self._router_tree()}
            elif kind == "metrics":
                response = {
                    "id": request_id,
                    "ok": True,
                    "content_type": "text/plain; version=0.0.4",
                    "metrics": self._cluster_exposition(),
                }
            else:
                raise _BadRequest(f"unknown request type {kind!r}")
        except _BadRequest as exc:
            self.errors.inc()
            response = _error(request_id, "bad_request", str(exc))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.errors.inc()
            response = _error(request_id, "bad_request", f"invalid JSON: {exc}")
        except Exception as exc:  # noqa: BLE001 - the router must answer
            self.errors.inc()
            response = _internal(request_id, exc)
        return self._frame(request_id, response)

    def _frame(self, request_id, response: Union[bytes, dict]) -> bytes:
        """The answer line of ``response``, within the frame limit."""
        data = response if isinstance(response, bytes) else _encode(response)
        if len(data) > framing.MAX_FRAME_BYTES:
            self.errors.inc()
            data = _encode(_too_large(request_id, len(data)))
        return data

    def _forward_request(
        self, payload: dict, kind: str, request_id, connection: framing.LineProtocol
    ) -> Optional[dict]:
        """Send a plan or amend to the shard its key names.

        Only the ``params`` a client sent travel on.  An amend is routed
        by its *amended* plan key: the delta is folded into the
        equivalent plan request first (the same fold the shard
        performs), so every amend of the same live plan walks the same
        replica chain as the plan it amends into — dedupe locality
        holds across churn.  The raw delta is still what gets
        forwarded: the shard keeps its own ``amends`` accounting and
        answers with the ``amended`` echo.  Returns an error response,
        or ``None`` once the request is on its way.
        """
        _check_form(payload)  # an unknown form is this hop's bad_request
        if kind == "plan":
            request = _parse_plan_request(payload, self.max_n)
            params = request.params if payload.get("params") is not None else None
            wire = _plan_payload(request.n, request.m, params, request.exclude)
        else:
            from ..faults.repair import SourceFailedError as _SourceFailed
            from ..service.server import _parse_amend_request

            try:
                request = _parse_amend_request(payload, self.max_n)
            except _SourceFailed as exc:
                self.errors.inc()
                return _error(request_id, "source_failed", str(exc))
            params = request.params if payload.get("params") is not None else None
            delta = payload.get("delta") or {}
            wire = _amend_payload(
                payload["n"],
                payload["m"],
                params,
                tuple(payload.get("exclude", ())),
                delta.get("join", 0),
                tuple(delta.get("leave", ())),
            )
        key = plan_key(request.n, request.m, request.params)
        chain = self.ring.chain(key, self.replication)
        self._note_hot(key, request, params, chain)
        self.forwarded.inc()
        client = self._clients.get(chain[0])
        if client is not None and client.alive:
            self._relays += 1
            client._send(wire, _Relay(self, connection, request_id, wire, chain), self.request_timeout)
        else:
            self._answer_later(self._forward(request_id, wire, chain), request_id, connection)
        return None

    def _relay_done(self) -> None:
        self._relays -= 1
        if not self._relays and self._idle is not None and not self._idle.done():
            self._idle.set_result(None)

    def _relayed(self, request_id, body: bytes, hop: int, sid: int) -> bytes:
        """A shard's answer body behind the client's id, naming the shard."""
        if hop > 0:
            self.failovers.inc()
        return b"".join(
            (framing.ID_PREFIX, framing.encode_id(request_id), body, b',"shard":%d}\n' % sid)
        )

    def _hop_error(self, sid: int, exc: Exception) -> Optional[dict]:
        """The error a failed hop carries down the replica chain, or
        ``None`` if the failure is not worth the next hop."""
        if not _is_transient(exc):
            return None
        if not isinstance(exc, OverloadedError):
            self._strike(sid)
        return {"code": getattr(exc, "code", "unavailable"), "message": str(exc)}

    def _relay_failed(self, relay: "_Relay", exc: Exception) -> None:
        """The primary did not answer a relay with a plan: answer the
        error, or walk on down the chain in :meth:`_forward`."""
        if self._closed:
            return
        error = self._hop_error(relay.chain[0], exc)
        if error is None:
            self.errors.inc()
            relay.connection.write(self._frame(relay.request_id, _final_error(relay.request_id, exc)))
        else:
            self._answer_later(
                self._forward(relay.request_id, relay.wire, relay.chain, 1, error),
                relay.request_id,
                relay.connection,
            )

    def _answer_later(
        self, answer: Coroutine, request_id, connection: framing.LineProtocol
    ) -> None:
        task = asyncio.ensure_future(self._write_answer(answer, request_id, connection))
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

    async def _write_answer(
        self, answer: Coroutine, request_id, connection: framing.LineProtocol
    ) -> None:
        try:
            response = await answer
        except Exception as exc:  # noqa: BLE001 - the router must answer
            self.errors.inc()
            response = _internal(request_id, exc)
        connection.write(self._frame(request_id, response))

    async def _forward(
        self, request_id, wire: dict, chain, hop: int = 0, last_error: Optional[dict] = None
    ) -> Union[bytes, dict]:
        """Walk the replica ``chain`` from ``hop``, sending ``wire`` to
        each shard until one answers; dial shards as needed.

        Returns the relayed answer line, or an error response.
        """
        for hop in range(hop, len(chain)):
            sid = chain[hop]
            client = await self._client(sid)
            if client is None:
                self._strike(sid)
                last_error = {
                    "code": "unavailable",
                    "message": f"shard {sid} is unreachable",
                }
                continue
            try:
                # The router is the map's authority: forwards are not
                # epoch-stamped, so a mid-failover epoch bump never
                # fences the router's own traffic.
                line = await client.request_raw(wire, timeout=self.request_timeout)
                body = _ok_body(line, amend=wire["type"] == "amend")
            except Exception as exc:  # noqa: BLE001 - classified below
                last_error = self._hop_error(sid, exc)
                if last_error is None:
                    self.errors.inc()
                    return _final_error(request_id, exc)
                continue
            return self._relayed(request_id, body, hop, sid)
        self.errors.inc()
        error = last_error or {"code": "unavailable", "message": "no shard answered"}
        return _error(
            request_id,
            error["code"] if error["code"] in ("overloaded",) else "unavailable",
            f"all {len(chain)} replica(s) failed; last: {error['message']}",
        )


class _Relay:
    """A forward on its primary's link, answered from the link's read
    callback: a ``"ok":true`` line is relayed at once; anything else
    goes to :meth:`ClusterRouter._relay_failed`."""

    __slots__ = ("router", "connection", "request_id", "wire", "chain")

    def __init__(self, router, connection, request_id, wire, chain) -> None:
        self.router = router
        self.connection = connection
        self.request_id = request_id
        self.wire = wire
        self.chain = chain

    def done(self) -> bool:
        return False  # a link hands each waiter one outcome

    def set_result(self, line: bytes) -> None:
        router = self.router
        try:
            body = _ok_body(line, amend=self.wire["type"] == "amend")
        except Exception as exc:  # noqa: BLE001 - classified by the router
            router._relay_done()
            router._relay_failed(self, exc)
            return
        self.connection.write_soon(
            router._frame(self.request_id, router._relayed(self.request_id, body, 0, self.chain[0]))
        )
        # After the write is queued: a draining router closes its
        # connections once the last relay is done.
        router._relay_done()

    def set_exception(self, exc: Exception) -> None:
        self.router._relay_done()
        self.router._relay_failed(self, exc)


def _final_error(request_id, exc: Exception) -> dict:
    """The answer to a forward that failed for good."""
    if isinstance(exc, PlanServiceError):
        return _error(request_id, exc.code, exc.message)
    return _internal(request_id, exc)


def _ok_body(line: bytes, amend: bool) -> bytes:
    """A shard's ``"ok":true`` answer minus its id and closing brace.

    Any other answer is decoded and raised as its typed
    :class:`PlanServiceError`.  ``amend`` drops the shard's trailing
    ``"amended"`` echo.
    """
    _, end = framing.leading_id(line)
    if not (end and line.startswith(_OK, end + 1)):
        response = json.loads(line)
        _raise_for(response.get("error") or {"message": "answer is not id-first framed"})
    stop = line.rfind(_AMENDED, end) if amend else -1
    return line[end : stop if stop > 0 else -2]
