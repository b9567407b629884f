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
shard's own bytes.  The router takes the shard's ``"ok":true`` line
(:meth:`PlanClient.request_raw`), swaps the id-first prefix for its
client's id and appends ``,"shard":<sid>`` — the plan body is never
decoded or re-encoded on this hop.  It drops a shard's ``"amended"``
echo, so a routed amend answers ``{"id", "ok", "result", "shard"}``
like a routed plan.  Only lines that are not ``"ok":true`` are parsed,
to classify the error for failover.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Sequence, Set, Union

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
from ..service.server import _BadRequest, _encode, _error, _parse_plan_request, _too_large
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
        self._writers: Set[asyncio.StreamWriter] = set()
        self._draining = False
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
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=framing.MAX_FRAME_BYTES
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
        tasks = [t for t in self._request_tasks if not t.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=self.request_timeout)
        for task in self._request_tasks:
            task.cancel()
        for writer in list(self._writers):
            writer.close()
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

    def _note_hot(self, key: str, request, chain) -> None:
        if self.hot_threshold == 0 or len(chain) < 2:
            return
        count = self._hot_counts.get(key, 0) + 1
        self._hot_counts[key] = count
        if count >= self.hot_threshold and key not in self._warmed:
            self._warmed.add(key)
            self.warmed_keys.inc()
            asyncio.ensure_future(self._warm_replica(chain[1], request))

    async def _warm_replica(self, shard_id: int, request) -> None:
        """Fire-and-forget: have the replica compute (and memoize) the key.

        The answer is only a side effect, so its bytes are dropped
        undecoded.
        """
        client = await self._client(shard_id)
        if client is None:
            return
        wire = _plan_payload(request.n, request.m, request.params, request.exclude)
        try:
            await client.request_raw(wire, timeout=self.request_timeout)
        except (PlanServiceError, ConnectionError, RuntimeError):
            pass

    # -- request handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer,
                        write_lock,
                        _encode(_error(None, "bad_request", "request line too long")),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(self._handle_line(line, writer, write_lock))
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except ConnectionError:
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already-broken socket
                pass

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        request_id = None
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise _BadRequest("request must be a JSON object")
            request_id = payload.get("id")
            kind = payload.get("type")
            if kind == "plan":
                response = await self._forward_plan(payload, request_id)
            elif kind == "amend":
                response = await self._forward_amend(payload, request_id)
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
            response = _error(request_id, "internal", f"{type(exc).__name__}: {exc}")
        data = response if isinstance(response, bytes) else _encode(response)
        if len(data) > framing.MAX_FRAME_BYTES:
            self.errors.inc()
            data = _encode(_too_large(request_id, len(data)))
        await self._write(writer, write_lock, data)

    async def _forward_plan(self, payload: dict, request_id) -> Union[bytes, dict]:
        request = _parse_plan_request(payload, self.max_n)
        wire = _plan_payload(request.n, request.m, request.params, request.exclude)
        return await self._forward(request, request_id, wire)

    async def _forward_amend(self, payload: dict, request_id) -> Union[bytes, dict]:
        """Route an amend by its *amended* plan key.

        The delta is folded into the equivalent plan request first
        (the same fold the shard performs), so every amend of the same
        live plan walks the same replica chain as the plan it amends
        into — dedupe locality holds across churn.  The raw delta is
        still what gets forwarded: the shard keeps its own ``amends``
        accounting and answers with the ``amended`` echo.
        """
        from ..faults.repair import SourceFailedError as _SourceFailed
        from ..service.server import _parse_amend_request

        try:
            request = _parse_amend_request(payload, self.max_n)
        except _SourceFailed as exc:
            self.errors.inc()
            return _error(request_id, "source_failed", str(exc))
        delta = payload.get("delta") or {}
        wire = _amend_payload(
            payload["n"],
            payload["m"],
            request.params,
            tuple(payload.get("exclude", ())),
            delta.get("join", 0),
            tuple(delta.get("leave", ())),
        )
        return await self._forward(request, request_id, wire)

    async def _forward(self, request, request_id, wire: dict) -> Union[bytes, dict]:
        """Walk the key's replica chain, sending ``wire`` to each shard.

        Returns the relayed answer line, or an error response.
        """
        key = plan_key(request.n, request.m, request.params)
        chain = self.ring.chain(key, self.replication)
        self._note_hot(key, request, chain)
        self.forwarded.inc()
        last_error: Optional[dict] = None
        for hop, sid in enumerate(chain):
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
                if not _is_transient(exc):
                    if isinstance(exc, PlanServiceError):
                        self.errors.inc()
                        return _error(request_id, exc.code, exc.message)
                    raise
                if not isinstance(exc, OverloadedError):
                    self._strike(sid)
                last_error = {
                    "code": getattr(exc, "code", "unavailable"),
                    "message": str(exc),
                }
                continue
            if hop > 0:
                self.failovers.inc()
            return b"".join(
                (framing.ID_PREFIX, framing.encode_id(request_id), body, b',"shard":%d}\n' % sid)
            )
        self.errors.inc()
        error = last_error or {"code": "unavailable", "message": "no shard answered"}
        return _error(
            request_id,
            error["code"] if error["code"] in ("overloaded",) else "unavailable",
            f"all {len(chain)} replica(s) failed; last: {error['message']}",
        )

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, write_lock: asyncio.Lock, data: bytes
    ) -> None:
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except ConnectionError:  # client went away; nothing to tell it
            pass


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
