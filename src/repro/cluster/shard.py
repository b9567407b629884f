"""Shard worker processes: one ``PlanServer`` per OS process.

A shard is nothing new — it is the existing plan service, spawned as a
child process through the same ``repro-mcast serve`` CLI an operator
would run by hand, with two extra flags (``--shard-id``,
``--ring-epoch``) that teach it its place in the ring.  Reusing the
CLI (rather than ``multiprocessing``) buys three things: the child
inherits the environment verbatim, there is no fork-with-running-
event-loop or spawn-pickling hazard under pytest, and ``SIGKILL`` is a
*real* crash — exactly what the failover drill needs.

:class:`ShardProcess` wraps one child: spawn on an ephemeral port
(parsing the bound address from the CLI's ``listening on host:port``
line), journal-backed if asked (the journal survives the process, so a
respawned shard replays its accepted keys — warm handoff), and
``kill()``/``terminate()``/``wait()`` for lifecycle control.

:func:`scripted_kills` turns a :class:`~repro.faults.FaultSchedule`'s
``node_crash`` events into wall-clock SIGKILLs against live shards —
the same fault vocabulary the chaos harness uses against simulated
nodes, now aimed at real processes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..durable.errors import ValidationError, check_positive_int, check_positive_number
from ..faults.schedule import FaultSchedule

__all__ = ["ShardProcess", "ShardSpec", "scripted_kills", "spawn_shards"]

#: Seconds a freshly spawned shard gets to print its bound address.
SPAWN_DEADLINE = 20.0


@dataclass(frozen=True)
class ShardSpec:
    """Address record for one shard — what routers and maps carry."""

    shard_id: int
    host: str
    port: int

    def __post_init__(self) -> None:
        check_positive_int("shard_id", self.shard_id, minimum=0)
        check_positive_int("port", self.port)
        if not self.host:
            raise ValidationError("host must be non-empty")

    def to_dict(self) -> Dict[str, object]:
        return {"shard_id": self.shard_id, "host": self.host, "port": self.port}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardSpec":
        try:
            return cls(
                shard_id=int(payload["shard_id"]),  # type: ignore[arg-type]
                host=str(payload["host"]),
                port=int(payload["port"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad shard spec: {exc}") from exc


def _child_env() -> Dict[str, str]:
    """The child's environment: ours, with ``src/`` on ``PYTHONPATH``.

    The tests run from a source tree (``PYTHONPATH=src``); an installed
    package resolves the same way because the parent of the ``repro``
    package directory is prepended either way.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else os.pathsep.join([src_dir, existing])
    return env


class ShardProcess:
    """One live shard child process and its parsed address."""

    def __init__(self, spec: ShardSpec, process: subprocess.Popen) -> None:
        self.spec = spec
        self.process = process

    @property
    def shard_id(self) -> int:
        return self.spec.shard_id

    @property
    def pid(self) -> int:
        return self.process.pid

    @classmethod
    def spawn(
        cls,
        shard_id: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ring_epoch: int = 0,
        workers: int = 1,
        max_inflight: Optional[int] = None,
        journal: Optional[str] = None,
        deadline: float = SPAWN_DEADLINE,
    ) -> "ShardProcess":
        """Start one shard and block until it reports its bound port."""
        check_positive_int("shard_id", shard_id, minimum=0)
        check_positive_int("ring_epoch", ring_epoch, minimum=0)
        check_positive_number("deadline", deadline)
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            host,
            "--port",
            str(port),
            "--workers",
            str(workers),
            "--shard-id",
            str(shard_id),
            "--ring-epoch",
            str(ring_epoch),
        ]
        if max_inflight is not None:
            argv += ["--max-inflight", str(max_inflight)]
        if journal is not None:
            argv += ["--journal", journal]
        process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_child_env(),
            text=True,
        )
        bound = cls._await_listening(process, deadline)
        return cls(ShardSpec(shard_id=shard_id, host=bound[0], port=bound[1]), process)

    @staticmethod
    def _await_listening(process: subprocess.Popen, deadline: float):
        """Parse ``plan service listening on host:port`` from the child.

        The readline itself can only block while the child is alive and
        silent; a watchdog timer SIGKILLs the child at the deadline so a
        wedged spawn surfaces as an error instead of a hang.
        """
        watchdog = threading.Timer(deadline, process.kill)
        watchdog.daemon = True
        watchdog.start()
        banner: List[str] = []
        try:
            assert process.stdout is not None
            for line in process.stdout:
                banner.append(line.rstrip("\n"))
                if line.startswith("plan service listening on "):
                    address = line.rsplit(" ", 1)[1].strip()
                    host, _, port_text = address.rpartition(":")
                    return host, int(port_text)
            raise RuntimeError(
                "shard exited before reporting its port; output was:\n"
                + "\n".join(banner)
            )
        finally:
            watchdog.cancel()

    def poll(self) -> Optional[int]:
        return self.process.poll()

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — the crash-failure the failover drill simulates.

        The child is reaped and its output pipe closed before this
        returns, so a killed shard leaves no zombie or open file.
        """
        if self.alive:
            self.process.send_signal(signal.SIGKILL)
        self.wait()

    def terminate(self) -> None:
        """SIGTERM — the shard drains in-flight requests, then exits."""
        if self.alive:
            self.process.send_signal(signal.SIGTERM)

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        try:
            return self.process.wait(timeout=timeout)
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else f"exited({self.process.poll()})"
        return f"ShardProcess(shard={self.shard_id}, pid={self.pid}, {state})"


def spawn_shards(
    count: int,
    *,
    host: str = "127.0.0.1",
    workers: int = 1,
    max_inflight: Optional[int] = None,
    journal_dir: Optional[str] = None,
) -> List[ShardProcess]:
    """Spawn ``count`` shards on ephemeral ports; kill all on any failure."""
    check_positive_int("count", count)
    shards: List[ShardProcess] = []
    try:
        for sid in range(count):
            journal = (
                str(Path(journal_dir) / f"shard-{sid}.journal") if journal_dir else None
            )
            shards.append(
                ShardProcess.spawn(
                    sid,
                    host=host,
                    workers=workers,
                    max_inflight=max_inflight,
                    journal=journal,
                )
            )
    except BaseException:
        for shard in shards:
            shard.kill()
        raise
    return shards


def scripted_kills(
    shards: Sequence[ShardProcess],
    schedule: FaultSchedule,
    *,
    start_time: Optional[float] = None,
) -> threading.Thread:
    """Apply a fault schedule's ``node_crash`` events as real SIGKILLs.

    Event ``time`` is seconds from ``start_time`` (default: now) and
    ``target`` is a shard id.  Returns the started daemon thread; join
    it to know every scripted kill has been delivered.
    """
    by_id = {shard.shard_id: shard for shard in shards}
    crashes = [e for e in schedule.events if e.kind == "node_crash"]
    for event in crashes:
        if event.target not in by_id:
            raise ValidationError(
                f"fault schedule targets shard {event.target!r}; have {sorted(by_id)}"
            )
    origin = time.monotonic() if start_time is None else start_time

    def run() -> None:
        for event in crashes:  # FaultSchedule keeps events time-sorted
            delay = origin + event.time - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            by_id[event.target].kill()

    thread = threading.Thread(target=run, name="shard-kill-script", daemon=True)
    thread.start()
    return thread
