"""Service request journaling: warm restarts for the plan service.

The plan service's speed comes from its memo tables (the compact memo
:func:`~repro.service.planner._plan_shape` that
:func:`~repro.service.planner.plan_compact_json` fills, and the
:mod:`repro.core.cache` layers underneath) — and those die with the
process.  After a restart, the first client to ask for each popular
``(n, k, m, ports)`` shape pays the full schedule construction again:
a cold-cache latency cliff exactly when the service just proved it can
crash.

:class:`RequestJournal` removes the cliff.  The server appends one
checksummed JSON line per accepted plan request that warms a memo
entry no earlier line warms (the journal is a warm-cache seed, not an
audit log).  The compact memo is keyed ``(n - |exclude|, m, ports)``,
so requests that differ only in which positions they exclude, or in
machine times, share an entry: only the first is written, and the rest
are deduplicated in memory and never hit disk.  On restart,
:meth:`replay` re-encodes every journaled request, repopulating the
memo the server's answers read before the socket accepts traffic, and
reports how many entries it recovered — surfaced on the server's
``health`` endpoint as ``recovered_entries``.

Durability posture: lines carry the same CRC-32 convention as the
sweep's :mod:`~repro.durable.journal`, but loading is deliberately
*lenient* — a torn, corrupt, or unparseable line is counted and
skipped, never fatal.  Losing a journal line costs one cold cache
fill; refusing to start the service over one would invert the
trade-off.  Appends are flushed but not fsynced by default for the
same reason (pass ``fsync=True`` to harden).
"""

from __future__ import annotations

import json
import os
from typing import Set, Tuple, Union

from ..durable.journal import _encode_line, _line_crc
from ..durable.metrics import DURABLE_METRICS
from ..params import MachineParams
from .planner import MAX_PLAN_WORK, PlanRequest, plan_compact_json, plan_work

__all__ = ["RequestJournal"]

#: Bump when the entry format changes incompatibly.
REQUEST_JOURNAL_VERSION = 1


class RequestJournal:
    """Append-only journal of distinct accepted plan requests.

    Parameters
    ----------
    path:
        Journal file; created (with a version header) on first append
        if missing.
    fsync:
        Fsync each append.  Off by default: the journal trades at most
        one entry of warmth for request-path latency.
    """

    def __init__(self, path: Union[str, os.PathLike], *, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        #: Entries re-planned by the last :meth:`replay`.
        self.recovered_entries = 0
        #: Lines skipped as torn/corrupt by the last :meth:`replay`.
        self.skipped_entries = 0
        self._seen: Set[Tuple] = set()

    @staticmethod
    def _key(request: PlanRequest) -> Tuple[int, int, int]:
        """The compact memo key that replaying ``request`` warms."""
        return (request.n - len(request.exclude), request.m, request.params.ports)

    # -- write path ----------------------------------------------------------
    def record(self, request: PlanRequest) -> bool:
        """Append ``request`` if it warms a memo entry no journaled
        request warms; return whether it was written."""
        key = self._key(request)
        if key in self._seen:
            return False
        self._seen.add(key)
        entry = {
            "kind": "plan",
            "version": REQUEST_JOURNAL_VERSION,
            "n": request.n,
            "m": request.m,
            "params": request.params.to_dict(),
            "exclude": list(request.exclude),
        }
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(_encode_line(entry))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        return True

    # -- read path -----------------------------------------------------------
    def load(self) -> Tuple[list, int]:
        """(requests, skipped): every intact journaled request, in order.

        Lenient by design — lines that are torn, fail their checksum,
        or no longer parse into a valid :class:`PlanRequest` are
        counted in ``skipped`` and ignored.  So is a request over
        :data:`~repro.service.planner.MAX_PLAN_WORK`: the server
        refuses it, and replaying it would stall (or exhaust the memory
        of) the restart before the socket binds.
        """
        if not os.path.exists(self.path):
            return [], 0
        requests = []
        skipped = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    entry = json.loads(stripped)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if not isinstance(entry, dict):
                    skipped += 1
                    continue
                if entry.pop("crc32", None) != _line_crc(entry):
                    skipped += 1
                    continue
                if (
                    entry.get("kind") != "plan"
                    or entry.get("version") != REQUEST_JOURNAL_VERSION
                ):
                    skipped += 1
                    continue
                try:
                    request = PlanRequest(
                        n=entry["n"],
                        m=entry["m"],
                        params=MachineParams.from_dict(entry["params"]),
                        exclude=tuple(entry.get("exclude", ())),
                    )
                except (KeyError, TypeError, ValueError):
                    skipped += 1
                    continue
                if plan_work(request) > MAX_PLAN_WORK:
                    skipped += 1
                    continue
                requests.append(request)
        return requests, skipped

    def replay(self) -> int:
        """Re-encode every journaled request, warming the compact memo.

        Returns the number of recovered entries (also kept on
        :attr:`recovered_entries`); marks each as seen so the restarted
        server does not re-append the same requests.
        """
        requests, skipped = self.load()
        for request in requests:
            self._seen.add(self._key(request))
            plan_compact_json(request)
        self.recovered_entries = len(requests)
        self.skipped_entries = skipped
        if requests:
            DURABLE_METRICS.inc("journal_entries_recovered", len(requests))
        return self.recovered_entries
