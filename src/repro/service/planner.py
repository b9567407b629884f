"""The plan function: (n, m, machine) → optimal tree + FPFS schedule.

One plan query is exactly the decision the paper's smart NI makes per
multicast: resolve the optimal fan-out cap k (Theorem 3), build the
k-binomial tree (Fig. 11), and derive the per-node FPFS forwarding
schedule with its cost breakdown — ``T1`` steps for the first packet,
``(m-1)·k_T`` pipeline steps for the rest (Theorem 2), and the
``c·t_sq`` NI buffer residence bound (§3.3.2).

Everything here is pure and memoized: requests are keyed on
``(n, m, MachineParams)``, node identity never matters (``range(n)``
stands in for any chain, as in :func:`repro.core.cache`), and a
request with excluded positions reuses the canonical schedule of its
``n - |exclude|`` survivors, relabelled onto their original positions.

There are two outputs and a memo for each.  :func:`plan` returns a
:class:`PlanResult` (the library API, and the oracle the tests hold
the service to), built from :class:`NodePlan` rows.  :func:`plan_json`
returns the same result already JSON-encoded, as the plan service
sends it, filled into a memoized wire template without building any
rows.  :func:`plan_json_warm` is :func:`plan_json` from the wire memo
alone: it answers ``None`` instead of computing, which is how the
plan service tells a warm key, answered on its event loop, from a
cold one it batches.  Both memos register in the
:mod:`repro.core.cache` registry, so the hit rates are observable via
:func:`~repro.core.cache.cache_stats` (``plan_schedule`` for the rows,
``plan_wire`` for the templates).

The analytic half of a plan comes from the same memos as everywhere
else: the Theorem-3 fan-out from :func:`~repro.core.optimal.optimal_k`
and ``T1`` from :func:`~repro.core.cache.cached_steps_needed`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..core.cache import cached_build_kbinomial_tree, cached_steps_needed, register_cache
from ..durable.errors import ValidationError
from ..core.optimal import optimal_k
from ..core.pipeline import fpfs_steps
from ..params import PAPER_MACHINE, MachineParams

__all__ = [
    "MAX_PLAN_WORK",
    "NodePlan",
    "PlanRequest",
    "PlanResult",
    "plan",
    "plan_json",
    "plan_json_warm",
    "plan_work",
]

#: Largest schedule work (:func:`plan_work`) the plan service accepts:
#: the server refuses a larger plan or amend as ``bad_request``, and a
#: journal replay skips it.  An exact FPFS schedule costs O(n·m) time
#: and memory: ``n=64, m=100000`` took 0.75 s and 270 MiB.  At this
#: bound a cold plan took 0.015 s (128 × 1024) to 2.0 s (131,072 × 1,
#: where the tree build and the wire template dominate) on one vCPU of
#: a 2-vCPU KVM guest; 1024 × 32 is the largest plan the repository's
#: own tests, CI and benchmarks ask for.
MAX_PLAN_WORK = 1 << 17


@dataclass(frozen=True)
class PlanRequest:
    """One plan query: multicast set size, packet count, machine view.

    ``n`` counts the source plus all destinations (the paper's
    convention), so the smallest plannable multicast is ``n = 2``.
    Frozen and hashable — the batcher single-flights on request
    equality.

    ``exclude`` names chain positions (``1..n-1``) known to be dead, so
    re-planning after a failure is one call: the planner optimizes over
    the ``n - f`` survivors and maps the schedule back onto the
    surviving original positions.  The source (position 0) cannot be
    excluded — with a dead source there is nothing to plan.
    """

    n: int
    m: int
    params: MachineParams = PAPER_MACHINE
    exclude: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValidationError(f"n must be an integer, got {self.n!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ValidationError(f"m must be an integer, got {self.m!r}")
        if self.n < 2:
            raise ValidationError(f"n must be >= 2 (source plus one destination), got {self.n}")
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")
        if not isinstance(self.params, MachineParams):
            raise ValidationError(f"params must be MachineParams, got {type(self.params).__name__}")
        exclude = tuple(sorted(set(self.exclude)))
        for node in exclude:
            if isinstance(node, bool) or not isinstance(node, int):
                raise ValidationError(f"exclude entries must be integers, got {node!r}")
            if node == 0:
                raise ValidationError("cannot exclude the source (position 0)")
            if not (1 <= node <= self.n - 1):
                raise ValidationError(f"exclude position {node} outside [1, {self.n - 1}]")
        if self.n - len(exclude) < 2:
            raise ValidationError(
                f"excluding {len(exclude)} of {self.n} nodes leaves no destinations"
            )
        object.__setattr__(self, "exclude", exclude)


def plan_work(request: PlanRequest) -> int:
    """``(n - |exclude|) × m``: the size of the request's FPFS schedule."""
    return (request.n - len(request.exclude)) * request.m


@dataclass(frozen=True)
class NodePlan:
    """One node's row of the FPFS forwarding schedule.

    Nodes are chain positions ``0..n-1`` (0 = source); map them onto
    real hosts with any contention-free ordering — the schedule is
    position-invariant.
    """

    #: Chain position of this node.
    node: int
    #: Chain position of the parent (``None`` at the source).
    parent: Optional[int]
    #: Children in FPFS forwarding (send) order.
    children: Tuple[int, ...]
    #: Step at which packet 0 is sent to each child (parallel to
    #: :attr:`children`); later packets follow the pipeline.
    child_first_send: Tuple[int, ...]
    #: Step at which this node receives packet 0 (0 at the source).
    first_recv: int
    #: Step at which this node receives packet ``m - 1``.
    last_recv: int

    def to_dict(self) -> dict:
        """JSON-serializable wire form."""
        return {
            "node": self.node,
            "parent": self.parent,
            "children": list(self.children),
            "child_first_send": list(self.child_first_send),
            "first_recv": self.first_recv,
            "last_recv": self.last_recv,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NodePlan":
        """Parse the wire form back into a :class:`NodePlan`.

        A decoded answer builds one row per node, so this fills the
        instance dict directly: the frozen dataclass's ``__init__``
        would pay one ``object.__setattr__`` per field.  The row equals
        ``NodePlan(**fields)`` and hashes the same.
        """
        row = object.__new__(cls)
        vars(row).update(
            {
                "node": payload["node"],
                "parent": payload["parent"],
                "children": tuple(payload["children"]),
                "child_first_send": tuple(payload["child_first_send"]),
                "first_recv": payload["first_recv"],
                "last_recv": payload["last_recv"],
            }
        )
        return row


@dataclass(frozen=True)
class PlanResult:
    """The planner's answer: tree choice, schedule, and cost breakdown."""

    #: Echo of the request's (n, m).
    n: int
    m: int
    #: Theorem 3's optimal fan-out cap.
    k: int
    #: The constructed tree's root fan-out ``k_T`` (≤ k; the pipeline
    #: interval of Theorem 1).
    root_fanout: int
    #: ``T1(n, k)``: steps for the first packet to reach everyone.
    t1: int
    #: Exact pipeline steps for the remaining packets
    #: (``total_steps - t1``): equals Theorem 2's ``(m - 1) · k_T`` on
    #: full k-binomial trees and never exceeds ``(m - 1) · k``.
    pipeline_steps: int
    #: Exact total steps of the FPFS schedule
    #: (``t1 + pipeline_steps``).
    total_steps: int
    #: End-to-end model latency ``t_s + total_steps·t_step + t_r`` (µs).
    latency_us: float
    #: Worst per-node FPFS buffer residence bound ``c·t_sq`` (µs),
    #: with ``c`` the tree's maximum fan-out (§3.3.2's T_p).
    buffer_bound_us: float
    #: Per-node forwarding schedule, in chain order.
    schedule: Tuple[NodePlan, ...]
    #: Chain positions excluded from the plan (sorted; empty when the
    #: request named none) — schedule rows skip them, and ``t1``/steps
    #: are for the surviving ``n - len(excluded)`` nodes.
    excluded: Tuple[int, ...] = ()

    def to_dict(self) -> dict:
        """JSON-serializable wire form (inverse of :meth:`from_dict`)."""
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "root_fanout": self.root_fanout,
            "t1": self.t1,
            "pipeline_steps": self.pipeline_steps,
            "total_steps": self.total_steps,
            "latency_us": self.latency_us,
            "buffer_bound_us": self.buffer_bound_us,
            "schedule": [row.to_dict() for row in self.schedule],
            "excluded": list(self.excluded),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanResult":
        """Parse the wire form back into a :class:`PlanResult`."""
        return cls(
            n=payload["n"],
            m=payload["m"],
            k=payload["k"],
            root_fanout=payload["root_fanout"],
            t1=payload["t1"],
            pipeline_steps=payload["pipeline_steps"],
            total_steps=payload["total_steps"],
            latency_us=payload["latency_us"],
            buffer_bound_us=payload["buffer_bound_us"],
            schedule=tuple(map(NodePlan.from_dict, payload["schedule"])),
            excluded=tuple(payload.get("excluded", ())),
        )


class _Shape(NamedTuple):
    """What a plan's scalar fields need from its canonical schedule."""

    root_fanout: int
    max_fanout: int
    total_steps: int
    #: ``T1(n, k)``, from :func:`~repro.core.cache.cached_steps_needed`.
    t1: int


def _canonical(n: int, k: int, m: int, ports: int):
    """``(tree, steps, shape)`` of the canonical k-binomial tree over ``range(n)``.

    ``steps`` is the exact per-node :func:`~repro.core.pipeline.fpfs_steps`
    schedule, O(n·m) work, of which a plan reads each node's first and
    last receive step; both schedule memos below are built from it, so
    they hold the same schedule in two forms.
    """
    tree = cached_build_kbinomial_tree(range(n), k)
    steps = fpfs_steps(tree, m, ports=ports)
    shape = _Shape(
        root_fanout=tree.root_fanout,
        max_fanout=tree.max_fanout,
        total_steps=max(recv[-1] for recv in steps.values()),
        t1=cached_steps_needed(n, k),
    )
    return tree, steps, shape


@lru_cache(maxsize=4096)
def _schedule_rows(n: int, k: int, m: int, ports: int) -> Tuple[_Shape, Tuple[NodePlan, ...]]:
    """Memoized canonical schedule as :class:`NodePlan` rows, for :func:`plan`."""
    tree, steps, shape = _canonical(n, k, m, ports)
    rows = []
    for node in range(n):
        children = tree.children(node)
        rows.append(
            NodePlan(
                node=node,
                parent=None if node == tree.root else tree.parent(node),
                children=tuple(children),
                child_first_send=tuple(steps[child][0] for child in children),
                first_recv=steps[node][0],
                last_recv=steps[node][-1],
            )
        )
    return shape, tuple(rows)


register_cache("plan_schedule", _schedule_rows)


class _CacheInfo(NamedTuple):
    """The :func:`functools.lru_cache` ``cache_info()`` record."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _LRUMemo:
    """A bounded, thread-safe LRU memo of ``fn`` that can be read without computing.

    Calling it is :func:`functools.lru_cache`: a hit returns the stored
    value, a miss computes it (outside the lock) and stores it, evicting
    the least recently used entry past ``maxsize``.  :meth:`lookup` is
    the part an ``lru_cache`` lacks: it returns a stored value, counted
    as a hit, or ``None``, and never computes.  ``cache_info()`` and
    ``cache_clear()`` keep the ``lru_cache`` protocol, so the memo sits
    in the :mod:`repro.core.cache` registry like the others.
    """

    def __init__(self, fn, maxsize: int) -> None:
        self._fn = fn
        self._maxsize = maxsize
        self._entries: dict = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def _get(self, key):
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._entries[key] = entry  # now the most recently used
            self._hits += 1
        return entry

    def lookup(self, *key):
        """The stored value for ``key``, or ``None``; never computes."""
        with self._lock:
            return self._get(key)

    def __call__(self, *key):
        with self._lock:
            entry = self._get(key)
            if entry is not None:
                return entry
            self._misses += 1
        entry = self._fn(*key)
        with self._lock:
            self._entries[key] = entry
            if len(self._entries) > self._maxsize:
                del self._entries[next(iter(self._entries))]
        return entry

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._entries))

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


def _wire_entry(
    n: int, m: int, ports: int
) -> Tuple[int, _Shape, bytes, Tuple[int, ...], Callable[[List[int]], Tuple[int, ...]]]:
    """``(k, shape, template, ids, remap)``: the canonical schedule as a wire template.

    The template is the ``"schedule"`` JSON array of :meth:`PlanResult.to_dict`
    with a ``%d`` slot wherever a node id goes (``node``, ``parent``,
    ``children``); ``ids`` gives the canonical position of each slot, in
    order.  ``template % ids`` is the canonical schedule's bytes, and
    filling the slots with the survivors' original positions instead
    is the remapped schedule's: ``remap(survivors)`` is that tuple
    (``operator.itemgetter(*ids)``, one C call for every slot).  It
    holds no :class:`NodePlan` objects and takes about 0.6x the row
    memo's memory for the same keys.

    The entry carries ``k = optimal_k(n, m)``, so the memo is keyed on
    ``(n, m, ports)`` alone and :func:`plan_json_warm` can look a plan
    up without a Theorem-3 search.
    """
    k = optimal_k(n, m)
    tree, steps, shape = _canonical(n, k, m, ports)
    ids: List[int] = []
    rows = []
    for node in range(n):
        children = tree.children(node)
        if node == tree.root:
            parent = b"null"
            ids.append(node)
        else:
            parent = b"%d"
            ids += (node, tree.parent(node))
        ids += children
        rows.append(
            b'{"node":%%d,"parent":%s,"children":[%s],"child_first_send":[%s],'
            b'"first_recv":%d,"last_recv":%d}'
            % (
                parent,
                b",".join([b"%d"] * len(children)),
                b",".join([b"%d" % steps[child][0] for child in children]),
                steps[node][0],
                steps[node][-1],
            )
        )
    slots = tuple(ids)  # at least four (n >= 2), so the getter returns a tuple
    return k, shape, b"[" + b",".join(rows) + b"]", slots, itemgetter(*slots)


#: The wire memo :func:`plan_json` fills and :func:`plan_json_warm` reads.
_schedule_wire = _LRUMemo(_wire_entry, maxsize=4096)
register_cache("plan_wire", _schedule_wire)


def _fields(request: PlanRequest, k: int, shape: _Shape) -> dict:
    """The :class:`PlanResult` fields ahead of ``schedule``, in wire order.

    Both :func:`plan` and :func:`plan_json` build them here, so their
    k, ``t1`` and costs cannot drift apart.
    """
    params = request.params
    return {
        "n": request.n,
        "m": request.m,
        "k": k,
        "root_fanout": shape.root_fanout,
        "t1": shape.t1,
        "pipeline_steps": shape.total_steps - shape.t1,
        "total_steps": shape.total_steps,
        "latency_us": params.t_s + shape.total_steps * params.t_step + params.t_r,
        "buffer_bound_us": shape.max_fanout * params.t_sq,
    }


def _survivors(request: PlanRequest) -> List[int]:
    """The original chain position of each canonical position ``0..n_eff-1``."""
    survivors = list(range(request.n))
    for position in reversed(request.exclude):  # sorted: the last first keeps indices valid
        del survivors[position]
    return survivors


def plan(request: PlanRequest) -> PlanResult:
    """Resolve one :class:`PlanRequest` into a :class:`PlanResult`.

    Pure and deterministic — safe to call from any thread (the memo
    caches it leans on are the thread-safe :mod:`repro.core.cache`
    tables) and from the batcher's executor workers.
    """
    n_eff = request.n - len(request.exclude)
    k = optimal_k(n_eff, request.m)
    shape, rows = _schedule_rows(n_eff, k, request.m, request.params.ports)
    if request.exclude:
        # The memoized schedule is over canonical positions 0..n_eff-1;
        # map those onto the surviving original positions, so callers
        # can keep addressing their pre-failure chain.
        survivors = _survivors(request)
        rows = tuple(
            NodePlan(
                node=survivors[row.node],
                parent=None if row.parent is None else survivors[row.parent],
                children=tuple(survivors[c] for c in row.children),
                child_first_send=row.child_first_send,
                first_recv=row.first_recv,
                last_recv=row.last_recv,
            )
            for row in rows
        )
    return PlanResult(**_fields(request, k, shape), schedule=rows, excluded=request.exclude)


def _fill(request: PlanRequest, entry) -> bytes:
    """The answer bytes of ``request`` from its wire memo entry."""
    k, shape, template, ids, remap = entry
    if request.exclude:
        ids = remap(_survivors(request))
    return b"".join(
        (
            json.dumps(_fields(request, k, shape), separators=(",", ":")).encode()[:-1],
            b',"schedule":',
            template % ids,
            b',"excluded":[',
            b",".join([b"%d" % position for position in request.exclude]),
            b"]}",
        )
    )


def plan_json(request: PlanRequest) -> bytes:
    """``json.dumps(plan(request).to_dict(), separators=(",", ":"))``, encoded.

    The plan service's encoder.  It fills the memoized wire template of
    the request's canonical schedule with the survivors' positions, so
    it builds no :class:`NodePlan` rows and no :class:`PlanResult`, and
    it never touches :func:`plan`'s row memo.  Thread-safe like
    :func:`plan`.
    """
    n_eff = request.n - len(request.exclude)
    return _fill(request, _schedule_wire(n_eff, request.m, request.params.ports))


def plan_json_warm(request: PlanRequest) -> Optional[bytes]:
    """:func:`plan_json` if the request's canonical schedule is memoized, else ``None``.

    Never computes: a miss costs one locked dict lookup, with no tree
    build, no FPFS schedule and no Theorem-3 search, so the plan
    service can try it on its event loop before handing a cold key to
    the batcher.  A hit counts as a ``plan_wire`` cache hit.
    """
    n_eff = request.n - len(request.exclude)
    entry = _schedule_wire.lookup(n_eff, request.m, request.params.ports)
    return None if entry is None else _fill(request, entry)
