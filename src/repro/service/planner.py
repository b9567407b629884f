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

:func:`plan` returns a :class:`PlanResult` (the library API, and the
oracle the tests hold the service to), built from memoized
:class:`NodePlan` rows; :meth:`PlanResult.to_dict` writes it with every
node's row, O(n) bytes.  The plan service sends the paper's own form
instead: the NI keeps only the optimal-k table (§4.3.1), and the tree
and its FPFS schedule follow from k and the contention-free chain
(Fig. 11, Theorem 1).  :func:`plan_compact_json` writes it from a memo
of k and the schedule's shape alone: the scalar fields, the machine's
``ports`` and the ``excluded`` positions, no ``"schedule"``, about 150
bytes at any n.  :meth:`PlanResult.from_dict` expands it into the same
:class:`PlanResult` with the same canonical tree, row memo and survivor
relabelling that :func:`plan` uses.  :func:`plan_compact_json_warm`
answers from the memo only, ``None`` instead of computing, which is how
the plan service tells a warm key, answered on its event loop, from a
cold one it batches.  Both memos register in the :mod:`repro.core.cache`
registry, so the hit rates are observable via
:func:`~repro.core.cache.cache_stats` (``plan_schedule`` for the rows,
``plan_shape`` for the compact form).

The analytic half of a plan comes from the same memos as everywhere
else: the Theorem-3 fan-out from :func:`~repro.core.optimal.optimal_k`
and ``T1`` from :func:`~repro.core.cache.cached_steps_needed`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..core.cache import cached_build_kbinomial_tree, cached_steps_needed, register_cache
from ..core.kbinomial import build_kbinomial_tree
from ..durable.errors import ValidationError
from ..core.optimal import optimal_k
from ..core.pipeline import fpfs_first_last, fpfs_steps
from ..params import PAPER_MACHINE, MachineParams

__all__ = [
    "MAX_PLAN_WORK",
    "NodePlan",
    "PlanRequest",
    "PlanResult",
    "plan",
    "plan_compact_json",
    "plan_compact_json_warm",
    "plan_work",
]

#: Largest schedule work (:func:`plan_work`) the plan service accepts:
#: the server refuses a larger plan or amend as ``bad_request``, a
#: journal replay skips it, and a compact payload naming more is
#: malformed.  An exact FPFS schedule costs O(n·m) time and memory:
#: ``n=64, m=100000`` took 0.75 s and 270 MiB.  On one port a plan
#: reads only each node's first and last step, O(n), so at this bound
#: a cold compact answer took (process time, one pinned vCPU of a
#: 2-vCPU KVM guest, six runs) 0.002-0.003 s at 128 × 1024, and
#: 0.65-1.05 s at 131,072 × 1, where the tree build dominates;
#: expanding that answer took 0.84-1.18 s.
#: 1024 × 32 is the largest plan the repository's own tests, CI and
#: benchmarks ask for.
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
        exclude = tuple(self.exclude)
        for node in exclude:  # before sorting, which mixed types would break
            if isinstance(node, bool) or not isinstance(node, int):
                raise ValidationError(f"exclude entries must be integers, got {node!r}")
        exclude = tuple(sorted(set(exclude)))
        for node in exclude:
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

        The row equals ``NodePlan(**fields)`` and hashes the same.
        """
        return _node_plan(
            payload["node"],
            payload["parent"],
            tuple(payload["children"]),
            tuple(payload["child_first_send"]),
            payload["first_recv"],
            payload["last_recv"],
        )


def _node_plan(node, parent, children, child_first_send, first_recv, last_recv) -> NodePlan:
    """``NodePlan(...)`` without the frozen dataclass's ``__init__``.

    A schedule holds one row per node, so its builders fill the
    instance dict directly: ``__init__`` would pay one
    ``object.__setattr__`` per field.  The row equals the one
    ``__init__`` makes and hashes the same.
    """
    row = object.__new__(NodePlan)
    vars(row).update(
        node=node,
        parent=parent,
        children=children,
        child_first_send=child_first_send,
        first_recv=first_recv,
        last_recv=last_recv,
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
        """Parse :meth:`to_dict`'s form, or the compact form the plan
        service sends, back into a :class:`PlanResult`.

        A payload without ``"schedule"`` is the compact form: its rows
        are rebuilt from ``k`` and the surviving chain, as :func:`plan`
        builds them (see :func:`_expand`, which raises ``ValueError``
        on a malformed one).
        """
        if "schedule" in payload:
            schedule = tuple(map(NodePlan.from_dict, payload["schedule"]))
            excluded = tuple(payload.get("excluded", ()))
        else:
            schedule, excluded = _expand(payload)
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
            schedule=schedule,
            excluded=excluded,
        )


class _Shape(NamedTuple):
    """What a plan's scalar fields need from its canonical schedule."""

    root_fanout: int
    max_fanout: int
    total_steps: int
    #: ``T1(n, k)``, from :func:`~repro.core.cache.cached_steps_needed`.
    t1: int


def _canonical(n: int, k: int, m: int, ports: int, build: Callable):
    """``(tree, ends, shape)`` of the canonical k-binomial tree over
    ``range(n)``, built by ``build(range(n), k)``.

    ``ends`` maps each node to its first and last receive step of the
    exact FPFS schedule, all a plan reads of it: one port takes the
    O(n) :func:`~repro.core.pipeline.fpfs_first_last`, more ports the
    ends of :func:`~repro.core.pipeline.fpfs_steps`, O(n·m).  Both
    memos below are built from it, so they hold the same schedule in
    two forms.
    """
    tree = build(range(n), k)
    if ports == 1:
        ends = fpfs_first_last(tree, m)
    else:
        steps = fpfs_steps(tree, m, ports=ports)
        ends = {node: (recv[0], recv[-1]) for node, recv in steps.items()}
    shape = _Shape(
        root_fanout=tree.root_fanout,
        max_fanout=tree.max_fanout,
        total_steps=max(last for _, last in ends.values()),
        t1=cached_steps_needed(n, k),
    )
    return tree, ends, shape


def _survivors(request: PlanRequest) -> List[int]:
    """The original chain position of each canonical position ``0..n_eff-1``."""
    survivors = list(range(request.n))
    for position in reversed(request.exclude):  # sorted: the last first keeps indices valid
        del survivors[position]
    return survivors


def _relabel(rows: Tuple[NodePlan, ...], request: PlanRequest) -> Tuple[NodePlan, ...]:
    """Canonical rows moved onto the survivors' original positions.

    Callers keep addressing their pre-failure chain; the steps do not
    change.  Below the first excluded position every survivor keeps its
    canonical position, so a row whose node and children all lie there
    is shared, not copied.
    """
    at = _survivors(request).__getitem__
    kept = request.exclude[0]
    moved = []
    for row in rows:
        fields = vars(row)
        children = fields["children"]
        if fields["node"] >= kept or (children and max(children) >= kept):
            row = object.__new__(NodePlan)  # filled as _node_plan fills it
            copy = vars(row)
            copy.update(fields)
            copy["node"] = at(fields["node"])
            if fields["parent"] is not None:
                copy["parent"] = at(fields["parent"])
            copy["children"] = tuple(map(at, children))
        moved.append(row)
    return tuple(moved)


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
    the least recently used entries while the stored entries' total
    ``weight`` (1 each by default, so ``maxsize`` counts entries)
    exceeds ``maxsize``; the newest entry always stays.  :meth:`lookup` is
    the part an ``lru_cache`` lacks: it returns a stored value, counted
    as a hit, or ``None``, and never computes.  ``cache_info()`` and
    ``cache_clear()`` keep the ``lru_cache`` protocol, so the memo sits
    in the :mod:`repro.core.cache` registry like the others.
    """

    def __init__(
        self, fn, maxsize: int, weight: Callable[[object], int] = lambda entry: 1
    ) -> None:
        self._fn = fn
        self._maxsize = maxsize
        self._weight = weight
        self._entries: dict = {}
        self._total = 0
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
        weight = self._weight(entry)
        with self._lock:
            stored = self._entries.pop(key, None)  # a concurrent miss may have stored it
            if stored is not None:
                self._total -= self._weight(stored)
            self._entries[key] = entry
            self._total += weight
            while self._total > self._maxsize and len(self._entries) > 1:
                self._total -= self._weight(self._entries.pop(next(iter(self._entries))))
        return entry

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._entries))

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._total = self._hits = self._misses = 0


def _rows_entry(n: int, k: int, m: int, ports: int) -> Tuple[_Shape, Tuple[NodePlan, ...]]:
    """The canonical schedule as :class:`NodePlan` rows, for :func:`plan`
    and the compact form's expansion.

    It builds its own tree rather than filling the shared tree memo,
    which has no bound: every process that expands compact answers
    (each client) computes rows for each size it is sent.
    """
    tree, ends, shape = _canonical(n, k, m, ports, build_kbinomial_tree)
    rows = []
    for node in range(n):
        children = tree.children(node)
        first, last = ends[node]
        rows.append(
            _node_plan(
                node,
                None if node == tree.root else tree.parent(node),
                children,
                tuple([ends[child][0] for child in children]),
                first,
                last,
            )
        )
    return shape, tuple(rows)


#: The row memo, bounded by rows rather than keys: it holds at most
#: :data:`MAX_PLAN_WORK` rows, as many as the largest plan the service
#: accepts has (57 MiB at about 450 bytes a row).  A larger
#: :func:`plan`'s rows are held alone until the next key evicts them.
_schedule_rows = _LRUMemo(_rows_entry, maxsize=MAX_PLAN_WORK, weight=lambda entry: len(entry[1]))
register_cache("plan_schedule", _schedule_rows)


def _shape_entry(n: int, m: int, ports: int) -> Tuple[int, _Shape]:
    """``(k, shape)``: all a compact answer needs of the canonical schedule.

    §4.3.1's table entry, plus the tree's fan-outs and step counts.
    Computing it builds the canonical tree and its schedule's ends, but
    no rows.
    """
    k = optimal_k(n, m)
    return k, _canonical(n, k, m, ports, cached_build_kbinomial_tree)[2]


#: The compact memo :func:`plan_compact_json` fills and
#: :func:`plan_compact_json_warm` reads, keyed ``(n - |exclude|, m,
#: ports)``: k is part of the entry, so a warm lookup needs no
#: Theorem-3 search.
_plan_shape = _LRUMemo(_shape_entry, maxsize=4096)
register_cache("plan_shape", _plan_shape)


def _fields(request: PlanRequest, k: int, shape: _Shape) -> dict:
    """The :class:`PlanResult` fields ahead of ``schedule``, in wire order.

    :func:`plan` and :func:`plan_compact_json` build them here, so their
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


def plan(request: PlanRequest) -> PlanResult:
    """Resolve one :class:`PlanRequest` into a :class:`PlanResult`.

    Pure and deterministic — safe to call from any thread (the memo
    caches it leans on are the thread-safe :mod:`repro.core.cache`
    tables) and from the batcher's executor workers.
    """
    k = optimal_k(request.n - len(request.exclude), request.m)
    shape, rows = _rows(request, k)
    return PlanResult(**_fields(request, k, shape), schedule=rows, excluded=request.exclude)


def _rows(request: PlanRequest, k: int) -> Tuple[_Shape, Tuple[NodePlan, ...]]:
    """The shape and rows of ``request``'s schedule with fan-out cap ``k``.

    The row memo holds the canonical schedule over positions
    ``0..n_eff-1``; with positions excluded, its rows are relabelled
    onto the survivors.
    """
    n_eff = request.n - len(request.exclude)
    shape, rows = _schedule_rows(n_eff, k, request.m, request.params.ports)
    if request.exclude:
        rows = _relabel(rows, request)
    return shape, rows


def _expand(payload: dict) -> Tuple[Tuple[NodePlan, ...], Tuple[int, ...]]:
    """The schedule and exclusions of a compact payload, built as
    :func:`plan` builds them, with the payload's ``k``.

    The payload must name a request the plan service would plan: its
    fields pass :class:`PlanRequest`'s checks and :data:`MAX_PLAN_WORK`,
    ``excluded`` is a list already sorted and distinct (as
    :func:`plan_compact_json` writes it), and ``k`` lies in
    ``[1, n - |excluded|]``.  Otherwise it raises ``ValueError`` before
    any tree is built.
    """
    k, excluded = payload["k"], payload["excluded"]
    if not isinstance(excluded, list):
        raise ValueError(f"compact plan: excluded must be a list, got {excluded!r}")
    ports = payload["ports"]
    # The paper's one-port machine is the common case: skip re-validating it per answer.
    params = PAPER_MACHINE if type(ports) is int and ports == 1 else MachineParams(ports=ports)
    request = PlanRequest(payload["n"], payload["m"], params, tuple(excluded))
    if list(request.exclude) != excluded:
        raise ValueError(f"compact plan: excluded must rise strictly, got {excluded}")
    n_eff = request.n - len(request.exclude)
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n_eff:
        raise ValueError(f"compact plan: k={k!r} outside [1, {n_eff}]")
    if plan_work(request) > MAX_PLAN_WORK:
        raise ValueError(
            f"compact plan: work {plan_work(request)} exceeds the limit of {MAX_PLAN_WORK}"
        )
    return _rows(request, k)[1], request.exclude


def _compact(request: PlanRequest, entry: Tuple[int, _Shape]) -> bytes:
    """The compact answer bytes of ``request`` from its compact memo entry."""
    fields = _fields(request, *entry)
    fields["ports"] = request.params.ports
    fields["excluded"] = request.exclude
    return json.dumps(fields, separators=(",", ":")).encode()


def plan_compact_json(request: PlanRequest) -> bytes:
    """The compact form of ``plan(request)``, JSON-encoded.

    ``plan(request).to_dict()`` without ``"schedule"``, with
    ``"ports"`` ahead of ``"excluded"``: about 150 bytes at any n.
    :meth:`PlanResult.from_dict` expands it into ``plan(request)``.
    Filling it costs O(|exclude|); k and the shape come from the
    compact memo, keyed ``(n - |exclude|, m, ports)``.  Thread-safe
    like :func:`plan`.
    """
    n_eff = request.n - len(request.exclude)
    return _compact(request, _plan_shape(n_eff, request.m, request.params.ports))


def plan_compact_json_warm(request: PlanRequest) -> Optional[bytes]:
    """:func:`plan_compact_json` from the compact memo alone, else ``None``.

    Never computes: a miss costs one locked dict lookup, with no tree
    build, no FPFS schedule and no Theorem-3 search, so the plan
    service can try it on its event loop before handing a cold key to
    the batcher.  A hit counts as a ``plan_shape`` cache hit.
    """
    n_eff = request.n - len(request.exclude)
    entry = _plan_shape.lookup(n_eff, request.m, request.params.ports)
    return None if entry is None else _compact(request, entry)
