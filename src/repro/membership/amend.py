"""Live plan amendment: arbitrary membership deltas, not just crashes.

The one re-plan path: any :class:`MembershipDelta` (joins and leaves
together) amends a plan, and a crash repair is the leave-only case —
:mod:`repro.faults.chaos` passes the dead subtrees
(:func:`~repro.faults.repair.unreachable_set`) as leavers.  The
contract:

* **graft** — joiners are inserted into the contention-free chain at
  their canonical :func:`~repro.mcast.orderings.chain_for` position
  (the base-ordering rotation key), so the amended chain is *exactly*
  the chain a cold re-plan over the new member set would build.
* **prune** — leavers are filtered out, order preserved, so the
  surviving chain keeps the ordering's contention-freedom.
* **re-optimize** — Theorem 3's ``optimal_k`` is re-run on the new
  ``n`` whenever membership drift since the last optimization crosses
  the ``k_drift`` epoch threshold (default ``0.0``: always, which is
  what makes the bit-identity guarantee below unconditional).

The property-test contract (``tests/membership``): with ``k_drift=0``
an amended plan is **bit-identical to a cold re-plan** over the same
member set — same chain, same k, same tree edges — so amendment never
costs more than starting over; deltas compose
(``amend(p, d1 + d2) == amend(amend(p, d1), d2)``); and the empty
delta is the identity.

A delta whose leavers include the source raises
:class:`~repro.faults.repair.SourceFailedError` — with a departed
source there is no multicast left to amend, the same dead-end the
crash repair refuses.  The plan service surfaces it as a structured
``source_failed`` error (see :mod:`repro.service.server`).

:func:`amended_request` is the service-side (positional) twin: it folds
an ``amend`` wire delta into a fresh
:class:`~repro.service.planner.PlanRequest`, so a churn burst costs
the plan service one computation, exactly like repeated plans.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.kbinomial import build_kbinomial_tree, steps_needed
from ..core.optimal import optimal_k, predicted_steps
from ..core.trees import MulticastTree
from ..faults.repair import SourceFailedError

__all__ = [
    "MembershipDelta",
    "AmendedPlan",
    "amend_chain",
    "amend_plan",
    "amended_request",
    "same_tree",
]


@dataclass(frozen=True)
class MembershipDelta:
    """A membership change: who joins and who leaves, as one value.

    Joins and leaves are stored sorted and deduplicated, and a node may
    not appear on both sides — value semantics, so deltas hash,
    compare, and compose deterministically.  ``d1 + d2`` is the delta
    equivalent to applying ``d1`` then ``d2`` (later events win: a
    ``d1`` joiner who leaves in ``d2`` nets out to a leave, a ``d1``
    leaver who rejoins in ``d2`` nets out to a join).
    """

    joins: Tuple = ()
    leaves: Tuple = ()

    def __post_init__(self) -> None:
        joins = tuple(sorted(set(self.joins), key=repr))
        leaves = tuple(sorted(set(self.leaves), key=repr))
        overlap = set(joins) & set(leaves)
        if overlap:
            raise ValueError(
                f"nodes cannot both join and leave in one delta: {sorted(map(repr, overlap))}"
            )
        object.__setattr__(self, "joins", joins)
        object.__setattr__(self, "leaves", leaves)

    def __bool__(self) -> bool:
        return bool(self.joins or self.leaves)

    def __add__(self, other: "MembershipDelta") -> "MembershipDelta":
        if not isinstance(other, MembershipDelta):
            return NotImplemented
        # Sequential semantics against any member set both deltas are
        # valid for: a join undone by a later leave (or a leave undone
        # by a later rejoin) nets out to nothing, so the composite is
        # itself valid wherever the sequence was — which is what makes
        # amend(p, d1 + d2) == amend(amend(p, d1), d2) hold exactly.
        j1, l1 = set(self.joins), set(self.leaves)
        j2, l2 = set(other.joins), set(other.leaves)
        return MembershipDelta(
            joins=tuple((j1 - l2) | (j2 - l1)),
            leaves=tuple((l1 - j2) | (l2 - j1)),
        )

    def apply(self, members: Sequence) -> Tuple:
        """The member set after this delta (order: survivors then joins)."""
        gone = set(self.leaves)
        kept = [m for m in members if m not in gone]
        present = set(kept)
        kept.extend(j for j in self.joins if j not in present)
        return tuple(kept)

    def to_dict(self) -> dict:
        """JSON-serializable wire form."""
        return {"joins": [list(j) if isinstance(j, tuple) else j for j in self.joins],
                "leaves": [list(l) if isinstance(l, tuple) else l for l in self.leaves]}


@dataclass(frozen=True)
class AmendedPlan:
    """The amended multicast plan over the post-delta member set.

    An amendment *is* a crash repair when the delta is leave-only; the
    join side and the epoch bookkeeping of deferred re-optimization
    extend it.
    """

    #: The amended contention-free chain (source first).
    chain: Tuple
    #: Nodes the delta removed (original chain order).
    departed: Tuple
    #: Nodes the delta grafted in (amended chain order).
    joined: Tuple
    #: The fan-out cap in force (re-optimized unless drift stayed
    #: under ``k_drift``).
    k: int
    #: The amended Fig. 11 tree over :attr:`chain`.
    tree: MulticastTree
    #: First-packet steps of the amended tree.
    t1: int
    #: Total steps ``T1 + (m - 1) * k`` to re-multicast under the plan.
    total_steps: int
    #: Steps the pre-delta plan needed, for comparison.
    original_steps: int
    #: Group size the current :attr:`k` was optimized for.  Equal to
    #: ``len(chain)`` right after a re-optimization; the gap between
    #: the two is the drift the next amendment weighs against
    #: ``k_drift``.
    epoch_n: int
    #: True when re-optimization was deferred (drift under the
    #: threshold): :attr:`k` is the carried-over epoch value and the
    #: bit-identity-to-cold-replan guarantee is suspended until the
    #: next epoch crossing.
    k_stale: bool

    @property
    def n(self) -> int:
        """Group size after the amendment (source included)."""
        return len(self.chain)

    @property
    def drift(self) -> float:
        """Relative membership drift since the last re-optimization."""
        return abs(self.n - self.epoch_n) / self.epoch_n if self.epoch_n else 0.0

    @property
    def step_overhead(self) -> int:
        """Extra steps vs the pre-delta plan (< 0: fewer nodes, faster)."""
        return self.total_steps - self.original_steps


def same_tree(a: MulticastTree, b: MulticastTree) -> bool:
    """Structural equality: same root, same ordered edges.

    Child *order* is send order under FPFS, so two trees are the same
    plan exactly when their depth-first ordered edge lists agree.
    """
    return a.root == b.root and list(a.edges()) == list(b.edges())


def amend_chain(
    chain: Sequence, delta: MembershipDelta, base_ordering: Sequence
) -> List:
    """Graft joins into / prune leaves out of a contention-free chain.

    Incremental — leavers are filtered in one pass, each joiner is
    binary-inserted at its base-ordering rotation key — yet the result
    is guaranteed equal to
    ``chain_for(chain[0], new_destinations, base_ordering)``: the
    original chain was sorted by the same (unique) keys, and insertion
    preserves sortedness.  That equality is what makes an amended plan
    bit-identical to a cold re-plan.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("chain must contain at least the source")
    source = chain[0]
    if source in delta.leaves:
        raise SourceFailedError(
            "the multicast source left the group; no amendment is possible"
        )
    position = {node: index for index, node in enumerate(base_ordering)}
    if source not in position:
        raise ValueError(f"source {source!r} not in base ordering")
    members = set(chain)
    for leaver in delta.leaves:
        if leaver not in members:
            raise ValueError(f"leaver {leaver!r} is not a group member")
    for joiner in delta.joins:
        if joiner in members:
            raise ValueError(f"joiner {joiner!r} is already a group member")
        if joiner not in position:
            raise ValueError(f"joiner {joiner!r} not in base ordering")

    gone = set(delta.leaves)
    src_pos = position[source]
    wrap = len(base_ordering)

    def key(node) -> int:
        return (position[node] - src_pos) % wrap

    amended = [node for node in chain if node not in gone]
    keys = [key(node) for node in amended[1:]]
    for joiner in sorted(delta.joins, key=key):
        index = bisect_left(keys, key(joiner))
        keys.insert(index, key(joiner))
        amended.insert(index + 1, joiner)
    return amended


def amend_plan(
    tree: MulticastTree,
    chain: Sequence,
    delta: MembershipDelta,
    m: int,
    *,
    base_ordering: Sequence,
    k_drift: float = 0.0,
    epoch_n: Optional[int] = None,
    epoch_k: Optional[int] = None,
) -> AmendedPlan:
    """Amend ``tree``'s multicast plan by an arbitrary membership delta.

    Parameters
    ----------
    tree:
        The current multicast tree (its ``k`` is the carried-over
        epoch fan-out when re-optimization is deferred).
    chain:
        The contention-free ordering the tree was built over;
        ``chain[0]`` must be the source.
    delta:
        Who joins and who leaves.  Leavers must be members, joiners
        must not be, and the source may not leave
        (:class:`~repro.faults.repair.SourceFailedError`).
    m:
        Packets per message — Theorem 3's trade-off shifts with it.
    base_ordering:
        The full contention-free base ordering joiners are grafted by.
    k_drift:
        Epoch threshold on relative membership drift: re-run
        ``optimal_k`` when ``|n_new - epoch_n| / epoch_n >= k_drift``.
        The default ``0.0`` re-optimizes on *every* amendment, which is
        what guarantees bit-identity with a cold re-plan; a positive
        threshold trades optimality inside the epoch for skipping the
        Theorem-3 search (the plan is marked :attr:`AmendedPlan.k_stale`).
    epoch_n, epoch_k:
        Group size the current plan's fan-out was optimized for, and
        that fan-out itself (defaults: ``len(chain)`` and the
        Theorem-3 optimum for it).  Thread the previous plan's
        :attr:`AmendedPlan.epoch_n` / :attr:`AmendedPlan.k` through
        successive amendments so drift accumulates across an epoch.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    chain = list(chain)
    if not chain or chain[0] != tree.root:
        raise ValueError("chain[0] must be the multicast source (tree.root)")
    tree_nodes = set(tree.nodes())
    missing = tree_nodes - set(chain)
    if missing:
        raise ValueError(f"chain is missing tree nodes: {sorted(map(repr, missing))}")
    if epoch_n is None:
        epoch_n = len(chain)

    amended = amend_chain(chain, delta, base_ordering)
    departed = tuple(node for node in chain if node in set(delta.leaves))
    joined = tuple(node for node in amended if node in set(delta.joins))
    n_old = len(chain)
    n_new = len(amended)
    original_steps = (
        predicted_steps(n_old, optimal_k(n_old, m), m) if n_old >= 2 else 0
    )

    if n_new < 2:
        # Everyone but the source left: nothing remains to plan.
        return AmendedPlan(
            chain=tuple(amended),
            departed=departed,
            joined=joined,
            k=1,
            tree=MulticastTree(tree.root),
            t1=0,
            total_steps=0,
            original_steps=original_steps,
            epoch_n=n_new,
            k_stale=False,
        )

    drift = abs(n_new - epoch_n) / epoch_n if epoch_n else 1.0
    if drift >= k_drift:
        k = optimal_k(n_new, m)
        epoch_n = n_new
        stale = False
    else:
        k = epoch_k if epoch_k is not None else optimal_k(len(chain), m)
        stale = True
    rebuilt = build_kbinomial_tree(amended, k)
    return AmendedPlan(
        chain=tuple(amended),
        departed=departed,
        joined=joined,
        k=k,
        tree=rebuilt,
        t1=steps_needed(n_new, k),
        total_steps=predicted_steps(n_new, k, m),
        original_steps=original_steps,
        epoch_n=epoch_n,
        k_stale=stale,
    )


def amended_request(
    n: int,
    m: int,
    params=None,
    exclude: Iterable[int] = (),
    *,
    join: int = 0,
    leave: Iterable[int] = (),
):
    """Fold a positional amend delta into a fresh plan request.

    The wire twin of :func:`amend_plan` for the service, where nodes
    are chain positions, not hosts: ``join`` new members are appended
    as positions ``n .. n + join - 1`` (joiners graft at the chain
    tail of the canonical ``range(n)`` ordering), and ``leave``
    positions (``1 .. n - 1``, relative to the *original* ``n``) move
    into the exclude set.  Leaving position 0 raises
    :class:`~repro.faults.repair.SourceFailedError`.

    Returns the equivalent :class:`~repro.service.planner.PlanRequest`;
    because amendments of the same live plan collapse onto the same
    request value, the plan service absorbs a churn burst with one
    computation: the first fills the compact memo and the rest hit it,
    or, for a cold multi-port plan, share its single flight.
    """
    from ..service.planner import PlanRequest

    if isinstance(join, bool) or not isinstance(join, int) or join < 0:
        raise ValueError(f"join must be an integer >= 0, got {join!r}")
    leave = tuple(leave)
    for node in leave:
        if isinstance(node, bool) or not isinstance(node, int):
            raise ValueError(f"leave entries must be integers, got {node!r}")
        if node == 0:
            raise SourceFailedError(
                "the multicast source left the group; no amendment is possible"
            )
        if not (1 <= node <= n - 1):
            raise ValueError(f"leave position {node} outside [1, {n - 1}]")
    kwargs = {} if params is None else {"params": params}
    return PlanRequest(
        n=n + join,
        m=m,
        exclude=tuple(exclude) + leave,
        **kwargs,
    )
