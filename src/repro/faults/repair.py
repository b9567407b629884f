"""Failure-aware re-planning: who a crash cuts off.

A crashed node starves its whole subtree (every descendant's packets
route through it), so recovery is a *planning* problem, not a packet
problem: find who is unreachable, drop them from the contention-free
chain, and re-run the Theorem-3 optimization on the reduced ``n``.
This mirrors the coded-multicast view of recovery as re-optimization
over the surviving network (Lun et al., cs/0503064) applied to the
paper's tree family:

* :func:`unreachable_set` — the failed nodes plus every node whose
  tree path to the root crosses one (the dead subtrees).
* :func:`repair_coverage` — the share of the original destinations a
  re-plan over the survivors still reaches.
* The re-plan itself is :func:`repro.membership.amend.amend_plan` with
  a leave-only delta of the unreachable nodes: the surviving chain
  keeps its order (so the rebuilt tree inherits the ordering's
  contention-freedom), ``k*`` is re-optimized on ``n - f`` nodes, and
  the Fig. 11 tree is rebuilt over the survivors.

The property-test contract (``tests/faults/test_repair.py``): the
re-planned tree is *exactly* the tree a from-scratch plan over the
survivors would produce —
``build_kbinomial_tree(survivors, optimal_k(n - f, m))`` — and its
height satisfies Lemma 1 coverage, so repair never pays more than a
cold re-plan.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.trees import MulticastTree

__all__ = ["SourceFailedError", "repair_coverage", "unreachable_set"]


class SourceFailedError(ValueError):
    """The multicast source itself failed or departed.

    With a dead (or departed) source there is nothing to repair or
    amend — the multicast has no origin left — so this is a terminal
    condition, not a re-planning input.  A ``ValueError`` subclass so
    pre-existing callers that caught the bare ``ValueError`` keep
    working; the plan service maps it to a structured
    ``source_failed`` error response instead of a generic failure.
    """


def unreachable_set(tree: MulticastTree, failed: Iterable) -> frozenset:
    """Failed nodes plus every tree descendant behind one.

    Walks the tree from the root, refusing to cross a failed node; all
    nodes not reached are unreachable.  The root itself may not fail
    here — a dead source is a different experiment (there is nothing
    to repair; the multicast never happened).
    """
    dead = set(failed)
    if tree.root in dead:
        raise SourceFailedError("the multicast source failed; no repair is possible")
    reached = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        reached.add(node)
        for child in tree.children(node):
            if child not in dead:
                stack.append(child)
    return frozenset(n for n in tree.nodes() if n not in reached)


def repair_coverage(survivors: Sequence, chain: Sequence) -> float:
    """Fraction of ``chain``'s destinations the ``survivors`` chain keeps.

    Both chains start at the source, so a survivor chain of the source
    alone reaches none of them (``0.0``).
    """
    return (len(survivors) - 1) / (len(chain) - 1)
