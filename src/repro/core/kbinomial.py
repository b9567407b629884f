"""The k-binomial tree: coverage recurrence and chain construction.

This module is the analytic heart of the reproduction.  It implements

* ``coverage(s, k)`` — Lemma 1's ``N(s, k)``: the number of nodes a
  k-binomial tree covers in ``s`` steps::

      N(s, k) = 2**s                                 if s <= k
      N(s, k) = 1 + sum(N(s - i, k) for i in 1..k)   if s > k

* ``steps_needed(n, k)`` — ``T1(n, k)``: the minimum number of steps for
  the first packet to reach ``n - 1`` destinations, i.e. the smallest
  ``s`` with ``N(s, k) >= n``.

* ``build_kbinomial_tree(chain, k)`` — the Fig. 11 construction of a
  (contention-free, when ``chain`` is a contention-free ordering)
  k-binomial tree: the root sends first to the node ``N(s-1, k)``
  positions from the right end of the chain, then ``N(s-2, k)``
  positions left of that recipient, and so on; each recipient recurses
  on the chain segment to its right.

A k-binomial tree with ``k >= ceil(log2 n)`` is exactly a binomial tree
(``N(s, k) = 2**s``), so the classic binomial baseline is the ``k ->
infinity`` limit of this construction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Sequence

from .trees import MulticastTree

__all__ = [
    "coverage",
    "coverage_table",
    "steps_needed",
    "min_k_binomial",
    "build_kbinomial_tree",
    "root_fanout",
]


#: Per ``k >= 2``, the ``s`` up to which :func:`coverage` has cached
#: every value.  A miss fills upward from here;
#: :func:`~repro.core.cache.clear_caches` resets it with the cache.
#: The mark only steers the fill, so a stale one (say, from threads
#: racing a clear) costs call depth, never a wrong value.
_FILLED: Dict[int, int] = {}


@lru_cache(maxsize=None)
def coverage(s: int, k: int) -> int:
    """Lemma 1: nodes covered in ``s`` steps by a k-binomial tree.

    ``coverage(0, k) == 1`` (just the source); for ``s <= k`` the cap
    never binds and the tree doubles each step.  A chain (``k = 1``)
    adds one node per step, ``N(s, 1) = s + 1``, in closed form.  For
    ``k >= 2`` a miss first fills the cache upward from the last ``s``
    it holds: the recurrence alone would nest ``s - k`` calls deep on
    a cold cache.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s <= k:
        return 2**s
    if k == 1:
        return s + 1
    # Each call below finds its k predecessors cached, so none nests
    # more than one level deep, and an ascending scan pays O(k) a step.
    for t in range(_FILLED.get(k, k) + 1, s):
        coverage(t, k)
    value = 1 + sum(coverage(s - i, k) for i in range(1, k + 1))
    _FILLED[k] = max(s, _FILLED.get(k, k))
    return value


def coverage_table(s_max: int, k_max: int):
    """Vectorized ``N(s, k)`` for all ``s <= s_max``, ``k <= k_max``.

    Returns an ``(s_max + 1, k_max)`` numpy int64 array with
    ``table[s, k - 1] == coverage(s, k)``.  The dynamic program fills
    one ``s`` row at a time from the previous ``k`` rows — O(s·k) with
    numpy column arithmetic, used by the modern-scale analytics where
    per-call recursion over thousands of (s, k) pairs would churn.

    Note: values grow like 2**s; ``s_max`` beyond ~62 would overflow
    int64, so this helper guards and callers needing bignums use the
    exact :func:`coverage`.
    """
    import numpy as np

    if s_max < 0 or k_max < 1:
        raise ValueError(f"need s_max >= 0 and k_max >= 1, got {s_max}, {k_max}")
    if s_max > 62:
        raise ValueError("s_max > 62 overflows int64; use coverage() for bignums")
    table = np.zeros((s_max + 1, k_max), dtype=np.int64)
    table[0, :] = 1
    for s in range(1, s_max + 1):
        ks = np.arange(1, k_max + 1)
        # Sum of the k previous rows, clipped at row 0.
        acc = np.zeros(k_max, dtype=np.int64)
        for i in range(1, k_max + 1):
            contrib = table[s - i] if s - i >= 0 else np.zeros(k_max, dtype=np.int64)
            acc += np.where(ks >= i, contrib, 0)
        recur = 1 + acc
        table[s] = np.where(ks >= s, 2**s, recur)
    return table


def steps_needed(n: int, k: int) -> int:
    """Theorem 3's ``T1``: minimum steps to cover a multicast set of ``n``.

    ``n`` counts the source plus all destinations.  A chain (``k = 1``)
    needs ``n - 1`` steps, in closed form rather than a scan of ``s``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k == 1:
        return n - 1
    s = 0
    while coverage(s, k) < n:
        s += 1
    return s


def min_k_binomial(n: int) -> int:
    """The fan-out above which a k-binomial tree *is* the binomial tree.

    ``ceil(log2 n)`` — Theorem 3 restricts the optimal-k search to
    ``[1, ceil(log2 n)]`` because larger fan-outs cannot reduce ``T1``
    below ``ceil(log2 n)`` yet inflate the pipeline interval.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return max(1, math.ceil(math.log2(n))) if n > 1 else 0


def build_kbinomial_tree(chain: Sequence, k: int) -> MulticastTree:
    """Construct a k-binomial tree over an ordered chain (paper Fig. 11).

    Parameters
    ----------
    chain:
        The participating nodes in a (preferably contention-free)
        ordering; ``chain[0]`` is the multicast source.
    k:
        Maximum fan-out per node (Definition 1).

    Returns
    -------
    MulticastTree
        Root = ``chain[0]``; children are ordered by send step, so the
        FPFS schedule follows child order.

    Notes
    -----
    Segment sizes are assigned greedily from the right end of the chain
    with capacities ``N(s-1, k), N(s-2, k), ...``.  When ``n`` is not
    exactly ``N(s, k)``, early segments absorb the slack, so the root
    may end up with fewer than ``k`` children; the tree still completes
    the first packet in ``steps_needed(n, k)`` steps and no node exceeds
    fan-out ``k`` (both properties are asserted by the test suite).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(chain) == 0:
        raise ValueError("chain must contain at least the source")
    if len(set(chain)) != len(chain):
        raise ValueError("chain contains duplicate nodes")

    chain = list(chain)
    tree = MulticastTree(chain[0])
    # Depth first over the segments chain[lo:hi], each with its parent:
    # a segment's root joins the tree when the segment is popped, and
    # its child segments are pushed last first, so nodes and children
    # are added in preorder, with no recursion depth growing with n.
    stack = [(None, 0, len(chain))]
    while stack:
        parent, lo, hi = stack.pop()
        root = chain[lo]
        if parent is not None:
            tree.add_child(parent, root)
        if hi - lo == 1:
            continue
        s = steps_needed(hi - lo, k)
        children = []
        for i in range(1, k + 1):
            if hi == lo + 1:
                break
            take = min(coverage(s - i, k), hi - lo - 1)
            children.append((root, hi - take, hi))
            hi -= take
        if hi != lo + 1:  # pragma: no cover - guarded by N(s,k) >= n
            raise AssertionError(f"segment at {lo} not covered by fan-out {k} in {s} steps")
        stack.extend(reversed(children))
    return tree


def root_fanout(n: int, k: int) -> int:
    """Number of children the Fig. 11 construction gives the root.

    Cheaper than building the tree; used by the refined (exact) optimal
    search in :mod:`repro.core.optimal`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    remaining = n - 1
    s = steps_needed(n, k)
    fanout = 0
    for i in range(1, k + 1):
        if remaining == 0:
            break
        remaining -= min(coverage(s - i, k), remaining)
        fanout += 1
    return fanout
