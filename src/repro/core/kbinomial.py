"""The k-binomial tree: coverage recurrence and chain construction.

This module is the analytic heart of the reproduction.  It implements

* ``coverage(s, k)`` — Lemma 1's ``N(s, k)``: the number of nodes a
  k-binomial tree covers in ``s`` steps::

      N(s, k) = 2**s                                 if s <= k
      N(s, k) = 1 + sum(N(s - i, k) for i in 1..k)   if s > k

* ``steps_needed(n, k)`` — ``T1(n, k)``: the minimum number of steps for
  the first packet to reach ``n - 1`` destinations, i.e. the smallest
  ``s`` with ``N(s, k) >= n``.

* ``split_segment(size, k)`` — Fig. 11's split of one chain segment:
  its head sends first to the ``N(s-1, k)`` nodes at the segment's
  right end, then to the ``N(s-2, k)`` left of those, and so on, each
  recipient heading the segment it was sent.  Segment sizes alone
  decide it, so everything below drives from it:

  - ``build_kbinomial_tree(chain, k)`` — the (contention-free, when
    ``chain`` is a contention-free ordering) k-binomial tree;
  - ``root_fanout(n, k)`` — the root's fan-out ``k_T``;
  - ``one_port_shape(n, k, m)`` — the tree's root and largest fan-out
    and its exact one-port FPFS total, without building the tree.

A k-binomial tree with ``k >= ceil(log2 n)`` is exactly a binomial tree
(``N(s, k) = 2**s``), so the classic binomial baseline is the ``k ->
infinity`` limit of this construction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .trees import MulticastTree

__all__ = [
    "coverage",
    "coverage_table",
    "steps_needed",
    "min_k_binomial",
    "split_segment",
    "build_kbinomial_tree",
    "root_fanout",
    "one_port_shape",
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


def split_segment(size: int, k: int) -> Tuple[int, ...]:
    """Fig. 11's split: the sizes of a chain segment's child segments.

    A segment of ``size`` nodes needs ``s = T1(size, k)`` steps.  Its
    head sends first to the segment of the ``N(s-1, k)`` nodes at the
    right end, then to the ``N(s-2, k)`` nodes left of that, and so on,
    in send order; the last child takes what is left, so it is the only
    one that may fall short of its cap.  A single node has no children,
    and a chain (``k = 1``) hands its one child the rest of the segment.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if k == 1:  # closed form, kept out of the memo: a chain has n sizes
        return (size - 1,) if size > 1 else ()
    return _split(size, k)


@lru_cache(maxsize=4096)
def _split(size: int, k: int) -> Tuple[int, ...]:
    """:func:`split_segment` for ``k >= 2``.  A tree over any n has at
    most ``2·T1 + 1`` distinct segment sizes (every segment's children
    are full but the last), so a bounded memo holds a whole build."""
    s = steps_needed(size, k)
    sizes = []
    remaining = size - 1
    while remaining:
        take = min(coverage(s - 1 - len(sizes), k), remaining)
        sizes.append(take)
        remaining -= take
    return tuple(sizes)


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
    Each segment is split by :func:`split_segment`: capacities
    ``N(s-1, k), N(s-2, k), ...`` are assigned greedily from the right
    end of the chain.  When ``n`` is not exactly ``N(s, k)``, early
    segments absorb the slack, so the root may end up with fewer than
    ``k`` children; the tree still completes the first packet in
    ``steps_needed(n, k)`` steps and no node exceeds fan-out ``k`` (both
    properties are asserted by the test suite).
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
        children = []
        for size in split_segment(hi - lo, k):
            children.append((root, hi - size, hi))
            hi -= size
        stack.extend(reversed(children))
    return tree


def root_fanout(n: int, k: int) -> int:
    """Number of children the Fig. 11 construction gives the root (``k_T``).

    Cheaper than building the tree: one :func:`split_segment`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return len(split_segment(n, k))


def one_port_shape(n: int, k: int, m: int) -> Tuple[int, int, int]:
    """``(root fan-out, largest fan-out, total steps)`` of the k-binomial
    tree over ``n`` nodes and its exact one-port FPFS schedule of ``m``
    packets, without building the tree.

    The total is :func:`~repro.core.pipeline.fpfs_first_last`'s: a node
    whose packets arrive ``D`` steps apart and which has ``c`` children
    sends child ``i`` packet 0 ``i`` steps after it got it and spaces
    every child's packets ``max(D, c)`` apart, so a node receives its
    last packet at ``first + (m - 1) · spacing``.  A subtree's fan-outs
    and its steps, counted from its head's first receive step, depend
    only on its segment's size (Fig. 11) and the spacing at its head,
    so one memo entry per (size, spacing) pair covers every subtree
    alike: a k-binomial tree over any n has at most ``2·T1 + 1``
    segment sizes and ``k + 1`` spacings.  The walk pops the memo's
    pairs from an explicit stack, and a chain (``k = 1``) is a closed
    form, so no call depth grows with n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n == 1:
        return 0, 0, 0
    if k == 1:  # node p receives packet 0 at step p, one packet a step
        return 1, 1, (n - 1) + (m - 1)
    tail = m - 1
    done: Dict[Tuple[int, int], Tuple[int, int]] = {}  # (size, spacing) -> (fan-out, last)
    stack = [(n, 0)]  # the source holds every packet at step 0
    while stack:
        key = stack[-1]
        if key in done:
            stack.pop()
            continue
        size, spacing = key
        sizes = split_segment(size, k)
        gap = max(spacing, len(sizes))
        todo = [(child, gap) for child in sizes if (child, gap) not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        fanout, last = len(sizes), tail * spacing
        for step, child in enumerate(sizes, 1):
            child_fanout, child_last = done[child, gap]
            fanout = max(fanout, child_fanout)
            last = max(last, step + child_last)
        done[key] = fanout, last
    return (root_fanout(n, k), *done[n, 0])
