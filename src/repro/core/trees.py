"""Multicast tree data structure and baseline constructions.

A :class:`MulticastTree` is a rooted tree over arbitrary hashable node
ids with *ordered* children: child order is send order, which under the
FPFS discipline fully determines the packet schedule.

Baselines provided here:

* :func:`build_linear_tree` — the chain/pipeline tree (fan-out 1
  everywhere; best pipeline interval, worst first-packet latency).
* :func:`build_binomial_tree` — the conventional binomial tree of
  McKinley et al. built by recursive halving of the ordered chain
  (optimal for single-packet multicast, the paper's baseline).
* :func:`build_flat_tree` — the source sends to every destination
  directly (a degenerate "separate addressing" reference).

The paper's k-binomial construction lives in
:mod:`repro.core.kbinomial`; it uses this class as its output type.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

__all__ = [
    "MulticastTree",
    "build_linear_tree",
    "build_binomial_tree",
    "build_flat_tree",
]


class MulticastTree:
    """Rooted tree with ordered children.

    Parameters
    ----------
    root:
        The multicast source node id.
    """

    def __init__(self, root: Hashable) -> None:
        self.root = root
        self._children: dict[Hashable, list[Hashable]] = {root: []}
        self._parent: dict[Hashable, Hashable] = {}

    # -- construction ------------------------------------------------------
    def add_child(self, parent: Hashable, child: Hashable) -> None:
        """Append ``child`` as the next (last) child of ``parent``."""
        if parent not in self._children:
            raise KeyError(f"parent {parent!r} is not in the tree")
        if child in self._children:
            raise ValueError(f"node {child!r} is already in the tree")
        self._children[parent].append(child)
        self._children[child] = []
        self._parent[child] = parent

    # -- queries -----------------------------------------------------------
    def children(self, node: Hashable) -> tuple:
        """Ordered children of ``node``."""
        return tuple(self._children[node])

    def parent(self, node: Hashable) -> Hashable:
        """Parent of ``node`` (KeyError for the root)."""
        if node == self.root:
            raise KeyError("root has no parent")
        return self._parent[node]

    def fanout(self, node: Hashable) -> int:
        """Number of children of ``node``."""
        return len(self._children[node])

    @property
    def max_fanout(self) -> int:
        """Largest fan-out of any node (the pipeline bottleneck bound)."""
        return max((len(c) for c in self._children.values()), default=0)

    @property
    def root_fanout(self) -> int:
        """Fan-out of the root — ``k_T`` in Theorems 1–2."""
        return len(self._children[self.root])

    def nodes(self) -> Iterator[Hashable]:
        """All nodes, root first, in depth-first child order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def destinations(self) -> list:
        """All nodes except the root, in depth-first order."""
        return [n for n in self.nodes() if n != self.root]

    def edges(self) -> Iterator[tuple]:
        """(parent, child) pairs in depth-first child order."""
        for node in self.nodes():
            for child in self._children[node]:
                yield (node, child)

    def __len__(self) -> int:
        return len(self._children)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._children

    def depth_of(self, node: Hashable) -> int:
        """Edge distance from the root."""
        depth = 0
        while node != self.root:
            node = self._parent[node]
            depth += 1
        return depth

    @property
    def height(self) -> int:
        """Maximum node depth."""
        return max(self.depth_of(n) for n in self.nodes())

    def subtree_size(self, node: Hashable) -> int:
        """Number of nodes in the subtree rooted at ``node``."""
        size = 0
        stack = [node]
        while stack:
            size += 1
            stack.extend(self._children[stack.pop()])
        return size

    # -- schedules -----------------------------------------------------------
    def first_packet_steps(self) -> dict:
        """Step at which each node receives the *first* packet.

        One send per node per step, children served in order, a node may
        forward a packet the step after receiving it (the paper's step
        model; see Figs. 5 and 8).  The root holds the packet at step 0.
        The ``m = 1`` case of :func:`repro.core.pipeline.fpfs_steps`.
        """
        from .pipeline import fpfs_steps  # the step model builds on this module

        return {node: recv[0] for node, recv in fpfs_steps(self, 1).items()}

    def validate(self) -> None:
        """Raise ``ValueError`` if internal invariants are broken."""
        seen = set()
        for node in self.nodes():
            if node in seen:
                raise ValueError(f"cycle or duplicate at {node!r}")
            seen.add(node)
        if seen != set(self._children):
            raise ValueError("unreachable nodes present")
        for child, parent in self._parent.items():
            if child not in self._children[parent]:
                raise ValueError(f"parent link of {child!r} inconsistent")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MulticastTree root={self.root!r} n={len(self)} kT={self.root_fanout}>"


def build_linear_tree(chain: Sequence) -> MulticastTree:
    """The pipeline/chain tree: each node forwards to the next in order."""
    _check_chain(chain)
    tree = MulticastTree(chain[0])
    for parent, child in zip(chain, chain[1:]):
        tree.add_child(parent, child)
    return tree


def build_binomial_tree(chain: Sequence) -> MulticastTree:
    """The conventional binomial tree on an ordered chain.

    Recursive halving: the root keeps the left ``ceil(n/2)`` nodes and
    sends to the first node of the right ``floor(n/2)``, recursing on
    both halves.  The root's fan-out is ``ceil(log2 n)``, the height is
    ``ceil(log2 n)``, and for ``n = 2**s`` this is the textbook binomial
    tree.  Children are added in send order (largest subtree first), so
    the first packet completes in ``ceil(log2 n)`` steps.
    """
    _check_chain(chain)
    tree = MulticastTree(chain[0])
    _halve(tree, list(chain))
    return tree


def _halve(tree: MulticastTree, segment: list) -> None:
    while len(segment) > 1:
        keep = -(-len(segment) // 2)  # ceil(n / 2) stays with the root
        right = segment[keep:]
        tree.add_child(segment[0], right[0])
        _halve(tree, right)
        segment = segment[:keep]


def build_flat_tree(chain: Sequence) -> MulticastTree:
    """Separate addressing: the source sends to every destination."""
    _check_chain(chain)
    tree = MulticastTree(chain[0])
    for node in chain[1:]:
        tree.add_child(chain[0], node)
    return tree


def _check_chain(chain: Sequence) -> None:
    if len(chain) == 0:
        raise ValueError("chain must contain at least the source")
    if len(set(chain)) != len(chain):
        raise ValueError("chain contains duplicate nodes")
