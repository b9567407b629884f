"""ASCII rendering of multicast trees, annotated with send steps.

Useful in docs, debugging, and example output: shows the tree shape,
each node's receive step for the first packet, and (optionally) the
chain position — making Fig. 9/11-style structures legible in a
terminal::

    render_tree(build_kbinomial_tree(list(range(8)), 2))

    0 [s0]
    └─ 1 [s1]
       ├─ 4 [s2]
       │  ├─ 6 [s3]
       │  │  └─ 7 [s4]
       │  └─ 5 [s4]
       └─ 2 [s3]
          └─ 3 [s4]
"""

from __future__ import annotations

from typing import Callable, Optional

from .trees import MulticastTree

__all__ = ["render_tree", "tree_stats"]


def render_tree(
    tree: MulticastTree,
    label: Optional[Callable[[object], str]] = None,
    show_steps: bool = True,
) -> str:
    """Multi-line ASCII drawing of ``tree``.

    Parameters
    ----------
    label:
        Node formatter (default ``str``; host tuples print as ``H<i>``).
    show_steps:
        Append ``[s<step>]`` — the first-packet receive step — to each
        node.
    """
    if label is None:
        label = _default_label
    steps = tree.first_packet_steps() if show_steps else {}

    def fmt(node) -> str:
        text = label(node)
        if show_steps:
            text += f" [s{steps[node]}]"
        return text

    def below(node, prefix: str) -> list:
        """``(child, prefix, is_last)`` of each child, last first."""
        return [(child, prefix, i == 0) for i, child in enumerate(reversed(tree.children(node)))]

    # Preorder from an explicit stack, so a deep tree (a chain) draws
    # without recursion.
    lines = [fmt(tree.root)]
    stack = below(tree.root, "")
    while stack:
        node, prefix, is_last = stack.pop()
        lines.append(prefix + ("└─ " if is_last else "├─ ") + fmt(node))
        stack += below(node, prefix + ("   " if is_last else "│  "))
    return "\n".join(lines)


def _default_label(node) -> str:
    if isinstance(node, tuple) and len(node) == 2 and node[0] == "host":
        return f"H{node[1]}"
    return str(node)


def tree_stats(tree: MulticastTree) -> dict:
    """One-line summary metrics for logging and tables."""
    steps = tree.first_packet_steps()
    return {
        "nodes": len(tree),
        "height": tree.height,
        "root_fanout": tree.root_fanout,
        "max_fanout": tree.max_fanout,
        "first_packet_steps": max(steps.values()) if steps else 0,
        "leaves": sum(1 for n in tree.nodes() if tree.fanout(n) == 0),
    }
