"""Fat-tree (folded Clos-style) switch topologies.

The paper claims its results apply to "any kind of network (regular or
irregular) which provides network interface support".  Besides the
irregular fabrics and k-ary n-cubes it names, the dominant regular
fabric in clusters is the fat tree; this module builds a simple
``levels``-deep, ``arity``-ary switch tree with hosts on the leaf
switches and a configurable number of parallel *trunk* links between a
switch and its parent (the "fattening" — capacity grows toward the
root by multiplying links, the classic CM-5-style construction).

Up*/down* routing on a tree is exact (there is only one up direction),
so :class:`~repro.network.updown.UpDownRouter` routes it optimally and
CCO orderings apply unchanged — which the A11-adjacent tests exploit.

Trunk links are modelled by giving each switch *distinct parallel
parent switches is wrong*; instead the parent-child channel is
replicated: channel keys carry a trunk index, handled by
:class:`FatTreeRouter` which spreads traffic across trunks by a
deterministic hash of the destination (static trunk selection, as in
source-routed fat trees).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import RoutingError, TopologyError
from .topology import Node, Topology, switch

__all__ = ["FatTree", "FatTreeRouter"]


class FatTree(Topology):
    """A ``levels``-deep ``arity``-ary switch tree with leaf-attached hosts.

    Parameters
    ----------
    levels:
        Switch-tree depth; ``levels = 1`` is a single switch.
    arity:
        Children per non-leaf switch.
    hosts_per_leaf:
        Hosts attached to each leaf switch.
    trunks:
        Parallel links between a child switch and its parent at every
        level (uniform fattening factor; 1 = an ordinary tree).
    """

    def __init__(
        self,
        levels: int = 3,
        arity: int = 4,
        hosts_per_leaf: int = 4,
        trunks: int = 1,
    ) -> None:
        if levels < 1:
            raise TopologyError("levels must be >= 1")
        if arity < 2:
            raise TopologyError("arity must be >= 2")
        if hosts_per_leaf < 1:
            raise TopologyError("hosts_per_leaf must be >= 1")
        if trunks < 1:
            raise TopologyError("trunks must be >= 1")
        super().__init__(switch_ports=None)
        self.levels = levels
        self.arity = arity
        self.hosts_per_leaf = hosts_per_leaf
        self.trunks = trunks
        #: child switch -> parent switch (None for the root).
        self.parent_of: Dict[Node, Node] = {}

        # Build the switch tree level by level; ids are breadth-first.
        next_id = 0
        self.root_switch = self.add_switch(next_id)
        next_id += 1
        frontier: List[Node] = [self.root_switch]
        for _ in range(levels - 1):
            new_frontier: List[Node] = []
            for parent in frontier:
                for _ in range(arity):
                    child = self.add_switch(next_id)
                    next_id += 1
                    self.add_link(parent, child)
                    self.parent_of[child] = parent
                    new_frontier.append(child)
            frontier = new_frontier
        self.leaf_switches: Tuple[Node, ...] = tuple(frontier)

        host_id = 0
        for leaf in self.leaf_switches:
            for _ in range(self.hosts_per_leaf):
                self.add_host(host_id, leaf)
                host_id += 1

    def level_of(self, sw: Node) -> int:
        """Depth of ``sw`` (root = 0)."""
        depth = 0
        while sw in self.parent_of:
            sw = self.parent_of[sw]
            depth += 1
        return depth


class FatTreeRouter:
    """Deterministic up-then-down routes with static trunk selection.

    Channel keys are ``(u, v, trunk)`` triples; the trunk index for the
    whole ascent/descent is chosen by ``hash`` of the (source,
    destination) pair modulo ``trunks``, so a pair always uses the same
    trunk (no reordering) while distinct pairs spread across trunks.
    """

    #: ``route`` is a pure function of the pair.
    fixed_routes = True

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self._route_cache: Dict[Tuple[Node, Node], list] = {}

    def _trunk_for(self, src: Node, dst: Node) -> int:
        return (src[1] * 7919 + dst[1] * 104729) % self.tree.trunks

    def route(self, src_host: Node, dst_host: Node) -> list:
        key = (src_host, dst_host)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src_host == dst_host:
            raise RoutingError("source and destination host coincide")
        trunk = self._trunk_for(src_host, dst_host)
        src_sw = self.tree.host_switch(src_host)
        dst_sw = self.tree.host_switch(dst_host)

        # Walk both endpoints up to their lowest common ancestor.
        up_path = [src_sw]
        down_path = [dst_sw]
        a, b = src_sw, dst_sw
        while self.tree.level_of(a) > self.tree.level_of(b):
            a = self.tree.parent_of[a]
            up_path.append(a)
        while self.tree.level_of(b) > self.tree.level_of(a):
            b = self.tree.parent_of[b]
            down_path.append(b)
        while a != b:
            a = self.tree.parent_of[a]
            b = self.tree.parent_of[b]
            up_path.append(a)
            down_path.append(b)

        channels: list = [(src_host, src_sw, 0)]
        for u, v in zip(up_path, up_path[1:]):
            channels.append((u, v, trunk))
        for v, u in zip(down_path[::-1], down_path[::-1][1:]):
            channels.append((v, u, trunk))
        channels.append((dst_sw, dst_host, 0))
        self._route_cache[key] = channels
        return channels

    def hop_count(self, src_host: Node, dst_host: Node) -> int:
        return len(self.route(src_host, dst_host))
