"""Up*/down* routing for irregular switch networks.

Up*/down* (Autonet) routing guarantees deadlock freedom on arbitrary
topologies: a BFS spanning tree is built from a root switch, every link
is oriented ("up" points toward the root — lower BFS level, ties broken
by lower switch id), and a legal route traverses zero or more *up*
channels followed by zero or more *down* channels.  Because no cycle
can consist entirely of up-then-down transitions, channel dependencies
are acyclic.

:class:`UpDownRouter` computes, per source/destination pair, the
*shortest* legal route with deterministic tie-breaking (always prefer
the lowest-id next switch), so results are reproducible across runs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from .errors import RoutingError
from .topology import Channel, Node, Topology

__all__ = ["UpDownRouter", "MultipathUpDownRouter"]


class UpDownRouter:
    """Shortest legal up*/down* routes on an irregular topology.

    Parameters
    ----------
    topology:
        The switch network (must be connected).
    root:
        BFS root switch; default = the switch with the most switch
        neighbours (ties to the lowest id), the usual Autonet choice.
    """

    #: ``route`` is a pure function of the pair, so a sender may resolve
    #: it once per destination (see :class:`~repro.nic.NetworkInterface`).
    fixed_routes = True

    def __init__(self, topology: Topology, root: Optional[Node] = None) -> None:
        self.topology = topology
        if not topology.switches:
            raise RoutingError("topology has no switches")
        if root is None:
            root = max(
                topology.switches,
                key=lambda s: (len(topology.switch_neighbors(s)), -s[1]),
            )
        if root[0] != "switch":
            raise RoutingError(f"root {root!r} is not a switch")
        self.root = root
        self.level = self._bfs_levels()
        self._route_cache: Dict[Tuple[Node, Node], List[Channel]] = {}

    def _bfs_levels(self) -> Dict[Node, int]:
        level = {self.root: 0}
        frontier = deque([self.root])
        while frontier:
            sw = frontier.popleft()
            for nbr in sorted(self.topology.switch_neighbors(sw)):
                if nbr not in level:
                    level[nbr] = level[sw] + 1
                    frontier.append(nbr)
        missing = set(self.topology.switches) - set(level)
        if missing:
            raise RoutingError(f"switch fabric disconnected; unreachable: {sorted(missing)}")
        return level

    def is_up(self, a: Node, b: Node) -> bool:
        """True if the channel a→b goes *up* (toward the root)."""
        la, lb = self.level[a], self.level[b]
        if la != lb:
            return lb < la
        return b[1] < a[1]

    def switch_route(self, src: Node, dst: Node) -> List[Node]:
        """Shortest legal switch path (inclusive of endpoints).

        BFS over ``(switch, descending)`` states: once a *down* channel
        is taken, ups are forbidden.  Neighbour expansion is sorted, so
        among equal-length routes the lexicographically least is chosen.
        """
        if src == dst:
            return [src]
        start = (src, False)
        parents: Dict[Tuple[Node, bool], Tuple[Node, bool]] = {start: start}
        frontier = deque([start])
        goal: Optional[Tuple[Node, bool]] = None
        while frontier and goal is None:
            sw, descending = frontier.popleft()
            for nbr in sorted(self.topology.switch_neighbors(sw)):
                up = self.is_up(sw, nbr)
                if descending and up:
                    continue  # down→up transition is illegal
                state = (nbr, descending or not up)
                if state in parents:
                    continue
                parents[state] = (sw, descending)
                if nbr == dst:
                    goal = state
                    break
                frontier.append(state)
        if goal is None:
            raise RoutingError(f"no up*/down* route from {src!r} to {dst!r}")
        path: List[Node] = []
        state = goal
        while parents[state] != state:
            path.append(state[0])
            state = parents[state]
        path.append(src)
        path.reverse()
        return path

    def route(self, src_host: Node, dst_host: Node) -> List[Channel]:
        """Directed channel list host→host (cached)."""
        key = (src_host, dst_host)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src_host == dst_host:
            raise RoutingError("source and destination host coincide")
        src_sw = self.topology.host_switch(src_host)
        dst_sw = self.topology.host_switch(dst_host)
        switches = self.switch_route(src_sw, dst_sw)
        channels: List[Channel] = [(src_host, src_sw)]
        channels.extend(zip(switches, switches[1:]))
        channels.append((dst_sw, dst_host))
        self._route_cache[key] = channels
        return channels

    def hop_count(self, src_host: Node, dst_host: Node) -> int:
        """Number of channels on the route (includes both host links)."""
        return len(self.route(src_host, dst_host))

    def switch_routes(self, src: Node, dst: Node, limit: int) -> List[List[Node]]:
        """Up to ``limit`` distinct shortest legal switch paths.

        BFS collecting multiple parents per state, then enumerating
        paths; used by :class:`MultipathUpDownRouter`.
        """
        if src == dst:
            return [[src]]
        start = (src, False)
        parents: Dict[Tuple[Node, bool], List[Tuple[Node, bool]]] = {start: []}
        depth = {start: 0}
        frontier = deque([start])
        goals: List[Tuple[Node, bool]] = []
        goal_depth: Optional[int] = None
        while frontier:
            state = frontier.popleft()
            sw, descending = state
            if goal_depth is not None and depth[state] >= goal_depth:
                break
            for nbr in sorted(self.topology.switch_neighbors(sw)):
                up = self.is_up(sw, nbr)
                if descending and up:
                    continue
                nxt = (nbr, descending or not up)
                if nxt not in depth:
                    depth[nxt] = depth[state] + 1
                    parents[nxt] = [state]
                    frontier.append(nxt)
                    if nbr == dst and goal_depth is None:
                        goal_depth = depth[nxt]
                    if nbr == dst:
                        goals.append(nxt)
                elif depth[nxt] == depth[state] + 1:
                    parents[nxt].append(state)

        paths: List[List[Node]] = []

        def unwind(state, suffix):
            if len(paths) >= limit:
                return
            if not parents[state]:
                paths.append([state[0]] + suffix)
                return
            for parent in parents[state]:
                unwind(parent, [state[0]] + suffix)

        for goal in goals:
            unwind(goal, [])
            if len(paths) >= limit:
                break
        if not paths:
            raise RoutingError(f"no up*/down* route from {src!r} to {dst!r}")
        return paths[:limit]


class MultipathUpDownRouter(UpDownRouter):
    """Oblivious multipath up*/down* routing (ECMP-style).

    Where several shortest legal routes exist for a pair, successive
    ``route`` calls for that pair rotate through up to ``n_paths`` of
    them, spreading load across the fabric without any global state —
    the static analogue of switch-level adaptive routing.  Tree
    construction/contention analysis should use the plain
    :class:`UpDownRouter` (deterministic single path); the multipath
    variant is for traffic-level ablations (A12-adjacent tests).
    """

    #: Each ``route`` call advances the pair's rotation.
    fixed_routes = False

    def __init__(self, topology: Topology, root: Optional[Node] = None, n_paths: int = 2) -> None:
        super().__init__(topology, root=root)
        if n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {n_paths}")
        self.n_paths = n_paths
        self._alternates: Dict[Tuple[Node, Node], List[List[Channel]]] = {}
        self._rotation: Dict[Tuple[Node, Node], int] = {}

    def route(self, src_host: Node, dst_host: Node) -> List[Channel]:  # type: ignore[override]
        key = (src_host, dst_host)
        alternates = self._alternates.get(key)
        if alternates is None:
            if src_host == dst_host:
                raise RoutingError("source and destination host coincide")
            src_sw = self.topology.host_switch(src_host)
            dst_sw = self.topology.host_switch(dst_host)
            alternates = []
            for switches in self.switch_routes(src_sw, dst_sw, self.n_paths):
                channels: List[Channel] = [(src_host, src_sw)]
                channels.extend(zip(switches, switches[1:]))
                channels.append((dst_sw, dst_host))
                alternates.append(channels)
            self._alternates[key] = alternates
            self._rotation[key] = 0
        index = self._rotation[key]
        self._rotation[key] = (index + 1) % len(alternates)
        return alternates[index]
