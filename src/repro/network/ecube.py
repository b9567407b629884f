"""Dimension-ordered (e-cube) routing on k-ary n-cubes.

Packets correct one dimension at a time, lowest dimension first, taking
the minimal direction around each ring (ties — exactly half way around
an even ring — go in the positive direction, deterministically).

Deadlock freedom on the torus uses the classic Dally–Seitz dateline
scheme: every torus channel exists in two virtual channels; a packet
travels on VC0 within a dimension until it crosses the wrap-around link
(the dateline), after which it uses VC1 for the rest of that dimension.
Channel keys are therefore ``(u, v, vc)`` triples; host links always use
VC0.  On a mesh (``wrap=False``) routes are minimal without wrapping and
VC1 is never used.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import RoutingError
from .karyn import KAryNCube
from .topology import Node

#: Channel key: (from_node, to_node, virtual_channel)
VirtualChannel = Tuple[Node, Node, int]

__all__ = ["EcubeRouter", "VirtualChannel"]


class EcubeRouter:
    """Deterministic dimension-ordered routes with dateline VCs."""

    #: ``route`` is a pure function of the pair.
    fixed_routes = True

    def __init__(self, cube: KAryNCube) -> None:
        self.cube = cube
        self._route_cache: Dict[Tuple[Node, Node], List[VirtualChannel]] = {}

    def direction(self, frm: int, to: int) -> int:
        """Minimal ring direction from coordinate ``frm`` to ``to`` (+1/-1)."""
        k = self.cube.k
        forward = (to - frm) % k
        backward = (frm - to) % k
        if not self.cube.wrap:
            return 1 if to > frm else -1
        if forward <= backward:
            return 1
        return -1

    def route(self, src_host: Node, dst_host: Node) -> List[VirtualChannel]:
        """Directed (u, v, vc) channel list host→host (cached)."""
        key = (src_host, dst_host)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src_host == dst_host:
            raise RoutingError("source and destination host coincide")
        src = src_host[1]
        dst = dst_host[1]
        channels: List[VirtualChannel] = [
            (src_host, self.cube.router_of(src), 0)
        ]
        current = src
        for dim in range(self.cube.n):
            target = self.cube.coords(dst)[dim]
            channels.extend(self._ring_hops(current, dim, target))
            coords = list(self.cube.coords(current))
            coords[dim] = target
            current = self.cube.processor(tuple(coords))
        channels.append((self.cube.router_of(dst), dst_host, 0))
        self._route_cache[key] = channels
        return channels

    def _ring_hops(self, start: int, dim: int, target: int) -> List[VirtualChannel]:
        """Hops along one dimension, with dateline VC switching."""
        hops: List[VirtualChannel] = []
        coord = self.cube.coords(start)[dim]
        if coord == target:
            return hops
        step = self.direction(coord, target)
        current = start
        vc = 0
        while self.cube.coords(current)[dim] != target:
            nxt = self.cube.neighbor(current, dim, step)
            # Crossing the wrap link (k-1 -> 0 or 0 -> k-1) is the
            # dateline: this hop and all later hops in this dimension
            # ride VC1.
            c_now = self.cube.coords(current)[dim]
            c_next = self.cube.coords(nxt)[dim]
            wrapped = (step == 1 and c_next < c_now) or (step == -1 and c_next > c_now)
            if wrapped:
                vc = 1
            hops.append((self.cube.router_of(current), self.cube.router_of(nxt), vc))
            current = nxt
        return hops

    def hop_count(self, src_host: Node, dst_host: Node) -> int:
        return len(self.route(src_host, dst_host))
