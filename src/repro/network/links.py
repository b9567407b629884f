"""Channel resources: the contention units of the wormhole model.

A :class:`ChannelPool` lazily maps channel keys — ``(u, v)`` pairs from
:class:`~repro.network.updown.UpDownRouter` or ``(u, v, vc)`` triples
from :class:`~repro.network.ecube.EcubeRouter` — to :class:`ChannelResource`
resources, capacity-1 :class:`~repro.sim.resources.Resource` instances
that keep their own utilisation counters for contention analysis.
:meth:`ChannelPool.resolve` turns a route into its channels once, so a
transmission walks resource objects, not keys.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Hashable, Iterable, Tuple

from ..sim import Environment, Resource

__all__ = ["ChannelResource", "ChannelPool"]


class ChannelResource(Resource):
    """One channel of the pool: a resource that counts its own use.

    The wormhole transmitters bump :attr:`acquisitions` and
    :attr:`blocked_time` at every grant, and call :meth:`first_grant`
    before the first one.
    """

    __slots__ = ("pool", "key", "acquisitions", "blocked_time")

    def __init__(self, pool: "ChannelPool", key: Hashable, capacity: int) -> None:
        super().__init__(pool.env, capacity=capacity)
        self.pool = pool
        self.key = key
        #: Grants of this channel so far.
        self.acquisitions = 0
        #: Total time requests waited for this channel.
        self.blocked_time = 0.0

    def first_grant(self) -> None:
        """Enter this channel in its pool's counter views, at its first grant."""
        self.pool._acquired[self.key] = self


class _CounterView(Mapping):
    """Read-only ``key -> counter`` view over the pool's acquired channels."""

    def __init__(self, channels: Dict[Hashable, ChannelResource], counter: str) -> None:
        self._channels = channels
        self._counter = counter

    def __getitem__(self, key: Hashable):
        return getattr(self._channels[key], self._counter)

    def __iter__(self):
        return iter(self._channels)

    def __len__(self) -> int:
        return len(self._channels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(dict(self.items()))


class ChannelPool:
    """Lazy registry of per-channel resources.

    Switch-to-switch channels always have capacity 1 (one wormhole at a
    time).  Host-adjacent channels get ``host_link_capacity`` — the
    multi-port NI model provides that many parallel links between a
    host and its switch (1 = the paper's one-port NIs).

    :attr:`acquisitions` and :attr:`blocked_time` are read-only views
    of the channels' own counters, keyed by channel key in the order
    the channels were first acquired.
    """

    def __init__(self, env: Environment, host_link_capacity: int = 1) -> None:
        if host_link_capacity < 1:
            raise ValueError(f"host_link_capacity must be >= 1, got {host_link_capacity}")
        self.env = env
        self.host_link_capacity = host_link_capacity
        self._channels: Dict[Hashable, ChannelResource] = {}
        # Channels in order of their first grant: a channel's first
        # request is always granted at once, so this is the order of
        # first requests, the order the counters are summed in.
        self._acquired: Dict[Hashable, ChannelResource] = {}
        #: Total acquisitions per channel (contention/eval statistics).
        self.acquisitions = _CounterView(self._acquired, "acquisitions")
        #: Total time blocked waiting on each channel.
        self.blocked_time = _CounterView(self._acquired, "blocked_time")

    def capacity_for(self, key: Hashable) -> int:
        """Capacity of channel ``key`` (host links scale with ports)."""
        if isinstance(key, tuple):
            for end in key[:2]:
                if isinstance(end, tuple) and len(end) == 2 and end[0] == "host":
                    return self.host_link_capacity
        return 1

    def channel(self, key: Hashable) -> ChannelResource:
        """The resource for ``key``, created on first use."""
        res = self._channels.get(key)
        if res is None:
            res = ChannelResource(self, key, self.capacity_for(key))
            self._channels[key] = res
        return res

    def resolve(self, route: Iterable[Hashable]) -> Tuple[ChannelResource, ...]:
        """The channels of ``route`` (channel keys), in route order."""
        return tuple(self.channel(key) for key in route)

    def close(self) -> None:
        """Let the channels go of this pool once a run is over.

        A channel refers to its pool only to enter its first grant; the
        counters and their views stay readable.
        """
        for channel in self._channels.values():
            channel.pool = None

    @property
    def total_blocked_time(self) -> float:
        """Aggregate time packets spent blocked on busy channels."""
        return sum(channel.blocked_time for channel in self._acquired.values())

    @property
    def busiest_channel(self):
        """(key, acquisitions) of the most-acquired channel, or None."""
        if not self._acquired:
            return None
        channel = max(self._acquired.values(), key=lambda c: c.acquisitions)
        return channel.key, channel.acquisitions
