"""Wormhole packet transmission over a channel pool.

The transmitter models wormhole switching at packet granularity:

1. the header flit acquires the route's channels *in order*, paying the
   per-switch routing delay ``t_switch`` for each hop; a busy channel
   blocks the header **while earlier channels stay held** (wormhole
   back-pressure — this is what makes depth-contention expensive and
   why contention-free tree construction matters);
2. once the full path is reserved, the body streams across in
   ``wire_time`` (= packet_bytes / link_bandwidth);
3. all channels release together when the tail drains.

Acquiring channels in route order is deadlock-free under both routing
substrates: up*/down* orders channels up-then-down, and e-cube with
dateline VCs gives an acyclic channel dependency graph.
"""

from __future__ import annotations

from typing import Sequence

from ..params import SystemParams
from ..sim import Environment, Request
from .links import ChannelResource

__all__ = ["transmit", "transmit_windowed", "path_latency"]


def transmit(env: Environment, channels: Sequence[ChannelResource], params: SystemParams):
    """Process generator: move one packet along a route's ``channels``.

    ``channels`` is the route resolved by
    :meth:`~repro.network.links.ChannelPool.resolve`.  Yields until the
    tail flit has drained at the destination.  The caller (an NI send
    engine) decides what sender-side overlap to allow; this generator
    only models the network part.

    Runs once per packet, so it touches only the channel objects: each
    grant bumps the channel's own counters, and the clock is read once
    per hop.  The header asks for the next channel exactly ``t_switch``
    after it got the previous one, the same float sum the event queue
    pops that sleep at.
    """
    if not channels:
        raise ValueError("route must contain at least one channel")
    t_switch = params.t_switch
    held = []
    try:
        asked_at = env.now
        for channel in channels:
            request = Request(channel)
            yield request
            granted_at = env.now
            acquisitions = channel.acquisitions
            if not acquisitions:
                channel.first_grant()
            channel.acquisitions = acquisitions + 1
            channel.blocked_time += granted_at - asked_at
            held.append(request)
            yield t_switch
            asked_at = granted_at + t_switch
        yield params.wire_time
    finally:
        for request in held:
            request.resource.release(request)


def transmit_windowed(env: Environment, channels: Sequence[ChannelResource], params: SystemParams):
    """Process generator: finite-worm wormhole transmission.

    A refinement of :func:`transmit`: instead of holding the entire
    path until the tail drains (conservative), the packet holds a
    *sliding window* of at most ``worm_flits`` channels — a worm of F
    flits with one-flit channel buffers spans at most F channels, so
    channels the tail has passed release early.  The header advances
    one channel per ``t_switch + flit_cycle`` and the tail drains at
    the flit rate once the header lands.

    Slightly slower end-to-end than :func:`transmit` on an idle path
    (the header streams at flit pace), and strictly kinder to other
    traffic under contention; the `bench_ablation_channel_model`
    experiment quantifies both effects and validates the paper-level
    abstraction.
    """
    if not channels:
        raise ValueError("route must contain at least one channel")
    window = max(1, params.worm_flits)
    held: list = []
    try:
        for channel in channels:
            asked_at = env.now
            request = Request(channel)
            yield request
            if not channel.acquisitions:
                channel.first_grant()
            channel.acquisitions += 1
            channel.blocked_time += env.now - asked_at
            held.append(request)
            yield params.t_switch + params.flit_cycle
            if len(held) > window:
                request_old = held.pop(0)
                request_old.resource.release(request_old)
        # Tail drain: the worm's flits stream into the destination at
        # the flit rate; each cycle frees the oldest held channel, and
        # any flits beyond the held span still take their cycles to
        # arrive (routes shorter than the worm).
        drain_cycles = window
        while held:
            yield params.flit_cycle
            request_old = held.pop(0)
            request_old.resource.release(request_old)
            drain_cycles -= 1
        if drain_cycles > 0:
            yield drain_cycles * params.flit_cycle
    finally:
        for request_old in held:
            request_old.resource.release(request_old)


def path_latency(route_length: int, params: SystemParams) -> float:
    """Uncontended network time of a packet over ``route_length`` hops."""
    if route_length < 1:
        raise ValueError("route_length must be >= 1")
    return route_length * params.t_switch + params.wire_time
