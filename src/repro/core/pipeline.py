"""The pipelined step model of multi-packet FPFS multicast (§4.1).

The paper models an ``m``-packet multicast as ``m`` pipelined
single-packet multicasts: under FPFS each NI forwards packets in
arrival order, one send per *step* (a step = one NI-to-NI packet
transmission).  Theorem 1 shows successive packets complete exactly
``k_T`` (root fan-out) steps apart; Theorem 2 gives the total

    steps(T, m) = T1 + (m - 1) * k_T .

This module provides:

* :func:`fpfs_steps` — the **exact** step-synchronous FPFS schedule of
  an arbitrary tree: each node's receive step of every packet.  It
  makes no k-binomial assumption, so it doubles as the ground truth
  the theorems are verified against (the theorem formula assumes no
  interior node out-fans the root, which k-binomial trees guarantee;
  the schedule is exact even when that fails).
* :func:`fpfs_schedule` — the same schedule keyed by
  ``(node, packet)``.
* :func:`fpfs_first_last` — each node's first and last receive step
  on one port, in O(n) (Theorem 1's spacing argument per node).
* :func:`fcfs_steps` / :func:`fcfs_schedule` — the exact FCFS schedule
  (§3.1's discipline), in the same two forms.
* :func:`fpfs_total_steps` — completion step of the last packet at the
  last destination.
* :func:`theorem2_steps` — the closed-form ``T1 + (m-1) * k_T``.
* :func:`multicast_latency_model` — µs latency
  ``t_s + steps * t_step + t_r`` (smart NI, §2.5).
* :func:`conventional_latency_model` — µs latency of conventional-NI
  binomial multicast, ``ceil(log2 n) * (m * t_step + t_s + t_r)``
  extended from the paper's single-packet expression.

Both schedules come from one pass over the tree, parents before
children, with per-node state only.  That is Theorem 1's own argument
(``docs/THEORY.md`` §3): a node serves its packets in arrival order,
its parent hands them over in index order, and its send ports serve
no one else, so a node's sends follow from its own receive steps
alone.
"""

from __future__ import annotations

import math
from heapq import heapreplace
from typing import Callable, Dict, Hashable, List, Tuple

from ..params import SystemParams
from .trees import MulticastTree

__all__ = [
    "fcfs_schedule",
    "fcfs_steps",
    "fcfs_total_steps",
    "fpfs_first_last",
    "fpfs_schedule",
    "fpfs_steps",
    "fpfs_total_steps",
    "packet_completion_steps",
    "theorem2_steps",
    "multicast_latency_model",
    "conventional_latency_model",
]

#: A schedule per node: ``node → [receive step of packet 0, 1, ..., m-1]``.
Steps = Dict[Hashable, List[int]]


def _check(m: int, ports: int = 1) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")


def _walk(
    tree: MulticastTree, m: int, sends: Callable[[List[int], int], List[List[int]]]
) -> Steps:
    """Every node's receive steps, computed from the root down.

    ``sends(recv, fanout)`` turns one node's receive steps (packet
    order) into each child's, in child order.  The source holds all
    ``m`` packets at step 0.
    """
    steps = {tree.root: [0] * m}
    for node in tree.nodes():  # preorder: every parent before its children
        children = tree.children(node)
        if children:
            steps.update(zip(children, sends(steps[node], len(children))))
    return steps


def _one_port_starts(recv: List[int], fanout: int) -> List[int]:
    """The step at which a one-port NI sends each packet's first copy.

    Packet ``p``, received at ``r_p``, leaves at
    ``S_p = max(r_p + 1, free)``; its ``fanout`` copies take steps
    ``S_p .. S_p + fanout - 1``, so the port is next free at
    ``S_p + fanout``.
    """
    starts = []
    free = 1
    for r in recv:
        if r >= free:
            free = r + 1
        starts.append(free)
        free += fanout
    return starts


def _fpfs_one_port(recv: List[int], fanout: int) -> List[List[int]]:
    """FPFS on one port: child ``i`` receives packet ``p`` at ``S_p + i``."""
    starts = _one_port_starts(recv, fanout)
    return [starts] + [[s + i for s in starts] for i in range(1, fanout)]


def _fpfs_multi_port(ports: int) -> Callable[[List[int], int], List[List[int]]]:
    """FPFS on ``ports`` ports: each send takes the earliest-free port.

    A node makes ``fanout · m`` sends, so with that many ports one of
    them is still unused (free at step 1) at every send: more ports
    change nothing, and the heap never holds more than that.
    """

    def sends(recv: List[int], fanout: int) -> List[List[int]]:
        # min-heap: the step at which each port is next free
        free = [1] * min(ports, fanout * len(recv))
        received: List[List[int]] = [[] for _ in range(fanout)]
        for r in recv:
            for child in received:
                # Occupy the earliest-free port, no sooner than arrival.
                step = max(free[0], r + 1)
                heapreplace(free, step + 1)
                child.append(step)
        return received

    return sends


def fpfs_steps(tree: MulticastTree, m: int, ports: int = 1) -> Steps:
    """Exact FPFS step schedule for ``m`` packets over ``tree``, per node.

    Model (matches the paper's Figs. 5 and 8):

    * time advances in integer steps, numbered from 1;
    * each NI performs at most ``ports`` packet sends per step (the
      paper's model is one-port; ``ports > 1`` is the standard
      multi-port extension, where the NI can drive several network
      channels concurrently);
    * a packet sent in step ``t`` is received at the end of step ``t``
      and can be forwarded from step ``t + 1``;
    * an NI services forwarding work packet-by-packet in arrival order
      (FPFS), sending each packet to its children in child order;
    * the source holds all ``m`` packets at step 0.

    Returns
    -------
    dict
        ``node`` → list of the steps at which it receives packets
        ``0 .. m-1`` (never decreasing).  The source's entries are all
        0.  Each call returns fresh lists.
    """
    _check(m, ports)
    return _walk(tree, m, _fpfs_one_port if ports == 1 else _fpfs_multi_port(ports))


def fpfs_first_last(tree: MulticastTree, m: int) -> Dict[Hashable, Tuple[int, int]]:
    """One-port FPFS: ``node → (first, last)`` receive step, in O(n).

    The ends of each :func:`fpfs_steps` list (``ports=1``) without the
    ``m`` steps between them.  A node whose packets arrive ``D`` steps
    apart, and which has ``c`` children, sends them ``max(D, c)`` steps
    apart: packet 0's first copy leaves the step after it arrives, and
    each later packet as soon as both it and the port are free.  Child
    ``i`` gets every packet ``i`` steps after the first copy leaves.
    So a node's packets arrive spaced by the largest fan-out among its
    proper ancestors, and ``last = first + (m - 1) · spacing``
    (``docs/THEORY.md`` §3; Theorem 1 is the case of the last node).
    """
    _check(m)
    tail = m - 1
    ends = {tree.root: (0, 0)}
    spacing = {tree.root: 0}  # the source holds every packet at step 0
    for node in tree.nodes():  # preorder: every parent before its children
        children = tree.children(node)
        if children:
            gap = max(spacing[node], len(children))
            step = ends[node][0]
            for child in children:
                step += 1
                spacing[child] = gap
                ends[child] = (step, step + tail * gap)
    return ends


def _by_packet(steps: Steps) -> Dict[Tuple[Hashable, int], int]:
    return {(node, p): step for node, recv in steps.items() for p, step in enumerate(recv)}


def fpfs_schedule(
    tree: MulticastTree, m: int, ports: int = 1
) -> Dict[Tuple[Hashable, int], int]:
    """:func:`fpfs_steps` keyed by ``(node, packet_index)`` → receive step.

    Packets are indexed from 0; the source's entries are all 0.
    Prefer :func:`fpfs_steps` where the per-node lists suffice: this
    view builds one dict entry per (node, packet) pair.
    """
    return _by_packet(fpfs_steps(tree, m, ports=ports))


def fpfs_total_steps(tree: MulticastTree, m: int, ports: int = 1) -> int:
    """Completion step of the whole multicast (0 for a trivial tree)."""
    return max(recv[-1] for recv in fpfs_steps(tree, m, ports=ports).values())


def packet_completion_steps(tree: MulticastTree, m: int, ports: int = 1) -> list[int]:
    """``t_i``: the step at which packet ``i`` reaches its last receiver.

    Theorem 1 states ``t_{i+1} - t_i == k_T`` for every ``i`` on a
    k-binomial tree (one-port model); tests verify that against this
    exact schedule.
    """
    return [max(column) for column in zip(*fpfs_steps(tree, m, ports=ports).values())]


def _fcfs_sends(recv: List[int], fanout: int) -> List[List[int]]:
    """FCFS: each packet to the first child as it lands, then the whole
    message to each further child in turn."""
    first = _one_port_starts(recv, 1)
    # The port is next free at first[-1] + 1, already past the last
    # packet's arrival, so the further children's copies run back to back.
    free, m = first[-1] + 1, len(recv)
    return [first] + [list(range(free + j * m, free + (j + 1) * m)) for j in range(fanout - 1)]


def fcfs_steps(tree: MulticastTree, m: int) -> Steps:
    """Exact FCFS step schedule (§3.1's discipline), per node.

    Same step mechanics as :func:`fpfs_steps` (one port), but
    forwarding is child-major: each arriving packet is relayed to the
    *first* child immediately; children ``2..c`` receive the whole
    message only after the last packet has arrived.  The source, which
    holds every packet at step 0, therefore streams the full message
    child by child from step 1.
    """
    _check(m)
    return _walk(tree, m, _fcfs_sends)


def fcfs_schedule(tree: MulticastTree, m: int) -> Dict[Tuple[Hashable, int], int]:
    """:func:`fcfs_steps` keyed by ``(node, packet_index)`` → receive step."""
    return _by_packet(fcfs_steps(tree, m))


def fcfs_total_steps(tree: MulticastTree, m: int) -> int:
    """Completion step of an FCFS multicast (0 for a trivial tree)."""
    return max(recv[-1] for recv in fcfs_steps(tree, m).values())


def theorem2_steps(t1: int, m: int, k_t: int) -> int:
    """Theorem 2's closed form: ``T1 + (m - 1) * k_T`` steps."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > 1 and k_t < 1:
        raise ValueError("a multi-packet multicast needs a root fan-out >= 1")
    return t1 + (m - 1) * k_t


def multicast_latency_model(steps: int, params: SystemParams) -> float:
    """Smart-NI multicast latency (µs): ``t_s + steps * t_step + t_r``."""
    return params.t_s + steps * params.t_step + params.t_r


def conventional_latency_model(n: int, m: int, params: SystemParams) -> float:
    """Conventional-NI binomial multicast latency (µs).

    §2.5: every hop of the binomial tree pays the host software
    overheads, giving ``ceil(log2 n) * (t_step + t_s + t_r)`` for one
    packet; with host-level store-and-forward of all ``m`` packets each
    hop transmits the full message, hence the ``m * t_step`` term.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    hops = math.ceil(math.log2(n)) if n > 1 else 0
    return hops * (m * params.t_step + params.t_s + params.t_r)
