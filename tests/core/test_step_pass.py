"""The per-node step pass equals the global-heap schedulers it replaced.

:func:`repro.core.pipeline.fpfs_steps` and :func:`~repro.core.pipeline.fcfs_steps`
compute each node's sends from its own receive steps, parents before
children.  The schedulers below replay every (node, packet) pair on one
global event heap instead; they are kept here, verbatim apart from
their names, as the reference the pass must match exactly: same keys,
same values, for every tree, packet count and port count.  The O(n)
one-port :func:`~repro.core.pipeline.fpfs_first_last` must give the
ends of every :func:`~repro.core.pipeline.fpfs_steps` list.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MulticastTree,
    build_binomial_tree,
    build_flat_tree,
    build_kbinomial_tree,
    build_linear_tree,
    fcfs_schedule,
    fcfs_steps,
    fcfs_total_steps,
    fpfs_first_last,
    fpfs_schedule,
    fpfs_steps,
    fpfs_total_steps,
    packet_completion_steps,
)


def heap_fpfs_schedule(
    tree: MulticastTree, m: int, ports: int = 1
) -> Dict[Tuple[Hashable, int], int]:
    """Reference FPFS schedule: every (node, packet) on one global heap."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")

    recv: Dict[Tuple[Hashable, int], int] = {}
    # Per-node send capacity: a min-heap of the steps at which each of
    # the node's ports next becomes free (lazily created).
    port_free: Dict[Hashable, list] = {}
    # Heap of (available_step, packet_index, seq, node): the moment a
    # packet becomes forwardable at a node.  Ordering by (step, packet)
    # realises FPFS: earlier arrivals are fully serviced first.
    heap: list = []
    seq = 0
    for p in range(m):
        recv[(tree.root, p)] = 0
        heapq.heappush(heap, (1, p, seq, tree.root))
        seq += 1

    while heap:
        available, p, _, node = heapq.heappop(heap)
        if not tree.fanout(node):
            continue
        free = port_free.setdefault(node, [1] * ports)
        for child in tree.children(node):
            # Occupy the earliest-free port, no sooner than arrival.
            step = max(heapq.heappop(free), available)
            heapq.heappush(free, step + 1)
            recv[(child, p)] = step
            heapq.heappush(heap, (step + 1, p, seq, child))
            seq += 1
    return recv


def heap_fcfs_schedule(tree: MulticastTree, m: int) -> Dict[Tuple[Hashable, int], int]:
    """Reference FCFS schedule: every (node, packet) on one global heap."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")

    recv: Dict[Tuple[Hashable, int], int] = {}
    next_free: Dict[Hashable, int] = {}
    # (available_step, packet, seq, node) — arrival order drives the
    # first-child relay; the remaining children are booked when the
    # last packet lands.
    heap: list = []
    arrived: Dict[Hashable, int] = {}
    seq = 0
    for p in range(m):
        recv[(tree.root, p)] = 0
        heapq.heappush(heap, (1, p, seq, tree.root))
        seq += 1

    def book(node: Hashable, packet: int, child: Hashable, earliest: int) -> None:
        nonlocal seq
        step = max(earliest, next_free.get(node, 1))
        next_free[node] = step + 1
        recv[(child, packet)] = step
        heapq.heappush(heap, (step + 1, packet, seq, child))
        seq += 1

    while heap:
        available, p, _, node = heapq.heappop(heap)
        children = tree.children(node)
        if not children:
            continue
        arrived[node] = arrived.get(node, 0) + 1
        if node == tree.root and p == 0 and arrived[node] == 1:
            # The source holds everything: stream child-major at once.
            arrived[node] = m
            for _ in range(m - 1):
                heapq.heappop(heap)  # drop the other root entries
            for child in children:
                for packet in range(m):
                    book(node, packet, child, 1)
            continue
        book(node, p, children[0], available)
        if arrived[node] == m:
            for child in children[1:]:
                for packet in range(m):
                    book(node, packet, child, available)
    return recv


@st.composite
def trees(draw) -> MulticastTree:
    """Random parent arrays, and the k-binomial, binomial, linear and flat trees."""
    n = draw(st.integers(min_value=1, max_value=48))
    chain = list(range(n))
    kind = draw(st.sampled_from(["parents", "kbinomial", "binomial", "linear", "flat"]))
    if kind == "kbinomial":
        return build_kbinomial_tree(chain, draw(st.integers(min_value=1, max_value=6)))
    if kind == "binomial":
        return build_binomial_tree(chain)
    if kind == "linear":
        return build_linear_tree(chain)
    if kind == "flat":
        return build_flat_tree(chain)
    tree = MulticastTree(0)
    for child in range(1, n):
        tree.add_child(draw(st.integers(min_value=0, max_value=child - 1)), child)
    return tree


def assert_lists_are_the_dict_view(tree, m, steps, schedule) -> None:
    assert set(steps) == set(tree.nodes())
    for node, recv in steps.items():
        assert recv == [schedule[(node, p)] for p in range(m)]


packets = st.integers(min_value=1, max_value=40)
#: Few ports, and as many as a node can ever use at once (fan-out · m)
#: or more, where the pass stops growing its port heap.
port_counts = st.integers(min_value=1, max_value=4) | st.integers(min_value=40, max_value=2000)


@settings(max_examples=300, deadline=None)
@given(tree=trees(), m=packets, ports=port_counts)
def test_fpfs_pass_equals_the_heap_reference(tree, m, ports):
    reference = heap_fpfs_schedule(tree, m, ports=ports)
    assert fpfs_schedule(tree, m, ports=ports) == reference
    assert_lists_are_the_dict_view(tree, m, fpfs_steps(tree, m, ports=ports), reference)
    assert fpfs_total_steps(tree, m, ports=ports) == max(reference.values())
    assert packet_completion_steps(tree, m, ports=ports) == [
        max(step for (_, p), step in reference.items() if p == packet) for packet in range(m)
    ]


@settings(max_examples=300, deadline=None)
@given(tree=trees(), m=packets)
def test_first_last_pass_is_the_ends_of_the_one_port_schedule(tree, m):
    """``last = first + (m - 1) · (largest fan-out among the proper
    ancestors)``, with no (node, packet) pair computed."""
    ends = {node: (recv[0], recv[-1]) for node, recv in fpfs_steps(tree, m).items()}
    assert fpfs_first_last(tree, m) == ends


@settings(max_examples=300, deadline=None)
@given(tree=trees(), m=packets)
def test_fcfs_pass_equals_the_heap_reference(tree, m):
    reference = heap_fcfs_schedule(tree, m)
    assert fcfs_schedule(tree, m) == reference
    assert_lists_are_the_dict_view(tree, m, fcfs_steps(tree, m), reference)
    assert fcfs_total_steps(tree, m) == max(reference.values())


@settings(max_examples=100, deadline=None)
@given(tree=trees())
def test_first_packet_steps_is_the_one_packet_schedule(tree):
    reference = heap_fpfs_schedule(tree, 1)
    assert tree.first_packet_steps() == {node: step for (node, _), step in reference.items()}


@pytest.mark.parametrize(
    "schedule, reference, args",
    [
        (fpfs_schedule, heap_fpfs_schedule, (0,)),
        (fpfs_schedule, heap_fpfs_schedule, (-3,)),
        (fpfs_schedule, heap_fpfs_schedule, (2, 0)),
        (fpfs_schedule, heap_fpfs_schedule, (0, 0)),
        (fcfs_schedule, heap_fcfs_schedule, (0,)),
        (fpfs_first_last, heap_fpfs_schedule, (0,)),
    ],
)
def test_invalid_arguments_raise_the_same_errors(schedule, reference, args):
    tree = build_linear_tree([0, 1, 2])
    with pytest.raises(ValueError) as expected:
        reference(tree, *args)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        schedule(tree, *args)
