"""Seeded Zipf / flash-crowd load shaping, shared across the repo.

The plan-service and cluster benchmarks (a Zipf ``(n, m)`` request
mix), the end-to-end ``plan_hot`` workload, and the session arrival
generators (Zipf destination-group sizes in
:func:`repro.sessions.arrivals.flash_crowd_sessions`) all draw from
this one seeded implementation of truncated-Zipf load:

:func:`zipf_weights`
    The rank weights ``1 / rank**a`` for ranks ``1..count`` — the shape
    every consumer derives its mass from.
:func:`zipf_draw`
    One truncated-Zipf draw over ``1..max_value`` via inverse CDF,
    driven by a caller-owned ``random.Random`` (determinism stays with
    the caller's seed discipline).
:func:`zipf_plan_mix`
    A deterministic Zipf-shaped ``(n, m)`` plan-request mix: a few hot
    keys and a long tail, the distribution a shared planning service
    actually sees.  With ``seed=None`` the mix is emitted in key-rank
    order (the historical A15 behavior, byte-compatible); a seed
    shuffles arrival order reproducibly, which is what a cluster load
    generator wants (interleaved keys, not sorted bursts).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

__all__ = ["zipf_draw", "zipf_plan_mix", "zipf_weights"]


def zipf_weights(count: int, a: float = 1.0) -> Tuple[float, ...]:
    """Unnormalized Zipf mass ``1 / rank**a`` for ranks ``1..count``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    return tuple(1.0 / (rank**a) for rank in range(1, count + 1))


def zipf_draw(rng: random.Random, max_value: int, a: float) -> int:
    """Truncated Zipf draw over ``1..max_value`` via inverse CDF.

    Consumes exactly one ``rng.random()`` call, so callers' seeded
    streams stay byte-identical to the historical private copies.
    """
    weights = zipf_weights(max_value, a)
    total = sum(weights)
    x = rng.random() * total
    for value, weight in enumerate(weights, start=1):
        x -= weight
        if x <= 0:
            return value
    return max_value


def zipf_plan_mix(
    total: int,
    *,
    n_keys: int = 16,
    base: int = 8,
    ms: Sequence[int] = (4, 16),
    a: float = 1.0,
    seed: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """A deterministic Zipf-shaped ``(n, m)`` plan-request mix.

    Keys are ``(base * (i + 1), m)`` for ``i < n_keys`` and each ``m``
    in ``ms``; key rank ``r`` (0-based) receives mass ``1 / (r + 1)**a``
    scaled so the mix holds ``total`` requests (each key appears at
    least once while room remains).  ``seed=None`` keeps the historical
    rank-ordered emission; a seed shuffles the arrival order with a
    private ``random.Random`` so workloads interleave hot and cold keys
    reproducibly.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    keys = [(base * (i + 1), m) for i in range(n_keys) for m in ms]
    weights = zipf_weights(len(keys), a)
    scale = total / sum(weights)
    mix: List[Tuple[int, int]] = []
    for key, weight in zip(keys, weights):
        mix.extend([key] * max(1, round(weight * scale)))
    mix = mix[:total]
    if seed is not None:
        random.Random(f"load:zipf_plan_mix:{seed}").shuffle(mix)
    return mix
