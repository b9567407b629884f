"""Memoized wrappers for the hot analytic kernels (§4.3.1 in spirit).

The paper's NI stores a precomputed optimal-k table so the send path
never recomputes Theorem 3; the sweep engine applies the same idea to
the whole analytic layer.  Every figure grid re-derives the same small
set of artifacts — ``steps_needed(n, k)`` searches, Fig. 11 tree
constructions, exact FPFS schedules — so this module wraps them in
``functools.lru_cache`` with one shared registry:

* :func:`cached_steps_needed` — memoized ``T1(n, k)``.
* :func:`cached_build_kbinomial_tree` — memoized Fig. 11 construction
  (chains are canonicalized to tuples; the returned
  :class:`~repro.core.trees.MulticastTree` is **shared** between
  callers and must be treated as immutable).
* :func:`cached_fpfs_total_steps` — memoized exact pipelined schedule
  for a tree instance (keyed by tree identity, so it composes with
  :func:`cached_build_kbinomial_tree`: the same cached tree hits here
  too).
* :func:`cached_kbinomial_steps` — the fully-scalar fast path:
  ``(n, k, m, ports) -> exact FPFS steps`` of the canonical k-binomial
  tree over ``range(n)``, the quantity every analytic sweep wants.

The caches are **per process**: each worker of
:func:`repro.analysis.sweep.run_sweep` warms its own copy and keeps it
across grid points (the executor reuses worker processes).

:func:`cache_stats` exposes hit/miss counters and :func:`clear_caches`
resets every registered cache — including the module-level
``lru_cache``\\ s on :func:`~repro.core.kbinomial.coverage` and
:func:`~repro.core.optimal.optimal_k`, the one memoized Theorem-3
search every optimal-k caller goes through — for test isolation and
for timing cold-vs-warm runs (see ``benchmarks/bench_sweep_engine.py``).

Invalidation rule: everything cached here is a pure function of its
arguments, so the only reasons to clear are isolation (tests, timing)
and memory pressure.

Thread safety: the ``lru_cache`` wrappers themselves are safe to call
from concurrent planner workers (CPython serializes the dict ops), but
registry-wide operations are not atomic across caches — a
:func:`cache_stats` racing a :func:`clear_caches` could observe half
the registry cleared, and :func:`register_cache` mutates the registry
dict itself.  A module lock makes all three mutually exclusive; the
hot cached calls never take it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence

from .kbinomial import build_kbinomial_tree, coverage, steps_needed
from .optimal import optimal_k
from .pipeline import fpfs_total_steps
from .trees import MulticastTree

__all__ = [
    "CacheStats",
    "cache_stats",
    "cached_build_kbinomial_tree",
    "cached_fpfs_total_steps",
    "cached_kbinomial_steps",
    "cached_steps_needed",
    "clear_caches",
    "register_cache",
]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters for one registered cache."""

    hits: int
    misses: int
    currsize: int

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from cache (0.0 when never called)."""
        return self.hits / self.calls if self.calls else 0.0


@lru_cache(maxsize=None)
def cached_steps_needed(n: int, k: int) -> int:
    """Memoized :func:`~repro.core.kbinomial.steps_needed`."""
    return steps_needed(n, k)


@lru_cache(maxsize=None)
def _build_tree(chain: tuple, k: int) -> MulticastTree:
    return build_kbinomial_tree(chain, k)


def cached_build_kbinomial_tree(chain: Sequence, k: int) -> MulticastTree:
    """Memoized :func:`~repro.core.kbinomial.build_kbinomial_tree`.

    ``chain`` is canonicalized to a tuple for hashing.  The returned
    tree is shared between all callers with the same (chain, k): read
    from it freely, never ``add_child`` to it.
    """
    return _build_tree(tuple(chain), k)


@lru_cache(maxsize=4096)
def cached_fpfs_total_steps(tree: MulticastTree, m: int, ports: int = 1) -> int:
    """Memoized :func:`~repro.core.pipeline.fpfs_total_steps`.

    Keyed by tree *identity* (``MulticastTree`` hashes as an object),
    which is exactly right for trees obtained from
    :func:`cached_build_kbinomial_tree`: the shared instance makes
    repeat schedules cache hits.  Ad-hoc trees still compute correctly;
    they just never alias.
    """
    return fpfs_total_steps(tree, m, ports=ports)


@lru_cache(maxsize=None)
def cached_kbinomial_steps(n: int, k: int, m: int, ports: int = 1) -> int:
    """Exact FPFS steps of the canonical k-binomial tree over ``range(n)``.

    The scalar-keyed composition of the two caches above — the value
    the analytic sweeps and the NI-table precomputation actually need.
    Node identity never affects the step count, so ``range(n)`` stands
    in for any n-node chain.
    """
    return fpfs_total_steps(_build_tree(tuple(range(n)), k), m, ports=ports)


#: Every cache clear_caches()/cache_stats() manages.  The coverage and
#: optimal_k entries are the pre-existing module-level lru_caches; the
#: rest live here.
_REGISTRY = {
    "coverage": coverage,
    "optimal_k": optimal_k,
    "steps_needed": cached_steps_needed,
    "build_kbinomial_tree": _build_tree,
    "fpfs_total_steps": cached_fpfs_total_steps,
    "kbinomial_steps": cached_kbinomial_steps,
}

#: Serializes registry-wide operations (stats / clear / register) so
#: concurrent planner workers see the registry atomically.
_REGISTRY_LOCK = threading.RLock()


def register_cache(name: str, fn) -> None:
    """Add an external ``lru_cache``-compatible cache to the registry.

    ``fn`` must expose ``cache_info()`` and ``cache_clear()`` (the
    :func:`functools.lru_cache` protocol).  Registering the same name
    twice replaces the entry, so module reloads stay idempotent.  Used
    by :mod:`repro.service.planner` to surface its schedule memo in
    :func:`cache_stats` alongside the core caches.
    """
    if not (hasattr(fn, "cache_info") and hasattr(fn, "cache_clear")):
        raise TypeError(f"{name!r} is not an lru_cache-compatible cache: {fn!r}")
    with _REGISTRY_LOCK:
        _REGISTRY[name] = fn


def cache_stats() -> Dict[str, CacheStats]:
    """Hit/miss/size counters for every registered cache, by name."""
    with _REGISTRY_LOCK:
        stats = {}
        for name, fn in _REGISTRY.items():
            info = fn.cache_info()
            stats[name] = CacheStats(hits=info.hits, misses=info.misses, currsize=info.currsize)
        return stats


def clear_caches() -> None:
    """Empty every registered cache and reset its counters.

    Call between timing runs (cold vs warm) and in tests that assert on
    counters; the cached values themselves never go stale.  Safe to call
    while planner workers are computing: each underlying ``lru_cache``
    clear is atomic, and the registry walk holds the module lock.
    """
    with _REGISTRY_LOCK:
        for fn in _REGISTRY.values():
            fn.cache_clear()
