"""Optimal fan-out selection (Theorem 3) and the precomputed k table.

For a multicast set of ``n`` nodes (source included) and an ``m``-packet
message, Theorem 3 states the optimal tree is the k-binomial tree
minimizing

    steps(n, k, m) = T1(n, k) + (m - 1) * k

over ``k in [1, ceil(log2 n)]``.  There is no closed form; §4.3.1
observes the table of optimal k over all (n, m) is small (the optimal k
is constant over long runs of m and converges to 1), so it can be
precomputed and stored at the NI.

Two search modes:

* ``optimal_k`` — the paper's formula, priced with the fan-out *cap*
  ``k`` (ties broken toward the larger k, matching the paper's "for
  m = 1 the optimal k is ceil(log2 n)").
* ``optimal_k_exact`` — an extension: prices each candidate with the
  exact step schedule of the *constructed* tree (whose root fan-out can
  be smaller than k when n is far from N(s, k)).  Never worse than the
  paper formula; the ablation bench quantifies the difference.

``optimal_k`` is memoized per ``(n, m)``, the software counterpart of
the NI-resident table: every runtime caller asks for one point at a
time, and a warm call is one ``lru_cache`` hit.  The vectorized
:class:`~repro.core.surface.AnalyticSurface` builds the same answers as
whole tables; the differential suite proves it bit-equal to both
searches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .kbinomial import build_kbinomial_tree, min_k_binomial, steps_needed
from .pipeline import fpfs_total_steps

__all__ = [
    "predicted_steps",
    "optimal_k",
    "optimal_k_exact",
    "OptimalKTable",
    "linear_tree_steps",
]


def predicted_steps(n: int, k: int, m: int) -> int:
    """Theorem 3's objective: ``T1(n, k) + (m - 1) * k`` steps."""
    if n < 2:
        return 0
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return steps_needed(n, k) + (m - 1) * k


def linear_tree_steps(n: int, m: int) -> int:
    """Steps of the linear tree: ``(n - 1) + (m - 1)`` (§5.1's T_L)."""
    if n < 2:
        return 0
    return (n - 1) + (m - 1)


@lru_cache(maxsize=None)
def optimal_k(n: int, m: int) -> int:
    """The paper's optimal fan-out for ``n`` nodes and ``m`` packets.

    Searches ``k in [1, ceil(log2 n)]`` minimizing
    :func:`predicted_steps`; ties go to the *largest* k (so ``m = 1``
    yields the binomial tree's ``ceil(log2 n)``, as §5.1 states).
    """
    if n < 2:
        raise ValueError(f"need at least one destination, got n={n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    best_k, best_steps = 1, predicted_steps(n, 1, m)
    for k in range(2, min_k_binomial(n) + 1):
        steps = predicted_steps(n, k, m)
        if steps <= best_steps:
            best_k, best_steps = k, steps
    return best_k


def optimal_k_exact(n: int, m: int, ports: int = 1) -> int:
    """Fan-out cap whose *constructed* tree minimizes exact FPFS steps.

    Extension beyond the paper: evaluates each candidate k by running
    the exact step scheduler on the actual Fig. 11 tree.  Ties go to
    the smallest k (smaller fan-out means less NI buffering and fewer
    same-step messages in the network).
    """
    if n < 2:
        raise ValueError(f"need at least one destination, got n={n}")
    chain = list(range(n))
    best_k, best_steps = None, None
    for k in range(1, min_k_binomial(n) + 1):
        steps = fpfs_total_steps(build_kbinomial_tree(chain, k), m, ports=ports)
        if best_steps is None or steps < best_steps:
            best_k, best_steps = k, steps
    return best_k  # type: ignore[return-value]


class OptimalKTable:
    """Precomputed optimal-k lookup (§4.3.1's NI-resident table).

    A view over :func:`optimal_k`: the table stores, for each ``n``,
    the *breakpoints* of m in ``[1, m_max]`` at which the optimal k
    changes, exploiting §5.1's observation that optimal k is piecewise
    constant in m and converges to 1.  ``memory_entries`` reports the
    stored size, which the E11 bench shows is far below the dense
    ``n_max * m_max`` bound.  :meth:`lookup` answers from the same
    memoized search, so it agrees with :func:`optimal_k` for every m,
    past ``m_max`` included.
    """

    def __init__(self, n_max: int, m_max: int) -> None:
        if n_max < 2:
            raise ValueError("n_max must be >= 2")
        if m_max < 1:
            raise ValueError("m_max must be >= 1")
        self.n_max = n_max
        self.m_max = m_max
        # breakpoints[n] = list of (m_start, k): k applies for m >= m_start
        # until the next breakpoint.
        self._breakpoints: Dict[int, list[Tuple[int, int]]] = {}
        for n in range(2, n_max + 1):
            runs: list[Tuple[int, int]] = []
            for m in range(1, m_max + 1):
                k = optimal_k(n, m)
                if not runs or runs[-1][1] != k:
                    runs.append((m, k))
            self._breakpoints[n] = runs

    def lookup(self, n: int, m: int) -> int:
        """Optimal k for ``(n, m)``, any ``m >= 1``: :func:`optimal_k`."""
        if not (2 <= n <= self.n_max):
            raise KeyError(f"n={n} outside table range [2, {self.n_max}]")
        if m < 1:
            raise KeyError(f"m must be >= 1, got {m}")
        return optimal_k(n, m)

    @property
    def memory_entries(self) -> int:
        """Stored (m_start, k) pairs across all n — the table's footprint."""
        return sum(len(runs) for runs in self._breakpoints.values())

    @property
    def dense_entries(self) -> int:
        """Entries a naive dense n×m table would store."""
        return (self.n_max - 1) * self.m_max

    def runs_for(self, n: int) -> list[Tuple[int, int]]:
        """The (m_start, k) breakpoint list for ``n``."""
        return list(self._breakpoints[n])
