"""Vectorized analytic surfaces: whole grids of the paper's theory at once.

The paper's NI stores a precomputed optimal-k table so the send path
never recomputes Theorem 3 (§4.3.1); this module applies the same idea
at grid scale.  Instead of memoizing point-by-point calls
(:mod:`repro.core.cache`), an :class:`AnalyticSurface` computes *whole
tables* with numpy in one shot:

* the Lemma-1 coverage columns ``N(s, k)`` for every fan-out cap up to
  ``ceil(log2 n_max)``, each column carried exactly until it first
  reaches ``n_max``;
* the derived ``steps_needed(n, k)`` table — one
  :func:`numpy.searchsorted` per column over the strictly increasing
  coverage values;
* the Theorem-2 objective surface ``T1(n, k) + (m - 1) * k`` and its
  argmin over ``k`` — ``optimal_k(n, m)`` for *every* ``(n, m)`` at
  once, with the scalar search's tie-breaking reproduced bit-exactly
  (ties to the largest ``k`` for the paper variant, smallest for the
  exact variant);
* optionally, the *exact* objective surface: per ``(n, k)`` one
  pipelined FPFS schedule of the constructed Fig. 11 tree at the
  maximum packet count, from which the totals for every smaller ``m``
  follow by the pipeline prefix property (packet ``p``'s receive times
  never depend on packets after it — a property test pins this).

After the build every lookup is an O(1) array index.  A surface is an
explicit table builder: ``repro-mcast surface`` builds, saves and loads
one, and :meth:`AnalyticSurface.optimal_k_grid` extracts a whole
fig12-shaped grid.  Single-point queries at runtime go to the memoized
:func:`repro.core.optimal.optimal_k` search, which is also the
surface's correctness oracle: ``tests/test_differential.py`` proves
the tables bit-equal to :func:`~repro.core.optimal.optimal_k` over the
full 512×64 grid and to :func:`~repro.core.optimal.optimal_k_exact`
over a reduced one.

Surfaces persist through the :mod:`repro.durable` atomic stores:
:meth:`AnalyticSurface.save` writes a CRC-stamped, manifest-carrying
JSON document and :meth:`AnalyticSurface.load` verifies it, so a saved
surface round-trips bit-identically or fails loudly.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..durable.errors import ValidationError
from .kbinomial import build_kbinomial_tree, min_k_binomial
from .pipeline import packet_completion_steps

__all__ = ["AnalyticSurface"]

#: Schema version of the saved-surface JSON envelope.
SURFACE_VERSION = 1

#: Objective sentinel for fan-outs outside a row's legal search range
#: ``[1, ceil(log2 n)]`` — larger than any reachable step count.
_MASKED = np.int64(2**62)

#: Hard cap on a surface's ``n_max``, far above any modeled machine.
MAX_N_MAX = 1 << 22


def _ceil_log2(n: int) -> int:
    """``ceil(log2 n)`` exactly, via bit length (no float rounding)."""
    return (n - 1).bit_length()


def _coverage_columns(n_max: int, k_max: int) -> List[np.ndarray]:
    """Exact Lemma-1 columns: ``cols[k-1][s] == N(s, k)``.

    Each column stops at the first value ``>= n_max`` — everything a
    ``steps_needed`` search over ``n <= n_max`` can consult.  Values are
    exact (python-int recurrence, no clipping), and stay far inside
    int64: every stored value is ``< 1 + k * n_max``.
    """
    cols = []
    for k in range(1, k_max + 1):
        vals = [1]
        while vals[-1] < n_max:
            s = len(vals)
            vals.append(2**s if s <= k else 1 + sum(vals[-k:]))
        cols.append(np.asarray(vals, dtype=np.int64))
    return cols


def _exact_completion(n: int, k: int, m_max: int, ports: int) -> np.ndarray:
    """Exact FPFS totals of the canonical Fig. 11 tree for every ``m``.

    One scheduler run at ``m_max`` packets; entry ``m - 1`` is
    ``fpfs_total_steps(tree, m)``.  Correct because the total for ``m``
    packets is the running maximum of per-packet completion steps and
    FPFS receive times have the pipeline prefix property (packets after
    ``p`` never move ``p``'s schedule — pinned by a property test).
    """
    tree = build_kbinomial_tree(list(range(n)), k)
    completion = packet_completion_steps(tree, m_max, ports=ports)
    return np.maximum.accumulate(np.asarray(completion, dtype=np.int64))


class AnalyticSurface:
    """Precomputed ``N(s,k)`` / ``T1(n,k)`` / ``optimal_k(n,m)`` tables.

    Build with :meth:`build` (vectorized, one shot) or :meth:`load`
    (from a saved store).  All lookups are O(1); out-of-bounds lookups
    raise :class:`KeyError`.  Instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(
        self,
        *,
        n_max: int,
        m_max: int,
        coverage_cols: List[np.ndarray],
        steps: np.ndarray,
        optimal: np.ndarray,
        best_steps: np.ndarray,
        exact_ports: Optional[int] = None,
        exact_optimal: Optional[np.ndarray] = None,
        exact_best_steps: Optional[np.ndarray] = None,
        build_seconds: float = 0.0,
    ) -> None:
        self.n_max = n_max
        self.m_max = m_max
        self.k_max = len(coverage_cols)
        self._coverage_cols = coverage_cols
        self._steps = steps
        self._optimal = optimal
        self._best_steps = best_steps
        self._exact_ports = exact_ports
        self._exact_optimal = exact_optimal
        self._exact_best_steps = exact_best_steps
        #: Wall-clock seconds the vectorized build took (0 for loads).
        self.build_seconds = build_seconds
        #: Served lookups (any table).
        self.hits = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        n_max: int,
        m_max: int,
        *,
        exact: bool = False,
        ports: int = 1,
        tracer=None,
    ) -> "AnalyticSurface":
        """Compute every table for ``n <= n_max``, ``m <= m_max`` at once.

        ``exact=True`` additionally builds the exact-variant tables
        (one FPFS schedule per ``(n, k)`` at ``ports`` injection ports
        — far costlier than the closed-form tables, so off by default).
        ``tracer`` (a wall-clock :class:`repro.obs.Tracer`) records the
        build as a span.
        """
        if n_max < 2:
            raise ValidationError(f"n_max must be >= 2, got {n_max}")
        if n_max > MAX_N_MAX:
            raise ValidationError(f"n_max {n_max} exceeds the {MAX_N_MAX} cap")
        if m_max < 1:
            raise ValidationError(f"m_max must be >= 1, got {m_max}")
        if ports < 1:
            raise ValidationError(f"ports must be >= 1, got {ports}")

        started = time.perf_counter()
        k_max = max(1, _ceil_log2(n_max))
        cols = _coverage_columns(n_max, k_max)

        # steps[n, k-1] == T1(n, k): one searchsorted per monotone column.
        n_axis = np.arange(n_max + 1, dtype=np.int64)
        steps = np.empty((n_max + 1, k_max), dtype=np.int64)
        for j, col in enumerate(cols):
            steps[:, j] = np.searchsorted(col, n_axis, side="left")

        # Theorem-2 objective T1 + (m-1)k for every (n, k, m); argmin
        # over the legal k range with the scalar search's tie rule.
        ks = np.arange(1, k_max + 1, dtype=np.int64)
        legal_k = np.zeros(n_max + 1, dtype=np.int64)
        legal_k[2:] = np.asarray([_ceil_log2(n) for n in range(2, n_max + 1)], dtype=np.int64)
        m_axis = np.arange(1, m_max + 1, dtype=np.int64)
        obj = steps[:, :, None] + ks[None, :, None] * (m_axis - 1)[None, None, :]
        obj = np.where((ks[None, :] > legal_k[:, None])[:, :, None], _MASKED, obj)
        # Ties go to the *largest* k (the scalar loop's `<=` update):
        # argmin over the reversed k axis finds it first.
        flipped = obj[:, ::-1, :]
        optimal = (k_max - np.argmin(flipped, axis=1)).astype(np.int64)
        best_steps = np.min(flipped, axis=1)
        optimal[:2, :] = 0
        best_steps[:2, :] = 0

        exact_optimal = exact_best = None
        if exact:
            exact_obj = np.full((n_max + 1, k_max, m_max), _MASKED, dtype=np.int64)
            for n in range(2, n_max + 1):
                for k in range(1, min_k_binomial(n) + 1):
                    exact_obj[n, k - 1, :] = _exact_completion(n, k, m_max, ports)
            # Scalar optimal_k_exact breaks ties toward the *smallest*
            # k (strict-< update over ascending k): plain argmin.
            exact_optimal = (np.argmin(exact_obj, axis=1) + 1).astype(np.int64)
            exact_best = np.min(exact_obj, axis=1)
            exact_optimal[:2, :] = 0
            exact_best[:2, :] = 0

        elapsed = time.perf_counter() - started
        if tracer is not None and tracer.enabled:
            tracer.complete(
                "surface build",
                tracer.track("surface", "build"),
                tracer.now() - elapsed * 1e6,
                cat="surface",
                args={"n_max": n_max, "m_max": m_max, "exact": exact, "ports": ports},
            )
        return cls(
            n_max=n_max,
            m_max=m_max,
            coverage_cols=cols,
            steps=steps,
            optimal=optimal,
            best_steps=best_steps,
            exact_ports=ports if exact else None,
            exact_optimal=exact_optimal,
            exact_best_steps=exact_best,
            build_seconds=elapsed,
        )

    # -- lookups ------------------------------------------------------------

    def contains(self, n: int, m: int) -> bool:
        """True when ``(n, m)`` is inside the precomputed bounds."""
        return 2 <= n <= self.n_max and 1 <= m <= self.m_max

    def coverage(self, s: int, k: int) -> int:
        """Lemma 1's ``N(s, k)`` from the stored column.

        Raises :class:`KeyError` beyond the stored horizon (each column
        holds every value ``< n_max`` plus the first one above).
        """
        if not (1 <= k <= self.k_max):
            raise KeyError(f"k={k} outside surface columns [1, {self.k_max}]")
        col = self._coverage_cols[k - 1]
        if not (0 <= s < len(col)):
            raise KeyError(f"s={s} beyond stored column for k={k} (len {len(col)})")
        self.hits += 1
        return int(col[s])

    def steps_needed(self, n: int, k: int) -> int:
        """Theorem 3's ``T1(n, k)`` — O(1) from the searchsorted table.

        ``k`` past the table's last column clamps to it: for any
        ``n <= n_max``, ``k >= ceil(log2 n_max)`` never changes ``T1``.
        """
        if not (1 <= n <= self.n_max):
            raise KeyError(f"n={n} outside surface bounds [1, {self.n_max}]")
        if k < 1:
            raise KeyError(f"k must be >= 1, got {k}")
        self.hits += 1
        return int(self._steps[n, min(k, self.k_max) - 1])

    def predicted_steps(self, n: int, k: int, m: int) -> int:
        """Theorem 3's objective ``T1(n, k) + (m - 1) * k``."""
        if m < 1:
            raise KeyError(f"m must be >= 1, got {m}")
        if n < 2:
            return 0
        return self.steps_needed(n, k) + (m - 1) * k

    def optimal_k(self, n: int, m: int) -> int:
        """The paper's optimal fan-out, bit-equal to :func:`~repro.core.optimal.optimal_k`."""
        if not self.contains(n, m):
            raise KeyError(f"(n={n}, m={m}) outside surface bounds "
                           f"[2, {self.n_max}] x [1, {self.m_max}]")
        self.hits += 1
        return int(self._optimal[n, m - 1])

    def optimal_steps(self, n: int, m: int) -> int:
        """The minimized objective ``T1 + (m-1)k`` at the optimal k."""
        if not self.contains(n, m):
            raise KeyError(f"(n={n}, m={m}) outside surface bounds")
        self.hits += 1
        return int(self._best_steps[n, m - 1])

    @property
    def has_exact(self) -> bool:
        """True when the exact-variant tables were built."""
        return self._exact_optimal is not None

    @property
    def exact_ports(self) -> Optional[int]:
        """NI port count the exact tables were scheduled with."""
        return self._exact_ports

    def optimal_k_exact(self, n: int, m: int, ports: int = 1) -> int:
        """Exact-variant optimal fan-out (scalar tie rule: smallest k).

        Raises :class:`KeyError` when the exact tables are absent, were
        built for a different ``ports``, or ``(n, m)`` is out of bounds,
        so a surface built under one machine view can never answer
        another's exact lookups (the stale-surface test pins this).
        """
        if self._exact_optimal is None:
            raise KeyError("surface was built without exact tables")
        if ports != self._exact_ports:
            raise KeyError(
                f"exact tables were built for ports={self._exact_ports}, not {ports}"
            )
        if not self.contains(n, m):
            raise KeyError(f"(n={n}, m={m}) outside surface bounds")
        self.hits += 1
        return int(self._exact_optimal[n, m - 1])

    def latency_us(self, n: int, m: int, params) -> float:
        """End-to-end model latency ``t_s + steps * t_step + t_r`` (µs).

        ``params`` is any object with ``t_s`` / ``t_step`` / ``t_r``
        (:class:`~repro.params.MachineParams` or
        :class:`~repro.params.SystemParams`) — taken per call, so a
        parameter change can never go stale inside the surface.
        """
        return params.t_s + self.optimal_steps(n, m) * params.t_step + params.t_r

    # -- vectorized extraction ----------------------------------------------

    def optimal_k_grid(
        self, n_values: Sequence[int], m_values: Sequence[int]
    ) -> np.ndarray:
        """``optimal_k`` over a whole sub-grid in one fancy-index.

        Returns an int64 array of shape ``(len(n_values),
        len(m_values))`` — the fig12-shaped extraction the benchmarks
        measure against the per-point memo path.
        """
        n_idx = np.asarray(list(n_values), dtype=np.int64)
        m_idx = np.asarray(list(m_values), dtype=np.int64)
        if n_idx.size == 0 or m_idx.size == 0:
            raise ValidationError("optimal_k_grid needs non-empty n and m values")
        if n_idx.min() < 2 or n_idx.max() > self.n_max:
            raise KeyError(f"n values outside surface bounds [2, {self.n_max}]")
        if m_idx.min() < 1 or m_idx.max() > self.m_max:
            raise KeyError(f"m values outside surface bounds [1, {self.m_max}]")
        self.hits += n_idx.size * m_idx.size
        return self._optimal[np.ix_(n_idx, m_idx - 1)]

    def latency_surface(self, params) -> np.ndarray:
        """The full µs latency surface at the optimal k, shape (n_max+1, m_max).

        Rows 0 and 1 are zero-filled (no multicast to plan); everything
        else is ``t_s + best_steps * t_step + t_r``.
        """
        surface = params.t_s + self._best_steps.astype(np.float64) * params.t_step + params.t_r
        surface[:2, :] = 0.0
        return surface

    # -- persistence --------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_payload`)."""
        payload: Dict[str, object] = {
            "version": SURFACE_VERSION,
            "n_max": self.n_max,
            "m_max": self.m_max,
            "coverage_cols": [col.tolist() for col in self._coverage_cols],
            "steps": self._steps.tolist(),
            "optimal": self._optimal.tolist(),
            "best_steps": self._best_steps.tolist(),
        }
        if self.has_exact:
            payload["exact"] = {
                "ports": self._exact_ports,
                "optimal": self._exact_optimal.tolist(),
                "best_steps": self._exact_best_steps.tolist(),
            }
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "AnalyticSurface":
        """Rebuild a surface from :meth:`to_payload` output."""
        for field in ("n_max", "m_max", "coverage_cols", "steps", "optimal", "best_steps"):
            if field not in payload:
                raise ValidationError(f"surface payload missing {field!r}")
        exact = payload.get("exact")
        return cls(
            n_max=payload["n_max"],
            m_max=payload["m_max"],
            coverage_cols=[np.asarray(col, dtype=np.int64) for col in payload["coverage_cols"]],
            steps=np.asarray(payload["steps"], dtype=np.int64),
            optimal=np.asarray(payload["optimal"], dtype=np.int64),
            best_steps=np.asarray(payload["best_steps"], dtype=np.int64),
            exact_ports=exact["ports"] if exact else None,
            exact_optimal=np.asarray(exact["optimal"], dtype=np.int64) if exact else None,
            exact_best_steps=np.asarray(exact["best_steps"], dtype=np.int64) if exact else None,
        )

    def save(self, path) -> None:
        """Atomically persist the surface (CRC-stamped, manifest-carrying).

        Written through :func:`repro.durable.atomic_write_json`: a
        reader sees the old file or the new one, never a torn write,
        and later bit rot fails the checksum at :meth:`load`.
        """
        from ..durable.atomic import atomic_write_json
        from ..obs.manifest import run_manifest

        payload = self.to_payload()
        payload["manifest"] = run_manifest(
            extra={"kind": "analytic_surface", "n_max": self.n_max, "m_max": self.m_max}
        )
        atomic_write_json(path, payload)

    @classmethod
    def load(cls, path) -> "AnalyticSurface":
        """Load and CRC-verify a saved surface (bit-identical round trip)."""
        from ..durable.atomic import safe_load_json

        payload = safe_load_json(path, expected_version=SURFACE_VERSION)
        return cls.from_payload(payload)

    # -- reporting ----------------------------------------------------------

    @property
    def table_entries(self) -> int:
        """Stored cells across every table — the surface's footprint."""
        entries = sum(len(col) for col in self._coverage_cols)
        entries += self._steps.size + self._optimal.size + self._best_steps.size
        if self.has_exact:
            entries += self._exact_optimal.size + self._exact_best_steps.size
        return entries

    def stats(self) -> dict:
        """Bounds, footprint, and serving counters as a plain dict."""
        return {
            "n_max": self.n_max,
            "m_max": self.m_max,
            "k_max": self.k_max,
            "exact": self.has_exact,
            "exact_ports": self._exact_ports,
            "table_entries": self.table_entries,
            "build_seconds": self.build_seconds,
            "hits": self.hits,
        }
