"""Campaigns: one seeded grid of points, measured, tabulated and replayed.

The paper evaluates everything in one shape (§5.2): a grid of points,
each measured over seeded random topologies and destination sets, then
rendered as one table.  The extension experiments — chaos
(:data:`repro.faults.chaos.CHAOS`), churn
(:data:`repro.membership.sweep.CHURN`) and concurrent sessions
(:data:`repro.sessions.sweep.SESSIONS`) — each declare that shape as
one frozen :class:`Campaign`: a picklable point function, the grid
axes, the table, a CI-sized smoke grid with its check, and optionally
the SLO its records feed.  This module owns the machinery they share:

* :meth:`Campaign.sweep` runs the grid on
  :func:`repro.analysis.sweep.run_sweep`, so ``workers=N`` fans points
  out over processes and merges them back in grid order, and
  ``checkpoint`` journals completed chunks so a killed campaign
  resumes — :func:`records_json` is byte-identical either way;
* :meth:`Campaign.smoke` runs the smoke grid through the same sweep
  and raises ``AssertionError`` when its check fails;
* :meth:`Campaign.table` renders records, :meth:`Campaign.alert_log`
  replays them through the campaign's SLO;
* :func:`write_records` / :func:`load_records` are the one on-disk
  record format: a CRC-stamped ``{"version", "manifest", "records"}``
  envelope, written atomically (``repro-mcast chaos|churn|sessions
  --out`` writes it).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..durable.atomic import atomic_write_json, safe_load_json
from ..durable.errors import StoreCorruptionError, ValidationError
from .sweep import run_sweep
from .tables import render_table

__all__ = ["Campaign", "load_records", "records_json", "write_records"]

#: Schema version of the record envelope.
RECORDS_VERSION = 1

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class Campaign:
    """The declaration of one grid experiment and its reporting.

    ``axes`` are the grid axes in grid order (the last varies fastest)
    with their default values; every campaign has a ``seed`` axis.
    ``row`` turns one record into the table cells under ``columns``.
    The smoke run is the default grid with ``smoke_axes`` overriding
    axes, one seed, and ``smoke_kwargs`` passed to every point;
    ``smoke_check`` asserts its contract and ``smoke_ok`` is the line a
    passing smoke prints.  ``slo`` names the
    :func:`~repro.obs.slo.default_slos` objective the records feed, and
    ``slo_events(record, bound)`` yields that record's ``(good,
    weight)`` events, ``bound`` being the objective's measurement bound.
    """

    name: str
    point: Callable[..., dict]
    axes: Tuple[Tuple[str, Tuple], ...]
    columns: Tuple[str, ...]
    row: Callable[[dict], list]
    title: str
    smoke_axes: Mapping[str, Tuple]
    smoke_kwargs: Mapping[str, object]
    smoke_check: Callable[[List[dict]], None]
    smoke_ok: str
    slo: Optional[str] = None
    slo_events: Optional[Callable[[dict, float], Iterable[Tuple[bool, float]]]] = None

    def grid(self, **axes: Iterable) -> Dict[str, list]:
        """The default grid with the named ``axes`` overridden, in grid order."""
        names = [name for name, _ in self.axes]
        unknown = sorted(set(axes) - set(names))
        if unknown:
            raise ValidationError(f"{self.name} has no grid axes {unknown}; axes are {names}")
        return {name: list(axes.get(name, default)) for name, default in self.axes}

    def smoke_grid(self, seed: int = 0) -> Dict[str, list]:
        """The smoke run's grid at ``seed``."""
        return self.grid(**{**self.smoke_axes, "seed": (seed,)})

    def sweep(
        self,
        grid: Mapping[str, Sequence],
        *,
        workers: int = 1,
        checkpoint: Optional[PathLike] = None,
        **point_kwargs,
    ) -> List[dict]:
        """Every record of ``grid`` (see :meth:`grid`), in grid order.

        ``point_kwargs`` go to every point.  Results are independent of
        ``workers``, and a ``checkpoint`` run resumes byte-identically.
        """
        points = run_sweep(
            partial(self.point, **point_kwargs),
            grid,
            workers=workers,
            checkpoint=checkpoint,
        )
        return [p.value for p in points]

    def smoke(
        self, *, seed: int = 0, workers: int = 1, checkpoint: Optional[PathLike] = None
    ) -> List[dict]:
        """Run and check the CI-sized smoke grid; return its records.

        Raises ``AssertionError`` on a violated smoke contract, so a CI
        step fails loudly.
        """
        records = self.sweep(
            self.smoke_grid(seed), workers=workers, checkpoint=checkpoint, **self.smoke_kwargs
        )
        self.smoke_check(records)
        return records

    def table(self, records: Sequence[dict]) -> str:
        """Render ``records`` as this campaign's table."""
        return render_table(list(self.columns), [self.row(r) for r in records], title=self.title)

    def alert_log(
        self,
        records: Sequence[dict],
        *,
        spacing: float = 1.0,
        threshold: Optional[float] = None,
    ) -> dict:
        """Replay ``records`` through this campaign's SLO.

        Record ``i`` lands at ``t = i * spacing`` seconds on a synthetic
        timeline, so the same records always produce the same alert log.
        Returns ``{"alerts": [...], "slo": <snapshot>, "records": N}``.
        """
        from ..obs.slo import SLOSet, default_slos

        if self.slo is None:
            raise ValueError(f"campaign {self.name!r} feeds no SLO")
        specs = [s for s in default_slos() if s.name == self.slo]
        bound = specs[0].bound or float("inf")
        kwargs = {} if threshold is None else {"threshold": threshold}
        slos = SLOSet(specs, clock=lambda: 0.0, **kwargs)
        for index, record in enumerate(records):
            for good, weight in self.slo_events(record, bound):
                slos.record(self.slo, good, weight=weight, t=index * spacing)
        final_t = (len(records) - 1) * spacing if records else 0.0
        return {
            "alerts": slos.alert_dicts(),
            "slo": slos.snapshot(t=final_t),
            "records": len(records),
        }


def records_json(records: Sequence[dict]) -> str:
    """Canonical JSON for a record list (sorted keys, compact, stable)."""
    return json.dumps(list(records), sort_keys=True, separators=(",", ":"))


def write_records(path: PathLike, records: Sequence[dict], manifest: dict) -> str:
    """Atomically write ``records`` with ``manifest`` as a CRC-stamped envelope."""
    payload = {"version": RECORDS_VERSION, "manifest": manifest, "records": list(records)}
    return atomic_write_json(path, payload, sort_keys=True)


def load_records(path: PathLike) -> List[dict]:
    """The record list of a :func:`write_records` file.

    Raises :class:`~repro.durable.errors.StoreCorruptionError` (never a
    raw ``JSONDecodeError``) on a truncated, edited or wrong-shape file:
    downstream analysis must not chew on half a campaign.
    """
    doc = safe_load_json(path, expected_version=RECORDS_VERSION, require_crc=True)
    records = doc.get("records")
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise StoreCorruptionError(
            f"{os.fspath(path)!r} holds no record list; regenerate it with the "
            "campaign's --out"
        )
    return records
