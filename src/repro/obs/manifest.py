"""Run manifests: enough provenance to reproduce any emitted number.

:func:`run_manifest` captures what produced an artifact — package
version, git SHA (when a repository is reachable), Python/platform,
timestamps, the invoking ``argv``, and the caller's parameters and
seed — as one JSON-serializable dict.  It is attached to

* campaign records (:func:`repro.analysis.campaign.write_records`),
* benchmark JSON (the ``pytest_benchmark_update_json`` hook in
  ``benchmarks/conftest.py``), and
* exported Chrome traces (the ``metadata`` field).

Everything is best-effort: a missing git binary or a tarball checkout
yields ``"git": None`` rather than an error — manifests must never
make a run fail.
"""

from __future__ import annotations

import dataclasses
import datetime
import os
import platform
import subprocess
import sys
import time
from typing import Optional

__all__ = ["MANIFEST_SCHEMA", "git_sha", "run_manifest"]

#: Bump when the manifest's key set changes incompatibly.
MANIFEST_SCHEMA = 1


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """HEAD's commit SHA, or None outside a repo / without git.

    ``cwd`` defaults to this package's source directory, so installed-
    from-checkout runs report the checkout's SHA regardless of where
    the process was launched.
    """
    if cwd is None:
        cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def _jsonable_params(params: object) -> object:
    """Params as JSON-friendly data: dataclass → dict, else as given/repr."""
    if params is None:
        return None
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        return dataclasses.asdict(params)
    to_dict = getattr(params, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if isinstance(params, (dict, list, tuple, str, int, float, bool)):
        return params
    return repr(params)


def run_manifest(
    params: object = None,
    seed: Optional[int] = None,
    extra: Optional[dict] = None,
) -> dict:
    """The provenance record for one run, as a JSON-serializable dict.

    Parameters
    ----------
    params:
        The run's parameter object (dataclasses are expanded to dicts).
    seed:
        The run's master seed, when one exists.
    extra:
        Caller-specific fields merged in last (may override nothing —
        they live under their own keys).
    """
    from .. import __version__

    now = time.time()
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "package": "repro",
        "version": __version__,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "argv": list(sys.argv),
        "created_unix": now,
        "created_utc": datetime.datetime.fromtimestamp(
            now, tz=datetime.timezone.utc
        ).isoformat(),
        "params": _jsonable_params(params),
        "seed": seed,
    }
    if extra:
        manifest.update(extra)
    return manifest
