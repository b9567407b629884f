"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artifact (table or figure),
prints the series straight to the terminal (bypassing pytest capture,
so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
records the rows), and asserts the artifact's qualitative claim.

Set ``REPRO_FULL=1`` to run the paper's full 30-destination-set ×
10-topology protocol instead of the reduced default.
"""

from __future__ import annotations

import pytest


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Stamp ``--benchmark-json`` output with this run's manifest.

    A saved benchmark JSON then carries the same provenance block
    (package version, git SHA, python, platform, argv) as campaign
    records and exported traces — see ``repro.obs.manifest``.
    """
    from repro.obs import run_manifest

    output_json["manifest"] = run_manifest(extra={"kind": "benchmark"})


@pytest.fixture
def show(capsys):
    """Print a rendered table directly to the terminal."""

    def _show(*blocks: str) -> None:
        with capsys.disabled():
            print()
            for block in blocks:
                print(block)
                print()

    return _show
