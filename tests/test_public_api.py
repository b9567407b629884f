"""Public API contract: exports resolve, are documented, and re-import.

A release-hygiene net: every name in every package's ``__all__`` must
exist, carry a docstring (functions/classes), and the top-level package
must re-export the advertised surface.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.core",
    "repro.network",
    "repro.nic",
    "repro.mcast",
    "repro.analysis",
    "repro.obs",
    "repro.faults",
    "repro.durable",
    "repro.sessions",
    "repro.cluster",
    "repro.membership",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in package.__all__:
        obj = getattr(package, name, None)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{package_name}: missing docstrings on {undocumented}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_docstring_present(package_name):
    package = importlib.import_module(package_name)
    assert (package.__doc__ or "").strip(), f"{package_name} lacks a module docstring"


def test_public_methods_documented():
    """Public methods of the flagship classes carry docstrings."""
    from repro import Machine, MulticastSimulator, MulticastTree
    from repro.sim import Environment

    for cls in (Machine, MulticastSimulator, MulticastTree, Environment):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name} undocumented"


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    assert "MulticastSimulator" in namespace
    assert "optimal_k" in namespace


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.service",
        "import repro.cluster",
        "import repro.cli",
        "from repro.cli import main; main(['plan', '-n', '64', '-m', '8'])",
    ],
)
def test_numpy_loads_only_for_the_analytic_surface(code):
    """numpy is the surface's alone: the package, the plan service, the
    cluster and the CLI (through a ``plan`` command) never import it."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    check = code + "; import sys; sys.exit('numpy' in sys.modules and 'numpy loaded')"
    child = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr


def test_analytic_surface_resolves_on_first_use():
    import repro
    from repro.core import AnalyticSurface
    from repro.core.surface import AnalyticSurface as defined

    assert AnalyticSurface is defined and repro.AnalyticSurface is defined
    with pytest.raises(AttributeError):
        repro.core.NoSuchName  # noqa: B018 - the lazy lookup must not swallow typos
