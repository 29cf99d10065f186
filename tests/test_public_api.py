"""Tests for the top-level package surface."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: The package and every module under it (the CLI entry point excepted):
#: each ``__all__`` must name only attributes the module really has.
MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith("__main__")
)


#: The packages whose public names are lazy exports.
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.") if info.ispkg
)


def fresh_python(code: str):
    """Run ``code`` in a new interpreter with ``src`` on the path; return
    what it printed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


class TestPublicApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module_name", MODULES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.__all__ names missing {name!r}"

    def test_quickstart_docstring_example(self):
        """The quickstart in the package docstring must actually work."""
        service = repro.BoundedPareto.paper_default()
        classes = [
            repro.TrafficClass("gold", 1.0, service, delta=1.0),
            repro.TrafficClass("silver", 1.0, service, delta=2.0),
        ]
        allocation = repro.allocate_rates(classes, repro.PsdSpec.of(1, 2))
        assert round(sum(allocation.rates), 10) == 1.0

    def test_subpackages_importable(self):
        import repro.cluster
        import repro.core
        import repro.distributions
        import repro.experiments
        import repro.metrics
        import repro.queueing
        import repro.scheduling
        import repro.simulation
        import repro.telemetry
        import repro.workload

        for module in (
            repro.cluster,
            repro.core,
            repro.distributions,
            repro.experiments,
            repro.metrics,
            repro.queueing,
            repro.scheduling,
            repro.simulation,
            repro.telemetry,
            repro.workload,
        ):
            assert module.__doc__

    def test_the_version_is_written_once(self):
        """``pyproject.toml`` takes its version from ``_version.py``: a second
        literal version there would drift from the package's."""
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert "version" not in project["project"]
        assert "version" in project["project"]["dynamic"]
        attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        module, _, name = attr.rpartition(".")
        assert getattr(importlib.import_module(module), name) == repro.__version__

    def test_doctest_of_package_docstring(self):
        import doctest

        failures, _ = doctest.testmod(repro, verbose=False)
        assert failures == 0


class TestLazyExports:
    """Public names load their submodule on first use (PEP 562)."""

    def test_import_repro_loads_only_the_version(self):
        loaded = fresh_python(
            "import json, sys, repro\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
        )
        assert loaded == ["repro._version"]

    def test_a_cluster_run_loads_only_what_it_uses(self):
        unused = [
            "repro.queueing.mgb1",
            "repro.experiments.report",
            "repro.telemetry.tracing",
            "repro.scheduling.wfq",
            "repro.workload.ecommerce",
            "multiprocessing",
        ]
        loaded = fresh_python(
            "import json, sys\n"
            "import repro.experiments.autoscale, repro.experiments.cluster\n"
            f"print(json.dumps([m for m in {unused!r} if m in sys.modules]))"
        )
        assert loaded == []

    def test_a_single_node_figure_driver_loads_no_cluster_module(self):
        """The experiment config imports its cluster modules where a
        cluster field is validated or built, not when it is imported."""
        loaded = fresh_python(
            "import json, sys\n"
            "import repro.experiments.effectiveness\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('repro.cluster')]))"
        )
        assert loaded == []

    def test_every_package_binds_every_name_by_star_import(self):
        missing = fresh_python(
            "import importlib, json\n"
            "missing = {}\n"
            f"for package in {PACKAGES!r}:\n"
            "    names = {}\n"
            "    exec(f'from {package} import *', names)\n"
            "    module = importlib.import_module(package)\n"
            "    missing[package] = sorted(set(module.__all__) - set(names))\n"
            "print(json.dumps(missing))"
        )
        assert missing == {package: [] for package in PACKAGES}

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_attribute_names_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
            module.nope

    @pytest.mark.parametrize("package", PACKAGES)
    def test_dir_lists_all(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_public_name_is_also_a_submodule(self, package):
        """Importing a submodule binds it on its package, so an export of the
        same name would mean different objects depending on import order."""
        module = importlib.import_module(package)
        submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
        assert not set(module.__all__) & submodules

    def test_subpackages_resolve_without_an_import(self):
        make_cluster = fresh_python(
            "import json, repro\nprint(json.dumps(repro.cluster.make_cluster.__module__))"
        )
        assert make_cluster == "repro.cluster.model"
