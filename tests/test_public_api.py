"""Tests for the top-level package surface."""

import importlib
import pkgutil

import pytest

import repro

#: The package and every module under it (the CLI entry point excepted):
#: each ``__all__`` must name only attributes the module really has.
MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith("__main__")
)


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

    def test_doctest_of_package_docstring(self):
        import doctest

        failures, _ = doctest.testmod(repro, verbose=False)
        assert failures == 0
