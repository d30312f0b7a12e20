"""The package namespaces: lazily resolved, but the same public API."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analytics",
    "repro.benchsuite",
    "repro.celllayout",
    "repro.core",
    "repro.gatelibs",
    "repro.io",
    "repro.layout",
    "repro.networks",
    "repro.optimization",
    "repro.physical_design",
    "repro.qa",
    "repro.scheduler",
    "repro.serve",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_public_names_are_the_defining_modules_objects(name):
    package = importlib.import_module(name)
    assert len(set(package.__all__)) == len(package.__all__)
    assert set(package.__all__) <= set(dir(package))
    for attr in package.__all__:
        value = getattr(package, attr)
        if inspect.isclass(value) or inspect.isfunction(value):
            home = importlib.import_module(value.__module__)
            assert getattr(home, value.__name__) is value, attr
        # Resolved once, then a plain global of the package.
        assert vars(package)[attr] is value


def test_top_level_names_are_the_subpackages_objects():
    import repro.core
    import repro.gatelibs
    import repro.physical_design
    import repro.physical_design.ortho

    assert repro.orthogonal_layout is repro.physical_design.orthogonal_layout
    assert repro.orthogonal_layout is repro.physical_design.ortho.orthogonal_layout
    assert repro.BenchmarkDatabase is repro.core.BenchmarkDatabase
    assert repro.QCA_ONE is repro.gatelibs.QCA_ONE
    assert repro.__version__ == "1.0.0"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["check_layout"] is repro.layout.check_layout


@pytest.mark.parametrize("name", ["repro", "repro.core", "repro.layout"])
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        package.no_such_name  # noqa: B018
    assert not hasattr(package, "no_such_name")
