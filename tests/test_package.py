"""The package namespace: lazily loaded names resolve to their home modules."""

import importlib

import pytest

import knotstat


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from knotstat import *", namespace)
    assert set(knotstat.__all__) <= set(namespace)


@pytest.mark.parametrize("name", sorted(set(knotstat.__all__) - {"__version__"}))
def test_name_is_the_home_module_object(name):
    home = importlib.import_module(f"knotstat.{knotstat._HOME[name]}")
    assert getattr(knotstat, name) is getattr(home, name)


def test_dir_lists_public_names_and_submodules():
    listing = dir(knotstat)
    assert set(knotstat.__all__) <= set(listing)
    assert {"crossed", "specfun", "knotgroups"} <= set(listing)


def test_submodules_reachable_as_attributes():
    assert knotstat.crossed is importlib.import_module("knotstat.crossed")
    assert knotstat.specfun.riemann_zeta(2.0) == pytest.approx(1.6449340668482264)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        knotstat.no_such_name
    assert not hasattr(knotstat, "no_such_name")
