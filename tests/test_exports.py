"""Every name a crashrl module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil
import types

import pytest

import crashrl


def module_names():
    names = [crashrl.__name__]
    for info in pkgutil.walk_packages(crashrl.__path__, prefix=f"{crashrl.__name__}."):
        names.append(info.name)
    return sorted(names)


def unresolved(module):
    """Names in ``module.__all__`` that the module does not define."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_walk_covers_every_package():
    names = module_names()
    for package in ("crashrl.numkit", "crashrl.agents", "crashrl.env", "crashrl.harness"):
        assert package in names
    assert "crashrl.numkit.autodiff" in names


@pytest.mark.parametrize("name", module_names())
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    if hasattr(module, "__all__"):
        assert len(set(module.__all__)) == len(module.__all__), f"{name}: duplicate export"
        assert unresolved(module) == [], f"{name}: __all__ lists undefined names"


def test_stale_export_is_caught():
    module = types.ModuleType("stale")
    module.kept = object()
    module.__all__ = ["kept", "Tensor"]
    assert unresolved(module) == ["Tensor"]
