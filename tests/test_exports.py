import importlib

import pytest

import dustmix

MODULES = ["dustmix", "dustmix.cli", "dustmix.datasets", "dustmix.model", "dustmix.mstep",
           "dustmix.numerics", "dustmix.posterior", "dustmix.simulator", "dustmix.vbi"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_solver_settings_are_not_package_exports():
    assert "BoxBounds" not in dustmix.__all__
    assert "OptimizerConfig" not in dustmix.__all__
