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
    # the M-step's box and Newton settings are module constants, not objects
    for module in (dustmix, importlib.import_module("dustmix.mstep")):
        for name in ("BoxBounds", "OptimizerConfig"):
            assert name not in module.__all__ and not hasattr(module, name)


def test_single_sample_state_is_not_defined():
    # the single-sample API runs on the corpus path's arrays: no per-sample
    # state type and no per-sample bound function
    for module in map(importlib.import_module, MODULES):
        for name in ("VariationalState", "elbo_sample"):
            assert name not in module.__all__ and not hasattr(module, name)
