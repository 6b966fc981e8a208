"""The package's public surface: each module's ``__all__``, re-exported by ``homctl``."""

import importlib

import pytest

import homctl

MODULES = ["linalg", "dilation", "synthesis", "control_laws", "predictor", "simulate", "scenario", "presets"]


@pytest.mark.parametrize("module", MODULES)
def test_package_reexports_every_public_name(module):
    mod = importlib.import_module(f"homctl.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(homctl, name, None) is getattr(mod, name), f"homctl.{name} is not homctl.{module}.{name}"
