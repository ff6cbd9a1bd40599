"""Every layer module's ``__all__`` names only what the module defines."""

import importlib

import pytest

LAYERS = ("qstate", "cloner", "adiabatic", "optics", "protocol", "config", "cli",
          "acceptance")


@pytest.mark.parametrize("module", LAYERS)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"clonesim.{module}")
    stale = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"clonesim.{module}.__all__ lists missing names {stale}"
