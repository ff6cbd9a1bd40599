"""Module-level conventions: every layer's ``__all__`` names only what the
module defines, and no module keeps a memo without a size bound."""

import importlib
import inspect
import pkgutil

import pytest

import clonesim

LAYERS = ("qstate", "cloner", "adiabatic", "optics", "protocol", "config", "cli",
          "acceptance")


@pytest.mark.parametrize("module", LAYERS)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"clonesim.{module}")
    stale = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"clonesim.{module}.__all__ lists missing names {stale}"


def _cache_wrappers(mod):
    """The functools cache wrappers ``mod`` defines, at module or class level."""
    values = list(vars(mod).values())
    values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
    return {id(v): v for v in values
            if hasattr(v, "cache_info") and v.__module__ == mod.__name__}.values()


def test_no_memo_grows_without_bound():
    # an lru_cache/cache without maxsize keeps every distinct argument for the
    # life of the process; one on a function without arguments holds one entry
    wrappers = [fn for info in pkgutil.iter_modules(clonesim.__path__)
                for fn in _cache_wrappers(importlib.import_module(f"clonesim.{info.name}"))]
    assert wrappers, "the scan found no cache at all"
    unbounded = [f"{fn.__module__}.{fn.__qualname__}" for fn in wrappers
                 if fn.cache_parameters()["maxsize"] is None
                 and inspect.signature(fn.__wrapped__).parameters]
    assert not unbounded, f"memos without a size bound: {unbounded}"
