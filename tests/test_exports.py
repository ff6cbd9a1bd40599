"""Module-level conventions: every layer's ``__all__`` names only what the
module defines, no module keeps a memo without a size bound, and no module
imports a name from the package that it never uses."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import clonesim
from test_traced_names import USED_BY_BENCHMARK

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


def _cloner_branch():
    from clonesim import cloner
    from clonesim.cloner import InputQubit
    return cloner._clone_vector, (InputQubit(0.6, 0.8j),), lambda out: out[0]


def _mixed_state():
    from clonesim import protocol
    return protocol._maximally_mixed, (8,), lambda out: out


@pytest.mark.parametrize("case", [_cloner_branch, _mixed_state], ids=lambda c: c.__name__[1:])
def test_memoized_arrays_are_bounded_and_read_only(case):
    # a memo hands every caller the same array: a write into it would change
    # every later result for that argument
    fn, args, array_of = case()
    mod = importlib.import_module(fn.__module__)
    assert fn in list(_cache_wrappers(mod)) and fn.cache_parameters()["maxsize"] is not None
    first = array_of(fn(*args))
    kept = first.copy()
    with pytest.raises(ValueError):
        first[0] = 1.0
    again = array_of(fn(*args))
    assert again is first and again.tobytes() == kept.tobytes()


def _unused_relative_imports(path: Path) -> list:
    """Names a module brings in by ``from .x import`` and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(Path(clonesim.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_dead_relative_import(path):
    # a name the benchmark wraps where callers find it stays, used or not
    kept = USED_BY_BENCHMARK.get(path.stem, ())
    dead = [name for name in _unused_relative_imports(path) if name not in kept]
    assert not dead, f"clonesim.{path.stem} imports {dead} and never uses them"
