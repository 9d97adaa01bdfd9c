"""The package stays wrappable by the benchmark's tracer.

``perfbench/tracer.py::install`` wraps functions by identity: it looks up
every module-level value of every ``nmsir`` module, each element of a
module-level tuple and each value (and tuple element) of a module-level dict
whose name is not a dunder, in a table keyed by ``id``.  A ``None`` there,
including the ``__doc__`` of a module without a docstring, matches the
table's missing-key default and ends the benchmark in a ``KeyError``.
"""

import importlib
import pkgutil

import nmsir


def _holds_none(value) -> bool:
    return value is None or (isinstance(value, tuple) and any(v is None for v in value))


def test_no_module_holds_a_none_the_tracer_would_wrap():
    names = [info.name for info in pkgutil.iter_modules(nmsir.__path__)]
    modules = [nmsir] + [importlib.import_module(f"nmsir.{name}") for name in names]
    found = []
    for module in modules:
        for attr, value in vars(module).items():
            if _holds_none(value):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, dict) and not attr.startswith("__"):
                found += [f"{module.__name__}.{attr}[{key!r}]"
                          for key, item in value.items() if _holds_none(item)]
    assert len(modules) > 1 and found == []
