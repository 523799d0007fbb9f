"""The package's public surface: every exported name resolves, and so does
every function the benchmark tracer (perfbench/tracer.py) wraps by name,
which only a traced benchmark run would otherwise notice missing."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import tomolab

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(tomolab.__path__):
        module = importlib.import_module(f"tomolab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    wraps = [w for layer in tracer.LAYERS.values() for w in layer]
    assert wraps
    for w in wraps:
        target = getattr(importlib.import_module(f"tomolab.{w.module}"), w.func, None)
        assert callable(target), (w.module, w.func)
