"""The package still has every attribute the benchmark's tracer wraps.

A traced benchmark run (``perfbench/run.py --trace 1``) times the layers by
replacing the module attributes listed in ``perfbench/tracing.py``'s
``PATCHES``; a renamed or deleted function would only show up there. The
tracer is loaded by file path because ``perfbench`` is not importable from
the test path.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for name, module_name, path in tracing.PATCHES:
        owner, attr = tracing._resolve(module_name, path)
        assert attr in owner.__dict__, f"{name}: {module_name}.{path} is gone"
