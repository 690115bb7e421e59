"""The benchmark tracer's targets all exist in the package.

``perfbench/tracer.py`` wraps functions and methods by name from outside the
package; a target that no longer resolves breaks ``perfbench/run.py --trace 1``.
The tracer file is read and executed here, never imported or written.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    source = TRACER.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_function_and_method_resolves():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for _, module, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for _, module, cls_name, attr, static in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None, (module, cls_name)
        raw = cls.__dict__.get(attr)
        assert raw is not None, (module, cls_name, attr)
        assert isinstance(raw, staticmethod) == static, (module, cls_name, attr)
