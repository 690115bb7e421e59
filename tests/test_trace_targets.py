"""The benchmark tracer's targets and stage names all exist in the package.

``perfbench/tracer.py`` wraps functions and methods by name from outside the
package; a target that no longer resolves breaks ``perfbench/run.py --trace 1``,
and one that a run never enters leaves its metrics to read zero.
``perfbench/run.py`` counts rejections per ``PipelineError`` stage name; a
stage renamed in ``run_pipeline`` would leave its counter at zero.  The
benchmark files are read here, never imported or written.
"""

import ast
import importlib
import inspect
import textwrap
import types
from pathlib import Path

from germtower.cli import EXIT_OK, main
from germtower.pipeline import run_pipeline

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"
RUNNER = PERFBENCH / "run.py"
GOLDEN_CONFIG = ROOT / "tests" / "data" / "golden_config.json"

# The traced spans that a correspond run does not enter, with the reason.
UNREACHED = {
    "sheaves.section_at": "a run builds no Section; only Semisheaf.sections calls section_at",
    "pipeline.serialize": "correspond --out streams Report.chunks and never calls json_text",
    "cuspidal.bistring": "the oscillator diagnostic evaluates every key's moduli in columns",
}


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


def test_every_traced_target_is_the_object_its_defining_module_holds():
    # The tracer patches every module attribute that is the target object,
    # so a copy or a wrapper left where it looks would go unmeasured.
    tracer = load_tracer()
    for _, module, attr in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr)
        assert getattr(importlib.import_module(fn.__module__), attr) is fn, (module, attr)
    for _, module, cls_name, _, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert getattr(importlib.import_module(cls.__module__), cls_name) is cls, (module, cls_name)


def test_a_correspond_run_enters_every_traced_span_but_the_named_ones(tmp_path):
    tracer = load_tracer()
    argv = ["correspond", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path / "r.json")]
    with tracer.Tracer().installed() as trace:
        assert main(argv) == EXIT_OK
    entered = {trace.names[span[0]] for span in trace.spans}
    traced = {row[0] for row in tracer.FUNCTIONS + tracer.METHODS}
    assert traced - entered == set(UNREACHED)


def test_every_benchmark_stage_is_a_pipeline_stage():
    runner = ast.parse(RUNNER.read_text(encoding="utf-8"))
    (stages,) = [
        ast.literal_eval(node.value)
        for node in runner.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]
    ]
    pipeline = ast.parse(textwrap.dedent(inspect.getsource(run_pipeline)))
    names = {
        node.args[0].value
        for node in ast.walk(pipeline)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "stage"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    assert stages and set(stages) <= names, sorted(set(stages) - names)
