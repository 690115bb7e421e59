"""Every function and method of the package runs on a product path.

A child interpreter installs ``sys.setprofile`` before it imports
``germtower.cli``, so code that runs at import time counts too.  It then
runs every CLI subcommand through ``cli.main`` on fixed inputs, and the
eleven acceptance criteria through their undecorated functions, so the
acceptance summary is not registered twice.  It records each code object
it enters by file and first line.  Each ``def`` in ``src/germtower``, found
with ``ast``, is keyed the same way; a decorated def starts at its first
decorator.  A def that no product path enters is dead code, unless
``ALLOWED`` names it with its reason.

Run as a script, ``python tests/test_references.py DIR`` is the child: it
writes its inputs to DIR and the entered keys to ``DIR/entered.json``.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germtower"

# What no product path enters, by module and qualified name, with the reason
# each one stays.  The test fails if one of them runs, or if any other def
# does not.
ALLOWED = {
    "cli.run": "ends the process with os._exit; the subprocess tests in test_cli enter it",
    "tower.Record.__setattr__": "the immutability guard: raises when a field is assigned",
    "tower.Record.__delattr__": "the immutability guard: raises when a field is deleted",
    "tower.Record.__repr__": "pytest's failure output prints records through it",
    "tower.Record.replace": "the documented record API, which Semisheaf overrides",
    "cuspidal.EllipticSemimodule.modes": "the benchmark counts cuspidal.modes through it",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions():
    """``(module.qualname, (path, first line))`` of every def in the package."""

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, FUNCTIONS):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    yield name, (str(path), first)
                yield from walk(child, name, path)
            else:
                yield from walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        yield from walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)


def test_every_definition_has_a_caller():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    with tempfile.TemporaryDirectory() as tmp:
        child = subprocess.run(
            [sys.executable, __file__, tmp], env=env, capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr
        entered = set(map(tuple, json.loads((Path(tmp) / "entered.json").read_text())))
    unentered = {name for name, key in definitions() if key not in entered}
    assert unentered == set(ALLOWED)


# ---------------------------------------------------------------------------
# the child: the product paths under the profiler

GERMS = (
    {"nvars": 1, "coeffs": [[[2], "1"]]},  # Morse
    {"nvars": 1, "coeffs": [[[3], "1"]]},  # Fold
    {"nvars": 2, "coeffs": [[[3, 0], "1"], [[1, 2], "-3"]]},  # elliptic umbilic
    {"nvars": 2, "coeffs": [[[3, 0], "1"], [[0, 3], "1"]]},  # hyperbolic umbilic
    {"nvars": 1, "coeffs": [[[1], "2"]]},  # Regular
    {"nvars": 1, "coeffs": [[[2], 0.5], [[4], 1]], "max_degree": 3},
)
TOWER = ["-N", "2", "--offset", "1", "--depth", "6", "--multiplicity", "1,2,1,1,2,1"]
SCENARIOS = ("none", "fold", "cusp", "swallowtail", "elliptic-umbilic", "hyperbolic-umbilic")
# a config with every key away from its default
EVERY_CLASS = [f"{mu},1" for mu in range(1, 9)]
EVERY_KEY = {
    "tower": {"quantum_modulus": 3, "offset": 2, "depth": 8, "complex_multiplicity": [2] * 8},
    "scenario": "swallowtail",
    "reduce": "mu<=2",
    "orth_dims": 2,
    "amplitude": {"table": dict.fromkeys(EVERY_CLASS, 0.5)},
    "covering_depths": [8, 7],
    "even_classes": True,
    "germ_template": dict.fromkeys(EVERY_CLASS, {"nvars": 1, "coeffs": [[[2], "1"], [[3], "1/2"]]}),
}
GOLDEN_TABLE = {"table": dict.fromkeys(("1,1", "2,1", "2,2", "3,1", "4,1", "5,1", "5,2", "6,1"), 2.0)}


def product_paths(tmp: Path) -> None:
    from germtower import pipeline
    from germtower.cli import EXIT_CONFIG, EXIT_CONTRACT, EXIT_OK, main

    def write(name: str, value) -> str:
        path = tmp / name
        path.write_text(value if isinstance(value, str) else json.dumps(value), encoding="utf-8")
        return str(path)

    golden = str(ROOT / "tests" / "data" / "golden_config.json")
    runs = [
        ("tower", *TOWER, "--complex-multiplicity", "1,1,2,1,1,3", "--out", str(tmp / "t.json")),
        ("tower", "--config", write("tower.json", {"quantum_modulus": 3, "depth": 2})),
        ("classify", "--file", write("germs.jsonl", "\n".join(map(json.dumps, GERMS)) + "\n\n")),
        ("unfold", "--name", "hyperbolic-umbilic"),
        ("unfold", "--germ", json.dumps(GERMS[1])),
        ("expand", "--levels", "ST,MG,M"),
        ("samples", "--modes-file", write("modes.json", [
            {"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1},
            {"mu": 2, "m": 1, "amplitude": 0.5, "sign": 1},
        ]), "--n", "5", "--x0", "-0.5", "--x1", "1e0", "--csv", str(tmp / "s.csv")),
        ("levels", *TOWER, "--scenario", "swallowtail", "--reduce", "mu<=3"),
        ("correspond", "--config", golden, "--out", str(tmp / "report.json")),
        *(("correspond", *TOWER, "--scenario", name) for name in SCENARIOS),
        ("correspond", "--config", write("every.json", EVERY_KEY)),
        ("levels", *TOWER, "--amplitude", write("amp.json", GOLDEN_TABLE)),
    ]
    for argv in runs:
        assert main(list(argv)) == EXIT_OK, argv
    rejected = write("rejected.json", {**EVERY_KEY, "covering_depths": [3, 1]})
    assert main(["levels", "--config", rejected]) == EXIT_CONFIG

    def broken(*args):
        raise ValueError("broken on purpose")

    pipeline.generate_levels, kept = broken, pipeline.generate_levels
    try:
        assert main(["correspond", "--config", golden]) == EXIT_CONTRACT
    finally:
        pipeline.generate_levels = kept


def acceptance() -> None:
    import test_acceptance

    for name in sorted(vars(test_acceptance)):
        if name.startswith("test_criterion_"):
            getattr(test_acceptance, name).__wrapped__()


def child(tmp: Path) -> None:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    import germtower.cli  # noqa: F401  (its import-time calls count)

    product_paths(tmp)
    acceptance()
    sys.setprofile(None)
    ours = sorted(key for key in entered if Path(key[0]).parent == PACKAGE)
    (tmp / "entered.json").write_text(json.dumps(ours))


if __name__ == "__main__":
    child(Path(sys.argv[1]))
