"""Import cost of ``germtower.cli``, module by module.

Each run starts a fresh interpreter with bytecode writing off (``-B``)
that imports ``germtower.cli`` with two hooks on the source loader: every
``germtower`` module is compiled from its source, never read from a cache,
and the loader times its compile and its body.  A module's body time is
its own: the time of the ``germtower`` modules it imports is theirs, while
a standard-library module counts for the first module that imports it.
The report gives, for each module in load order, the median compile and
body time over the runs, its code lines (lines with a token other than a
comment, outside docstrings) and its AST node count, and a total row.

    python3 devtools/import_cost.py
    python3 devtools/import_cost.py --runs 40 --src /path/to/other/src
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The child interpreter.  It loads nothing before the hooks that the
# import of germtower.cli would load itself; the loader class is already
# loaded at start-up.
CHILD = """\
from importlib.machinery import SourceFileLoader
from time import perf_counter_ns as clock

rows = {}
nested = []
get_code, exec_module = SourceFileLoader.get_code, SourceFileLoader.exec_module


def ours(name):
    return name == "germtower" or name.startswith("germtower.")


def cold_get_code(self, fullname):
    if not ours(fullname):
        return get_code(self, fullname)
    path = self.get_filename(fullname)
    data = self.get_data(path)
    start = clock()
    code = self.source_to_code(data, path)
    rows[fullname] = [clock() - start, 0]
    return code


def timed_exec_module(self, module):
    if not ours(module.__name__):
        return exec_module(self, module)
    nested.append(0)
    start = clock()
    try:
        exec_module(self, module)
    finally:
        total = clock() - start
        inner = nested.pop()
        if nested:
            nested[-1] += total
        row = rows[module.__name__]
        row[1] = total - inner - row[0]


SourceFileLoader.get_code = cold_get_code
SourceFileLoader.exec_module = timed_exec_module
import germtower.cli

print(repr(rows))
"""


def run_child(src: Path) -> dict[str, list[int]]:
    """One fresh interpreter's ``{module: [compile_ns, body_ns]}``, in load order."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(done.stdout)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def source_size(path: Path) -> tuple[int, int]:
    """``(code lines, AST nodes)`` of one source file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(tree)), sum(1 for _ in ast.walk(tree))


def module_path(src: Path, name: str) -> Path:
    parts = name.split(".")
    package = src.joinpath(*parts, "__init__.py")
    return package if package.exists() else src.joinpath(*parts).with_suffix(".py")


def measure(src: Path, runs: int) -> list[dict]:
    """One row per module of ``import germtower.cli`` and a total row:
    median compile and body milliseconds over ``runs`` interpreters, code
    lines and AST nodes."""
    per_run = [run_child(src) for _ in range(runs)]
    names = list(per_run[0])
    table = []
    for name in names:
        lines, nodes = source_size(module_path(src, name))
        compile_ms, body_ms = (
            statistics.median(rows[name][k] for rows in per_run) / 1e6 for k in (0, 1)
        )
        table.append(
            {"module": name, "compile_ms": compile_ms, "body_ms": body_ms,
             "code_lines": lines, "ast_nodes": nodes}
        )
    compiles, bodies = (
        statistics.median(sum(rows[name][k] for name in names) for rows in per_run) / 1e6
        for k in (0, 1)
    )
    table.append(
        {
            "module": "total",
            "compile_ms": compiles,
            "body_ms": bodies,
            "code_lines": sum(row["code_lines"] for row in table),
            "ast_nodes": sum(row["ast_nodes"] for row in table),
        }
    )
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="fresh interpreters (default 20)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree's src directory")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    table = measure(args.src.resolve(), args.runs)
    print(f"{'module':<22} {'compile_ms':>10} {'body_ms':>8} {'code_lines':>10} {'ast_nodes':>9}")
    for row in table:
        print(
            f"{row['module']:<22} {row['compile_ms']:>10.2f} {row['body_ms']:>8.2f} "
            f"{row['code_lines']:>10} {row['ast_nodes']:>9}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
