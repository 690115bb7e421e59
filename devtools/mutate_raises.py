"""Mutation passes: which ``raise`` statements and comparisons do the tests hold?

A mutant changes one site of a module and runs the test suite on a copy of
the tree.  Two operators make mutants:

- ``raise`` replaces one ``raise`` statement with ``pass``;
- ``compare`` swaps one comparison operator: ``<``/``<=``, ``>``/``>=``,
  ``==``/``!=``, ``in``/``not in`` and ``is``/``is not``.

Either edits the source text in place, so every line keeps its number.  A
mutant is killed when the suite fails or times out, and survives when the
suite passes: a survivor is a check or a boundary that no test would miss.
A survivor listed in ``devtools/equivalent_mutants.json`` (module, line,
operator and mutation, with a one-line reason) cannot change any behaviour
and is reported as ``equivalent``; a listed mutant that no longer survives
is reported under ``stale_equivalents``.  The checkout is never edited.
Each worker copies the tree to a temporary directory, mutates one module of
its copy at a time and restores it.

    python3 devtools/mutate_raises.py --out MUTANTS_22.json
    python3 devtools/mutate_raises.py --jobs 2 src/germtower/blowup.py
    python3 devtools/mutate_raises.py --operator raise --operator compare --jobs 2

The modules default to every ``src/**/*.py`` and the operator to
``raise``.  Sites run module by module (sorted paths), operator by operator
and in source order within a module, so two runs over the same tree list
the same sites.  The suite is ``python -m pytest -x --hypothesis-seed=0``
over the copy, with the copy's ``src`` on ``PYTHONPATH`` and at most
``MEMORY_LIMIT`` of address space; the unmutated suite must pass first.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import json
import os
import queue
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENTS = ROOT / "devtools" / "equivalent_mutants.json"
PYTEST_ARGS = ("-x", "-q", "-rfE", "-p", "no:cacheprovider", "--hypothesis-seed=0")
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
# A mutant that deletes a budget check can allocate without bound.  Each
# suite runs with this much address space, so it fails with MemoryError
# instead of exhausting the host; the unmutated suite peaks near 80 MB.
MEMORY_LIMIT = 1 << 30


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


class Site(NamedTuple):
    """A span of source, from (line, column) to (end line, end column),
    with its text and the text a mutant puts there.  Columns are UTF-8
    byte offsets, as ``ast`` gives them."""

    line: int
    col: int
    end_line: int
    end_col: int
    original: str
    replacement: str


def raise_sites(source: str) -> list[Site]:
    """Each ``raise`` statement, to be replaced by ``pass``, in source order."""
    return sorted(
        Site(node.lineno, node.col_offset, node.end_lineno, node.end_col_offset, "raise", "pass")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
    )


# Each comparison operator and the one its mutant swaps in.
SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "in": "not in", "not in": "in", "is": "is not", "is not": "is",
}
_OPERATOR = re.compile(rb"not\s+in|is\s+not|[<>=!]=|<|>|in|is")
_COMMENT = re.compile(rb"#[^\n]*")


def compare_sites(source: str) -> list[Site]:
    """Each operator of each comparison, to be swapped by ``SWAPS``, in
    source order.  An operator is the first operator text between its two
    operands; the parentheses, comments and line breaks there are kept."""
    data = source.encode()
    starts = [0]  # the byte offset of each line, and of the end
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def position(offset: int) -> tuple[int, int]:
        line = bisect.bisect_right(starts, offset)
        return line, offset - starts[line - 1]

    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for left, right in zip(operands, operands[1:]):
            after = starts[left.end_lineno - 1] + left.end_col_offset
            gap = data[after : starts[right.lineno - 1] + right.col_offset]
            # a comment there may hold any text; blanking it keeps the offsets
            found = _OPERATOR.search(_COMMENT.sub(lambda m: b" " * len(m[0]), gap))
            text = " ".join(found[0].decode().split())
            begin, end = position(after + found.start()), position(after + found.end())
            sites.append(Site(*begin, *end, text, SWAPS[text]))
    return sorted(sites)


OPERATORS = {"raise": raise_sites, "compare": compare_sites}


def mutate(source: str, site: Site) -> str:
    """``source`` with the span of ``site`` replaced by its replacement; a
    span over several lines leaves blank lines, so no line moves."""
    line, col, end_line, end_col = site[:4]
    lines = source.encode().splitlines(keepends=True)
    head, tail = lines[line - 1][:col], lines[end_line - 1][end_col:]
    body = site.replacement.encode() + b"\n" * (end_line - line)
    lines[line - 1 : end_line] = [head + body + tail]
    return b"".join(lines).decode()


def run_suite(tree: Path, pytest_args, timeout: float) -> tuple[bool, str | None]:
    """(passed, first failing test id or "timeout") of the suite in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", *pytest_args],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return False, "timeout"
    finally:
        # a failing example that hypothesis saved would replay in the next mutant
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    if done.returncode == 0:
        return True, None
    first = _FIRST_FAILURE.search(done.stdout)
    return False, first.group(1) if first else f"exit {done.returncode}"


def run_pass(
    root: Path,
    modules: list[str],
    pytest_args=PYTEST_ARGS,
    jobs: int = 1,
    timeout: float = 300.0,
    log=None,
    operators=("raise",),
) -> list[dict]:
    """One record per site of ``operators`` in ``modules`` (paths relative
    to ``root``): its module, line, operator, mutation, ``killed`` or
    ``survived``, and the first failing test id (None for a survivor)."""
    sources = {module: (root / module).read_text(encoding="utf-8") for module in modules}
    sites = [
        (module, operator, site)
        for module in modules
        for operator in operators
        for site in OPERATORS[operator](sources[module])
    ]
    with tempfile.TemporaryDirectory(prefix="mutate-raises-") as scratch:
        trees: queue.Queue[Path] = queue.Queue()
        for n in range(max(1, min(jobs, len(sites)))):
            trees.put(Path(shutil.copytree(root, Path(scratch) / str(n), ignore=_SKIP)))
        tree = trees.get()
        passed, first = run_suite(tree, pytest_args, timeout)
        trees.put(tree)
        if not passed:
            raise RuntimeError(f"the unmutated suite fails ({first}); no mutant can be judged")

        def judge(item) -> dict:
            module, operator, site = item
            tree = trees.get()
            target = tree / module
            try:
                target.write_text(mutate(sources[module], site), encoding="utf-8")
                passed, first = run_suite(tree, pytest_args, timeout)
            finally:
                target.write_text(sources[module], encoding="utf-8")
                trees.put(tree)
            record = {
                "module": module,
                "line": site.line,
                "operator": operator,
                "mutation": f"{site.original} -> {site.replacement}",
                "status": "survived" if passed else "killed",
                "first_failure": first,
            }
            if log:
                where = f"{module}:{site.line} {record['mutation']}"
                print(f"{where} {record['status']} {first or ''}", file=log, flush=True)
            return record

        with ThreadPoolExecutor(max_workers=trees.qsize()) as pool:
            return list(pool.map(judge, sites))


def mark_equivalents(mutants: list[dict], equivalents: list[dict]) -> list[dict]:
    """Mark each survivor that ``equivalents`` lists (by module, line,
    operator and mutation) ``equivalent``, with its reason.  Return the
    listed entries that match no survivor, of the modules and operators
    that ``mutants`` covers."""
    key = itemgetter("module", "line", "operator", "mutation")
    listed = {key(entry): entry for entry in equivalents}
    for mutant in mutants:
        entry = listed.get(key(mutant))
        if entry is not None and mutant["status"] == "survived":
            mutant.update(status="equivalent", reason=entry["reason"])
            del listed[key(mutant)]
    covered = {(mutant["module"], mutant["operator"]) for mutant in mutants}
    return [e for e in listed.values() if (e["module"], e["operator"]) in covered]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="module paths relative to the tree root")
    parser.add_argument("--root", type=Path, default=ROOT, help="the tree to copy")
    parser.add_argument(
        "--operator", action="append", choices=sorted(OPERATORS), help="repeat for several"
    )
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    parser.add_argument("--out", type=Path, help="JSON results file (default stdout)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    modules = args.modules or sorted(
        str(path.relative_to(root)) for path in (root / "src").rglob("*.py")
    )
    operators = args.operator or ["raise"]
    mutants = run_pass(
        root, modules, jobs=args.jobs, timeout=args.timeout, log=sys.stderr, operators=operators
    )
    stale = mark_equivalents(mutants, json.loads(EQUIVALENTS.read_text(encoding="utf-8")))
    counts = {status: 0 for status in ("killed", "survived", "equivalent")}
    for mutant in mutants:
        counts[mutant["status"]] += 1
    result = {
        "operators": operators,
        "suite": ["python", "-m", "pytest", *PYTEST_ARGS],
        "sites": len(mutants),
        **counts,
        "stale_equivalents": stale,
        "mutants": mutants,
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
