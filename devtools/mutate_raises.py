"""Raise deletion: which ``raise`` statements do the tests hold?

A mutant replaces one ``raise`` statement of a module with ``pass``, keeping
every line number, and runs the test suite on a copy of the tree.  It is
killed when the suite fails or times out, and survives when the suite
passes: a surviving ``raise`` is a check that no test would miss.  The
checkout is never edited.  Each worker copies the tree to a temporary
directory, mutates one module of its copy at a time and restores it.

    python3 devtools/mutate_raises.py --out MUTANTS_22.json
    python3 devtools/mutate_raises.py --jobs 2 src/germtower/blowup.py

The modules default to every ``src/**/*.py``.  Sites run module by module
(sorted paths) and in source order within a module, so two runs over the
same tree list the same sites.  The suite is
``python -m pytest -x --hypothesis-seed=0`` over the copy, with the copy's
``src`` on ``PYTHONPATH`` and at most ``MEMORY_LIMIT`` of address space;
the unmutated suite must pass first.
"""

from __future__ import annotations

import argparse
import ast
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST_ARGS = ("-x", "-q", "-rfE", "-p", "no:cacheprovider", "--hypothesis-seed=0")
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
# A mutant that deletes a budget check can allocate without bound.  Each
# suite runs with this much address space, so it fails with MemoryError
# instead of exhausting the host; the unmutated suite peaks near 80 MB.
MEMORY_LIMIT = 1 << 30


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def raise_sites(source: str) -> list[tuple[int, int, int, int]]:
    """Each ``raise``'s (line, column, end line, end column), in source
    order; columns are UTF-8 byte offsets, as ``ast`` gives them."""
    return sorted(
        (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
    )


def mutate(source: str, site: tuple[int, int, int, int]) -> str:
    """``source`` with the ``raise`` at ``site`` replaced by ``pass``; a
    statement over several lines leaves blank lines, so no line moves."""
    line, col, end_line, end_col = site
    lines = source.encode().splitlines(keepends=True)
    head, tail = lines[line - 1][:col], lines[end_line - 1][end_col:]
    lines[line - 1 : end_line] = [head + b"pass" + b"\n" * (end_line - line) + tail]
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
) -> list[dict]:
    """One record per raise site of ``modules`` (paths relative to ``root``):
    its module, line, ``killed`` or ``survived``, and the first failing
    test id (None for a survivor)."""
    sources = {module: (root / module).read_text(encoding="utf-8") for module in modules}
    sites = [(module, site) for module in modules for site in raise_sites(sources[module])]
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
            module, site = item
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
                "line": site[0],
                "status": "survived" if passed else "killed",
                "first_failure": first,
            }
            if log:
                print(f"{module}:{site[0]} {record['status']} {first or ''}", file=log, flush=True)
            return record

        with ThreadPoolExecutor(max_workers=trees.qsize()) as pool:
            return list(pool.map(judge, sites))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="module paths relative to the tree root")
    parser.add_argument("--root", type=Path, default=ROOT, help="the tree to copy")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    parser.add_argument("--out", type=Path, help="JSON results file (default stdout)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    modules = args.modules or sorted(
        str(path.relative_to(root)) for path in (root / "src").rglob("*.py")
    )
    mutants = run_pass(root, modules, jobs=args.jobs, timeout=args.timeout, log=sys.stderr)
    killed = sum(m["status"] == "killed" for m in mutants)
    result = {
        "operator": "raise -> pass",
        "suite": ["python", "-m", "pytest", *PYTEST_ARGS],
        "sites": len(mutants),
        "killed": killed,
        "survived": len(mutants) - killed,
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
