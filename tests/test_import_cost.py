"""One run of ``devtools/import_cost.py`` over this tree."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "devtools" / "import_cost.py"
spec = importlib.util.spec_from_file_location("import_cost", TOOL)
import_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(import_cost)


def test_one_run_reports_every_module_the_cli_loads(capsys):
    rows = import_cost.measure(ROOT / "src", 1)
    *modules, total = rows
    names = [row["module"] for row in modules]
    # the package loads its layers first; tools loads only when its handlers run
    assert names[0] == "germtower" and names[-1] == "germtower.cli"
    assert "germtower.tools" not in names and len(set(names)) == len(names)
    for row in modules:
        assert row["compile_ms"] > 0 and row["code_lines"] > 0 and row["ast_nodes"] > 0
    assert total["module"] == "total"
    for key in ("code_lines", "ast_nodes"):
        assert total[key] == sum(row[key] for row in modules)
    assert import_cost.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "compile_ms", "body_ms", "code_lines", "ast_nodes"]
    assert [line.split()[0] for line in lines[1:]] == names + ["total"]


def test_code_lines_skip_comments_blanks_and_docstrings(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(
        '"""A module.\n\nIts docstring."""\n'
        "\n"
        "# a comment\n"
        "X = (1,  # trailing comment\n"
        "     2)\n"
        "\n"
        "\n"
        "def f():\n"
        '    """One line."""\n'
        '    return """not a\n'
        'docstring"""\n'
    )
    assert import_cost.source_size(path)[0] == 5
