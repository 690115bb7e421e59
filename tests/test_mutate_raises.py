"""The raise-deletion pass of ``devtools/mutate_raises.py`` on a toy tree."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "devtools" / "mutate_raises.py"
spec = importlib.util.spec_from_file_location("mutate_raises", TOOL)
mutate_raises = importlib.util.module_from_spec(spec)
sys.modules["mutate_raises"] = mutate_raises
spec.loader.exec_module(mutate_raises)

TOY = '''\
def halve(n):
    if n % 2:
        raise ValueError(
            f"odd: {n}"
        )
    return n // 2


def root(x):
    if x < 0: raise ValueError("negative")
    return x ** 0.5
'''

# only halve's check is held; without the autoloaded plugins one pytest
# run takes about half a second
TOY_TEST = '''\
import pytest
import toy


def test_halve():
    assert toy.halve(4) == 2
    with pytest.raises(ValueError, match="odd"):
        toy.halve(3)


def test_root():
    assert toy.root(4) == 2
'''
FAST = ("-x", "-q", "-rfE", "-p", "no:cacheprovider")


def test_mutants_keep_every_line_in_place():
    sites = mutate_raises.raise_sites(TOY)
    assert [site[0] for site in sites] == [3, 10]
    lines = TOY.splitlines()
    for site, mutated in ((s, mutate_raises.mutate(TOY, s)) for s in sites):
        assert len(mutated.splitlines()) == len(lines)
        assert "pass" in mutated.splitlines()[site[0] - 1]
        assert mutate_raises.raise_sites(mutated) == [s for s in sites if s != site]
    assert mutate_raises.mutate(TOY, sites[1]).splitlines()[9] == "    if x < 0: pass"


def test_the_pass_kills_the_held_check_and_names_the_test(tmp_path, monkeypatch):
    (tmp_path / "toy.py").write_text(TOY)
    (tmp_path / "test_toy.py").write_text(TOY_TEST)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    mutants = mutate_raises.run_pass(tmp_path, ["toy.py"], FAST, jobs=2, timeout=60)
    assert mutants == [
        {"module": "toy.py", "line": 3, "status": "killed", "first_failure": "test_toy.py::test_halve"},
        {"module": "toy.py", "line": 10, "status": "survived", "first_failure": None},
    ]
    assert (tmp_path / "toy.py").read_text() == TOY
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test_toy.py", "toy.py"]


def test_a_failing_unmutated_suite_judges_nothing(tmp_path, monkeypatch):
    (tmp_path / "toy.py").write_text(TOY)
    (tmp_path / "test_toy.py").write_text(TOY_TEST.replace("== 2\n", "== 3\n", 1))
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    with pytest.raises(RuntimeError, match=r"unmutated suite fails \(test_toy.py::test_halve\)"):
        mutate_raises.run_pass(tmp_path, ["toy.py"], FAST, timeout=60)
