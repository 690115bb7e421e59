"""The raise and compare passes of ``devtools/mutate_raises.py`` on toy trees."""

import importlib.util
import json
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
    raised = {"operator": "raise", "mutation": "raise -> pass"}
    assert mutants == [
        {"module": "toy.py", "line": 3, **raised, "status": "killed", "first_failure": "test_toy.py::test_halve"},
        {"module": "toy.py", "line": 10, **raised, "status": "survived", "first_failure": None},
    ]
    assert (tmp_path / "toy.py").read_text() == TOY
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test_toy.py", "toy.py"]


def test_a_failing_unmutated_suite_judges_nothing(tmp_path, monkeypatch):
    (tmp_path / "toy.py").write_text(TOY)
    (tmp_path / "test_toy.py").write_text(TOY_TEST.replace("== 2\n", "== 3\n", 1))
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    with pytest.raises(RuntimeError, match=r"unmutated suite fails \(test_toy.py::test_halve\)"):
        mutate_raises.run_pass(tmp_path, ["toy.py"], FAST, timeout=60)


COMPARE_TOY = '''\
def clamp(n, top):
    if n > top:
        return top
    return n


def pick(key, table):
    if (key  # is it listed?
            not in table):
        return None
    return f"{table[key] if key is not None else ''}"
'''

# clamp(top, top) is top either way, so swapping ``>`` for ``>=`` changes
# nothing: an equivalent mutant
COMPARE_TEST = '''\
import toy


def test_clamp():
    assert toy.clamp(5, 3) == 3 and toy.clamp(3, 3) == 3 and toy.clamp(2, 3) == 2


def test_pick():
    assert toy.pick("a", {"a": 1}) == "1" and toy.pick("b", {}) is None
'''


def test_compare_sites_swap_one_operator_in_place():
    sites = mutate_raises.compare_sites(COMPARE_TOY)
    assert [(site.line, site.end_line, site.original, site.replacement) for site in sites] == [
        (2, 2, ">", ">="),
        (9, 9, "not in", "in"),
        (11, 11, "is not", "is"),
    ]
    lines = COMPARE_TOY.splitlines()
    mutants = [mutate_raises.mutate(COMPARE_TOY, site).splitlines() for site in sites]
    assert all(len(mutant) == len(lines) for mutant in mutants)
    assert mutants[0][1] == "    if n >= top:"
    # the ``is`` in the comment is no operator
    assert mutants[1][7:9] == ["    if (key  # is it listed?", "            in table):"]
    assert "if key is None else" in mutants[2][10]
    swapped = mutate_raises.compare_sites("\n".join(mutants[0]))
    assert [site.original for site in swapped] == [">=", "not in", "is not"]


def test_the_compare_pass_and_its_equivalents(tmp_path, monkeypatch):
    (tmp_path / "toy.py").write_text(COMPARE_TOY)
    (tmp_path / "test_toy.py").write_text(COMPARE_TEST)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    mutants = mutate_raises.run_pass(tmp_path, ["toy.py"], FAST, jobs=2, timeout=60, operators=("compare",))
    assert [(m["line"], m["operator"], m["mutation"], m["status"]) for m in mutants] == [
        (2, "compare", "> -> >=", "survived"),
        (9, "compare", "not in -> in", "killed"),
        (11, "compare", "is not -> is", "killed"),
    ]
    compare = {"module": "toy.py", "operator": "compare"}
    listed = [
        {**compare, "line": 2, "mutation": "> -> >=", "reason": "clamp(top, top) is top"},
        {**compare, "line": 9, "mutation": "not in -> in", "reason": "wrongly listed"},
        {**compare, "module": "other.py", "line": 1, "mutation": "< -> <=", "reason": "not run"},
        {"module": "toy.py", "line": 2, "operator": "raise", "mutation": "raise -> pass", "reason": "not run"},
    ]
    stale = mutate_raises.mark_equivalents(mutants, listed)
    assert mutants[0]["status"] == "equivalent" and mutants[0]["reason"] == "clamp(top, top) is top"
    assert mutants[1]["status"] == "killed" and "reason" not in mutants[1]
    # a listed mutant that was killed is stale; one that was not run is not
    assert stale == [listed[1]]


def test_each_listed_equivalent_is_a_site_at_its_line():
    # a listed line that moved would drop out of the next mutation run as a
    # stale entry, and the mutant now at that line would be unlisted
    listed = json.loads(mutate_raises.EQUIVALENTS.read_text(encoding="utf-8"))
    assert listed
    for entry in listed:
        source = (mutate_raises.ROOT / entry["module"]).read_text(encoding="utf-8")
        mutations = {
            f"{site.original} -> {site.replacement}"
            for site in mutate_raises.OPERATORS[entry["operator"]](source)
            if site.line == entry["line"]
        }
        assert entry["mutation"] in mutations, entry
