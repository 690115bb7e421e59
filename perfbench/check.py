"""Output checks that do not trust the program's own verdict.

Everything here is computed from the config alone: which configs the
pipeline must reject, and, for the rest, the level stack the report must
show (labels, reduced and orthogonal class indices per level, Weil degrees).
The rules restate the engine's documented cascade: the reduce rule splits
the tower, a scenario adds one covering level (rule 2) or two (rule 3, the
swallowtail), each covering splits at the lower half of its ``mu`` values,
and the even-class convention drops odd classes from every part.
"""

from __future__ import annotations

import json
import math
import re

# Levels per scenario: none 1; fold, cusp and the umbilics 2; swallowtail 3.
LEVEL_LABELS = {
    "none": ("ST",),
    "fold": ("ST", "MG"),
    "cusp": ("ST", "MG"),
    "elliptic-umbilic": ("ST", "MG"),
    "hyperbolic-umbilic": ("ST", "MG"),
    "swallowtail": ("ST", "MG", "M"),
}

_SCENARIO_KEYS = {
    "none": "none",
    "fold": "fold",
    "cusp": "cusp",
    "swallowtail": "swallowtail",
    "ellipticumbilic": "elliptic-umbilic",
    "hyperbolicumbilic": "hyperbolic-umbilic",
}

_CMP = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}


def scenario_key(value) -> str:
    text = "none" if value is None else str(value).lower()
    return _SCENARIO_KEYS[text.replace("-", "").replace("_", "")]


def reduce_predicate(rule: str, depth: int):
    text = rule.strip().lower().replace(" ", "")
    if text in ("all", "none"):
        return lambda mu: text == "all"
    parity = re.fullmatch(r"mu%2==([01])", text)
    if parity:
        return lambda mu: mu % 2 == int(parity.group(1))
    op, bound = re.fullmatch(r"mu(<=|>=|==|<|>)(h|\d+)", text).groups()
    k = math.ceil(depth / 2) if bound == "h" else int(bound)
    return lambda mu: _CMP[op](mu, k)


def _lower_half(indices):
    mus = sorted({mu for mu, _ in indices})
    cut = mus[(len(mus) - 1) // 2]
    return [i for i in indices if i[0] <= cut], [i for i in indices if i[0] > cut]


def expected_levels(config: dict):
    """The level stack a config must produce, or None if it must be rejected.

    Each level is ``(label, reduced, orthogonal)`` with sorted lists of
    ``(mu, m)`` mode indices; ``orthogonal`` is None when the level has no
    orthogonal part.
    """
    tower = config["tower"]
    depth = tower["depth"]
    mult = tower.get("multiplicity") or [1] * depth
    classes = [(mu, m) for mu in range(1, depth + 1) for m in range(1, mult[mu - 1] + 1)]
    keep = reduce_predicate(config.get("reduce", "mu<=H"), depth)
    reduced = [i for i in classes if keep(i[0])]
    rest = [i for i in classes if not keep(i[0])]
    if not reduced:
        return None
    labels = LEVEL_LABELS[scenario_key(config.get("scenario"))]
    parts = [(reduced, rest)]
    if len(labels) > 1:
        if not rest:
            return None
        d1, d2 = config.get("covering_depths") or (None, None)
        covering, covering_depth = rest, depth
        for level, cut_depth in zip(labels[1:], (d1, d2)):
            if cut_depth is not None:
                if cut_depth > covering_depth:
                    return None
                covering = [i for i in covering if i[0] <= cut_depth]
                covering_depth = cut_depth
                if not covering:
                    return None
            parts.append(_lower_half(covering))
    even = bool(config.get("even_classes"))
    levels = []
    for label, (red, orth) in zip(labels, parts):
        if even:
            red = [i for i in red if i[0] % 2 == 0]
            if not red or (orth and not any(i[0] % 2 == 0 for i in orth)):
                return None
            orth = [i for i in orth if i[0] % 2 == 0]
        levels.append((label, red, orth or None))
    return levels


def _indices(modes) -> list:
    return sorted((m["mu"], m["m"]) for m in modes)


def _check_part(label: str, name: str, part, want, problems: list) -> None:
    if want is None:
        if part is not None:
            problems.append(f"{label}: unexpected {name} part")
        return
    if part is None:
        problems.append(f"{label}: missing {name} part")
        return
    right, left = part["right"], part["left"]
    if _indices(right) != want or _indices(left) != want:
        problems.append(f"{label}: {name} indices differ from the config's classes")
    if any(m["sign"] != -1 for m in right) or any(m["sign"] != 1 for m in left):
        problems.append(f"{label}: {name} mode signs are not -1 right, +1 left")


def check_report(config: dict, report: dict, levels) -> list[str]:
    """Structural checks of a parsed report against the expected levels."""
    problems = []
    rows = report.get("levels", [])
    got_labels = [row.get("label") for row in rows]
    want_labels = [label for label, _, _ in levels]
    if got_labels != want_labels:
        return [f"levels {got_labels} != expected {want_labels}"]
    tower = config["tower"]
    modulus, offset = tower["quantum_modulus"], tower.get("offset", 0)
    for row, (label, red, orth) in zip(rows, levels):
        _check_part(label, "reduced", row["reduced"], red, problems)
        _check_part(label, "orthogonal", row["orthogonal"], orth, problems)
        pairs = len(row["reduced"]["right"])
        if row["orthogonal"] is not None:
            pairs += len(row["orthogonal"]["right"])
        weil = row["weil_side"]
        if len(weil) != pairs or row["mode_pairs"] != pairs:
            problems.append(
                f"{label}: {len(weil)} Weil classes, {pairs} mode pairs, "
                f"mode_pairs field {row['mode_pairs']}"
            )
        for w in weil:
            if w["degree"] != offset + w["mu"] * modulus:
                problems.append(f"{label}: Weil degree {w['degree']} != offset + mu*N")
                break
    return problems


def check_op(
    config: dict,
    exit_code: int,
    stdout: str,
    stderr: str,
    report: bytes | None,
    golden: bytes | None = None,
) -> list[str]:
    """Every violation one CLI op shows; an empty list means the op is correct.

    ``report`` is the bytes of the ``--out`` file, or None when none was
    written; ``golden`` is the expected report when the op ran the golden
    config.
    """
    if "Traceback" in stderr:
        return [f"exit {exit_code} with a traceback"]
    levels = expected_levels(config)
    if levels is None:
        lines = stderr.strip().splitlines()
        problems = []
        if exit_code not in (2, 3):
            problems.append(f"rejected config exited {exit_code}, not 2 or 3")
        if len(lines) != 1:
            problems.append(f"rejection printed {len(lines)} stderr lines, not 1")
        if report is not None:
            problems.append("rejected config wrote a report")
        return problems
    if exit_code != 0:
        return [f"exit {exit_code} on a config that must run: {stderr.strip()[:200]}"]
    if "diagnostics: 4/4 passed" not in stdout.splitlines():
        return ["stdout lacks 'diagnostics: 4/4 passed'"]
    if report is None:
        return ["no report written"]
    if golden is not None and report != golden:
        return ["report differs from the golden report"]
    try:
        parsed = json.loads(report)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    return check_report(config, parsed, levels)
