"""The report's text: canonical JSON, the report writer and the file writer.

Reports are byte-deterministic: the same config always serializes to the
same JSON bytes.  That is guaranteed by a small canonical emitter (fixed key
insertion order, floats printed with 17 significant digits) rather than by
the standard library encoder, whose float formatting cannot be pinned.  Text
has one shape: a JSON container is the join of its item texts, and strings
are escaped through one translation table (quote, backslash, control
characters).  ``dumps_canonical`` writes the sections whose nesting the
schema bounds.  The level rows, most of a deep report, are written as text
from the levels and their records by ``_write_levels``, each list through
``_listed`` in blocks of items, each item formatted as its list is written.
``Report.chunks`` is the one writer of a report: it yields the text in
order, so a caller that streams it to a file never holds the whole text;
``Report.json_text`` joins it.  ``write_output`` is the one writer of an
output file.
"""

from __future__ import annotations

import json
import math
import os
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .blowup import Level, _cover_map
from .cuspidal import LevelRecord

# Escape table for JSON strings: the quote and the backslash get a backslash,
# every control character below 0x20 becomes \u00XX; all else passes through.
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES[ord('"')] = '\\"'
_ESCAPES[ord("\\")] = "\\\\"

# ``_listed`` joins this many list items into one block, so a level list of
# any length is never held as one text while it is streamed.
_BLOCK_CHUNKS = 2048


_NOT_FINITE = "reports may not contain NaN or infinity"


def _float_text(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(_NOT_FINITE)
    return format(value, ".17g")


def dumps_canonical(obj, pad: str = "") -> str:
    """Serialize to JSON with pinned float formatting (17 significant digits).

    Each container is the join of its item texts, indented two spaces deeper
    than its parent, so a character is copied a few times per enclosing
    container; it serves only sections whose nesting the schema bounds.  Strings are
    escaped through the one ``str.translate`` table ``_ESCAPES``.  Keys are
    ``str(key)``, ints ``str(value)``, floats ``format(value, ".17g")``;
    NaN and infinity raise ``ValueError`` and any other type ``TypeError``.
    ``pad`` is the indent of the line that ``obj`` starts on.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + obj.translate(_ESCAPES) + '"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        marks = "[]"
        if all(type(value) is int for value in obj):  # not bools: one join
            items = map(str, obj)
        else:
            items = [dumps_canonical(value, inner) for value in obj]
    elif isinstance(obj, dict):
        marks = "{}"
        items = [
            '"' + str(key).translate(_ESCAPES) + '": ' + dumps_canonical(value, inner)
            for key, value in obj.items()
        ]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not obj:
        return marks
    return marks[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + marks[1]


class Report(NamedTuple):
    """The report's sections; the level rows are written from ``records`` and
    ``levels``, and the rule is the number of levels."""

    config: dict
    records: tuple[LevelRecord, ...]
    cascade: tuple[str, ...]
    expansions: dict
    diagnostics: list[dict]
    levels: tuple[Level, ...]

    def all_diagnostics_passed(self) -> bool:
        return all(d["passed"] for d in self.diagnostics)

    @property
    def level_rows(self) -> list[dict]:
        """The report's ``levels`` section, read back from ``json_text``."""
        return json.loads(self.json_text())["levels"]

    def json_text(self) -> str:
        return "".join(self.chunks())

    def chunks(self) -> Iterator[str]:
        """The report's text in order, its level lists in blocks.  This is
        the one writer of a report: ``json_text`` joins the texts, and
        ``correspond --out`` streams them to its file, so the whole text is
        never held."""
        config = dumps_canonical(self.config, "  ")
        yield f'{{\n  "config": {config},\n  "rule": {len(self.records)},\n  "levels": '
        yield from _write_levels(self.levels, self.records)
        for key in ("cascade", "expansions", "diagnostics"):
            yield f',\n  "{key}": ' + dumps_canonical(getattr(self, key), "  ")
        yield "\n}\n"


def _listed(pad: str, items: Iterable[str] | None) -> Iterator[str]:
    """Yield the JSON list of the item texts ``items``, each on its own
    line, ``_BLOCK_CHUNKS`` to a block and closed at indent ``pad``: ``[]``
    when there is none, and null for None."""
    if items is None:
        yield "null"
        return
    items = iter(items)
    mark = "["
    while block := list(islice(items, _BLOCK_CHUNKS)):
        yield mark  # apart, so the block is not copied to prefix it
        yield ",".join(block)
        mark = ","
    yield "[]" if mark == "[" else f"\n{pad}]"


def _write_levels(levels: Sequence[Level], records: Sequence[LevelRecord]) -> Iterator[str]:
    """Yield the report's ``levels`` list in order, written straight from
    each level and the index rows of its record.

    Every list goes through ``_listed``, its items formatted as it is
    written, so no item text outlives its block; a part's amplitude texts
    are formatted once for both sides, and the cover pairs as
    ``_cover_map`` yields them.  Every level row sits at one depth of the
    report, its keys at 6 spaces.
    """
    sep, lower = "[", None
    for level, record in zip(levels, records):
        tower = record.weil.tower
        shape = {key: getattr(tower, key) for key in ("quantum_modulus", "offset", "depth")}
        yield (
            f'{sep}\n    {{\n      "label": {dumps_canonical(record.label)},\n      "tower": '
            f'{dumps_canonical(shape, "      ")},\n      "weil_side": '
        )
        n, offset = tower.quantum_modulus, tower.offset
        yield from _listed("      ", (
            f'\n        {{\n          "mu": {mu},\n          "m": {m},\n'
            f'          "degree": {offset + mu * n}\n        }}'
            for mu, m in record.weil
        ))
        for key, part in zip(("reduced", "orthogonal"), record.parts + (None,)):
            yield f',\n      "{key}": '
            if part is None:
                yield "null"
                continue
            if not all(map(math.isfinite, part.amplitudes)):
                raise ValueError(_NOT_FINITE)
            amplitudes = [f"{amplitude:.17g}" for amplitude in part.amplitudes]
            for mark, side, sign in (("{", "right", "-1"), (",", "left", "1")):
                yield f'{mark}\n        "{side}": '
                yield from _listed("        ", (
                    f'\n          {{\n            "mu": {mu},\n            "m": {m},\n'
                    f'            "amplitude": {amplitude},\n            "sign": {sign}\n          }}'
                    for (mu, m), amplitude in zip(part.carrier, amplitudes)
                ))
            yield "\n      }"
        yield f',\n      "mode_pairs": {record.mode_pair_count()},\n      "cover": '
        yield from _listed("      ", lower and (
            f"\n        [\n          [\n            {a_mu},\n            {a_m}\n          ],"
            f"\n          [\n            {b_mu},\n            {b_m}\n          ]\n        ]"
            for (a_mu, a_m), (b_mu, b_m) in _cover_map(lower, level.carrier)
        ))
        yield ',\n      "coverage": '
        fraction = level.coverage and _float_text(level.coverage[1])
        yield from _listed("      ", level.coverage and (
            f"\n        [\n          [\n            {mu},\n            {m}\n          ],"
            f"\n          {fraction}\n        ]"
            for mu, m in level.coverage[0]
        ))
        yield "\n    }"
        sep, lower = ",", level.carrier
    yield "\n  ]"


def write_output(raw: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to the output path ``raw``, under
    GERMTOWER_OUTDIR when that is set and ``raw`` is relative.

    The chunks go to a new file in the same directory, created with mode
    0o666 less the umask, which replaces the path once every chunk is
    written.  On any error the new file is removed and the error raised
    again, so the path keeps what it held and nothing is left beside it.
    """
    path = Path(raw)
    outdir = os.environ.get("GERMTOWER_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # a missing directory, say: name the path asked for
        exc.filename = str(path)
        raise
    try:
        with open(fd, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
