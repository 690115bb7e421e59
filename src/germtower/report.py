"""The report's text: canonical JSON, the report writer and the file writer.

Reports are byte-deterministic: the same config always serializes to the
same JSON bytes.  That is guaranteed by a small canonical emitter (fixed key
insertion order, floats printed with 17 significant digits) rather than by
the standard library encoder, whose float formatting cannot be pinned.  The
emitter walks the report once, appending chunks in output order, and escapes
strings through one translation table (quote, backslash, control characters).
The level rows, most of a deep report, skip the walk: ``_write_levels``
writes them as text from the level records, each item formatted as its list
is written.  ``Report.chunks`` is the one writer of a report: it yields the
text in blocks, so a caller that streams them to a file never holds the
whole text; ``Report.json_text`` joins them.  ``write_output`` is the one
writer of an output file.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .blowup import Level, LevelStack
from .cuspidal import LevelRecord

# Escape table for JSON strings: the quote and the backslash get a backslash,
# every control character below 0x20 becomes \u00XX; all else passes through.
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES[ord('"')] = '\\"'
_ESCAPES[ord("\\")] = "\\\\"

# The writers join their pending chunks into one block this often.  A deep
# report is about 100k small chunks; kept in one list until the end, they
# peak at about 4 MB for a 0.6 MB report, against about 1.2 MB in blocks.
_BLOCK_CHUNKS = 2048


_NOT_FINITE = "reports may not contain NaN or infinity"


def _float_text(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(_NOT_FINITE)
    return format(value, ".17g")


def dumps_canonical(obj, pad: str = "") -> str:
    """Serialize to JSON with pinned float formatting (17 significant digits).

    One recursive walk appends the text in output order, each container
    indented two spaces deeper than its parent, so every character is
    copied a bounded number of times whatever the nesting depth.  Strings
    are escaped through the one ``str.translate`` table ``_ESCAPES``.  Keys
    are ``str(key)``, ints ``str(value)``, floats ``format(value, ".17g")``;
    NaN and infinity raise ``ValueError`` and any other type ``TypeError``.
    ``pad`` is the indent of the line that ``obj`` starts on.
    """
    blocks: list[str] = []
    chunks: list[str] = []
    append = chunks.append

    def emit(obj, pad: str) -> None:
        if obj is None:
            append("null")
        elif obj is True:
            append("true")
        elif obj is False:
            append("false")
        elif isinstance(obj, str):
            append('"' + obj.translate(_ESCAPES) + '"')
        elif isinstance(obj, int):
            append(str(obj))
        elif isinstance(obj, float):
            append(_float_text(obj))
        elif isinstance(obj, (list, tuple)):
            if not obj:
                append("[]")
                return
            inner = pad + "  "
            if all(type(value) is int for value in obj):  # not bools: one join
                append("[\n" + inner + (",\n" + inner).join(map(str, obj)) + "\n" + pad + "]")
            else:
                sep = "[\n" + inner
                for value in obj:
                    append(sep)
                    emit(value, inner)
                    sep = ",\n" + inner
                append("\n" + pad + "]")
        elif isinstance(obj, dict):
            if not obj:
                append("{}")
                return
            inner = pad + "  "
            sep = "{\n" + inner
            for key, value in obj.items():
                append(sep + '"' + str(key).translate(_ESCAPES) + '": ')
                emit(value, inner)
                sep = ",\n" + inner
            append("\n" + pad + "}")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        if len(chunks) >= _BLOCK_CHUNKS:
            blocks.append("".join(chunks))
            chunks.clear()

    emit(obj, pad)
    blocks.append("".join(chunks))
    return "".join(blocks)


class Report(NamedTuple):
    """The report's sections; the level rows are written from ``records`` and
    ``stack``, and the rule is the number of levels."""

    config: dict
    records: tuple[LevelRecord, ...]
    cascade: tuple[str, ...]
    expansions: dict
    diagnostics: list[dict]
    stack: LevelStack

    def all_diagnostics_passed(self) -> bool:
        return all(d["passed"] for d in self.diagnostics)

    @property
    def level_rows(self) -> list[dict]:
        """The report's ``levels`` section, read back from ``json_text``."""
        return json.loads(self.json_text())["levels"]

    def json_text(self) -> str:
        return "".join(self.chunks())

    def chunks(self) -> Iterator[str]:
        """The report's text in blocks, in order.  This is the one writer of
        a report: ``json_text`` joins the blocks, and ``correspond --out``
        streams them to its file, so the whole text is never held."""
        config = dumps_canonical(self.config, "  ")
        yield f'{{\n  "config": {config},\n  "rule": {len(self.records)},\n  "levels": '
        yield from _write_levels(self.stack.levels, self.records)
        for key in ("cascade", "expansions", "diagnostics"):
            yield f',\n  "{key}": ' + dumps_canonical(getattr(self, key), "  ")
        yield "\n}\n"


def _write_levels(levels: Sequence[Level], records: Sequence[LevelRecord]) -> Iterator[str]:
    """Yield the report's ``levels`` list in blocks, written straight from
    each level and the index rows of its record.

    The pending chunks are joined into one block whenever they reach
    ``_BLOCK_CHUNKS``.  A list item is formatted as its list is written, so
    no text outlives its part; a part's mode texts up to ``"sign": `` are
    formatted once and shared by both sides.  Every level row sits at one
    depth of the report, its keys at 6 spaces.
    """
    out: list[str] = []
    append, extend = out.append, out.extend

    def listed(pad: str, items, *ends) -> Iterator[str]:
        """Append the list of the texts ``items``, each followed by its
        ``ends``, or null for None; yield each block as it fills."""
        if items is None:
            append("null")
            return
        chunks = chain.from_iterable(zip(chain(("[",), repeat(",")), items, *ends))
        if next(chunks, None) is None:  # no item
            append("[]")
            return
        append("[")
        while True:
            extend(islice(chunks, max(_BLOCK_CHUNKS - len(out), 0)))
            if len(out) < _BLOCK_CHUNKS:  # every chunk is taken
                break
            block = "".join(out)
            out.clear()
            yield block
        append(f"\n{pad}]")

    sep = "["
    for level, record in zip(levels, records):
        tower = record.tower
        shape = {key: getattr(tower, key) for key in ("quantum_modulus", "offset", "depth")}
        append(f'{sep}\n    {{\n      "label": {dumps_canonical(level.label)},\n      "tower": ')
        append(f'{dumps_canonical(shape, "      ")},\n      "weil_side": ')
        n, offset = tower.quantum_modulus, tower.offset
        weil = (
            f'\n        {{\n          "mu": {mu},\n          "m": {m},\n'
            f'          "degree": {offset + mu * n}\n        }}'
            for mu, m in record.weil
        )
        yield from listed("      ", weil)
        for key, part in zip(("reduced", "orthogonal"), record.parts + (None,)):
            append(f',\n      "{key}": ')
            if part is None:
                append("null")
                continue
            if not all(map(math.isfinite, part.amplitudes)):
                raise ValueError(_NOT_FINITE)
            prefixes = [
                f'\n          {{\n            "mu": {mu},\n            "m": {m},\n'
                f'            "amplitude": {amplitude:.17g},\n            "sign": '
                for (mu, m), amplitude in zip(part.carrier, part.amplitudes)
            ]
            for mark, side, sign in (("{", "right", -1), (",", "left", 1)):
                append(f'{mark}\n        "{side}": ')
                yield from listed("        ", prefixes, repeat(f"{sign}\n          }}"))
            append("\n      }")
        append(f',\n      "mode_pairs": {record.mode_pair_count()},\n      "cover": ')
        cover = level.cover and (
            f"\n        [\n          [\n            {a_mu},\n            {a_m}\n          ],"
            f"\n          [\n            {b_mu},\n            {b_m}\n          ]\n        ]"
            for (a_mu, a_m), (b_mu, b_m) in level.cover
        )
        yield from listed("      ", cover)
        append(',\n      "coverage": ')
        fraction = level.coverage and _float_text(level.coverage[1])
        coverage = level.coverage and (
            f"\n        [\n          [\n            {mu},\n            {m}\n          ],"
            f"\n          {fraction}\n        ]"
            for mu, m in level.coverage[0]
        )
        yield from listed("      ", coverage)
        append("\n    }")
        sep = ","
    append("\n  ]")
    yield "".join(out)


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
