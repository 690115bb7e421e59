"""Command line front end.

Subcommands: tower, classify, unfold, levels, correspond, expand, samples.
Exit codes: 0 success, 2 invalid configuration, 3 pipeline contract
violation, 4 diagnostic failure.  The GERMTOWER_OUTDIR environment variable,
when set, prefixes relative output paths.  Every output file is written
whole or not at all: to a new file beside it, renamed onto the path once
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from .cuspidal import EllipticSemimodule, Mode
from .germs import (
    CATALOGUE,
    classify_germ,
    format_germ,
    germ_from_json,
    versal_unfold,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    config_from_json,
    dumps_canonical,
    emit_expansion,
    finite_float,
    normalize_scenario,
    run_pipeline,
    samples_csv,
)
from .tower import (
    LEFT,
    RIGHT,
    ClassIndex,
    build_tower,
    tower_config_from_json,
    tower_config_to_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_DIAGNOSTIC = 4


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


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


# Each flag's dest is its config JSON key.
_TOWER_FLAGS = ("quantum_modulus", "offset", "depth", "multiplicity", "complex_multiplicity")
_RUN_FLAGS = ("scenario", "reduce", "orth_dims", "amplitude", "covering_depths", "even_classes")
_LIST_FLAGS = ("multiplicity", "complex_multiplicity", "covering_depths")


def _flag(parser: argparse.ArgumentParser, *names, **kwargs) -> None:
    """A config flag, absent from the parsed args unless given, so a flag
    left out takes the default that TowerConfig or PipelineConfig holds."""
    parser.add_argument(*names, default=argparse.SUPPRESS, **kwargs)


def _tower_flags(parser: argparse.ArgumentParser) -> None:
    _flag(parser, "--modulus", "-N", dest="quantum_modulus", type=int, help="quantum size N")
    _flag(parser, "--offset", type=int)
    _flag(parser, "--depth", type=int)
    _flag(parser, "--multiplicity", help="comma list, one entry per class")
    _flag(parser, "--complex-multiplicity")


def _pipeline_flags(parser: argparse.ArgumentParser) -> None:
    _tower_flags(parser)
    _flag(
        parser,
        "--scenario",
        help="none | fold | cusp | swallowtail | elliptic-umbilic | hyperbolic-umbilic",
    )
    _flag(parser, "--reduce", help="reduce rule, e.g. mu<=2")
    _flag(parser, "--orth-dims", type=int, help="2 or 3")
    _flag(parser, "--amplitude", help="unit | mu | path to a JSON amplitude object")
    _flag(parser, "--covering-depths", help="comma pair, e.g. 3,2")
    _flag(parser, "--even-classes", action="store_true")
    parser.add_argument("--config", help="JSON config file ('-' for stdin); overrides the flags")


def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"JSON object repeats the key {key!r}")
        out[key] = value
    return out


def load_json(text: str, source: str):
    """Parse one JSON input named ``source``; an object that repeats a key,
    or nesting too deep for the parser, is an error naming it."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError(f"{source}: JSON nests too deeply to parse") from None


def _load_json_file(path: str):
    """``load_json`` of a file's text, or of stdin for ``-``."""
    if path == "-":
        return load_json(sys.stdin.read(), "stdin")
    return load_json(Path(path).read_text(encoding="utf-8"), path)


def _given(args, keys) -> dict:
    """The flags among ``keys`` given on the command line, as config JSON."""
    given = vars(args)
    return {
        key: _parse_int_list(given[key]) if key in _LIST_FLAGS else given[key]
        for key in keys
        if key in given
    }


def _tower_json_from_args(args) -> dict:
    data = _given(args, _TOWER_FLAGS)
    if "quantum_modulus" not in data or "depth" not in data:
        raise ValueError("--modulus and --depth are required without --config")
    return data


def _pipeline_config_from_args(args) -> PipelineConfig:
    """The run config from ``--config``, or the given flags written as the same JSON."""
    if args.config:
        return config_from_json(_load_json_file(args.config))
    data = _given(args, _RUN_FLAGS)
    data["tower"] = _tower_json_from_args(args)
    if data.get("amplitude") not in (None, "unit", "mu"):
        data["amplitude"] = _load_json_file(data["amplitude"])
    return config_from_json(data)


def _cmd_tower(args) -> int:
    data = _load_json_file(args.config) if args.config else _tower_json_from_args(args)
    config = tower_config_from_json(data)
    tower = build_tower(config)
    print(
        f"tower: N={tower.quantum_modulus} offset={tower.offset} depth={tower.depth}"
    )
    for idx in tower.class_indices():
        print(f"  class ({idx.mu},{idx.m})  degree {tower.real_degree(idx)}")
    for mu in range(1, tower.depth + 1):
        place = ", ".join(f"({i.mu},{i.m})" for i in tower.place(mu))
        print(f"  place mu={mu}: {place}  complex degree {tower.complex_degree(mu)}")
    if args.out:
        payload = {
            "config": tower_config_to_json(config),
            "classes": [
                {"mu": i.mu, "m": i.m, "degree": tower.real_degree(i)}
                for i in tower.class_indices()
            ],
            "complex": [
                {"mu": mu, "degree": tower.complex_degree(mu)}
                for mu in range(1, tower.depth + 1)
            ],
        }
        write_output(args.out, (dumps_canonical(payload), "\n"))
    return EXIT_OK


def _cmd_classify(args) -> int:
    stream = sys.stdin if args.file in (None, "-") else open(args.file, "r", encoding="utf-8")
    try:
        for number, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            source = f"{'stdin' if stream is sys.stdin else args.file} line {number}"
            cls = classify_germ(germ_from_json(load_json(line, source)))
            print(f"{cls.name} corank={cls.corank} codim={cls.codim}")
    finally:
        if stream is not sys.stdin:
            stream.close()
    return EXIT_OK


def _cmd_unfold(args) -> int:
    if args.name:
        name = normalize_scenario(args.name)
        if name is None:
            raise ValueError("unfold needs a catalogue class name")
    elif args.germ is None:
        raise ValueError("unfold needs --name or --germ")
    else:
        cls = classify_germ(germ_from_json(load_json(args.germ, "--germ")))
        if cls.name not in CATALOGUE:
            raise ValueError(f"germ classifies {cls.name}; no unfolding to print")
        name = cls.name
    unfolding = versal_unfold(name)
    print(f"{name}: base {format_germ(unfolding.base)}  codim {unfolding.codim}")
    for slot, (coeff, mono) in enumerate(unfolding.parameters, start=1):
        print(f"  slot {slot}: {coeff} * ({format_germ(mono)})")
    full = unfolding.instantiate({n: 1 for n, _ in unfolding.parameters})
    print(f"  unfolded (all slots = 1): {format_germ(full)}")
    return EXIT_OK


def _print_level_summary(report) -> None:
    print(f"rule {report.rule}; levels: {', '.join(r.label for r in report.records)}")
    for record in report.records:
        reduced, *orthogonal = (len(part.carrier) for part in record.parts)
        print(
            f"  {record.label}: {len(record.weil)} weil classes = "
            f"{reduced} reduced + {sum(orthogonal)} orthogonal mode pairs"
        )
    for line in report.cascade:
        print(f"  cascade: {line}")


def _cmd_levels(args) -> int:
    report = run_pipeline(_pipeline_config_from_args(args))
    _print_level_summary(report)
    return EXIT_OK


def _cmd_correspond(args) -> int:
    report = run_pipeline(_pipeline_config_from_args(args))
    _print_level_summary(report)
    passed = sum(1 for d in report.diagnostics if d["passed"])
    print(f"diagnostics: {passed}/{len(report.diagnostics)} passed")
    if args.out:
        write_output(args.out, report.chunks())
    if not report.all_diagnostics_passed():
        for diag in report.diagnostics:
            if not diag["passed"]:
                print(f"FAILED diagnostic: {diag['name']} ({diag['detail']})", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _cmd_expand(args) -> int:
    labels = [part.strip() for part in args.levels.split(",") if part.strip()]
    fragment = emit_expansion(labels)
    for term in fragment["terms"]:
        print(f"{term['kind']:<12} {term['right']} x {term['left']}")
    print(
        f"total {len(fragment['terms'])} = {fragment['free_count']} free "
        f"+ {fragment['interaction_count']} interaction"
    )
    return EXIT_OK


_MODE_KEYS = {"mu", "m", "amplitude", "sign"}


def _semimodule_from_json(data) -> EllipticSemimodule:
    """The semimodule of a non-empty JSON list of modes: integer mu, m and
    one shared sign, finite amplitudes.

    ``mu`` must fit a float, as evaluation multiplies it into a phase.
    """
    if not isinstance(data, list):
        raise ValueError("the modes file must hold a JSON list of modes")
    if not data:
        raise ValueError("the modes file holds no modes")
    modes = []
    for item in data:
        if not isinstance(item, dict) or any(
            type(item.get(key)) is not int for key in ("mu", "m", "sign")
        ):
            raise ValueError(f"each mode needs integer mu, m and sign, got {item!r}")
        unknown = set(item) - _MODE_KEYS
        if unknown:
            raise ValueError(f"unknown mode keys: {sorted(unknown)}")
        if finite_float(item["mu"]) is None:
            raise ValueError("mode mu is beyond the float range")
        amplitude = finite_float(item.get("amplitude"))
        if amplitude is None:
            raise ValueError(
                f"mode amplitude must be a finite number, got {item.get('amplitude')!r}"
            )
        modes.append(Mode(item["mu"], item["m"], amplitude, item["sign"]))
    if len({mode.sign for mode in modes}) != 1:
        raise ValueError("the modes in one file must share one sign")
    side = LEFT if modes[0].sign == 1 else RIGHT
    carrier = tuple(ClassIndex(mode.mu, mode.m) for mode in modes)
    return EllipticSemimodule(side, carrier, tuple(mode.amplitude for mode in modes))


def _cmd_samples(args) -> int:
    esm = _semimodule_from_json(_load_json_file(args.modes_file))
    csv_text = samples_csv(esm, args.n, args.x0, args.x1)
    if args.csv:
        write_output(args.csv, (csv_text,))
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germtower",
        description="Completion towers, germ cascades, and cuspidal correspondences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tower", help="print a tower's classes and degrees")
    _tower_flags(p)
    p.add_argument("--config", help="tower JSON file ('-' for stdin)")
    p.add_argument("--out", help="write the tower JSON here")
    p.set_defaults(fn=_cmd_tower)

    p = sub.add_parser("classify", help="classify germs, one JSON per line")
    p.add_argument("--file", help="input path (default stdin)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("unfold", help="print a versal unfolding")
    p.add_argument("--name", help="catalogue class name")
    p.add_argument("--germ", help="inline germ JSON to classify first")
    p.set_defaults(fn=_cmd_unfold)

    p = sub.add_parser("levels", help="run the cascade and print the level stack")
    _pipeline_flags(p)
    p.set_defaults(fn=_cmd_levels)

    p = sub.add_parser("correspond", help="full pipeline; write the report JSON")
    _pipeline_flags(p)
    p.add_argument("--out", help="report path")
    p.set_defaults(fn=_cmd_correspond)

    p = sub.add_parser("expand", help="expand a level sum product")
    p.add_argument("--levels", required=True, help="comma list, e.g. ST,MG")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("samples", help="sample an elliptic semimodule to CSV")
    p.add_argument("--modes-file", required=True, help="JSON array of modes")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--x1", type=float, default=1.0)
    p.add_argument("--csv", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_samples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
