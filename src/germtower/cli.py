"""Command line front end.

Subcommands: tower, classify, unfold, levels, correspond, expand, samples.
Exit codes: 0 success, 2 invalid configuration, 3 pipeline contract
violation, 4 diagnostic failure.  The GERMTOWER_OUTDIR environment variable,
when set, prefixes relative output paths.  Every output file is written
whole or not at all: to a new file beside it, renamed onto the path once
written.

``levels`` and ``correspond`` run the pipeline and are handled here; the
handlers of the other five live in ``tools``, imported only when one of
them runs.  Without a bytecode cache every process compiles this module
last, so it holds no more than those two.

A process enters through ``run``: with the cyclic collector off, it flushes
stdout and stderr after ``main`` and ends with ``os._exit``, so neither
``atexit`` handlers nor teardown run.  Library and test callers use ``main``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import NoReturn

from .config import (
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_DIAGNOSTIC,
    EXIT_OK,
    JSON_NUMBER,
    PipelineConfig,
    _RUN_FLAGS,
    _given,
    _load_json_file,
    ascii_float,
    ascii_int,
    config_from_json,
)
from .pipeline import PipelineError, run_pipeline
from .report import write_output
from .tower import TowerConfig


def _flag(parser: argparse.ArgumentParser, *names, **kwargs) -> None:
    """A config flag, absent from the parsed args unless given, so a flag
    left out takes the default that TowerConfig or PipelineConfig holds."""
    parser.add_argument(*names, default=argparse.SUPPRESS, **kwargs)


def _tower_flags(parser: argparse.ArgumentParser) -> None:
    _flag(parser, "--modulus", "-N", dest="quantum_modulus", type=ascii_int, help="quantum size N")
    _flag(parser, "--offset", type=ascii_int)
    _flag(parser, "--depth", type=ascii_int)
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
    _flag(parser, "--orth-dims", type=ascii_int, help="2 or 3")
    _flag(parser, "--amplitude", help="unit | mu | path to a JSON amplitude object")
    _flag(parser, "--covering-depths", help="comma pair, e.g. 3,2")
    _flag(parser, "--even-classes", action="store_true")
    parser.add_argument("--config", help="JSON config file ('-' for stdin); overrides the flags")


def _pipeline_config_from_args(args) -> PipelineConfig:
    """The run config from ``--config``, or the given flags written as the same JSON."""
    if args.config:
        return config_from_json(_load_json_file(args.config))
    data = _given(args, _RUN_FLAGS)
    data["tower"] = _given(args, TowerConfig.__slots__)
    if data.get("amplitude") not in (None, "unit", "mu"):
        data["amplitude"] = _load_json_file(data["amplitude"])
    return config_from_json(data)


def _print_level_summary(report) -> None:
    print(f"rule {len(report.records)}; levels: {', '.join(r.label for r in report.records)}")
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

    p = sub.add_parser("classify", help="classify germs, one JSON per line")
    p.add_argument("--file", help="input path (default stdin)")

    p = sub.add_parser("unfold", help="print a versal unfolding")
    p.add_argument("--name", help="catalogue class name")
    p.add_argument("--germ", help="inline germ JSON to classify first")

    p = sub.add_parser("levels", help="run the cascade and print the level stack")
    _pipeline_flags(p)
    p.set_defaults(fn=_cmd_levels)

    p = sub.add_parser("correspond", help="full pipeline; write the report JSON")
    _pipeline_flags(p)
    p.add_argument("--out", help="report path")
    p.set_defaults(fn=_cmd_correspond)

    p = sub.add_parser("expand", help="expand a level sum product")
    p.add_argument("--levels", required=True, help="comma list, e.g. ST,MG")

    p = sub.add_parser("samples", help="sample an elliptic semimodule to CSV")
    p.add_argument("--modes-file", required=True, help="JSON array of modes")
    p.add_argument("--n", type=ascii_int, default=100)
    p.add_argument("--x0", type=ascii_float, default=0.0)
    p.add_argument("--x1", type=ascii_float, default=1.0)
    p.add_argument("--csv", help="output path (default stdout)")
    # argparse's own pattern has no exponent, so it would read -1e5 as an option
    p._negative_number_matcher = JSON_NUMBER

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "fn" in args:  # levels or correspond
            return args.fn(args)
        from .tools import COMMANDS

        return COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> NoReturn:
    """The process entry: ``main`` with the cyclic collector off, a flush of
    stdout and stderr, then ``os._exit``.  A failed flush leaves through
    ``sys.exit``, so the shutdown reports it as after any other command."""
    gc.disable()  # the process frees nothing at exit, so no cycle needs finding
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # a stream whose fd was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
