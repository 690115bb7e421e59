"""The handlers of the CLI subcommands that run no pipeline.

``tower``, ``classify``, ``unfold``, ``expand`` and ``samples`` are looked
up in ``COMMANDS`` by ``cli.main``, which imports this module only when one
of them was chosen, so a ``correspond`` process never compiles it.  Sample
emission serves ``samples`` alone and lives here too.  This module does not
import ``germtower.cli``: under ``python -m germtower.cli`` that would load a
second copy of it.
"""

from __future__ import annotations

import math
import sys

from .config import (
    EXIT_OK,
    _given,
    _load_json_file,
    finite_float,
    load_json,
    normalize_scenario,
)
from .cuspidal import EllipticSemimodule, Mode
from .germs import classify_germ, format_germ, germ_from_json, slot_sum, versal_unfold
from .pipeline import emit_expansion
from .report import dumps_canonical, write_output
from .tower import (
    LEFT,
    MAX_CLASSES,
    RIGHT,
    ClassIndex,
    TowerConfig,
    build_tower,
    tower_config_from_json,
    tower_config_to_json,
)


def _cmd_tower(args) -> int:
    data = _load_json_file(args.config) if args.config else _given(args, TowerConfig.__slots__)
    config = tower_config_from_json(data)
    tower = build_tower(config)
    print(
        f"tower: N={tower.quantum_modulus} offset={tower.offset} depth={tower.depth}"
    )
    for idx in tower.class_indices():
        print(f"  class ({idx.mu},{idx.m})  degree {tower.real_degree(idx.mu)}")
    for mu in range(1, tower.depth + 1):
        place = ", ".join(f"({i.mu},{i.m})" for i in tower.place(mu))
        print(f"  place mu={mu}: {place}  complex degree {tower.complex_degree(mu)}")
    if args.out:
        payload = {
            "config": tower_config_to_json(config),
            "classes": [
                {"mu": i.mu, "m": i.m, "degree": tower.real_degree(i.mu)}
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
        name = classify_germ(germ_from_json(load_json(args.germ, "--germ"))).name
    unfolding = versal_unfold(name)
    print(f"{name}: base {format_germ(unfolding.base)}  codim {unfolding.codim}")
    for slot, (coeff, mono) in enumerate(unfolding.parameters, start=1):
        print(f"  slot {slot}: {coeff} * ({format_germ(mono)})")
    full = unfolding.base + slot_sum(unfolding.parameters)
    print(f"  unfolded (all slots = 1): {format_germ(full)}")
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
    """The semimodule of a non-empty JSON list of at most ``MAX_CLASSES``
    modes: integer mu, m and one shared sign, finite amplitudes.

    ``mu`` must fit a float, as evaluation multiplies it into a phase.
    """
    if not isinstance(data, list):
        raise ValueError("the modes file must hold a JSON list of modes")
    if not data:
        raise ValueError("the modes file holds no modes")
    if len(data) > MAX_CLASSES:
        raise ValueError(
            f"the modes file holds {len(data)} modes, beyond the budget of {MAX_CLASSES}"
        )
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


# ---------------------------------------------------------------------------
# sample emission

# The most points ``sample_rows`` evaluates.  Every point is one row in
# memory and one CSV line, so a larger count would exhaust memory before it
# ended; the bound is fixed, not a setting.
MAX_SAMPLES = 100_000

# The most mode evaluations, points times modes, of one ``sample_rows``
# call: each takes about 0.5 us, so the budget is a few seconds of work.
# The bound is fixed, not a setting.
MAX_MODE_EVALUATIONS = MAX_SAMPLES * 100


def sample_rows(
    esm: EllipticSemimodule, n: int, x0: float, x1: float
) -> list[tuple[float, float, float, float]]:
    """Evaluate the semimodule on n evenly spaced points of [x0, x1].

    ``n`` may not exceed ``MAX_SAMPLES``, nor ``n`` times the mode count
    ``MAX_MODE_EVALUATIONS``.  A value that leaves the float range, in a
    part or in its modulus, raises ValueError naming the point.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count {n} exceeds the budget of {MAX_SAMPLES} samples")
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"sample range must be finite, got [{x0}, {x1}]")
    if n > 1 and not x1 > x0:
        raise ValueError("degenerate sample range: need x1 > x0")
    modes = len(esm.carrier)
    if n * modes > MAX_MODE_EVALUATIONS:
        raise ValueError(
            f"{n} samples of {modes} modes exceed the budget of "
            f"{MAX_MODE_EVALUATIONS} mode evaluations"
        )
    rows = []
    for i in range(n):
        x = x0 if n == 1 else x0 + i * (x1 - x0) / (n - 1)
        z = esm.evaluate(x)
        try:
            modulus = abs(z)  # inf or nan when a part is
        except OverflowError:  # finite parts, modulus beyond the float range
            modulus = math.inf
        if not math.isfinite(modulus):
            raise ValueError(f"the semimodule value at x={x} is not finite")
        rows.append((x, z.real, z.imag, modulus))
    return rows


def samples_csv(esm: EllipticSemimodule, n: int, x0: float, x1: float) -> str:
    lines = ["x,re,im,modulus"]
    for row in sample_rows(esm, n, x0, x1):
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _cmd_samples(args) -> int:
    esm = _semimodule_from_json(_load_json_file(args.modes_file))
    csv_text = samples_csv(esm, args.n, args.x0, args.x1)
    if args.csv:
        write_output(args.csv, (csv_text,))
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


# subcommand -> handler
COMMANDS = {
    "tower": _cmd_tower,
    "classify": _cmd_classify,
    "unfold": _cmd_unfold,
    "expand": _cmd_expand,
    "samples": _cmd_samples,
}
