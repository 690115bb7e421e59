"""Towers of paired completions with degree arithmetic modulo a quantum size.

A tower records, for every class index ``mu`` up to a fixed depth, a family of
equivalent completions on the left and on the right side.  Completions are
pure bookkeeping objects: each one is identified by its class index and an
integer degree ``offset + mu * N`` where ``N`` is the quantum size.  Every
degree in a tower is therefore congruent to the offset modulo ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)


class ClassIndex(NamedTuple):
    """Position ``(mu, m)`` inside a tower's index rectangle."""

    mu: int
    m: int


def _normalize_multiplicity(values, depth: int, name: str) -> tuple[int, ...]:
    if values is None or values == ():
        return (1,) * depth
    if isinstance(values, int):
        values = (values,) * depth
    out = tuple(int(v) for v in values)
    if len(out) != depth:
        raise ValueError(
            f"{name} needs exactly {depth} entries (one per class), got {len(out)}"
        )
    if any(v < 1 for v in out):
        raise ValueError(f"every {name} entry must be >= 1")
    return out


@dataclass(frozen=True)
class TowerConfig:
    """Validated description of a completion tower.

    Parameters
    ----------
    quantum_modulus : int
        Quantum size ``N >= 1``; degrees step by ``N`` per class.
    offset : int
        Common residue ``0 <= offset < N`` of every degree.
    depth : int
        Number of classes ``mu = 1 .. depth``.
    multiplicity : sequence of int, optional
        Equivalent-completion count ``m(mu)`` per class; defaults to all ones.
    complex_multiplicity : sequence of int, optional
        Degree dilation ``m^(mu)`` of the complex completions; all ones by
        default.  Kept independent of ``multiplicity``.
    """

    quantum_modulus: int
    offset: int = 0
    depth: int = 1
    multiplicity: tuple[int, ...] = ()
    complex_multiplicity: tuple[int, ...] = ()

    def __post_init__(self):
        if self.quantum_modulus < 1:
            raise ValueError("quantum_modulus must be >= 1")
        if not 0 <= self.offset < self.quantum_modulus:
            raise ValueError("offset must satisfy 0 <= offset < quantum_modulus")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        object.__setattr__(
            self,
            "multiplicity",
            _normalize_multiplicity(self.multiplicity, self.depth, "multiplicity"),
        )
        object.__setattr__(
            self,
            "complex_multiplicity",
            _normalize_multiplicity(
                self.complex_multiplicity, self.depth, "complex_multiplicity"
            ),
        )


@dataclass(frozen=True)
class Tower:
    config: TowerConfig

    @property
    def quantum_modulus(self) -> int:
        return self.config.quantum_modulus

    @property
    def offset(self) -> int:
        return self.config.offset

    @property
    def depth(self) -> int:
        return self.config.depth

    def multiplicity(self, mu: int) -> int:
        self._check_mu(mu)
        return self.config.multiplicity[mu - 1]

    def complex_multiplicity(self, mu: int) -> int:
        self._check_mu(mu)
        return self.config.complex_multiplicity[mu - 1]

    def _check_mu(self, mu: int) -> None:
        if not 1 <= mu <= self.depth:
            raise ValueError(f"class index mu={mu} outside 1..{self.depth}")

    def class_indices(self) -> tuple[ClassIndex, ...]:
        """All (mu, m) representatives, lexicographically ordered."""
        return tuple(
            ClassIndex(mu, m)
            for mu in range(1, self.depth + 1)
            for m in range(1, self.multiplicity(mu) + 1)
        )

    def contains(self, index: ClassIndex) -> bool:
        mu, m = index
        return 1 <= mu <= self.depth and 1 <= m <= self.config.multiplicity[mu - 1]

    def real_degree(self, index: ClassIndex | int) -> int:
        """Degree ``offset + mu * N`` of a real completion (independent of m)."""
        mu = index.mu if isinstance(index, ClassIndex) else int(index)
        self._check_mu(mu)
        return self.offset + mu * self.quantum_modulus

    def complex_degree(self, mu: int) -> int:
        """Degree ``offset + mu * N * m^(mu)`` of the complex completion."""
        self._check_mu(mu)
        return self.offset + mu * self.quantum_modulus * self.complex_multiplicity(mu)

    def place(self, mu: int) -> tuple[ClassIndex, ...]:
        """The equivalent-completion indices {(mu, 1) .. (mu, m(mu))} at one class."""
        self._check_mu(mu)
        return tuple(ClassIndex(mu, m) for m in range(1, self.multiplicity(mu) + 1))

    def truncated(self, depth: int) -> "Tower":
        """A copy keeping only classes mu <= depth."""
        if not 1 <= depth <= self.depth:
            raise ValueError(f"truncation depth {depth} outside 1..{self.depth}")
        cfg = TowerConfig(
            self.quantum_modulus,
            self.offset,
            depth,
            self.config.multiplicity[:depth],
            self.config.complex_multiplicity[:depth],
        )
        return Tower(cfg)


def build_tower(config: TowerConfig) -> Tower:
    return Tower(config)


_TOWER_KEYS = {
    "quantum_modulus",
    "offset",
    "depth",
    "multiplicity",
    "complex_multiplicity",
}


def tower_config_from_json(data: dict) -> TowerConfig:
    """Build a TowerConfig from a plain JSON mapping.

    Recognized keys: quantum_modulus (required), offset, depth (required),
    multiplicity, complex_multiplicity.  Unknown keys are rejected so typos
    fail loudly.  The numbers must be JSON integers and the multiplicities
    lists of them; anything else raises ValueError instead of being coerced.
    """
    if not isinstance(data, dict):
        raise ValueError("tower config must be a JSON object")
    unknown = set(data) - _TOWER_KEYS
    if unknown:
        raise ValueError(f"unknown tower config keys: {sorted(unknown)}")
    for key in ("quantum_modulus", "depth"):
        if key not in data:
            raise ValueError(f"tower config is missing {key!r}")
    for key in ("quantum_modulus", "offset", "depth"):
        if key in data and type(data[key]) is not int:
            raise ValueError(f"tower {key} must be an integer, got {data[key]!r}")
    for key in ("multiplicity", "complex_multiplicity"):
        values = data.get(key, [])
        if not isinstance(values, list) or any(type(v) is not int for v in values):
            raise ValueError(f"tower {key} must be a list of integers")
    return TowerConfig(
        quantum_modulus=data["quantum_modulus"],
        offset=data.get("offset", 0),
        depth=data["depth"],
        multiplicity=tuple(data.get("multiplicity", ())),
        complex_multiplicity=tuple(data.get("complex_multiplicity", ())),
    )


def tower_config_to_json(config: TowerConfig) -> dict:
    return {
        "quantum_modulus": config.quantum_modulus,
        "offset": config.offset,
        "depth": config.depth,
        "multiplicity": list(config.multiplicity),
        "complex_multiplicity": list(config.complex_multiplicity),
    }
