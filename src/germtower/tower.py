"""Towers of paired completions with degree arithmetic modulo a quantum size.

A tower records, for every class index ``mu`` up to a fixed depth, a family of
equivalent completions on the left and on the right side.  Completions are
pure bookkeeping objects: each one is identified by its class index and an
integer degree ``offset + mu * N`` where ``N`` is the quantum size.  Every
degree in a tower is therefore congruent to the offset modulo ``N``.
``Record``, the base of every validated record, fills its fields in one
constructor.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import NamedTuple

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)

# A tower holds at most this many classes, counted as the depth and as the
# sum of the multiplicities.  Every layer allocates per class, so a larger
# tower would exhaust memory before it failed; the bound is fixed, not a
# setting.
MAX_CLASSES = 100_000

# The report writes each integer as text, which Python caps at 4300 digits
# (int_max_str_digits), so a config number at or past this bound would fail
# in the report.  The bound is fixed, not a setting.
INT_TEXT_BOUND = 10**4300


def int_list(values) -> bool:
    """Whether ``values`` is a list or tuple of ints (bools are not ints here)."""
    return isinstance(values, (list, tuple)) and all(type(v) is int for v in values)


def require(ok: bool, field: str, form: str, value) -> None:
    """Raise ValueError naming ``field`` and its accepted form unless ``ok``."""
    if not ok:
        raise ValueError(f"{field} must be {form}, got {value!r}")


class Record:
    """Base of the validated immutable records.

    A subclass lists its fields in ``__slots__``, takes them as the
    ``__init__`` parameters of the same names and order, validates them and
    passes them on to ``Record.__init__``, which fills the slots in order;
    assigning to a field afterwards raises AttributeError.
    Records are equal only to records of the same type with equal fields,
    and hash and print by their fields.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError("%s takes %d fields" % (type(self).__name__, len(self.__slots__)))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ClassIndex(NamedTuple):
    """Position ``(mu, m)`` inside a tower's index rectangle."""

    mu: int
    m: int


class Carrier(tuple):
    """Sorted, distinct class indices of one ``tower``, checked once.

    ``Carrier(indices, tower)`` checks each class.  ``Tower.class_indices``,
    ``restrict`` and ``truncated`` derive carriers whose classes hold by
    construction, so a carrier passed on is not checked again.
    """

    def __new__(cls, indices, tower: "Tower"):
        indices = tuple(indices)
        for prev, idx in zip(indices, indices[1:]):
            if not prev < idx:
                raise ValueError(f"duplicate or unsorted section at {idx}")
        for idx in indices:
            if not tower.contains(idx):
                raise ValueError(f"section index {idx} outside the tower rectangle")
        return cls._of(indices, tower)

    @classmethod
    def _of(cls, indices, tower: "Tower") -> "Carrier":
        carrier = tuple.__new__(cls, indices)
        carrier.tower = tower
        return carrier

    def restrict(self, mask) -> "Carrier":
        """The classes whose ``mask`` entry is true, in the same tower."""
        return self._of(compress(self, mask), self.tower)

    def truncated(self, depth: int) -> "Carrier":
        """The classes ``mu <= depth``, in the tower truncated to ``depth``."""
        return self._of(self[: bisect_left(self, (depth + 1,))], self.tower.truncated(depth))


def _multiplicity(values, depth: int, name: str) -> tuple[int, ...]:
    """One integer >= 1 per class; the empty default means one each."""
    require(int_list(values), f"tower {name}", "a list of integers", values)
    if not values:
        return (1,) * depth
    if len(values) != depth:
        raise ValueError(
            f"{name} needs exactly {depth} entries (one per class), got {len(values)}"
        )
    if any(v < 1 for v in values):
        raise ValueError(f"every {name} entry must be >= 1")
    return tuple(values)


class TowerConfig(Record):
    """Validated description of a completion tower.

    Parameters
    ----------
    quantum_modulus : int
        Quantum size ``N >= 1``; degrees step by ``N`` per class.
    offset : int
        Common residue ``0 <= offset < N`` of every degree.
    depth : int
        Number of classes ``mu = 1 .. depth``.
    multiplicity : list or tuple of int, optional
        Equivalent-completion count ``m(mu)`` per class; empty (the default)
        means all ones.
    complex_multiplicity : list or tuple of int, optional
        Degree dilation ``m^(mu)`` of the complex completions; all ones by
        default.  Kept independent of ``multiplicity``.

    Every number must be an ``int`` (not a bool); nothing is coerced.  The
    depth and the sum of the multiplicities may not exceed ``MAX_CLASSES``,
    and the largest degree ``offset + N * max(mu * m^(mu))`` must stay
    below ``INT_TEXT_BOUND``.
    """

    __slots__ = (
        "quantum_modulus",
        "offset",
        "depth",
        "multiplicity",
        "complex_multiplicity",
    )

    def __init__(
        self,
        quantum_modulus: int,
        offset: int = 0,
        depth: int = 1,
        multiplicity: tuple[int, ...] = (),
        complex_multiplicity: tuple[int, ...] = (),
    ):
        for name, value in zip(self.__slots__, (quantum_modulus, offset, depth)):
            require(type(value) is int, f"tower {name}", "an integer", value)
        if not 0 <= offset < quantum_modulus:
            raise ValueError("offset must satisfy 0 <= offset < quantum_modulus")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > MAX_CLASSES:
            raise ValueError(f"tower depth {depth} exceeds the budget of {MAX_CLASSES} classes")
        multiplicity = _multiplicity(multiplicity, depth, "multiplicity")
        if sum(multiplicity) > MAX_CLASSES:
            raise ValueError(
                f"tower multiplicities sum to {sum(multiplicity)} classes, "
                f"beyond the budget of {MAX_CLASSES}"
            )
        dilation = _multiplicity(complex_multiplicity, depth, "complex_multiplicity")
        peak = max(mu * m for mu, m in enumerate(dilation, 1))
        if offset + quantum_modulus * peak >= INT_TEXT_BOUND:
            raise ValueError("tower degrees reach 10**4300, beyond the report's integer text")
        super().__init__(quantum_modulus, offset, depth, multiplicity, dilation)


class Tower(NamedTuple):
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

    def _check_mu(self, mu: int) -> None:
        if not 1 <= mu <= self.depth:
            raise ValueError(f"class index mu={mu} outside 1..{self.depth}")

    def class_indices(self) -> Carrier:
        """All (mu, m) representatives, lexicographically ordered."""
        return Carrier._of(
            (
                ClassIndex(mu, m)
                for mu, count in enumerate(self.config.multiplicity, 1)
                for m in range(1, count + 1)
            ),
            self,
        )

    def contains(self, index: ClassIndex) -> bool:
        mu, m = index
        return 1 <= mu <= self.depth and 1 <= m <= self.config.multiplicity[mu - 1]

    def real_degree(self, mu: int) -> int:
        """Degree ``offset + mu * N`` of a real completion (independent of m)."""
        self._check_mu(mu)
        return self.offset + mu * self.quantum_modulus

    def complex_degree(self, mu: int) -> int:
        """Degree ``offset + mu * N * m^(mu)`` of the complex completion."""
        self._check_mu(mu)
        return self.offset + mu * self.quantum_modulus * self.config.complex_multiplicity[mu - 1]

    def place(self, mu: int) -> tuple[ClassIndex, ...]:
        """The equivalent-completion indices {(mu, 1) .. (mu, m(mu))} at one class."""
        self._check_mu(mu)
        return tuple(ClassIndex(mu, m) for m in range(1, self.config.multiplicity[mu - 1] + 1))

    def truncated(self, depth: int) -> "Tower":
        """A copy keeping only classes mu <= depth, for 1 <= depth <= self.depth."""
        if not 1 <= depth <= self.depth:
            raise ValueError("truncation depth %s outside 1..%s" % (depth, self.depth))
        config = self.config
        multiplicities = config.multiplicity[:depth], config.complex_multiplicity[:depth]
        return Tower(TowerConfig(config.quantum_modulus, config.offset, depth, *multiplicities))


def build_tower(config: TowerConfig) -> Tower:
    return Tower(config)


def tower_config_from_json(data: dict) -> TowerConfig:
    """Build a TowerConfig from a plain JSON mapping.

    Recognized keys: quantum_modulus (required), offset, depth (required),
    multiplicity, complex_multiplicity.  Unknown keys are rejected so typos
    fail loudly; the values are checked by ``TowerConfig``.
    """
    if not isinstance(data, dict):
        raise ValueError("tower config must be a JSON object")
    unknown = set(data).difference(TowerConfig.__slots__)
    if unknown:
        raise ValueError(f"unknown tower config keys: {sorted(unknown)}")
    for key in ("quantum_modulus", "depth"):
        if key not in data:
            raise ValueError(f"tower config is missing {key!r}")
    return TowerConfig(**data)


def tower_config_to_json(config: TowerConfig) -> dict:
    """The JSON mapping of a TowerConfig, its keys in slot order."""
    return {
        key: value if type(value) is int else list(value)
        for key, value in zip(config.__slots__, config._values())
    }
