"""Fixed reference work: the kind of work a germtower op does, without germtower.

A fresh interpreter imports the standard-library modules the program uses,
builds frozen dataclasses holding Fractions, sorts them and writes JSON text.
Its wall time follows the host's speed for this kind of work, and no change
to the program can move it.
"""

import argparse  # noqa: F401
import bisect  # noqa: F401
import cmath  # noqa: F401
import dataclasses
import json
import re  # noqa: F401
import statistics  # noqa: F401
from fractions import Fraction

ITEMS = 3000


@dataclasses.dataclass(frozen=True)
class Item:
    key: tuple
    value: Fraction


def main() -> int:
    items = []
    for i in range(ITEMS):
        item = Item((i % 31, i % 29), Fraction(i % 17, 1 + i % 13) + Fraction(1, 1 + i % 7))
        items.append(dataclasses.replace(item, value=item.value * 2))
    items.sort(key=lambda it: it.key)
    text = json.dumps([[list(it.key), str(it.value)] for it in items], indent=1)
    return 0 if text else 1


if __name__ == "__main__":
    raise SystemExit(main())
