"""Pinned sha256 digests of the basis-change rows.

Each digest covers one row: its (key, coefficient) pairs in order, with the
type of every coefficient, so a change of order or of int/Fraction type
shows as well as a change of value.  The rows covered are

- every ``_key_convert`` row on all twelve routes for n <= 6, and at the
  bracket key of every shape at n = 7 and 8 (the bottom key among them);
- every non-identity ``_key_convert_sym`` row through degree 8;
- ``x_to_m_top(n)`` for n = 1..8.

The test recomputes them.  Run this file from the root of a checkout to
rewrite ``tests/data/row_digests.json``:

    PYTHONPATH=src python tests/test_row_digests.py
"""

import hashlib
import itertools
import json
from pathlib import Path

from ncsym import expressions, sym
from ncsym.lattice import set_partitions
from ncsym.partitions import bracket, integer_partitions

PINNED = Path(__file__).resolve().parent / "data" / "row_digests.json"
ROUTES = tuple(itertools.permutations(expressions.BASES, 2))


def digest(pairs) -> str:
    h = hashlib.sha256()
    for key, c in pairs:
        h.update(f"{key}\t{type(c).__name__}\t{c}\n".encode())
    return h.hexdigest()


def _ncsym_keys():
    for n in range(7):
        yield from set_partitions(range(1, n + 1))
    for n in (7, 8):
        for lam in integer_partitions(n):
            yield bracket(lam)


def row_digests() -> dict:
    out = {}
    for pi in _ncsym_keys():
        for basis, target in ROUTES:
            row = expressions._key_convert(basis, target, pi)
            out[f"ncsym {basis}->{target} {pi}"] = digest(row)
    for n in range(9):
        for lam in integer_partitions(n):
            for basis, target in ROUTES:
                row = sym._key_convert_sym(basis, target, lam)
                out[f"sym {basis}->{target} {lam}"] = digest(row)
    for n in range(1, 9):
        out[f"x_to_m_top {n}"] = digest(expressions.x_to_m_top(n).terms.items())
    return out


def test_rows_match_their_pinned_digests():
    pinned = json.loads(PINNED.read_text())
    computed = row_digests()
    assert computed.keys() == pinned.keys()
    changed = sorted(name for name, d in computed.items() if pinned[name] != d)
    assert not changed, changed[:20]


if __name__ == "__main__":
    PINNED.write_text(json.dumps(row_digests(), indent=0, sort_keys=True) + "\n")
