"""Set partitions, integer partitions, and permutations.

Text form of a set partition: blocks separated by ``/``, elements by ``,``,
e.g. ``1,3/2,4``.  On input the single-digit shorthand ``13/24`` is accepted
when the string contains no comma and every chunk consists of digits 1-9
only; any comma, or any digit outside 1-9, switches parsing to the comma
form (so ``10`` is the singleton block {10}, while ``13`` is {1,3}).  One
trailing comma is accepted and only forces the comma form; a partition into
singletons with a label from 11 up and no zero digit prints with it
(``15,`` is {15} and ``3/12,`` is {3}/{12}), because ``15`` reads as {1,5}.
The empty partition prints as ``()``.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, prod


_INTERN_CAP = 1 << 16
_interned: dict = {}  # canonical block tuple -> its one live SetPartition


class SetPartition:
    """A partition of a finite set of positive integers into nonempty blocks.

    Canonical form is enforced at construction: elements ascend within each
    block and blocks are ordered by their minima.  ``len(p)`` is the number
    of blocks and ``p.size`` the number of ground-set elements.  Instances
    are immutable; equality and hashing use the canonical block tuple.

    Every construction returns the entry of one intern table keyed by the
    canonical block tuple, so equal partitions built while the table holds
    one are the same object and dict hits on them never compare blocks.
    Identity is only a fast path: the table is emptied whole when it
    reaches ``_INTERN_CAP`` entries (or by ``_intern.cache_clear()``), and
    equality still compares blocks for partitions built on either side of
    a clear.  ``rgs()`` and ``str()`` are computed once per instance.

    The public constructor validates its input.  The lattice enumerators and
    the order-preserving relabelings, which produce canonical form by
    construction, build instances through ``_trusted`` instead.
    """

    # one memo slot, filled on first use: a fifth slot would add 16 bytes to
    # every instance, memoized or not
    __slots__ = ("blocks", "ground", "_hash", "_memo")

    def __new__(cls, blocks=()):
        seen = set()
        canon = []
        for block in blocks:
            blk = tuple(sorted(block))
            if not blk:
                raise ValueError("set partition blocks must be nonempty")
            if blk[0] < 1:
                raise ValueError(f"ground set elements must be positive integers: {blk}")
            if len(set(blk)) != len(blk) or seen.intersection(blk):
                raise ValueError(f"blocks must be pairwise disjoint: {canon + [blk]}")
            seen.update(blk)
            canon.append(blk)
        canon.sort()
        return _intern(tuple(canon), frozenset(seen))

    def __init__(self, blocks=()):
        """Nothing to do: ``__new__`` validates and interns.  Kept so that a
        wrapper of ``__init__`` (perfbench's tracer) counts exactly the
        validating constructions."""

    @staticmethod
    def _trusted(blocks: tuple, ground: frozenset) -> "SetPartition":
        """The interned instance for blocks already in canonical form, unchecked.

        The caller guarantees that ``blocks`` is a tuple of ascending tuples
        ordered by their minima and that ``ground`` is their union.
        """
        pi = _interned.get(blocks)
        if pi is None:
            if len(_interned) >= _INTERN_CAP:
                _interned.clear()
            pi = object.__new__(SetPartition)
            pi.blocks = blocks
            pi.ground = ground
            pi._hash = hash(blocks)
            _interned[blocks] = pi
        return pi

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor, which
        # re-interns; the memos are not carried
        return SetPartition, (self.blocks,)

    @classmethod
    def empty(cls) -> "SetPartition":
        return cls(())

    @classmethod
    def singletons(cls, elements) -> "SetPartition":
        """The all-singletons partition of the given elements."""
        return cls((x,) for x in elements)

    @classmethod
    def whole(cls, elements) -> "SetPartition":
        """The one-block partition of the given elements (empty if none)."""
        elems = tuple(elements)
        return cls((elems,)) if elems else cls(())

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        s = text.strip()
        if s in ("", "()"):
            return cls(())
        if s.endswith(","):  # the printed form of 15 and 3/12: comma form
            s = s[:-1]
        chunks = s.split("/")
        if "," not in text and all(ch and all(c in "123456789" for c in ch) for ch in chunks):
            return cls(tuple(int(c) for c in ch) for ch in chunks)
        blocks = []
        for ch in chunks:
            pieces = [piece.strip() for piece in ch.split(",")]
            if any(not piece or not piece.isdigit() for piece in pieces):
                raise ValueError(f"malformed block {ch!r} in set partition {text!r}")
            blocks.append(tuple(int(piece) for piece in pieces))
        return cls(blocks)

    @property
    def size(self) -> int:
        return len(self.ground)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        return self is other or (isinstance(other, SetPartition) and self.blocks == other.blocks)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SetPartition.parse({str(self)!r})"

    def __str__(self):
        try:
            return self._memo[1]
        except AttributeError:
            return self._memoize()[1]

    def _memoize(self) -> tuple:
        """Store and return (restricted growth string, text)."""
        blocks, ground = self.blocks, self.ground
        index = {x: i for i, blk in enumerate(blocks) for x in blk}
        text = "/".join(",".join(map(str, blk)) for blk in blocks) if blocks else "()"
        if len(blocks) == len(ground) and max(ground, default=0) > 9 and "0" not in text:
            text += ","  # all singletons: the digit-string form would read 15 as 1,5
        self._memo = memo = (tuple(index[x] for x in sorted(ground)), text)
        return memo

    def is_standard(self) -> bool:
        """True when the ground set is exactly {1, ..., n}."""
        return self.ground == frozenset(range(1, len(self.ground) + 1))

    def shape(self) -> "IntegerPartition":
        """Block sizes in nonincreasing order."""
        return IntegerPartition(len(blk) for blk in self.blocks)

    def rgs(self) -> tuple:
        """Restricted growth string read along the sorted ground set."""
        try:
            return self._memo[0]
        except AttributeError:
            return self._memoize()[0]

    def standardize(self) -> "SetPartition":
        """Relabel through the order-preserving bijection onto {1, ..., n}."""
        st = {x: i + 1 for i, x in enumerate(sorted(self.ground))}
        return SetPartition._trusted(
            tuple(tuple(st[x] for x in blk) for blk in self.blocks),
            frozenset(range(1, len(st) + 1)),
        )

    def restrict(self, subset) -> "SetPartition":
        """The partition of ``subset`` by nonempty intersections with the blocks."""
        t = frozenset(subset)
        if not t <= self.ground:
            raise ValueError(
                f"{sorted(t)} is not a subset of the ground set {sorted(self.ground)}"
            )
        blocks = []
        for blk in self.blocks:
            inter = tuple(x for x in blk if x in t)
            if inter:
                blocks.append(inter)
        return SetPartition(blocks)

    def relabel(self, mapping) -> "SetPartition":
        """Push the partition through an injective map given as a dict."""
        return SetPartition(tuple(mapping[x] for x in blk) for blk in self.blocks)


# The intern table is emptied like every ``lru_cache``: through a module-level
# function carrying ``cache_info()`` and ``cache_clear()``.  Hits and misses
# are not counted, to keep the lookup as cheap as a dict hit.
_InternInfo = namedtuple("_InternInfo", "maxsize currsize")
_intern = SetPartition._trusted
_intern.cache_info = lambda: _InternInfo(_INTERN_CAP, len(_interned))
_intern.cache_clear = _interned.clear


class IntegerPartition:
    """A nonincreasing tuple of positive integers; the partition of 0 is empty.

    The constructor sorts its input, so any multiset of positive parts is
    accepted; ``parse`` is strict and rejects increasing part lists.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        ps = sorted(parts, reverse=True)
        if ps and ps[-1] < 1:
            raise ValueError(f"parts must be positive integers: {ps}")
        self.parts = tuple(ps)

    @classmethod
    def parse(cls, text: str) -> "IntegerPartition":
        s = text.strip()
        if s in ("", "()"):
            return cls(())
        pieces = [piece.strip() for piece in s.split(",")]
        if any(not piece.isdigit() for piece in pieces):
            raise ValueError(f"malformed integer partition {text!r}")
        parts = [int(piece) for piece in pieces]
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing: {text!r}")
        return cls(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, IntegerPartition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"IntegerPartition({list(self.parts)})"

    def __str__(self):
        return ",".join(map(str, self.parts)) if self.parts else "()"

    def multiplicities(self) -> dict:
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out


class Permutation:
    """A bijection of {1, ..., n}, stored in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a rearrangement of 1..{len(imgs)}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if len(self) != len(other):
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(self(other(i)) for i in range(1, len(self) + 1))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)


def lambda_factorial(lam: IntegerPartition) -> int:
    """Product of the factorials of the parts; 1 for the empty partition."""
    return prod(factorial(p) for p in lam.parts)


def lambda_superfactorial(lam: IntegerPartition) -> int:
    """Product over part values of the factorial of their multiplicity."""
    return prod(factorial(m) for m in lam.multiplicities().values())


def integer_partitions(n: int, max_part: int | None = None):
    """Yield the partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None:
        max_part = n
    if n == 0:
        yield IntegerPartition(())
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield IntegerPartition((first,) + rest.parts)


def bracket(lam: IntegerPartition) -> SetPartition:
    """The canonical partition of {1..n} with consecutive blocks of the given sizes."""
    blocks = []
    start = 1
    for part in lam.parts:
        blocks.append(tuple(range(start, start + part)))
        start += part
    return SetPartition._trusted(tuple(blocks), frozenset(range(1, start)))


def slash(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Concatenate two standard partitions, shifting the second one's labels up."""
    if not pi.is_standard() or not sigma.is_standard():
        raise ValueError("slash product requires ground sets {1..n} and {1..m}")
    n = pi.size
    return SetPartition._trusted(
        pi.blocks + tuple(tuple(x + n for x in blk) for blk in sigma.blocks),
        frozenset(range(1, n + sigma.size + 1)),
    )


def disjoint_union(a: SetPartition, b: SetPartition) -> SetPartition:
    """Union of the blocks of two partitions with disjoint ground sets."""
    if a.ground & b.ground:
        raise ValueError(
            f"ground sets overlap: {sorted(a.ground)} and {sorted(b.ground)}"
        )
    return SetPartition(a.blocks + b.blocks)


def apply_permutation(eta: Permutation, pi: SetPartition) -> SetPartition:
    """Replace each element i of a standard partition by eta(i)."""
    if not pi.is_standard() or pi.size != len(eta):
        raise ValueError(
            f"permutation of size {len(eta)} cannot act on {pi} (need ground {{1..{len(eta)}}})"
        )
    return pi.relabel({i: eta(i) for i in range(1, len(eta) + 1)})
