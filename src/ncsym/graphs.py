"""Complete multipartite graphs built from set partitions.

The graph of a partition has the partition's elements as vertices and an
edge between every pair lying in distinct blocks, so its independent sets
are exactly the subsets of blocks and its stable partitions are exactly the
refinements.  Only the defining partition is stored; edges are derived.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

from .lattice import _rgs_blocks, refinements
from .partitions import SetPartition

ENUMERATION_VERTEX_CAP = 7


class MultipartiteGraph:
    """The complete multipartite graph of a partition of {1..n}."""

    __slots__ = ("parts",)

    def __init__(self, parts: SetPartition):
        if not parts.is_standard():
            raise ValueError(f"vertex set must be {{1..n}}, got {parts}")
        self.parts = parts

    @property
    def n(self) -> int:
        return self.parts.size

    def edges(self) -> list:
        owner = {x: i for i, blk in enumerate(self.parts.blocks) for x in blk}
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if owner[i] != owner[j]
        ]

    def __eq__(self, other):
        return isinstance(other, MultipartiteGraph) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"MultipartiteGraph({self.parts!r})"


def stable_partitions(graph: MultipartiteGraph):
    """Yield the vertex partitions into independent sets: the refinements."""
    return refinements(graph.parts)


class ChromaticPolynomial:
    """An integer polynomial stored as falling-factorial multiplicities.

    ``counts[l]`` is the number of stable partitions with l blocks; the value
    at k is the sum of counts[l] * k (k-1) ... (k-l+1).  Expansion to
    monomial coefficients happens only on demand.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: dict):
        self.counts = {l: c for l, c in counts.items() if c}

    def evaluate(self, k: int) -> int:
        return sum(
            c * prod(k - i for i in range(l)) for l, c in self.counts.items()
        )

    def quotient_at_zero(self) -> int:
        """The value of (polynomial / k) at k = 0.

        Each falling factorial contributes (-1)^(l-1) (l-1)! once its leading
        k is stripped; needs at least one vertex so every term has one.
        """
        if 0 in self.counts:
            raise ValueError("constant term present; the polynomial is not divisible by k")
        return sum(
            c * prod(-i for i in range(1, l)) for l, c in self.counts.items()
        )

    def coefficients(self) -> list:
        """Monomial coefficients, index = power of k."""
        degree = max(self.counts, default=0)
        coeffs = [0] * (degree + 1)
        for l, c in self.counts.items():
            poly = [1]
            for i in range(l):
                # multiply by (k - i)
                prev = poly
                poly = [0] * (len(prev) + 1)
                for j, v in enumerate(prev):
                    poly[j + 1] += v
                    poly[j] -= i * v
            for j, v in enumerate(poly):
                coeffs[j] += c * v
        return coeffs

    def __eq__(self, other):
        return isinstance(other, ChromaticPolynomial) and self.counts == other.counts

    __hash__ = None

    def __repr__(self):
        return f"ChromaticPolynomial({self.counts!r})"

    def __str__(self):
        coeffs = self.coefficients()
        pieces = []
        for power in range(len(coeffs) - 1, -1, -1):
            c = coeffs[power]
            if not c:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            elif power == 1:
                body = "k" if mag == 1 else f"{mag}*k"
            else:
                body = f"k^{power}" if mag == 1 else f"{mag}*k^{power}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces) if pieces else "0"


def chromatic_polynomial(graph: MultipartiteGraph) -> ChromaticPolynomial:
    """Proper-coloring counter as a sum of falling factorials over stable partitions.

    A stable partition refines every block on its own, so the number with
    l blocks is the convolution, over the blocks, of how many partitions
    of the block have each number of blocks; each such row is counted by
    enumerating the partitions of one block of each size, and no stable
    partition is built.
    """
    rows = {}
    counts = {0: 1}
    for blk in graph.parts.blocks:
        row = rows.get(len(blk))
        if row is None:
            row = rows[len(blk)] = {}
            for blocks in _rgs_blocks(blk):
                row[len(blocks)] = row.get(len(blocks), 0) + 1
        grown = {}
        for l, c in counts.items():
            for j, d in row.items():
                grown[l + j] = grown.get(l + j, 0) + c * d
        counts = grown
    return ChromaticPolynomial(counts)


def _check_sink(sigma: SetPartition, sink: int) -> int:
    """The vertex count of the graph of ``sigma``, once ``sink`` is one of its vertices."""
    n = sigma.size
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 1 <= sink <= n:
        raise ValueError(f"sink {sink} is not a vertex of {{1..{n}}}")
    return n


def count_acyclic_unique_sink(sigma: SetPartition, sink: int) -> int:
    """Acyclic orientations of the graph of ``sigma`` with a unique sink at ``sink``.

    Production route: (-1)^(n-1) times the chromatic polynomial divided by k,
    evaluated at zero.  The count does not depend on the chosen sink, which
    is validated but otherwise unused here; the enumeration backend checks
    the independence for real.
    """
    n = _check_sink(sigma, sink)
    chi = chromatic_polynomial(MultipartiteGraph(sigma))
    return (-1) ** (n - 1) * chi.quotient_at_zero()


@lru_cache(maxsize=None)
def _acyclic_sink_counts(sigma: SetPartition) -> tuple:
    """Per-vertex unique-sink counts from direct orientation enumeration.

    Places the vertices in order 1..n.  Vertex v splits its earlier
    neighbours one at a time into out-neighbours (v -> u) and in-neighbours
    (u -> v); a split is dropped as soon as an out-neighbour reaches an
    in-neighbour, since u ->* w -> v -> u would close a directed cycle.  Each
    vertex keeps the bitmask of the vertices it reaches (itself included);
    once v is split, v's mask joins that of every vertex that reaches one of
    its in-neighbours.  One ``busy`` mask holds the vertices with an out-edge,
    so each leaf is exactly one acyclic orientation, tallied under its sink
    when ``full & ~busy`` has exactly one bit.
    """
    n = sigma.size
    if n > ENUMERATION_VERTEX_CAP:
        raise ValueError(
            f"orientation enumeration is capped at {ENUMERATION_VERTEX_CAP} vertices"
        )
    earlier = [[] for _ in range(n + 1)]
    for u, v in MultipartiteGraph(sigma).edges():
        earlier[v].append(u)
    full = (1 << (n + 1)) - 2
    counts = [0] * (n + 1)

    def place(v: int, reach: list, busy: int) -> None:
        bit = 1 << v
        splits = [(0, 0)]  # (union of the out-neighbours' reach, in-mask)
        for u in earlier[v]:
            below, ubit = reach[u], 1 << u
            grown = []
            for out, into in splits:
                if not below & into:
                    grown.append((out | below, into))
                if not out & ubit:
                    grown.append((out, into | ubit))
            splits = grown
        if v == n:
            for out, into in splits:
                sinks = full & ~(busy | into | (bit if out else 0))
                if sinks and not sinks & (sinks - 1):
                    counts[sinks.bit_length() - 1] += 1
            return
        for out, into in splits:
            mask = out | bit
            joined = [r | mask if r & into else r for r in reach]
            joined.append(mask)
            place(v + 1, joined, busy | into | (bit if out else 0))

    if n:  # the empty graph's one orientation has no sink
        place(1, [0], 0)
    return tuple(counts)


def count_acyclic_unique_sink_by_enumeration(sigma: SetPartition, sink: int) -> int:
    """Oracle backend: enumerate orientations and filter on acyclicity and sink."""
    _check_sink(sigma, sink)
    return _acyclic_sink_counts(sigma)[sink]


def count_proper_colorings(graph: MultipartiteGraph, k: int) -> int:
    """Brute-force proper-coloring count, for cross-checking the polynomial."""
    edges = graph.edges()
    total = 0
    for coloring in itertools.product(range(k), repeat=graph.n):
        if all(coloring[i - 1] != coloring[j - 1] for i, j in edges):
            total += 1
    return total
