import itertools
import random

import pytest

from ncsym import (
    MultipartiteGraph,
    SetPartition,
    chromatic_polynomial,
    count_acyclic_unique_sink,
    count_acyclic_unique_sink_by_enumeration,
    count_proper_colorings,
    integer_partitions,
    set_partitions,
    stable_partitions,
)
from ncsym.graphs import ENUMERATION_VERTEX_CAP, _acyclic_sink_counts

from conftest import sp_


def test_edges():
    g = MultipartiteGraph(sp_("12/3"))
    assert g.edges() == [(1, 3), (2, 3)]
    assert MultipartiteGraph(sp_("123")).edges() == []
    with pytest.raises(ValueError):
        MultipartiteGraph(sp_("2/3"))


def test_stable_partitions():
    assert set(stable_partitions(MultipartiteGraph(sp_("1/2/3")))) == {sp_("1/2/3")}
    assert set(stable_partitions(MultipartiteGraph(sp_("12/3")))) == {
        sp_("1/2/3"),
        sp_("12/3"),
    }
    edgeless = MultipartiteGraph(sp_("1234"))
    assert set(stable_partitions(edgeless)) == set(set_partitions(range(1, 5)))


def test_chromatic_polynomial():
    k3 = chromatic_polynomial(MultipartiteGraph(sp_("1/2/3")))
    assert k3.coefficients() == [0, 2, -3, 1]
    assert str(k3) == "k^3 - 3*k^2 + 2*k"
    for k in range(5):
        assert k3.evaluate(k) == k * (k - 1) * (k - 2)
    edgeless = chromatic_polynomial(MultipartiteGraph(sp_("123")))
    assert edgeless.coefficients() == [0, 0, 0, 1]
    for n in range(1, 5):
        top = SetPartition.whole(range(1, n + 1))
        chi = chromatic_polynomial(MultipartiteGraph(top))
        coeffs = [0] * n + [1]
        assert chi.coefficients() == coeffs
    assert k3.evaluate(0) == 0


def test_chromatic_counts_are_the_stable_partitions_by_block_number():
    for n in range(8):
        for sigma in set_partitions(range(1, n + 1)):
            g = MultipartiteGraph(sigma)
            want = {}
            for tau in stable_partitions(g):
                want[len(tau)] = want.get(len(tau), 0) + 1
            assert chromatic_polynomial(g).counts == want, sigma


def test_chromatic_matches_brute_force():
    for n in range(6):
        for sigma in set_partitions(range(1, n + 1)):
            g = MultipartiteGraph(sigma)
            chi = chromatic_polynomial(g)
            for k in range(1, 5):
                assert chi.evaluate(k) == count_proper_colorings(g, k)


def test_sink_counts():
    assert count_acyclic_unique_sink(sp_("1/2/3"), 1) == 2
    assert count_acyclic_unique_sink_by_enumeration(sp_("1/2/3"), 3) == 2
    for n in range(2, 5):
        top = SetPartition.whole(range(1, n + 1))
        assert count_acyclic_unique_sink(top, 1) == 0
        assert count_acyclic_unique_sink_by_enumeration(top, 1) == 0
    assert count_acyclic_unique_sink(sp_("1/23"), 1) == 1
    assert count_acyclic_unique_sink_by_enumeration(sp_("1/23"), 2) == 1
    with pytest.raises(ValueError):
        count_acyclic_unique_sink(sp_("12/3"), 4)


def _blocks_of_shape(lam, labels):
    it = iter(labels)
    return SetPartition([next(it) for _ in range(part)] for part in lam.parts)


def _graphs_at_the_cap():
    """One labelling per shape at the vertex cap, then a few shuffled ones."""
    n = ENUMERATION_VERTEX_CAP
    shapes = list(integer_partitions(n))
    assert len(shapes) == 15
    labels = list(range(1, n + 1))
    sigmas = [_blocks_of_shape(lam, labels) for lam in shapes]
    rng = random.Random(7)
    for lam in rng.sample(shapes, 4):
        rng.shuffle(labels)
        sigmas.append(_blocks_of_shape(lam, labels))
    return sigmas


def test_backend_agreement_and_sink_independence():
    small = [s for n in range(1, 6) for s in set_partitions(range(1, n + 1))]
    for sigma in small + _graphs_at_the_cap():
        values = {
            v: count_acyclic_unique_sink_by_enumeration(sigma, v)
            for v in range(1, sigma.size + 1)
        }
        assert len(set(values.values())) == 1, sigma
        assert values[1] == count_acyclic_unique_sink(sigma, 1), sigma


def test_enumeration_cap():
    big = SetPartition.singletons(range(1, 9))
    with pytest.raises(ValueError, match="capped at 7 vertices"):
        count_acyclic_unique_sink_by_enumeration(big, 1)
    # the chromatic route has no such cap
    assert count_acyclic_unique_sink(big, 1) == 5040
    # the vertex set of a graph is {1..n}, whichever route asks
    with pytest.raises(ValueError, match="vertex set must be"):
        count_acyclic_unique_sink_by_enumeration(sp_("2/3"), 1)


def _sink_tally_by_peeling(sigma):
    """Per-vertex unique-sink counts over all 2^|E| orientations, each
    tested for acyclicity by removing sinks until none is left."""
    n = sigma.size
    edges = MultipartiteGraph(sigma).edges()
    counts = [0] * (n + 1)
    for flips in itertools.product((False, True), repeat=len(edges)):
        arcs = [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]
        tails = {a for a, _ in arcs}
        sinks = [v for v in range(1, n + 1) if v not in tails]
        left = set(range(1, n + 1))
        while True:
            gone = {v for v in left if not any(a == v and b in left for a, b in arcs)}
            if not gone:
                break
            left -= gone
        if not left and len(sinks) == 1:
            counts[sinks[0]] += 1
    return tuple(counts)


def test_enumeration_matches_every_orientation_peeled():
    # the empty graph has one orientation and no sink, so nothing is tallied
    for n in range(6):
        for sigma in set_partitions(range(1, n + 1)):
            assert _acyclic_sink_counts(sigma) == _sink_tally_by_peeling(sigma), sigma

