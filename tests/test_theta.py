import itertools
import random

import pytest
from hypothesis import given

from conftest import edited, graphs, member, reference_contains_theta
from spectheta.enumeration import _connected_classes
from spectheta.families import make_theta
from spectheta.graphs import Graph
from spectheta.theta import (
    ThetaWitness,
    contains_theta,
    is_theta133_free,
    oracle_contains_subgraph,
)

PATTERNS = ((2, 2), (2, 3), (3, 3), (2, 4))
WITNESS_PATTERNS = ((2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 4))


def complete(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def test_pattern_found_in_itself():
    for p, q in PATTERNS:
        w = contains_theta(make_theta(p, q), p, q)
        assert w is not None
        assert len(w.path_p) == p + 1 and len(w.path_q) == q + 1


def test_distinct_patterns_do_not_cross_match():
    # the (1,3,3) shape has no adjacent pair with two common neighbors
    assert contains_theta(make_theta(3, 3), 2, 2) is None
    # and the (1,2,2) shape is too small to hold longer paths
    assert contains_theta(make_theta(2, 2), 3, 3) is None


def test_witness_is_validated():
    g = make_theta(3, 3)
    w = contains_theta(g, 3, 3)
    w.validate(g)
    bogus = ThetaWitness(anchors=(0, 1), path_p=(0, 2, 3, 1), path_q=(0, 2, 5, 1))
    with pytest.raises(ValueError):
        bogus.validate(g)  # reuses internal vertex 2
    with pytest.raises(ValueError):
        ThetaWitness((0, 3), (0, 2, 3), (0, 4, 5, 3)).validate(g)  # anchors not adjacent


def test_argument_validation():
    g = complete(4)
    with pytest.raises(ValueError):
        contains_theta(g, 1, 3)
    with pytest.raises(ValueError):
        contains_theta(g, 3, 2)


def test_small_complete_graphs():
    assert is_theta133_free(complete(5))  # needs six vertices
    assert not is_theta133_free(complete(6))
    assert contains_theta(complete(4), 2, 2) is not None


def test_families_are_theta133_free():
    for g in (
        member("S,n=12,k=2"),
        member("S-,n=12,k=2"),
        member("star,r=8"),
        member("D,a=3,b=5"),
        member("G4,r=6,t=3"),
        member("G4,r=5,t=0"),
    ):
        assert is_theta133_free(g)


def test_supergraphs_of_the_pattern_are_caught():
    g = make_theta(3, 3)
    assert not is_theta133_free(g)
    assert not is_theta133_free(edited(g, add=[(2, 4)]))
    pendant = edited(g, add=[(3, 6)], n=7)
    assert not is_theta133_free(pendant)


def test_disconnected_detection():
    g = make_theta(3, 3)
    shifted = Graph(8, [0, 0] + [row << 2 for row in g.adj])
    assert contains_theta(shifted, 3, 3) is not None


@given(graphs(max_n=8))
def test_detector_matches_oracle(g):
    for p, q in PATTERNS:
        fast = contains_theta(g, p, q)
        slow = oracle_contains_subgraph(g, make_theta(p, q))
        assert (fast is not None) == slow, (g, (p, q))
        if fast is not None:
            fast.validate(g)


def test_detector_matches_oracle_on_seeded_dense_graphs():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(6, 9)
        density = rng.choice([0.3, 0.5, 0.7])
        g = Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        )
        for p, q in PATTERNS:
            fast = contains_theta(g, p, q)
            slow = oracle_contains_subgraph(g, make_theta(p, q))
            assert (fast is not None) == slow


def test_oracle_standalone():
    assert oracle_contains_subgraph(complete(4), complete(3))
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not oracle_contains_subgraph(c4, complete(3))
    assert oracle_contains_subgraph(c4, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    assert oracle_contains_subgraph(complete(3), Graph(0, []))
    with pytest.raises(ValueError):
        oracle_contains_subgraph(complete(9), complete(9))  # pattern too large


def test_free_graphs_with_high_degree_anchors():
    # both endpoints of every edge need degree >= 3 before any search runs;
    # the double star has many such edges yet stays free
    g = member("D,a=4,b=4")
    assert contains_theta(g, 2, 2) is None
    assert contains_theta(g, 3, 3) is None


def test_witness_matches_reference_detector():
    # the first witness, not just the verdict: graphs shaped like the
    # screen benchmark's (n 16..64, m n..3n/2), then every small class
    rng = random.Random(31)
    hosts = []
    for _ in range(150):
        n = rng.randint(16, 64)
        pairs = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(n, 3 * n // 2))
        hosts.append(Graph.from_edges(n, pairs))
    for g in hosts:
        assert contains_theta(g, 3, 3) == reference_contains_theta(g, 3, 3)
    small = [Graph(len(rows), rows) for e in range(10) for _, rows in _connected_classes(e)]
    for p, q in WITNESS_PATTERNS:
        for g in small:
            assert contains_theta(g, p, q) == reference_contains_theta(g, p, q), (g.adj, p, q)
