import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import edges, graphs
from spectheta.graphs import (
    Graph,
    components,
    edge_count_within,
    induced_subgraph,
    is_bipartite,
    parse_graph6,
    to_graph6,
)


def test_constructor_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph(2, [0b10])  # wrong row count
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, [0b1])  # loop
    with pytest.raises(ValueError):
        Graph(1, [0b10])  # bit out of range


def test_from_edges_dedup_and_errors():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.has_edge(0, 1) and not g.has_edge(1, 2)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_components_and_connectivity():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = components(g)
    assert comps == [0b111, 0b11000, 0b100000]
    assert components(Graph.from_edges(3, [(0, 1), (1, 2)])) == [0b111]
    assert components(Graph(0, [])) == []


def test_bipartite_certificates():
    even = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_bipartite(even) == (0b0101, 0b1010)
    odd = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_bipartite(odd) is None


def _proper(g, left):
    return all(((left >> u) ^ (left >> v)) & 1 for u, v in edges(g))


@given(graphs(max_n=8))
def test_bipartite_sides_match_brute_force(g):
    sides = is_bipartite(g)
    colourable = any(_proper(g, left) for left in range(1 << g.n))
    assert (sides is not None) == colourable
    if sides is not None:
        left, right = sides
        assert left & right == 0 and left | right == (1 << g.n) - 1
        assert _proper(g, left)


def test_induced_subgraph_back_map():
    g = Graph.from_edges(5, [(0, 2), (2, 4), (1, 3)])
    sub, back = induced_subgraph(g, 0b10101)
    assert back == (0, 2, 4)
    assert sub.n == 3 and sub.m == 2
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2)


@given(graphs(max_n=8), st.data())
def test_edge_count_split_identity(g, data):
    verts = list(range(g.n))
    side = data.draw(st.lists(st.sampled_from(verts), unique=True) if verts else st.just([]))
    s = sum(1 << v for v in side)
    t = ((1 << g.n) - 1) & ~s
    whole = edge_count_within(g, s | t)
    assert whole == g.m
    cross = sum(1 for u, v in edges(g) if ((s >> u) ^ (s >> v)) & 1)
    assert whole == edge_count_within(g, s) + edge_count_within(g, t) + cross


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    h = parse_graph6(to_graph6(g))
    assert (h.n, h.adj) == (g.n, g.adj)


def test_graph6_long_header_round_trip():
    g = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    s = to_graph6(g)
    assert s.startswith("~")
    h = parse_graph6(s)
    assert (h.n, h.adj) == (g.n, g.adj)


def test_graph6_known_strings():
    assert to_graph6(Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])) == "CF"
    assert to_graph6(Graph.from_edges(4, list(itertools.combinations(range(4), 2)))) == "C~"
    p3 = parse_graph6("BW")
    assert p3.n == 3 and p3.m == 2


def test_graph6_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("B")  # truncated payload
    with pytest.raises(ValueError):
        parse_graph6("BWW")  # trailing characters
    with pytest.raises(ValueError):
        parse_graph6("B" + chr(20))  # char out of range


def test_graph6_optional_prefix():
    assert parse_graph6(">>graph6<<BW").m == 2


def test_degree_and_edges_listing():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert [g.degree(v) for v in range(4)] == [1, 3, 1, 1]
    assert edges(g) == [(0, 1), (1, 2), (1, 3)]
