import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import graphs
from spectheta.graphs import (
    Bipartition,
    Graph,
    OddCycle,
    VertexSet,
    components,
    edge_count_between,
    edge_count_within,
    induced_subgraph,
    is_bipartite,
    is_connected,
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


def test_edge_toggling_is_persistent():
    g = Graph.from_edges(3, [(0, 1)])
    g2 = g.with_edge(1, 2)
    assert g.m == 1 and g2.m == 2
    g3 = g2.without_edge(0, 1)
    assert g3.has_edge(1, 2) and not g3.has_edge(0, 1)
    assert g2.m == 2  # untouched


def test_vertexset_operations():
    a = VertexSet.from_iterable([0, 2, 5])
    b = VertexSet.from_iterable([2, 3])
    assert sorted(a | b) == [0, 2, 3, 5]
    assert sorted(a & b) == [2]
    assert sorted(a - b) == [0, 5]
    assert len(a) == 3 and 5 in a and 1 not in a
    assert not VertexSet.from_iterable([])


def test_components_and_connectivity():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = components(g)
    assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4], [5]]
    assert not is_connected(g)
    assert is_connected(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert is_connected(Graph(0, []))  # vacuously, no split exists


def test_bipartite_certificates():
    even = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    cert = is_bipartite(even)
    assert isinstance(cert, Bipartition)
    left, right = set(cert.left), set(cert.right)
    for u, v in even.edges():
        assert (u in left) != (v in left)
    assert left | right == set(range(4))

    odd = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    cert = is_bipartite(odd)
    assert isinstance(cert, OddCycle)
    cyc = cert.vertices
    assert len(cyc) % 2 == 1
    for i in range(len(cyc)):
        assert odd.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])


def test_induced_subgraph_back_map():
    g = Graph.from_edges(5, [(0, 2), (2, 4), (1, 3)])
    sub, back = induced_subgraph(g, VertexSet.from_iterable([0, 2, 4]))
    assert back == (0, 2, 4)
    assert sub.n == 3 and sub.m == 2
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2)


@given(graphs(max_n=8), st.data())
def test_edge_count_split_identity(g, data):
    verts = list(range(g.n))
    side = data.draw(st.lists(st.sampled_from(verts), unique=True) if verts else st.just([]))
    s = VertexSet.from_iterable(side)
    t = VertexSet.from_iterable(v for v in verts if v not in side)
    whole = edge_count_within(g, s | t)
    assert whole == g.m
    assert whole == edge_count_within(g, s) + edge_count_within(g, t) + edge_count_between(g, s, t)


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


def test_graph6_long_header_round_trip():
    g = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    s = to_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


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


def test_neighborhood_helpers():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    from spectheta.graphs import neighborhood, second_neighborhood

    assert sorted(neighborhood(g, 0)) == [1, 2]
    assert sorted(second_neighborhood(g, 0)) == [3]
    assert sorted(second_neighborhood(g, 3)) == [0, 5]


def test_degree_and_edges_listing():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert [g.degree(v) for v in range(4)] == [1, 3, 1, 1]
    assert list(g.edges()) == [(0, 1), (1, 2), (1, 3)]
    assert sorted(g.vertex_set()) == [0, 1, 2, 3]
