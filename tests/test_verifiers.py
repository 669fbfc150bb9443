import itertools
import json
import math
import pathlib
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import edges, edited, induced_subgraph, member
from spectheta.acceptance import _equals_bound, _theta_free_family_corpus
from spectheta.enumeration import _connected_classes
from spectheta.families import FamilySpec, make_graph, make_theta
from spectheta.graphs import Graph, _iter_bits, components, is_bipartite, parse_graph6
from spectheta.quadratic import QuadExt
from spectheta.sampling import sample_graphs
from spectheta import verifiers
from spectheta.spectral import spectral_radius
from spectheta.theta import is_theta133_free, oracle_contains_subgraph
from spectheta.verifiers import (
    Classification,
    check_eq1,
    check_eq4,
    check_lemma25,
    check_lemma26,
    check_lemma27,
    classify_component,
    decompose_at,
    edge_rotation,
    neighborhood_classifications,
    rotation_sweep,
)


def complete(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------- taxonomy


def classify_whole(h):
    return classify_component(h, (1 << h.n) - 1)


def test_classify_spanning_cycle_variants():
    c4 = cycle(4)
    assert classify_whole(c4).kind == "c4_spanned"
    assert classify_whole(c4).variant == "c4"
    assert classify_whole(edited(c4, add=[(0, 2)])).variant == "theta122"
    assert classify_whole(complete(4)).variant == "k4"
    # the same C4 inside a wheel, read in place: the hub's edges are not in it
    wheel = edited(c4, add=[(4, v) for v in range(4)], n=5)
    assert classify_component(wheel, 0b1111) == classify_whole(c4)


def test_classify_stars_and_double_stars():
    assert classify_whole(Graph(1, [0])) == Classification("star", (0,))
    assert classify_whole(member("star,r=5")).params == (5,)
    got = classify_whole(member("D,a=2,b=4"))
    assert got.kind == "double_star" and got.params == (2, 4)


def test_classify_star_plus_matching_edge():
    g = edited(member("star,r=4"), add=[(1, 2)])
    got = classify_whole(g)
    assert got.kind == "s1" and got.params == (4,)


def test_classify_long_path_as_other():
    got = classify_whole(Graph.from_edges(5, [(i, i + 1) for i in range(4)]))
    assert got.kind == "other"


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_component(Graph(0, []), 0)
    with pytest.raises(ValueError):
        classify_whole(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        classify_component(Graph.from_edges(3, [(0, 1), (1, 2)]), 0b101)  # disconnected in g


P5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])


def _reference_classify_component(h):
    """The classifier written with explicit shape tests: a tree test, a
    dominating vertex for diameter <= 2, a search over the three
    4-cycles through four labelled vertices, and the injection oracle
    for a 5-vertex path."""
    if h.n == 4:
        for a, b, c, d in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
            if h.has_edge(a, b) and h.has_edge(b, c) and h.has_edge(c, d) and h.has_edge(d, a):
                variant = {4: "c4", 5: "theta122", 6: "k4"}[h.m]
                return Classification("c4_spanned", (h.m,), variant)
    center = next((v for v in range(h.n) if h.degree(v) == h.n - 1), None)
    if h.m == h.n - 1:
        if center is not None:
            return Classification("star", (h.n - 1,))
        centers = [v for v in range(h.n) if h.degree(v) > 1]
        if len(centers) == 2 and h.has_edge(*centers):
            a = h.degree(centers[0]) - 1
            b = h.degree(centers[1]) - 1
            return Classification("double_star", (min(a, b), max(a, b)))
        return Classification("other")
    if not oracle_contains_subgraph(h, P5):
        if h.m == h.n and h.n >= 3 and center is not None:
            return Classification("s1", (h.n - 1,))
        raise RuntimeError("classification fell through without a path witness")
    return Classification("other")


def test_classify_matches_shape_test_reference():
    # every connected class with at most 10 edges and every family graph of
    # criterion 8's corpus, whole, then each component of each of their
    # neighborhoods, classified in place and checked against its induced copy
    hosts = [Graph(len(rows), rows) for e in range(11) for _, rows in _connected_classes(e)]
    hosts += _theta_free_family_corpus()
    reference = {}

    def want(g, s):
        h, _ = induced_subgraph(g, s)
        key = h.n, h.adj
        if key not in reference:
            reference[key] = _reference_classify_component(h)
        return reference[key]

    checked = 0
    for g in hosts:
        whole = (1 << g.n) - 1
        assert classify_component(g, whole) == want(g, whole), g
        for u in range(g.n):
            for s, cls in neighborhood_classifications(g, u):
                assert cls == want(g, s), (g, u, s)
                checked += 1
    assert (len(hosts), checked) == (3488, 55622)


def test_neighborhood_classifications_cover_isolated():
    g = member("S-,n=9,k=2")
    kinds = sorted(cls.kind for _, cls in neighborhood_classifications(g, 0))
    assert kinds == ["star", "star"]  # K_{1,6} plus the lone pendant
    params = sorted(cls.params for _, cls in neighborhood_classifications(g, 0))
    assert params == [(0,), (6,)]


# ------------------------------------------------------------ decomposition


def test_decompose_theta_pattern_at_anchor():
    # the anchors 0 and 1 tie for the largest Perron coordinate
    rep = decompose_at(make_theta(3, 3))
    assert rep.apex == 0
    assert (rep.N0, rep.Nplus, rep.W) == (0b10110, 0, 0b101000)
    assert rep.eW == 0 and rep.eNW == 4 and rep.c == 0
    assert rep.components == ()


def test_decompose_apex_breaks_ties_low():
    # every coordinate of a cycle's Perron vector is equal
    assert decompose_at(cycle(6)).apex == 0
    assert decompose_at(member("S,n=8,k=2")).apex in (0, 1)


def test_decompose_apex_family():
    rep = decompose_at(member("G4,r=5,t=2"))
    assert rep.apex == 0
    assert (rep.N0, rep.Nplus) == (0b110000000, 0b1111110)
    assert rep.c == 1
    (comp,) = rep.components
    assert comp.vertices == 0b1111110
    assert comp.classification.kind == "star" and comp.classification.params == (5,)
    assert comp.reaches_W == 0


def test_decompose_zeta_additivity():
    # summing the per-component weights equals summing (d-1)-weighted
    # coordinates over the non-isolated part of the neighborhood
    for g in sample_graphs(99, 40, 11, connected=True, accept=is_theta133_free):
        rep = decompose_at(g)
        cert = rep.certificate
        direct = 0.0
        for v in _iter_bits(rep.Nplus):
            d_in = (g.adj[v] & rep.Nplus).bit_count()
            direct += (d_in - 1) * cert.perron[v]
        total = sum(comp.zeta for comp in rep.components)
        assert abs(total - direct) <= 1e-10


def _golden_inputs():
    golden = json.loads(pathlib.Path(__file__).with_name("golden_verify.json").read_text())
    named = {tuple(case["argv"][-2:]) for case in golden}
    return [parse_graph6(text) if flag == "--graph6" else member(text) for flag, text in sorted(named)]


def test_decompose_second_neighborhood_and_cross_edges():
    # N2 against a breadth-first search from the apex, eNW against a scan
    # of the edge list for edges between distances 1 and 2
    corpus = sample_graphs(2024, 60, 12, connected=True) + _golden_inputs()
    assert len(corpus) == 66
    for g in corpus:
        rep = decompose_at(g)
        dist = {rep.apex: 0}
        frontier = [rep.apex]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(g.n):
                    if g.has_edge(u, v) and v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        assert rep.N2 == sum(1 << v for v, d in dist.items() if d == 2)
        assert rep.eNW == sum(1 for u, v in edges(g) if {dist[u], dist[v]} == {1, 2})


def test_decompose_requires_connected():
    with pytest.raises(ValueError):
        decompose_at(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_decompose_defaults_to_heaviest_vertex():
    g = member("S-,n=10,k=2")
    rep = decompose_at(g)
    cert = spectral_radius(g)
    assert cert.perron[rep.apex] == max(cert.perron)


# ----------------------------------------------------------------- rotation


def test_rotation_on_path_creates_star():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    rotated, star = edge_rotation(p4, 1, 2), Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert (rotated.n, rotated.adj) == (star.n, star.adj)


def test_rotation_no_private_neighbors():
    assert edge_rotation(complete(4), 0, 1) is None
    with pytest.raises(ValueError):
        edge_rotation(complete(4), 2, 2)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_rotation_check_on_path():
    # in P4 a heavier u already sees v's other neighbour; the pairs that
    # would move an edge tie (the two inner vertices, or the two leaves),
    # and the 1e-9 order margin skips ties
    assert rotation_sweep([path(4)])["rotations"] == 0
    # on P5 the weakest rotation folds a leaf onto the center: the spider
    # with legs 1, 1, 2, radius sqrt(2 + sqrt 2) against sqrt 3
    sweep = rotation_sweep([path(5)])
    assert (sweep["graphs"], sweep["rotations"], sweep["violations"]) == (1, 4, 0)
    gain = math.sqrt(2 + math.sqrt(2)) - math.sqrt(3)
    assert sweep["min_margin"] == pytest.approx(gain, abs=1e-9)
    assert rotation_sweep([path(4), path(5)])["rotations"] == 4


def test_rotation_sweep_requires_connected():
    with pytest.raises(ValueError, match="perron vector requires a connected graph"):
        rotation_sweep([path(4), Graph.from_edges(4, [(0, 1), (2, 3)])])
    with pytest.raises(ValueError, match="empty graph"):
        rotation_sweep([Graph(0, [])])


def test_rotation_check_gates_on_order():
    # leaves are lighter than the center and tie with each other, and the
    # center has no private edges, so nothing is rotated
    sweep = rotation_sweep([member("star,r=4")])
    assert sweep == {"graphs": 1, "rotations": 0, "violations": 0, "min_margin": None}


# ------------------------------------------------------- bipartite bound


def test_bipartite_bound_equality_cases():
    k34 = Graph.from_edges(7, [(i, 3 + j) for i in range(3) for j in range(4)])
    chk = check_lemma25(k34)
    assert chk.holds is True
    assert chk.lhs == pytest.approx(math.sqrt(12), abs=1e-9)
    assert chk.extra["equality_structure"] and chk.extra["equality_numeric"]

    with_isolated = Graph(9, [row for row in k34.adj] + [0, 0])
    chk = check_lemma25(with_isolated)
    assert chk.extra["equality_structure"]


def test_bipartite_bound_strict_case():
    k34 = Graph.from_edges(7, [(i, 3 + j) for i in range(3) for j in range(4)])
    k34_minus = edited(k34, drop=[(0, 3)])
    chk = check_lemma25(k34_minus)
    assert chk.holds is True
    assert chk.lhs < chk.rhs - 1e-6
    assert not chk.extra["equality_structure"]
    assert chk.extra["equality_consistent"]


def _reference_complete_bipartite_plus_isolated(g):
    """The equality structure checked on its own terms: the one component
    with an edge, induced and 2-colored by itself."""
    nontrivial = [c for c in components(g) if c.bit_count() > 1]
    if not nontrivial:
        return g.m == 0
    if len(nontrivial) != 1:
        return False
    h, _ = induced_subgraph(g, nontrivial[0])
    sides = is_bipartite(h)
    return sides is not None and h.m == sides[0].bit_count() * sides[1].bit_count()


@st.composite
def bipartite_graphs(draw, max_n=9):
    """Edges only across a drawn split; complete across it, or with some
    of the cross pairs dropped, so both equality verdicts come up."""
    n = draw(st.integers(0, max_n))
    left = draw(st.integers(0, (1 << n) - 1))
    cross = [(u, v) for u, v in itertools.combinations(range(n), 2) if ((left >> u) ^ (left >> v)) & 1]
    if draw(st.booleans()) or not cross:
        picks = cross
    else:
        picks = draw(st.lists(st.sampled_from(cross), unique=True))
    return Graph.from_edges(n, picks)


@given(bipartite_graphs())
def test_bipartite_equality_structure_matches_reference(g):
    sides = is_bipartite(g)
    want = _reference_complete_bipartite_plus_isolated(g)
    assert verifiers._complete_bipartite_plus_isolated(g, sides) == want


def test_bipartite_bound_rejects_odd_cycles():
    with pytest.raises(ValueError):
        check_lemma25(cycle(5))


# -------------------------------------------------- exact sign comparison


def test_pendant_family_beats_reference_bound():
    chk = check_lemma26(92)
    assert chk.holds is True and chk.exact is True
    assert chk.margin == pytest.approx(1.1922681111720124e-4, abs=1e-9)
    assert chk.extra["quartic_sign_at_bound"] == -1
    assert chk.lhs > chk.rhs


def test_pendant_family_margin_shrinks_with_m():
    margins = [check_lemma26(m).margin for m in (10, 100, 1000)]
    assert margins[0] > margins[1] > margins[2] > 0


def test_pendant_family_input_validation():
    with pytest.raises(ValueError):
        check_lemma26(91)
    with pytest.raises(ValueError):
        check_lemma26(4)
    assert check_lemma26(verifiers.LEMMA26_MAX_M).holds
    with pytest.raises(ValueError, match="need m <= 10000000000"):
        check_lemma26(verifiers.LEMMA26_MAX_M + 2)


def test_pendant_family_margin_is_none_past_float_resolution():
    # from m = 10^8 on the root and the bound round to the same float, so
    # the margin would read 0.0 next to holds; the exact sign still decides
    assert check_lemma26(10**7).margin > 0
    for m in (10**8, verifiers.LEMMA26_MAX_M):
        chk = check_lemma26(m)
        assert chk.holds is True and chk.margin is None


# ------------------------------------------------------- outer edge bounds


def test_outer_edge_bound_runs_ungated_on_dense_clique_with_tail():
    g = Graph.from_edges(
        7, list(itertools.combinations(range(5), 2)) + [(4, 5), (5, 6)]
    )
    chk = check_lemma27(g)
    assert all(h.holds for h in chk.hypotheses)
    assert chk.holds is True
    assert chk.lhs == 0.0
    assert chk.rhs == pytest.approx(3.0, abs=1e-9)
    assert chk.extra["v"] == 6


def test_outer_edge_bound_gated_when_radius_is_small():
    g = member("G4,r=10,t=1")
    g = edited(g, add=[(0, 13), (13, 12)], drop=[(0, 12)], n=14)
    chk = check_lemma27(g)
    assert chk.holds is None
    gates = {h.name: h.holds for h in chk.hypotheses}
    assert gates["rho_exceeds_gate_bound"] is False
    assert gates["v_in_second_neighborhood"] is True
    assert chk.lhs == 0.0 and chk.rhs == 0.0  # both sides still reported


def test_outer_edge_bound_without_second_neighborhood():
    chk = check_lemma27(member("S-,n=10,k=2"))
    assert chk.holds is None
    assert chk.rhs is None


def test_second_neighborhood_edge_bound_on_pendant_family():
    chk = check_eq4(member("S-,n=12,k=2"))
    assert chk.holds is True
    assert chk.lhs == 0.0
    assert 0.0 < chk.rhs < 0.5
    assert chk.extra["eW_le_1"] and chk.extra["c_le_1"]


def test_second_neighborhood_edge_bound_gated_below_radius_gate():
    chk = check_eq4(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    assert chk.holds is None
    gates = {h.name: h.holds for h in chk.hypotheses}
    assert gates["rho_exceeds_gate_bound"] is False
    assert gates["theta133_free"] is True


def test_second_neighborhood_edge_bound_gated_on_pattern_holders():
    chk = check_eq4(complete(6))
    gates = {h.name: h.holds for h in chk.hypotheses}
    assert gates["theta133_free"] is False
    assert chk.holds is None


# ----------------------------------------------------------- apex identity


def test_apex_identity_on_families():
    for g in (member("S-,n=15,k=2"), member("G4,r=7,t=3"), member("Sk,n=9,k=4"), cycle(9)):
        chk = check_eq1(g)
        assert chk.holds is True
        assert chk.margin <= 1e-8


def test_apex_identity_fails_under_absurd_tolerance(monkeypatch):
    monkeypatch.setattr(verifiers, "EQ1_TOL", 1e-30)
    chk = check_eq1(member("S,n=10,k=2"))
    assert chk.holds is False
    assert chk.extra["tolerance"] == 1e-30


def test_apex_identity_requires_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for check in (check_eq1, check_eq4, check_lemma27):
        with pytest.raises(ValueError, match="decomposition requires a connected graph"):
            check(g)


# ------------------------------------------------------------ value checks


def test_equality_values_by_kind():
    def rho(spec):
        return spectral_radius(make_graph(spec)).rho

    # K_3 joined to 2 isolated vertices: m = 9, radius 1 + sqrt 7
    k3 = FamilySpec("split", {"k": 3, "s": 2})
    assert _equals_bound(k3, QuadExt(1, Fraction(1, 2), 28), rho(k3))
    # S(6, 2) at m = 9: radius (1 + sqrt 33)/2
    s62 = FamilySpec("S", {"n": 6, "k": 2})
    assert _equals_bound(s62, QuadExt(Fraction(1, 2), Fraction(1, 2), 33), rho(s62))
    # one off in the radicand is a different number
    assert not _equals_bound(s62, QuadExt(Fraction(1, 2), Fraction(1, 2), 34), rho(s62))
    # the right number, and a radius 1e-6 off it
    assert not _equals_bound(s62, QuadExt(Fraction(1, 2), Fraction(1, 2), 33), rho(s62) + 1e-6)


def test_checks_serialize():
    keys = {"name", "hypotheses", "lhs", "rhs", "strict", "holds", "margin", "exact", "extra"}
    d = json.loads(json.dumps(asdict(check_lemma26(92))))
    assert set(d) == keys
    assert d["name"] == "lemma26_pendant_family_beats_bound"
    assert d["holds"] is True
    assert d["hypotheses"] == [
        {"name": "m_even", "holds": True},
        {"name": "m_at_least_6", "holds": True},
    ]
    assert d["extra"] == {"quartic_sign_at_bound": -1}
    d = json.loads(json.dumps(asdict(check_eq4(member("S-,n=10,k=2")))))
    assert set(d) == keys
    assert [set(h) for h in d["hypotheses"]] == [{"name", "holds"}] * 2
