import itertools
import json
import math
from dataclasses import asdict
from fractions import Fraction

import pytest

from conftest import member
from spectheta.acceptance import _equals_bound
from spectheta.families import FamilySpec, make_theta
from spectheta.graphs import Graph
from spectheta.quadratic import QuadExt
from spectheta.sampling import sample_connected_theta_free
from spectheta.spectral import perron_vector
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


def test_classify_spanning_cycle_variants():
    c4 = cycle(4)
    assert classify_component(c4).kind == "c4_spanned"
    assert classify_component(c4).variant == "c4"
    assert classify_component(c4.with_edge(0, 2)).variant == "theta122"
    assert classify_component(complete(4)).variant == "k4"


def test_classify_stars_and_double_stars():
    assert classify_component(Graph(1, [0])) == Classification("star", (0,))
    assert classify_component(member("star,r=5")).params == (5,)
    got = classify_component(member("D,a=2,b=4"))
    assert got.kind == "double_star" and got.params == (2, 4)


def test_classify_star_plus_matching_edge():
    g = member("star,r=4").with_edge(1, 2)
    got = classify_component(g)
    assert got.kind == "s1" and got.params == (4,)


def test_classify_long_path_as_other():
    got = classify_component(Graph.from_edges(5, [(i, i + 1) for i in range(4)]))
    assert got.kind == "other"
    assert len(got.path_witness) == 5


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_component(Graph(0, []))
    with pytest.raises(ValueError):
        classify_component(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_neighborhood_classifications_cover_isolated():
    g = member("S-,n=9,k=2")
    kinds = sorted(cls.kind for _, cls in neighborhood_classifications(g, 0))
    assert kinds == ["star", "star"]  # K_{1,6} plus the lone pendant
    params = sorted(cls.params for _, cls in neighborhood_classifications(g, 0))
    assert params == [(0,), (6,)]


# ------------------------------------------------------------ decomposition


def test_decompose_theta_pattern_at_anchor():
    rep = decompose_at(make_theta(3, 3), apex=0)
    assert sorted(rep.N0) == [1, 2, 4]
    assert sorted(rep.Nplus) == []
    assert sorted(rep.W) == [3, 5]
    assert rep.eW == 0 and rep.eNW == 4 and rep.c == 0
    assert rep.components == ()


def test_decompose_apex_family():
    rep = decompose_at(member("G4,r=5,t=2"))
    assert rep.apex == 0
    assert sorted(rep.N0) == [7, 8]
    assert sorted(rep.Nplus) == [1, 2, 3, 4, 5, 6]
    assert rep.c == 1
    (comp,) = rep.components
    assert sorted(comp.vertices) == [1, 2, 3, 4, 5, 6]
    assert comp.classification.kind == "star" and comp.classification.params == (5,)
    assert sorted(comp.reaches_W) == []


def test_decompose_zeta_additivity():
    # summing the per-component weights equals summing (d-1)-weighted
    # coordinates over the non-isolated part of the neighborhood
    for g in sample_connected_theta_free(99, 40, 11):
        rep = decompose_at(g)
        cert = rep.certificate
        direct = 0.0
        for v in rep.Nplus:
            d_in = bin(g.adj[v] & rep.Nplus.bits).count("1")
            direct += (d_in - 1) * cert.perron[v]
        total = sum(comp.zeta for comp in rep.components)
        assert abs(total - direct) <= 1e-10


def test_decompose_requires_connected():
    with pytest.raises(ValueError):
        decompose_at(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_decompose_defaults_to_heaviest_vertex():
    g = member("S-,n=10,k=2")
    rep = decompose_at(g)
    cert = perron_vector(g)
    assert cert.perron[rep.apex] == max(cert.perron)


# ----------------------------------------------------------------- rotation


def test_rotation_on_path_creates_star():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert edge_rotation(p4, 1, 2) == Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])


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
    k34_minus = Graph.from_edges(7, [(i, 3 + j) for i in range(3) for j in range(4)]).without_edge(0, 3)
    chk = check_lemma25(k34_minus)
    assert chk.holds is True
    assert chk.lhs < chk.rhs - 1e-6
    assert not chk.extra["equality_structure"]
    assert chk.extra["equality_consistent"]


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
    g = g.without_edge(0, 12)
    g = Graph(14, list(g.adj) + [0]).with_edge(0, 13).with_edge(13, 12)
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


def test_apex_identity_fails_under_absurd_tolerance():
    chk = check_eq1(member("S,n=10,k=2"), tol=1e-30)
    assert chk.holds is False


def test_apex_identity_requires_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for check in (check_eq1, check_eq4, check_lemma27):
        with pytest.raises(ValueError, match="decomposition requires a connected graph"):
            check(g)


# ------------------------------------------------------------ value checks


def test_equality_values_by_kind():
    # K_3 joined to 2 isolated vertices: m = 9, radius 1 + sqrt 7
    assert _equals_bound(FamilySpec("split", {"k": 3, "s": 2}), QuadExt(1, Fraction(1, 2), 28))
    # S(6, 2) at m = 9: radius (1 + sqrt 33)/2
    s62 = FamilySpec("S", {"n": 6, "k": 2})
    assert _equals_bound(s62, QuadExt(Fraction(1, 2), Fraction(1, 2), 33))
    # one off in the radicand is a different number
    assert not _equals_bound(s62, QuadExt(Fraction(1, 2), Fraction(1, 2), 34))


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
