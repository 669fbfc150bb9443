from fractions import Fraction

import pytest

from spectheta.enumeration import canonical_form
from spectheta.families import (
    _ALIASES,
    _FAMILIES,
    FamilySpec,
    RhoDescriptor,
    closed_form_rho,
    f_poly,
    g4_partition,
    make_G4,
    make_S,
    make_S_minus,
    make_complete_split,
    make_double_star,
    make_graph,
    make_star,
    make_star_matching,
    make_theta,
    parse_family_spec,
    s_minus_partition,
    s_partition,
    split_partition,
    star_partition,
)
from spectheta.polynomials import Polynomial, largest_real_root
from spectheta.quadratic import QuadExt, largest_root_of_monic_quadratic
from spectheta.spectral import NonEquitableWitness, is_equitable, spectral_radius


def test_join_family_shape():
    g = make_S(10, 3)
    assert g.n == 10 and g.m == 3 + 3 * 7
    assert all(g.has_edge(u, v) for u in range(3) for v in range(3, 10))
    assert not g.has_edge(3, 4)
    with pytest.raises(ValueError):
        make_S(3, 3)
    with pytest.raises(ValueError):
        make_S(5, 0)


def test_join_family_minus_edge():
    g = make_S_minus(10, 2)
    base = make_S(10, 2)
    assert g.m == base.m - 1
    assert not g.has_edge(9, 1)
    assert g.has_edge(9, 0)
    assert g.m == 2 * 10 - 4
    with pytest.raises(ValueError):
        make_S_minus(3, 2)


def test_star_and_matching_families():
    assert make_star(0).n == 1
    assert make_star(6).m == 6
    g = make_star_matching(9, 3)
    assert g.n == 9 and g.m == 8 + 3
    assert g.has_edge(1, 2) and g.has_edge(3, 4) and g.has_edge(5, 6)
    assert not g.has_edge(7, 8)
    with pytest.raises(ValueError):
        make_star_matching(6, 3)  # needs 2k <= n-1
    with pytest.raises(ValueError):
        make_star(-1)


def test_double_star_shape():
    g = make_double_star(2, 4)
    assert g.n == 8 and g.m == 7
    assert g.has_edge(0, 1)
    assert g.degree(0) == 3 and g.degree(1) == 5
    with pytest.raises(ValueError):
        make_double_star(0, 3)


def test_theta_builder_shape():
    g = make_theta(3, 3)
    assert g.n == 6 and g.m == 7
    assert g.has_edge(0, 1)
    assert g.degree(0) == g.degree(1) == 3
    with pytest.raises(ValueError):
        make_theta(1, 3)
    with pytest.raises(ValueError):
        make_theta(3, 2)


def test_complete_split_shape():
    g = make_complete_split(3, 4)
    assert g == make_S(7, 3)
    with pytest.raises(ValueError):
        make_complete_split(0, 2)
    with pytest.raises(ValueError):
        make_complete_split(2, 0)


def test_apex_family_shape():
    g = make_G4(5, 3)
    assert g.n == 5 + 3 + 2 and g.m == 2 * 5 + 3 + 1
    assert g.degree(0) == 5 + 3 + 1  # apex sees everything but itself
    assert g.degree(1) == 6
    assert all(g.degree(v) == 2 for v in range(2, 7))
    assert all(g.degree(v) == 1 for v in range(7, 10))
    with pytest.raises(ValueError):
        make_G4(0, 1)
    with pytest.raises(ValueError):
        make_G4(3, -1)


def test_apex_family_matches_join_minus_edge():
    for r in (1, 2, 5, 9):
        assert canonical_form(make_G4(r, 1)) == canonical_form(make_S_minus(r + 3, 2))


def test_parse_family_spec():
    assert parse_family_spec("S,n=10,k=2") == FamilySpec("S", {"n": 10, "k": 2})
    assert parse_family_spec("s-, n=9, k=2") == FamilySpec("S-", {"n": 9, "k": 2})
    assert parse_family_spec("G4,r=4,t=0").tag == "G4"
    with pytest.raises(ValueError):
        parse_family_spec("unknown,n=3")
    with pytest.raises(ValueError):
        parse_family_spec("S,n=10")  # missing k
    with pytest.raises(ValueError):
        parse_family_spec("S,n=10,k=2,n=11")  # duplicate
    with pytest.raises(ValueError):
        parse_family_spec("S,n=ten,k=2")
    with pytest.raises(ValueError):
        parse_family_spec("S,n=10,z=1")


def test_make_graph_dispatch():
    # parameters chosen so that swapping any two changes or rejects the graph
    direct = {
        "S": ("n=7,k=2", make_S(7, 2)),
        "S-": ("n=7,k=2", make_S_minus(7, 2)),
        "Sk": ("n=7,k=2", make_star_matching(7, 2)),
        "D": ("a=2,b=3", make_double_star(2, 3)),
        "star": ("r=5", make_star(5)),
        "theta": ("p=2,q=4", make_theta(2, 4)),
        "split": ("k=3,s=2", make_complete_split(3, 2)),
        "G4": ("r=4,t=1", make_G4(4, 1)),
    }
    assert set(direct) == set(_FAMILIES) == set(_ALIASES.values())
    for name in [*_FAMILIES, *_ALIASES]:
        params, want = direct[_ALIASES[name.lower()]]
        assert make_graph(parse_family_spec(f"{name},{params}")) == want, name
    with pytest.raises(ValueError):
        make_graph(FamilySpec("nope", {}))


def test_quartic_coefficients():
    p = f_poly(92, 1)
    assert p.coeffs == (45, -90, -92, 0, 1)
    q = f_poly(12, 3)
    assert q.coeffs == (12, -8, -12, 0, 1)
    with pytest.raises(ValueError):
        f_poly(10, -1)
    with pytest.raises(ValueError):
        f_poly(4, 3)  # m < t + 3
    with pytest.raises(ValueError):
        f_poly(8, 2)  # m - t - 1 = 5 is odd


def test_quartic_sign_at_comparison_point_is_always_minus_quarter():
    # exact evaluation at (1 + sqrt(4m-5))/2 collapses to the rational -1/4,
    # independent of m; this is what makes the sign sweep exact and cheap
    for m in (6, 14, 92, 500, 1998):
        bound = QuadExt(Fraction(1, 2), Fraction(1, 2), 4 * m - 5)
        assert f_poly(m, 1).eval_quad(bound) == QuadExt(Fraction(-1, 4))


def test_partitions_are_equitable():
    checks = [
        (make_S(9, 2), s_partition(9, 2)),
        (make_S_minus(9, 2), s_minus_partition(9, 2)),
        (make_complete_split(3, 4), split_partition(3, 4)),
        (make_G4(4, 2), g4_partition(4, 2)),
        (make_G4(4, 0), g4_partition(4, 0)),
        (make_star(5), star_partition(5)),
        (make_star(0), star_partition(0)),
    ]
    for g, part in checks:
        assert not isinstance(is_equitable(g, part), NonEquitableWitness), part


def test_closed_form_values_match_iteration():
    cases = [
        "star,r=7",
        "S,n=9,k=1",
        "S,n=23,k=2",
        "split,k=4,s=6",
        "G4,r=6,t=2",
        "G4,r=6,t=0",
        "S-,n=12,k=2",
    ]
    for text in cases:
        spec = parse_family_spec(text)
        desc = closed_form_rho(spec)
        rho = spectral_radius(make_graph(spec)).rho
        assert desc.value == pytest.approx(rho, abs=1e-9), text
        if desc.exact is not None:
            assert float(desc.exact) == pytest.approx(rho, abs=1e-9)
        if desc.poly is not None:
            assert abs(desc.poly.eval_fraction(Fraction(rho))) < 1e-6


def test_closed_form_exact_values():
    assert closed_form_rho(parse_family_spec("S,n=23,k=2")).exact == QuadExt(7)
    assert closed_form_rho(parse_family_spec("star,r=9")).exact == QuadExt(3)
    golden_plus = closed_form_rho(parse_family_spec("split,k=2,s=2")).exact
    assert golden_plus == QuadExt(Fraction(1, 2), Fraction(1, 2), 17)


def _reference_closed_form(spec):
    """The hand-written radii the quotient route replaced, kept as the
    reference: each family's quotient polynomial written out by hand."""
    tag, p = spec.tag, spec.params
    if tag == "star":
        ex = QuadExt(0, 1, p["r"]) if p["r"] else QuadExt(0)
    elif tag == "S" and p["k"] == 1:
        ex = QuadExt(0, 1, p["n"] - 1)
    elif tag == "S" and p["k"] == 2:
        ex = largest_root_of_monic_quadratic(-1, -2 * (p["n"] - 2))
    elif tag == "split":
        ex = largest_root_of_monic_quadratic(-(p["k"] - 1), -p["k"] * p["s"])
    else:
        if tag == "G4" and p["t"] == 0:
            poly = Polynomial([-2 * p["r"], -(2 * p["r"] + 1), 0, 1])
        elif tag == "G4":
            poly = f_poly(2 * p["r"] + p["t"] + 1, p["t"])
        else:  # S- with k = 2
            poly = f_poly(2 * p["n"] - 4, 1)
        return RhoDescriptor(largest_real_root(poly), poly=poly)
    return RhoDescriptor(float(ex), exact=ex)


def test_closed_form_matches_hand_written_radii():
    specs = (
        [FamilySpec("star", {"r": r}) for r in range(0, 31)]
        + [FamilySpec("S", {"n": n, "k": k}) for k in (1, 2) for n in range(k + 1, 61)]
        + [FamilySpec("split", {"k": k, "s": s}) for k in range(1, 7) for s in range(1, 25)]
        + [FamilySpec("G4", {"r": r, "t": t}) for r in range(1, 25) for t in range(0, 6)]
        + [FamilySpec("S-", {"n": n, "k": 2}) for n in range(4, 81)]
    )
    for spec in specs:
        assert closed_form_rho(spec) == _reference_closed_form(spec), spec


def test_closed_form_unsupported(monkeypatch):
    # S is equitable on clique / independent set for every k
    spec = parse_family_spec("S,n=9,k=3")
    desc = closed_form_rho(spec)
    assert desc.exact == QuadExt(1, 1, 19)  # larger root of x^2 - 2x - 18
    assert desc.value == pytest.approx(spectral_radius(make_graph(spec)).rho, abs=1e-9)
    with pytest.raises(ValueError):
        closed_form_rho(parse_family_spec("S-,n=9,k=3"))
    with pytest.raises(ValueError):
        closed_form_rho(parse_family_spec("D,a=2,b=2"))
    with pytest.raises(ValueError):
        closed_form_rho(parse_family_spec("theta,p=3,q=3"))

    # a partition that is not equitable on the member is refused, not used
    def center_alone(a, b):
        return ((0,), tuple(range(1, a + b + 2)))

    monkeypatch.setitem(_FAMILIES, "D", (make_double_star, ("a", "b"), center_alone))
    with pytest.raises(ValueError, match="not equitable"):
        closed_form_rho(parse_family_spec("D,a=2,b=2"))


def test_s_minus_partition_only_defined_for_k2():
    with pytest.raises(ValueError):
        s_minus_partition(9, 3)


def test_pendant_family_quartic_is_its_char_poly_factor():
    from spectheta.polynomials import divides_exactly
    from spectheta.spectral import adjacency_char_poly

    g = make_S_minus(10, 2)
    assert divides_exactly(f_poly(16, 1), adjacency_char_poly(g))
