import itertools
import tracemalloc
from fractions import Fraction

import pytest

from conftest import at, edited
from spectheta.enumeration import canonical_form
from spectheta.families import (
    _ALIASES,
    _FAMILIES,
    FamilySpec,
    RhoDescriptor,
    _quotient,
    closed_form_rho,
    f_poly,
    family_partition,
    make_graph,
    make_theta,
    parse_family_spec,
)
from spectheta.graphs import Graph
from spectheta.polynomials import Polynomial, largest_real_root
from spectheta.quadratic import QuadExt, largest_root_of_monic_quadratic
from spectheta.spectral import is_equitable, spectral_radii, spectral_radius


def _reference_S(n, k):
    """Clique on 0..k-1 joined completely to independent k..n-1."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    edges = [(i, j) for i in range(k) for j in range(i + 1, n)]
    return Graph.from_edges(n, edges)


def _reference_S_minus(n, k):
    """_reference_S(n, k) minus the edge between vertices n-1 and k-1."""
    if n < k + 2:
        raise ValueError("need n >= k + 2 so an edge can be dropped")
    return edited(_reference_S(n, k), drop=[(n - 1, k - 1)])


def _reference_star(r):
    """Star with center 0 and r leaves."""
    if r < 0:
        raise ValueError("need r >= 0")
    return Graph.from_edges(r + 1, [(0, i) for i in range(1, r + 1)])


def _reference_star_matching(n, k):
    """Star on n vertices, center 0, leaf pairs (2i+1, 2i+2) matched for i < k."""
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0 or 2 * k > n - 1:
        raise ValueError("need 0 <= 2k <= n - 1")
    edges = [(0, i) for i in range(1, n)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(k)]
    return Graph.from_edges(n, edges)


def _reference_double_star(a, b):
    """Adjacent centers 0 and 1 with a leaves on 0 and b leaves on 1."""
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph.from_edges(2 + a + b, edges)


def _reference_complete_split(k, s):
    """Clique 0..k-1 joined to independent set of s further vertices."""
    if k < 1 or s < 1:
        raise ValueError("need k >= 1 and s >= 1")
    return _reference_S(k + s, k)


def _reference_G4(r, t):
    """Apex 0 adjacent to star center 1, its r leaves 2..r+1 and t
    pendants r+2..r+t+1."""
    if r < 1 or t < 0:
        raise ValueError("need r >= 1 and t >= 0")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(r)]
    edges += [(1, 2 + i) for i in range(r)]
    edges += [(0, r + 2 + i) for i in range(t)]
    return Graph.from_edges(r + t + 2, edges)


# tag -> the hand-written constructor it replaced and a range for each
# parameter, bad values included
_REFERENCES = {
    "S": (_reference_S, {"n": range(-1, 13), "k": range(-1, 13)}),
    "S-": (_reference_S_minus, {"n": range(-1, 13), "k": range(-2, 13)}),
    "Sk": (_reference_star_matching, {"n": range(-1, 13), "k": range(-1, 7)}),
    "D": (_reference_double_star, {"a": range(-1, 8), "b": range(-1, 8)}),
    "star": (_reference_star, {"r": range(-2, 25)}),
    "theta": (make_theta, {"p": range(0, 6), "q": range(0, 7)}),
    "split": (_reference_complete_split, {"k": range(-1, 7), "s": range(-1, 10)}),
    "G4": (_reference_G4, {"r": range(-1, 12), "t": range(-2, 7)}),
}


def _sweep(tag):
    """(reference, params) over the tag's grid."""
    ref, ranges = _REFERENCES[tag]
    for values in itertools.product(*ranges.values()):
        yield ref, dict(zip(ranges, values))


def _outcome(build, *args):
    """The graph built, or the message of the ValueError raised."""
    try:
        return build(*args)
    except ValueError as err:
        return str(err)


def _members(tags):
    """Every spec of the tags' grids that names a graph, with the graph."""
    for tag in tags:
        for ref, params in _sweep(tag):
            g = _outcome(ref, *params.values())
            if isinstance(g, Graph):
                yield FamilySpec(tag, params), g


def test_join_family_shape():
    g = make_graph(FamilySpec("S", {"n": 10, "k": 3}))
    assert g.n == 10 and g.m == 3 + 3 * 7
    assert all(g.has_edge(u, v) for u in range(3) for v in range(3, 10))
    assert not g.has_edge(3, 4)
    with pytest.raises(ValueError):
        make_graph(FamilySpec("S", {"n": 3, "k": 3}))
    with pytest.raises(ValueError):
        make_graph(FamilySpec("S", {"n": 5, "k": 0}))


def test_join_family_minus_edge():
    g = make_graph(FamilySpec("S-", {"n": 10, "k": 2}))
    base = make_graph(FamilySpec("S", {"n": 10, "k": 2}))
    assert g.m == base.m - 1
    assert not g.has_edge(9, 1)
    assert g.has_edge(9, 0)
    assert g.m == 2 * 10 - 4
    with pytest.raises(ValueError):
        make_graph(FamilySpec("S-", {"n": 3, "k": 2}))


def test_star_and_matching_families():
    assert make_graph(FamilySpec("star", {"r": 0})).n == 1
    assert make_graph(FamilySpec("star", {"r": 6})).m == 6
    g = make_graph(FamilySpec("Sk", {"n": 9, "k": 3}))
    assert g.n == 9 and g.m == 8 + 3
    assert g.has_edge(1, 2) and g.has_edge(3, 4) and g.has_edge(5, 6)
    assert not g.has_edge(7, 8)
    with pytest.raises(ValueError):
        make_graph(FamilySpec("Sk", {"n": 6, "k": 3}))  # needs 2k <= n-1
    with pytest.raises(ValueError):
        make_graph(FamilySpec("star", {"r": -1}))


def test_double_star_shape():
    g = make_graph(FamilySpec("D", {"a": 2, "b": 4}))
    assert g.n == 8 and g.m == 7
    assert g.has_edge(0, 1)
    assert g.degree(0) == 3 and g.degree(1) == 5
    with pytest.raises(ValueError):
        make_graph(FamilySpec("D", {"a": 0, "b": 3}))


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
    g = make_graph(FamilySpec("split", {"k": 3, "s": 4}))
    join = make_graph(FamilySpec("S", {"n": 7, "k": 3}))
    assert (g.n, g.adj) == (join.n, join.adj)
    with pytest.raises(ValueError):
        make_graph(FamilySpec("split", {"k": 0, "s": 2}))
    with pytest.raises(ValueError):
        make_graph(FamilySpec("split", {"k": 2, "s": 0}))


def test_apex_family_shape():
    g = make_graph(FamilySpec("G4", {"r": 5, "t": 3}))
    assert g.n == 5 + 3 + 2 and g.m == 2 * 5 + 3 + 1
    assert g.degree(0) == 5 + 3 + 1  # apex sees everything but itself
    assert g.degree(1) == 6
    assert all(g.degree(v) == 2 for v in range(2, 7))
    assert all(g.degree(v) == 1 for v in range(7, 10))
    with pytest.raises(ValueError):
        make_graph(FamilySpec("G4", {"r": 0, "t": 1}))
    with pytest.raises(ValueError):
        make_graph(FamilySpec("G4", {"r": 3, "t": -1}))


def test_apex_family_matches_join_minus_edge():
    for r in (1, 2, 5, 9):
        apex = make_graph(FamilySpec("G4", {"r": r, "t": 1}))
        damaged = make_graph(FamilySpec("S-", {"n": r + 3, "k": 2}))
        assert canonical_form(apex) == canonical_form(damaged)


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
    # every tag and alias, through the parser, builds the graph the old
    # constructor built and rejects bad ranges with the same message
    assert set(_REFERENCES) == set(_ALIASES.values()) == {*_FAMILIES, "theta"}
    for name in [*_REFERENCES, *_ALIASES]:
        for ref, params in _sweep(_ALIASES[name.lower()]):
            text = ",".join([name, *(f"{k}={v}" for k, v in params.items())])
            got = _outcome(make_graph, parse_family_spec(text))
            want = _outcome(ref, *params.values())
            if isinstance(want, Graph):
                assert isinstance(got, Graph) and (got.n, got.adj) == (want.n, want.adj), text
            else:
                assert got == want, text
    with pytest.raises(ValueError):
        make_graph(FamilySpec("nope", {}))


def test_oversized_members_are_refused_before_they_are_built():
    # the vertex cap is checked from the class sizes, so refusing a huge
    # member costs no rows; built first, these two peak at tens of MB
    cases = [
        (make_graph, parse_family_spec("theta,p=2,q=20000"), 20002),
        (make_graph, parse_family_spec("S,n=20000,k=10000"), 20000),
        (lambda n: Graph.from_edges(n, [(0, 1)]), 10**6, 10**6),
    ]
    for build, arg, n in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^vertex count {n} outside 0\.\.512$"):
                build(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (arg, peak)


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
    # the classes are an equitable partition of the member, and the
    # quotient read off the skeleton is the one is_equitable measures
    covered = set()
    for spec, g in _members(_FAMILIES):
        part = family_partition(spec)
        assert all(part), spec
        assert is_equitable(g, part) == _quotient(spec), spec
        covered.add((spec.tag, spec.params.get("k")))
    assert {("S-", k) for k in range(1, 6)} <= covered
    assert {"D", "Sk", "star", "G4", "split"} <= {tag for tag, _ in covered}
    # empty classes are left out
    assert family_partition(FamilySpec("star", {"r": 0})) == ((0,),)
    assert family_partition(FamilySpec("G4", {"r": 2, "t": 0})) == ((0,), (1,), (2, 3))
    assert family_partition(FamilySpec("S-", {"n": 5, "k": 1})) == ((0,), (1, 2, 3), (4,))


def test_closed_form_values_match_iteration():
    cases = [
        "star,r=7",
        "S,n=9,k=1",
        "S,n=23,k=2",
        "split,k=4,s=6",
        "G4,r=6,t=2",
        "G4,r=6,t=0",
        "S-,n=12,k=2",
        "S-,n=9,k=1",
    ]
    for text in cases:
        spec = parse_family_spec(text)
        desc = closed_form_rho(spec)
        rho = spectral_radius(make_graph(spec)).rho
        assert desc.value == pytest.approx(rho, abs=1e-9), text
        if desc.exact is not None:
            assert float(desc.exact) == pytest.approx(rho, abs=1e-9)
        if desc.poly is not None:
            assert abs(at(desc.poly, rho)) < 1e-6
    # the S-(9, 1) quotient polynomial is x^3 - 7x; its zero root is divided out
    assert closed_form_rho(parse_family_spec("S-,n=9,k=1")).exact == QuadExt(0, 1, 7)


def test_skeleton_closed_forms_match_iteration():
    # D, Sk and S- with k != 2 (disconnected at k = 1) have a closed form
    # only through the skeleton quotient
    members = [
        (spec, g)
        for spec, g in _members(("D", "Sk", "S-"))
        if spec.tag != "S-" or spec.params["k"] != 2
    ]
    radii = spectral_radii([g for _, g in members])
    for (spec, _), cert in zip(members, radii):
        assert closed_form_rho(spec).value == pytest.approx(cert.rho, abs=1e-9), spec


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


def test_closed_form_unsupported():
    # S is equitable on clique / independent set for every k
    spec = parse_family_spec("S,n=9,k=3")
    desc = closed_form_rho(spec)
    assert desc.exact == QuadExt(1, 1, 19)  # larger root of x^2 - 2x - 18
    assert desc.value == pytest.approx(spectral_radius(make_graph(spec)).rho, abs=1e-9)
    # theta is the pattern, not a blow-up
    with pytest.raises(ValueError):
        closed_form_rho(parse_family_spec("theta,p=3,q=3"))


def test_pendant_family_quartic_is_its_char_poly_factor():
    from spectheta.polynomials import divides_exactly
    from spectheta.spectral import adjacency_char_poly

    g = make_graph(FamilySpec("S-", {"n": 10, "k": 2}))
    assert divides_exactly(f_poly(16, 1), adjacency_char_poly(g))
