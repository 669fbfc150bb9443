"""Executable checks for the inequalities behind the extremal argument.

Every checker returns an InequalityCheck.  Hypotheses are evaluated
first and reported individually; when any fails, the verdict field is
None rather than a pass/fail claim, because a conditional statement
asserts nothing once its conditions are gone.  Both sides of each
inequality are still computed whenever they make sense, so a gated
report remains informative.  The strict, gated float verdicts of
lemma 2.7 and eq 4 are built by one helper, _gated.

Lemma 2.6 compares its sides exactly in Q(sqrt d); the others compare
floats with explicit margins.  The theorems' equality cases are checked
by acceptance criteria 1 and 2 themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .families import f_poly
from .graphs import (
    Graph,
    _iter_bits,
    components,
    edge_count_within,
    is_bipartite,
)
from .polynomials import largest_real_root
from .quadratic import QuadExt
from .spectral import (
    SpectralCertificate,
    perron_vector,
    spectral_radii,
    spectral_radius,
)
from .theta import contains_theta


@dataclass(frozen=True)
class Classification:
    """What a connected neighborhood component turned out to be.

    kind is one of c4_spanned, s1, double_star, star, other.  For
    c4_spanned the variant narrows to one of c4, theta122, k4 by edge
    count.  "other" is everything containing a 5-vertex path.
    """

    kind: str
    params: tuple[int, ...] = ()
    variant: str = ""


def classify_component(g: Graph, s: int) -> Classification:
    """Sort the connected subgraph h = G[S] into the shapes a neighborhood
    can take, reading its degrees off the rows of g.

    Four vertices of minimum degree 2 (on four connected vertices,
    exactly a spanning C4) come first, then trees of diameter at most 3,
    then a triangle with pendants at one corner (s1: n edges and one
    vertex covering all); everything else is "other".

    The degrees decide exactly whether h contains a 5-vertex path P5.
    Let h be connected with no P5.  If h is a tree, its diameter is at
    most 3, so it is a star or a double star.  Otherwise every cycle of
    h has length 3 or 4, since a longer cycle contains a P5.  On four
    vertices h is C4, the diamond or K4 (c4_spanned) or the paw (s1).
    On n >= 5 vertices, a 4-cycle with any vertex attached to it gives a
    P5, so h has a triangle abc and a vertex d on a.  Then a neighbour of
    d other than a, a vertex outside the triangle on b or c, an edge
    between two pendants of a, or an edge db (e-a-c-b-d) each give a P5;
    so h is the triangle with pendants at a: n edges and a of degree
    n - 1.  Every listed shape is P5-free, so "other" means "contains a
    P5".
    """
    if s == 0:
        raise ValueError("empty component")
    if len(components(g, s)) != 1:
        raise ValueError("component must be connected")
    deg = {v: (g.adj[v] & s).bit_count() for v in _iter_bits(s)}
    n, m = len(deg), sum(deg.values()) // 2
    if n == 4 and min(deg.values()) >= 2:
        variant = {4: "c4", 5: "theta122", 6: "k4"}[m]
        return Classification("c4_spanned", (m,), variant)
    if m == n - 1:
        # a tree is a star iff one vertex covers all the others
        if n - 1 in deg.values():
            return Classification("star", (n - 1,))
        # diameter-3 trees are exactly the double stars
        centers = [v for v, d in deg.items() if d > 1]
        if len(centers) == 2 and g.has_edge(*centers):
            a, b = sorted(deg[v] - 1 for v in centers)
            return Classification("double_star", (a, b))
    if m == n and n - 1 in deg.values():
        return Classification("s1", (n - 1,))
    return Classification("other")


@dataclass(frozen=True)
class ApexComponent:
    """One connected piece of the induced subgraph on Nplus.

    vertices and reaches_W, the part of W its vertices are adjacent to,
    are vertex masks; zeta is sum((internal degree - 1) * perron
    coordinate) over its vertices.
    """

    vertices: int
    classification: Classification
    reaches_W: int
    zeta: float


@dataclass(frozen=True)
class DecompositionReport:
    """Structure of a graph around a chosen apex vertex.

    N0 holds the isolated vertices of the induced neighborhood, Nplus
    the rest, W everything outside the closed neighborhood and N2 the
    vertices of W with a neighbor in N0 | Nplus; all four are vertex
    masks.  eW counts the edges inside W and eNW those between the
    neighborhood and W.  components are the connected pieces of the
    induced subgraph on Nplus; c counts those that are trees.
    """

    apex: int
    N0: int
    Nplus: int
    W: int
    N2: int
    eW: int
    eNW: int
    components: tuple[ApexComponent, ...]
    c: int
    certificate: SpectralCertificate


def decompose_at(g: Graph) -> DecompositionReport:
    """Partition V as {apex} | N0 | Nplus | W and classify the pieces.

    The apex is the largest Perron coordinate, smallest index on ties.
    Requires a connected graph.
    """
    if len(components(g)) != 1:
        raise ValueError("decomposition requires a connected graph")
    cert = spectral_radius(g)
    apex = max(range(g.n), key=lambda v: (cert.perron[v], -v))
    nbhd = g.adj[apex]
    w = ((1 << g.n) - 1) & ~(nbhd | (1 << apex))
    n2 = 0
    e_nw = 0
    for v in _iter_bits(nbhd):
        n2 |= g.adj[v] & w
        e_nw += (g.adj[v] & w).bit_count()
    n0 = 0
    comps = []
    c = 0
    for orig, cls in neighborhood_classifications(g, apex):
        size = orig.bit_count()
        if size == 1:
            n0 |= orig
            continue
        if edge_count_within(g, orig) == size - 1:
            c += 1
        reach = 0
        z = 0.0
        for v in _iter_bits(orig):
            reach |= g.adj[v]
            z += ((g.adj[v] & orig).bit_count() - 1) * cert.perron[v]
        comps.append(ApexComponent(orig, cls, reach & w, z))
    return DecompositionReport(
        apex=apex,
        N0=n0,
        Nplus=nbhd & ~n0,
        W=w,
        N2=n2,
        eW=edge_count_within(g, w),
        eNW=e_nw,
        components=tuple(comps),
        c=c,
        certificate=cert,
    )


def neighborhood_classifications(g: Graph, u: int) -> list[tuple[int, Classification]]:
    """Classify every component of the induced neighborhood of u.

    Each component comes back as its vertex mask in g.  Isolated
    vertices come back as zero-leaf stars; decompose_at puts them in N0.
    """
    return [(c, classify_component(g, c)) for c in components(g, g.adj[u])]


def edge_rotation(g: Graph, u: int, v: int) -> Optional[Graph]:
    """Re-home to u every edge from v to a vertex outside N[u].

    The rotation set is all of v's neighbors not already adjacent to u
    (and not u itself); when it is empty there is nothing to rotate and
    the result is None.  Edge count is preserved.
    """
    if u == v:
        raise ValueError("need distinct vertices")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    rot = g.adj[v] & ~(g.adj[u] | (1 << u))
    if not rot:
        return None
    rows = list(g.adj)
    rows[v] &= ~rot
    rows[u] |= rot
    for w in _iter_bits(rot):
        rows[w] = rows[w] & ~(1 << v) | (1 << u)
    return Graph(g.n, rows)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    holds: bool


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of one inequality check.

    holds is None when a hypothesis failed (nothing is claimed then);
    lhs/rhs/margin are still filled in when computable.  exact means the
    verdict came from exact field arithmetic rather than floats.
    """

    name: str
    hypotheses: tuple[HypothesisCheck, ...]
    lhs: Optional[float]
    rhs: Optional[float]
    strict: bool
    holds: Optional[bool]
    margin: Optional[float]
    exact: bool
    extra: dict = field(default_factory=dict)


def _gated(
    name: str, hyps: list[HypothesisCheck], lhs: float, rhs: Optional[float], extra: dict
) -> InequalityCheck:
    """The strict float verdict lhs < rhs, claimed only when every
    hypothesis holds and rhs is known."""
    holds: Optional[bool] = None
    if rhs is not None and all(h.holds for h in hyps):
        holds = lhs < rhs
    return InequalityCheck(
        name=name,
        hypotheses=tuple(hyps),
        lhs=lhs,
        rhs=rhs,
        strict=True,
        holds=holds,
        margin=None if rhs is None else rhs - lhs,
        exact=False,
        extra=extra,
    )


def _rho_gate_bound(m: int) -> Optional[QuadExt]:
    """(1 + sqrt(4m-5))/2 when it is real, else None."""
    if 4 * m - 5 < 0:
        return None
    return QuadExt(Fraction(1, 2), Fraction(1, 2), 4 * m - 5)


def rotation_sweep(graphs: Sequence[Graph]) -> dict:
    """Lemma 2.1 over connected graphs: rotating private edges onto the
    heavier endpoint raises the radius.

    For every ordered pair with x_u >= x_v + 1e-9, rotates v's private
    edges onto u; a rotation whose radius gain is at most 1e-10 counts
    as a violation.  Each graph's Perron vector is computed once, and
    its rotations go through one spectral_radii call.
    """
    rotations = 0
    violations = 0
    min_margin = None
    for g in graphs:
        cert = perron_vector(g)
        rotated = []
        for u in range(g.n):
            for v in range(g.n):
                if u == v or cert.perron[u] < cert.perron[v] + 1e-9:
                    continue
                rot = edge_rotation(g, u, v)
                if rot is not None:
                    rotated.append(rot)
        rotations += len(rotated)
        for rot_cert in spectral_radii(rotated):
            margin = rot_cert.rho - cert.rho
            if min_margin is None or margin < min_margin:
                min_margin = margin
            if margin <= 1e-10:
                violations += 1
    return {
        "graphs": len(graphs),
        "rotations": rotations,
        "violations": violations,
        "min_margin": min_margin,
    }


def _complete_bipartite_plus_isolated(g: Graph, sides: tuple[int, int]) -> bool:
    """Whether g is one complete bipartite graph plus isolated vertices,
    given the sides of a 2-coloring of g: cut to the one component with
    an edge, they are its bipartition, the only one up to a swap."""
    nontrivial = [c for c in components(g) if c.bit_count() > 1]
    if len(nontrivial) > 1:
        return False
    comp = nontrivial[0] if nontrivial else 0
    return g.m == (sides[0] & comp).bit_count() * (sides[1] & comp).bit_count()


def check_lemma25(g: Graph) -> InequalityCheck:
    """Bipartite graphs have rho <= sqrt(m), equal exactly for a complete
    bipartite graph plus isolated vertices."""
    sides = is_bipartite(g)
    if sides is None:
        raise ValueError("need a bipartite graph")
    if g.n == 0:
        raise ValueError("empty graph")
    rho = spectral_radius(g).rho
    bound = math.sqrt(g.m)
    structure_equal = _complete_bipartite_plus_isolated(g, sides)
    numeric_equal = abs(rho - bound) <= 1e-9
    return InequalityCheck(
        name="lemma25_bipartite_sqrt_m",
        hypotheses=(HypothesisCheck("bipartite", True),),
        lhs=rho,
        rhs=bound,
        strict=False,
        holds=rho <= bound + 1e-9,
        margin=bound - rho,
        exact=False,
        extra={
            "equality_structure": structure_equal,
            "equality_numeric": numeric_equal,
            "equality_consistent": structure_equal == numeric_equal,
        },
    )


# the largest m check_lemma26 takes: the exact bound factors 4m - 5 by
# trial division up to its square root, 2 * 10**5 steps at this m
LEMMA26_MAX_M = 10**10


def check_lemma26(m: int) -> InequalityCheck:
    """The damaged-join family beats (1+sqrt(4m-5))/2, certified exactly.

    The quartic with pendant parameter 1 is positive beyond its largest
    root, so a negative exact evaluation at the bound proves the root
    (the family's spectral radius) exceeds the bound.
    """
    if m % 2 != 0:
        raise ValueError("need m even")
    if m < 6:
        raise ValueError("need m >= 6")
    if m > LEMMA26_MAX_M:
        raise ValueError(f"need m <= {LEMMA26_MAX_M}")
    bound = _rho_gate_bound(m)
    quartic = f_poly(m, 1)
    value = quartic.eval_quad(bound)
    sign = value.sign()
    rho = largest_real_root(quartic)
    bound_f = float(bound)
    return InequalityCheck(
        name="lemma26_pendant_family_beats_bound",
        hypotheses=(
            HypothesisCheck("m_even", True),
            HypothesisCheck("m_at_least_6", True),
        ),
        lhs=rho,
        rhs=bound_f,
        strict=True,
        holds=sign < 0,
        margin=rho - bound_f,
        exact=True,
        extra={"quartic_sign_at_bound": sign},
    )


def _rho_exceeds_gate(g: Graph, rho: float) -> tuple[bool, Optional[float]]:
    """Whether rho beats (1 + sqrt(4m-5))/2, and by how much.  Below
    m = 2 the bound is not real: the gate holds and the margin is None."""
    bound = _rho_gate_bound(g.m)
    if bound is None:
        return True, None
    bf = float(bound)
    return rho > bf + 1e-9, rho - bf


# the weight lemma 2.7 puts on v's edges into the apex neighborhood
LEMMA27_BETA = 0.5


def check_lemma27(g: Graph) -> InequalityCheck:
    """Edges outside the apex ball against neighborhood slack at v.

    lhs is e(W); rhs is e(N(apex)) - |Nplus| + 3/2 - beta * (edges from
    v into the neighborhood), with beta = 1/2 and v the distance-two
    vertex with the smallest Perron coordinate, smallest index on ties.
    """
    rep = decompose_at(g)
    cert = rep.certificate
    gate_ok, gate_margin = _rho_exceeds_gate(g, cert.rho)
    hyps = [
        HypothesisCheck("rho_exceeds_gate_bound", gate_ok),
        HypothesisCheck("v_in_second_neighborhood", bool(rep.N2)),
    ]
    lhs = float(rep.eW)
    if not rep.N2:
        extra = {"apex": rep.apex, "gate_margin": gate_margin}
        return _gated("lemma27_outer_edge_bound", hyps, lhs, None, extra)
    v = min(_iter_bits(rep.N2), key=lambda w: (cert.perron[w], w))
    coord_ok = cert.perron[v] < (1 - LEMMA27_BETA) * cert.perron[rep.apex]
    hyps.append(HypothesisCheck("perron_coordinate_small_at_v", coord_ok))
    nbhd = rep.N0 | rep.Nplus
    d_nb = (g.adj[v] & nbhd).bit_count()
    rhs = edge_count_within(g, nbhd) - rep.Nplus.bit_count() + 1.5 - LEMMA27_BETA * d_nb
    extra = {
        "apex": rep.apex,
        "v": v,
        "beta": LEMMA27_BETA,
        "d_into_neighborhood": d_nb,
        "gate_margin": gate_margin,
    }
    return _gated("lemma27_outer_edge_bound", hyps, lhs, rhs, extra)


# the relative residual up to which check_eq1 counts its identity as held
EQ1_TOL = 1e-8


def check_eq1(g: Graph) -> InequalityCheck:
    """Second-order eigen-equation identity at the apex.

    (rho^2 - rho) * x_apex equals deg(apex) * x_apex
    plus sum over neighborhood non-isolates of (internal degree - 1) * x
    plus sum over distance-two vertices of (edges into neighborhood) * x
    minus sum over neighborhood isolates of x.
    Holds for every connected graph; checked to EQ1_TOL.
    """
    rep = decompose_at(g)
    cert = rep.certificate
    u = rep.apex
    rho = cert.rho
    x = cert.perron
    nbhd = rep.N0 | rep.Nplus
    lhs = (rho * rho - rho) * x[u]
    rhs = g.degree(u) * x[u]
    for vtx in _iter_bits(rep.Nplus):
        d_in = (g.adj[vtx] & nbhd).bit_count()
        rhs += (d_in - 1) * x[vtx]
    for w in _iter_bits(rep.N2):
        rhs += (g.adj[w] & nbhd).bit_count() * x[w]
    for vtx in _iter_bits(rep.N0):
        rhs -= x[vtx]
    return InequalityCheck(
        name="eq1_apex_identity",
        hypotheses=(HypothesisCheck("connected", True),),
        lhs=lhs,
        rhs=rhs,
        strict=False,
        holds=abs(lhs - rhs) <= EQ1_TOL * max(1.0, abs(lhs), abs(rhs)),
        margin=abs(lhs - rhs),
        exact=False,
        extra={"apex": u, "tolerance": EQ1_TOL},
    )


def check_eq4(g: Graph) -> InequalityCheck:
    """Outer edges against apex-neighborhood structure.

    lhs is e(W); rhs is 3/2 - c - sum over neighborhood isolates of
    x_v / x_apex.  Gated on connectivity, theta(1,3,3)-freeness, and the
    radius exceeding (1+sqrt(4m-5))/2.
    """
    rep = decompose_at(g)
    cert = rep.certificate
    hyps = [
        HypothesisCheck("theta133_free", contains_theta(g, 3, 3) is None),
    ]
    gate_ok, gate_margin = _rho_exceeds_gate(g, cert.rho)
    hyps.append(HypothesisCheck("rho_exceeds_gate_bound", gate_ok))
    x_apex = cert.perron[rep.apex]
    iso_sum = sum(cert.perron[v] for v in _iter_bits(rep.N0)) / x_apex
    extra = {
        "apex": rep.apex,
        "c": rep.c,
        "eW_le_1": rep.eW <= 1,
        "c_le_1": rep.c <= 1,
        "gate_margin": gate_margin,
    }
    return _gated("eq4_outer_edge_bound", hyps, float(rep.eW), 1.5 - rep.c - iso_sum, extra)
