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
    VertexSet,
    components,
    edge_count_between,
    edge_count_within,
    induced_subgraph,
    is_bipartite,
    neighborhood,
    second_neighborhood,
    Bipartition,
)
from .polynomials import largest_real_root
from .quadratic import QuadExt
from .spectral import (
    SpectralCertificate,
    perron_argmax,
    perron_vector,
    spectral_radii,
    spectral_radius,
)
from .theta import contains_path, contains_theta


@dataclass(frozen=True)
class Classification:
    """What a connected neighborhood component turned out to be.

    kind is one of c4_spanned, s1, double_star, star, other.  For
    c4_spanned the variant narrows to one of c4, theta122, k4 by edge
    count.  "other" carries a 5-vertex path witness.
    """

    kind: str
    params: tuple[int, ...] = ()
    variant: str = ""
    path_witness: tuple[int, ...] = ()


def _is_tree(h: Graph) -> bool:
    return h.m == h.n - 1


def _diameter_le2_tree_center(h: Graph) -> Optional[int]:
    # a tree has diameter <= 2 iff some vertex covers all others
    for v in range(h.n):
        if h.degree(v) == h.n - 1:
            return v
    return None


def _spans_c4(h: Graph) -> bool:
    if h.n != 4:
        return False
    # C4 through 4 labeled vertices exists iff some pairing of the three
    # perfect orderings closes a cycle
    orders = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3))
    for a, b, c, d in orders:
        if (
            h.has_edge(a, b)
            and h.has_edge(b, c)
            and h.has_edge(c, d)
            and h.has_edge(d, a)
        ):
            return True
    return False


def classify_component(h: Graph) -> Classification:
    """Sort a connected graph into the shapes a neighborhood can take.

    The five outcomes are mutually exclusive here: spanning-C4 graphs on
    four vertices first, then trees by diameter, then the star-plus-
    matching shape, and everything remaining contains a 5-vertex path.
    """
    if h.n == 0:
        raise ValueError("empty component")
    if len(components(h)) != 1:
        raise ValueError("component must be connected")
    if h.n == 4 and _spans_c4(h):
        variant = {4: "c4", 5: "theta122", 6: "k4"}[h.m]
        return Classification("c4_spanned", (h.m,), variant)
    if _is_tree(h):
        center = _diameter_le2_tree_center(h)
        if center is not None:
            return Classification("star", (h.n - 1,))
        # diameter-3 trees are exactly the double stars
        centers = [v for v in range(h.n) if h.degree(v) > 1]
        if len(centers) == 2 and h.has_edge(*centers):
            a = h.degree(centers[0]) - 1
            b = h.degree(centers[1]) - 1
            return Classification("double_star", (min(a, b), max(a, b)))
        path = contains_path(h, 5)
        return Classification("other", path_witness=path)
    path = contains_path(h, 5)
    if path is None:
        # connected, n edges, one vertex covering all: star plus one matching edge
        if h.m == h.n and h.n >= 3 and any(h.degree(v) == h.n - 1 for v in range(h.n)):
            return Classification("s1", (h.n - 1,))
        raise RuntimeError("classification fell through without a path witness")
    return Classification("other", path_witness=path)


@dataclass(frozen=True)
class ApexComponent:
    """One connected piece of the induced subgraph on Nplus.

    reaches_W is the part of W its vertices are adjacent to; zeta is
    sum((internal degree - 1) * perron coordinate) over its vertices.
    """

    vertices: VertexSet
    classification: Classification
    reaches_W: VertexSet
    zeta: float


@dataclass(frozen=True)
class DecompositionReport:
    """Structure of a graph around a chosen apex vertex.

    N0 holds the isolated vertices of the induced neighborhood, Nplus
    the rest, W everything outside the closed neighborhood.  components
    are the connected pieces of the induced subgraph on Nplus; c counts
    those that are trees.
    """

    apex: int
    N0: VertexSet
    Nplus: VertexSet
    W: VertexSet
    eW: int
    eNW: int
    components: tuple[ApexComponent, ...]
    c: int
    certificate: SpectralCertificate


def decompose_at(g: Graph, apex: Optional[int] = None) -> DecompositionReport:
    """Partition V as {apex} | N0 | Nplus | W and classify the pieces.

    The default apex is the largest Perron coordinate, smallest index on
    ties.  Requires a connected graph.
    """
    if len(components(g)) != 1:
        raise ValueError("decomposition requires a connected graph")
    cert = spectral_radius(g)
    if apex is None:
        apex = perron_argmax(cert)
    elif not 0 <= apex < g.n:
        raise ValueError(f"apex {apex} out of range")
    nbhd = neighborhood(g, apex)
    w = g.vertex_set() - VertexSet(nbhd.bits | (1 << apex))
    n0_bits = 0
    comps = []
    c = 0
    for orig, cls in neighborhood_classifications(g, apex):
        if len(orig) == 1:
            n0_bits |= orig.bits
            continue
        if edge_count_within(g, orig) == len(orig) - 1:
            c += 1
        reach = 0
        z = 0.0
        for v in orig:
            reach |= g.adj[v]
            z += ((g.adj[v] & orig.bits).bit_count() - 1) * cert.perron[v]
        comps.append(ApexComponent(orig, cls, VertexSet(reach & w.bits), z))
    n0 = VertexSet(n0_bits)
    return DecompositionReport(
        apex=apex,
        N0=n0,
        Nplus=nbhd - n0,
        W=w,
        eW=edge_count_within(g, w),
        eNW=edge_count_between(g, nbhd, w),
        components=tuple(comps),
        c=c,
        certificate=cert,
    )


def neighborhood_classifications(
    g: Graph, u: int
) -> list[tuple[VertexSet, Classification]]:
    """Classify every component of the induced neighborhood of u.

    Isolated vertices come back as zero-leaf stars; decompose_at puts
    them in N0.
    """
    nbhd = neighborhood(g, u)
    sub, back = induced_subgraph(g, nbhd)
    out = []
    for comp in components(sub):
        orig = VertexSet.from_iterable(back[i] for i in comp)
        h, _ = induced_subgraph(g, orig)
        out.append((orig, classify_component(h)))
    return out


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
    for w in VertexSet(rot):
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


def _complete_bipartite_plus_isolated(g: Graph) -> bool:
    nontrivial = [c for c in components(g) if len(c) > 1]
    if not nontrivial:
        return g.m == 0
    if len(nontrivial) != 1:
        return False
    h, _ = induced_subgraph(g, nontrivial[0])
    side = is_bipartite(h)
    if not isinstance(side, Bipartition):
        return False
    return h.m == len(side.left) * len(side.right)


def check_lemma25(g: Graph) -> InequalityCheck:
    """Bipartite graphs have rho <= sqrt(m), equal exactly for a complete
    bipartite graph plus isolated vertices."""
    side = is_bipartite(g)
    if not isinstance(side, Bipartition):
        raise ValueError("need a bipartite graph")
    if g.n == 0:
        raise ValueError("empty graph")
    rho = spectral_radius(g).rho
    bound = math.sqrt(g.m)
    structure_equal = _complete_bipartite_plus_isolated(g)
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


def _rho_exceeds_gate(g: Graph, rho: float) -> tuple[bool, float]:
    bound = _rho_gate_bound(g.m)
    if bound is None:
        return True, math.inf
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
    n2 = second_neighborhood(g, rep.apex)
    gate_ok, gate_margin = _rho_exceeds_gate(g, cert.rho)
    hyps = [
        HypothesisCheck("rho_exceeds_gate_bound", gate_ok),
        HypothesisCheck("v_in_second_neighborhood", bool(n2)),
    ]
    lhs = float(rep.eW)
    if not n2:
        extra = {"apex": rep.apex, "gate_margin": gate_margin}
        return _gated("lemma27_outer_edge_bound", hyps, lhs, None, extra)
    v = min(n2, key=lambda w: (cert.perron[w], w))
    coord_ok = cert.perron[v] < (1 - LEMMA27_BETA) * cert.perron[rep.apex]
    hyps.append(HypothesisCheck("perron_coordinate_small_at_v", coord_ok))
    nbhd = neighborhood(g, rep.apex)
    d_nb = len(neighborhood(g, v) & nbhd)
    rhs = edge_count_within(g, nbhd) - len(rep.Nplus) + 1.5 - LEMMA27_BETA * d_nb
    extra = {
        "apex": rep.apex,
        "v": v,
        "beta": LEMMA27_BETA,
        "d_into_neighborhood": d_nb,
        "gate_margin": gate_margin,
    }
    return _gated("lemma27_outer_edge_bound", hyps, lhs, rhs, extra)


def check_eq1(g: Graph, tol: float = 1e-8) -> InequalityCheck:
    """Second-order eigen-equation identity at the apex.

    (rho^2 - rho) * x_apex equals deg(apex) * x_apex
    plus sum over neighborhood non-isolates of (internal degree - 1) * x
    plus sum over distance-two vertices of (edges into neighborhood) * x
    minus sum over neighborhood isolates of x.
    Holds for every connected graph; checked to tol.
    """
    rep = decompose_at(g)
    cert = rep.certificate
    u = rep.apex
    rho = cert.rho
    x = cert.perron
    nbhd = neighborhood(g, u)
    lhs = (rho * rho - rho) * x[u]
    rhs = g.degree(u) * x[u]
    for vtx in rep.Nplus:
        d_in = len(neighborhood(g, vtx) & nbhd)
        rhs += (d_in - 1) * x[vtx]
    for w in second_neighborhood(g, u):
        rhs += len(neighborhood(g, w) & nbhd) * x[w]
    for vtx in rep.N0:
        rhs -= x[vtx]
    return InequalityCheck(
        name="eq1_apex_identity",
        hypotheses=(HypothesisCheck("connected", True),),
        lhs=lhs,
        rhs=rhs,
        strict=False,
        holds=abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs)),
        margin=abs(lhs - rhs),
        exact=False,
        extra={"apex": u, "tolerance": tol},
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
    iso_sum = sum(cert.perron[v] for v in rep.N0) / x_apex
    extra = {
        "apex": rep.apex,
        "c": rep.c,
        "eW_le_1": rep.eW <= 1,
        "c_le_1": rep.c <= 1,
        "gate_margin": gate_margin,
    }
    return _gated("eq4_outer_edge_bound", hyps, float(rep.eW), 1.5 - rep.c - iso_sum, extra)
