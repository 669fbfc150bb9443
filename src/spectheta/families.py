"""Named graph families, their equitable partitions, and closed-form radii.

Families are addressed by a short tag plus integer parameters, e.g.
"S-,n=48,k=2".  Every family but theta is a blow-up of a small
skeleton: each skeleton vertex stands for a class of vertices, which
is independent, a clique, or disjoint copies of K2, and each skeleton
edge joins its two classes completely.  One table holds the skeletons;
the graph, its equitable partition (the classes) and its quotient are
all read off it.  The classes take consecutive labels in table order.

f_poly is the quartic that governs the apex-plus-clique-plus-pendants
family G4; its largest root equals that family's spectral radius,
which the quotient tests pin down exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

from .graphs import Graph, check_vertex_count
from .polynomials import Polynomial, largest_real_root
from .quadratic import QuadExt, largest_root_of_monic_quadratic
from .spectral import Quotient, char_poly
from .theta import check_theta_lengths


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    params: dict


class _Skeleton(NamedTuple):
    names: tuple[str, ...]  # parameters, in the order the lambdas take them
    kinds: str  # per class: "i" independent, "c" clique, "m" disjoint K2 copies
    joins: tuple[tuple[int, int], ...]  # skeleton edges: classes joined completely
    sizes: Callable[..., tuple[int, ...]]  # class sizes, in label order
    checks: tuple[tuple[Callable[..., bool], str], ...]  # (holds, message), in order


_FAMILIES = {
    # k-clique joined to n - k independent vertices
    "S": _Skeleton(
        ("n", "k"), "ci", ((0, 1),),
        lambda n, k: (k, n - k),
        ((lambda n, k: 1 <= k < n, "need 1 <= k < n"),),
    ),
    # S minus the edge between the last clique vertex (the hub) and n-1
    "S-": _Skeleton(
        ("n", "k"), "ciii", ((0, 1), (0, 2), (0, 3), (1, 2)),
        lambda n, k: (k - 1, 1, n - k - 1, 1),
        (
            (lambda n, k: n >= k + 2, "need n >= k + 2 so an edge can be dropped"),
            (lambda n, k: k >= 1, "need 1 <= k < n"),
        ),
    ),
    # star with center 0 and leaf pairs (2i+1, 2i+2) matched for i < k
    "Sk": _Skeleton(
        ("n", "k"), "imi", ((0, 1), (0, 2)),
        lambda n, k: (1, 2 * k, n - 1 - 2 * k),
        (
            (lambda n, k: n >= 1, "need n >= 1"),
            (lambda n, k: 0 <= 2 * k <= n - 1, "need 0 <= 2k <= n - 1"),
        ),
    ),
    # adjacent centers 0 and 1 with a and b leaves
    "D": _Skeleton(
        ("a", "b"), "iiii", ((0, 1), (0, 2), (1, 3)),
        lambda a, b: (1, 1, a, b),
        ((lambda a, b: a >= 1 and b >= 1, "need a, b >= 1"),),
    ),
    # center 0 and r leaves
    "star": _Skeleton(
        ("r",), "ii", ((0, 1),),
        lambda r: (1, r),
        ((lambda r: r >= 0, "need r >= 0"),),
    ),
    # S(k + s, k)
    "split": _Skeleton(
        ("k", "s"), "ci", ((0, 1),),
        lambda k, s: (k, s),
        ((lambda k, s: k >= 1 and s >= 1, "need k >= 1 and s >= 1"),),
    ),
    # apex 0 over star center 1 and its r leaves, plus t pendants at the
    # apex: n = r+t+2, m = 2r+t+1; with t = 1 it is S-(r+3, 2)
    "G4": _Skeleton(
        ("r", "t"), "iiii", ((0, 1), (0, 2), (1, 2), (0, 3)),
        lambda r, t: (1, 1, r, t),
        ((lambda r, t: r >= 1 and t >= 0, "need r >= 1 and t >= 0"),),
    ),
}


# family tags, matched case-insensitively
_ALIASES = {tag.lower(): tag for tag in (*_FAMILIES, "theta")}


def parse_family_spec(text: str) -> FamilySpec:
    """Parse "tag,key=val,..." into a FamilySpec, validating names."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty family spec")
    tag = _ALIASES.get(parts[0].lower())
    if tag is None:
        raise ValueError(f"unknown family tag {parts[0]!r}")
    want = ("p", "q") if tag == "theta" else _FAMILIES[tag].names
    params = {}
    for piece in parts[1:]:
        if "=" not in piece:
            raise ValueError(f"expected key=value, got {piece!r}")
        key, _, val = piece.partition("=")
        key = key.strip()
        if key not in want:
            raise ValueError(f"family {tag} takes {want}, not {key!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise ValueError(f"parameter {key}={val!r} is not an integer") from None
    missing = [k for k in want if k not in params]
    if missing:
        raise ValueError(f"family {tag} missing parameters {missing}")
    return FamilySpec(tag, params)


def make_theta(p: int, q: int) -> Graph:
    """Anchors 0 and 1 joined by an edge plus paths of p and q edges.

    Internal vertices are 2..p for the first path and p+1..p+q-1 for
    the second.
    """
    check_theta_lengths(p, q)
    check_vertex_count(p + q)
    edges = [(0, 1)]
    chain = [0] + list(range(2, p + 1)) + [1]
    edges += list(zip(chain, chain[1:]))
    chain = [0] + list(range(p + 1, p + q)) + [1]
    edges += list(zip(chain, chain[1:]))
    return Graph.from_edges(p + q, edges)


def _classes(spec: FamilySpec) -> tuple[_Skeleton, tuple[int, ...], list[int]]:
    """The skeleton of spec's family, its class sizes and first labels."""
    skel = _FAMILIES.get(spec.tag)
    if skel is None:
        raise ValueError(f"no skeleton for family tag {spec.tag!r}")
    args = [spec.params[k] for k in skel.names]
    for holds, message in skel.checks:
        if not holds(*args):
            raise ValueError(message)
    sizes = skel.sizes(*args)
    return skel, sizes, list(accumulate(sizes, initial=0))


def make_graph(spec: FamilySpec) -> Graph:
    """The family member spec names, classes laid out in table order."""
    if spec.tag == "theta":
        return make_theta(spec.params["p"], spec.params["q"])
    skel, sizes, starts = _classes(spec)
    check_vertex_count(starts[-1])
    blocks = [((1 << size) - 1) << start for size, start in zip(sizes, starts)]
    outside = [0] * len(sizes)
    for i, j in skel.joins:
        outside[i] |= blocks[j]
        outside[j] |= blocks[i]
    rows = []
    for kind, start, end, block, out in zip(skel.kinds, starts, starts[1:], blocks, outside):
        for v in range(start, end):
            if kind == "c":
                inside = block ^ (1 << v)
            elif kind == "m":
                inside = 1 << (start + ((v - start) ^ 1))
            else:
                inside = 0
            rows.append(out | inside)
    return Graph(starts[-1], rows)


def family_partition(spec: FamilySpec) -> tuple[tuple[int, ...], ...]:
    """The equitable partition of make_graph(spec): its non-empty classes."""
    _, _, starts = _classes(spec)
    return tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]) if b > a)


def f_poly(m: int, t: int) -> Polynomial:
    """x^4 - m x^2 - (m-t-1) x + t(m-t-1)/2 as an integer polynomial.

    Defined when m >= t+3 and m-t-1 is even, the parity that makes the
    pendant count t and edge count m realizable together in G4.
    """
    if t < 0:
        raise ValueError("need t >= 0")
    if m < t + 3:
        raise ValueError("need m >= t + 3")
    if (m - t - 1) % 2 != 0:
        raise ValueError(f"parity violation: m - t - 1 = {m - t - 1} is odd")
    const2 = t * (m - t - 1)  # twice the constant term, always even here
    return Polynomial([const2 // 2, -(m - t - 1), -m, 0, 1])


@dataclass(frozen=True)
class RhoDescriptor:
    """Spectral radius with whatever exactness is available.

    exact is a QuadExt when the radius lives in a quadratic field,
    poly is an integer polynomial having the radius as largest root,
    value is always the float.
    """

    value: float
    exact: Optional[QuadExt] = None
    poly: Optional[Polynomial] = None


def _quotient(spec: FamilySpec) -> Quotient:
    """The quotient of make_graph(spec) over family_partition(spec).

    Entry (i, j) is the number of neighbours a vertex of class i has in
    class j: the size of j when the skeleton joins i and j, size - 1 on
    a clique's diagonal, 1 on a K2 class's, else 0.
    """
    skel, sizes, _ = _classes(spec)
    joined = {*skel.joins, *((j, i) for i, j in skel.joins)}
    live = [i for i, size in enumerate(sizes) if size]
    entries = []
    for a, i in enumerate(live):
        row = [sizes[j] if (i, j) in joined else 0 for j in live]
        row[a] = {"i": 0, "c": sizes[i] - 1, "m": 1}[skel.kinds[i]]
        entries.append(tuple(row))
    return tuple(entries)


def closed_form_rho(spec: FamilySpec) -> RhoDescriptor:
    """Exact spectral radius read off the skeleton's quotient B.

    With P the class indicator matrix, A P = P B, so A^j 1 = P B^j 1
    and the radius of A is that of B for every blow-up, disconnected
    ones included: the largest root of B's characteristic polynomial,
    exact in Q(sqrt d) up to degree 2, an integer polynomial with its
    correctly rounded largest root beyond.  theta, not a blow-up,
    raises ValueError.
    """
    poly = char_poly(_quotient(spec))
    if poly.degree == 1:
        ex = QuadExt(-poly.coeffs[0])
    elif poly.degree == 2:
        ex = largest_root_of_monic_quadratic(poly.coeffs[1], poly.coeffs[0])
    else:
        return RhoDescriptor(largest_real_root(poly), poly=poly)
    return RhoDescriptor(float(ex), exact=ex)
