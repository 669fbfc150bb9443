"""Named graph families, their quotient partitions, and closed-form radii.

Families are addressed by a short tag plus integer parameters, e.g.
"S-,n=48,k=2".  Vertex labeling conventions are fixed and documented per
constructor so that quotient partitions can be written down once.

f_poly is the quartic that governs the apex-plus-clique-plus-pendants
family below (make_G4); its largest root equals that family's spectral
radius, which the quotient tests pin down exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph
from .polynomials import Polynomial, largest_real_root
from .quadratic import QuadExt, largest_root_of_monic_quadratic
from .spectral import NonEquitableWitness, is_equitable


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    params: dict


_ALIASES = {
    "s": "S",
    "s_nk": "S",
    "s-": "S-",
    "s_nk_minus": "S-",
    "sk": "Sk",
    "s_n_k_matching": "Sk",
    "d": "D",
    "double_star": "D",
    "star": "star",
    "theta": "theta",
    "split": "split",
    "complete_split": "split",
    "g4": "G4",
}


def parse_family_spec(text: str) -> FamilySpec:
    """Parse "tag,key=val,..." into a FamilySpec, validating names."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty family spec")
    tag = _ALIASES.get(parts[0].lower())
    if tag is None:
        raise ValueError(f"unknown family tag {parts[0]!r}")
    want = _FAMILIES[tag][1]
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


def make_S(n: int, k: int) -> Graph:
    """Clique on 0..k-1 joined completely to independent k..n-1."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    edges = [(i, j) for i in range(k) for j in range(i + 1, n)]
    return Graph.from_edges(n, edges)


def make_S_minus(n: int, k: int) -> Graph:
    """make_S(n, k) minus the edge between vertices n-1 and k-1."""
    if n < k + 2:
        raise ValueError("need n >= k + 2 so an edge can be dropped")
    return make_S(n, k).without_edge(n - 1, k - 1)


def make_star(r: int) -> Graph:
    """Star with center 0 and r leaves."""
    if r < 0:
        raise ValueError("need r >= 0")
    return Graph.from_edges(r + 1, [(0, i) for i in range(1, r + 1)])


def make_star_matching(n: int, k: int) -> Graph:
    """Star on n vertices with k disjoint edges added between leaves.

    Center 0; matched leaf pairs are (2i+1, 2i+2) for i < k.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0 or 2 * k > n - 1:
        raise ValueError("need 0 <= 2k <= n - 1")
    edges = [(0, i) for i in range(1, n)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(k)]
    return Graph.from_edges(n, edges)


def make_double_star(a: int, b: int) -> Graph:
    """Adjacent centers 0 and 1 with a leaves on 0 and b leaves on 1."""
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph.from_edges(2 + a + b, edges)


def make_theta(p: int, q: int) -> Graph:
    """Anchors 0 and 1 joined by an edge plus paths of p and q edges.

    Internal vertices are 2..p for the first path and p+1..p+q-1 for
    the second.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    if q < p:
        raise ValueError("need p <= q")
    edges = [(0, 1)]
    chain = [0] + list(range(2, p + 1)) + [1]
    edges += list(zip(chain, chain[1:]))
    chain = [0] + list(range(p + 1, p + q)) + [1]
    edges += list(zip(chain, chain[1:]))
    return Graph.from_edges(p + q, edges)


def make_complete_split(k: int, s: int) -> Graph:
    """Clique 0..k-1 joined to independent set of s further vertices."""
    if k < 1 or s < 1:
        raise ValueError("need k >= 1 and s >= 1")
    return make_S(k + s, k)


def make_G4(r: int, t: int) -> Graph:
    """Apex over a star plus pendant edges at the apex.

    Vertex 0 (apex) is adjacent to 1 (star center), to the r star leaves
    2..r+1, and to t pendants r+2..r+t+1.  So n = r+t+2, m = 2r+t+1.
    With t = 1 this is make_S_minus(r+3, 2) up to isomorphism.
    """
    if r < 1 or t < 0:
        raise ValueError("need r >= 1 and t >= 0")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(r)]
    edges += [(1, 2 + i) for i in range(r)]
    edges += [(0, r + 2 + i) for i in range(t)]
    return Graph.from_edges(r + t + 2, edges)


def f_poly(m: int, t: int) -> Polynomial:
    """x^4 - m x^2 - (m-t-1) x + t(m-t-1)/2 as an integer polynomial.

    Defined when m >= t+3 and m-t-1 is even, the parity that makes the
    pendant count t and edge count m realizable together in make_G4.
    """
    if t < 0:
        raise ValueError("need t >= 0")
    if m < t + 3:
        raise ValueError("need m >= t + 3")
    if (m - t - 1) % 2 != 0:
        raise ValueError(f"parity violation: m - t - 1 = {m - t - 1} is odd")
    const2 = t * (m - t - 1)  # twice the constant term, always even here
    return Polynomial([const2 // 2, -(m - t - 1), -m, 0, 1])


def g4_partition(r: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Equitable partition of make_G4: apex / center / leaves / pendants."""
    blocks = [
        (0,),
        (1,),
        tuple(range(2, r + 2)),
    ]
    if t:
        blocks.append(tuple(range(r + 2, r + t + 2)))
    return tuple(blocks)


def split_partition(k: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Equitable partition of make_complete_split, which is make_S(k+s, k)."""
    return s_partition(k + s, k)


def s_partition(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return (tuple(range(k)), tuple(range(k, n)))


def s_minus_partition(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Equitable only for k = 2: clique split apart, damaged leaf alone."""
    if k != 2:
        raise ValueError("partition written down for k = 2 only")
    return ((0,), (1,), tuple(range(2, n - 1)), (n - 1,))


def star_partition(r: int) -> tuple[tuple[int, ...], ...]:
    """Equitable partition of make_star: center / leaves."""
    return ((0,), tuple(range(1, r + 1))) if r else ((0,),)


# tag -> (constructor, its parameter names in call order, equitable
# partition taking the same parameters, or None)
_FAMILIES = {
    "S": (make_S, ("n", "k"), s_partition),
    "S-": (make_S_minus, ("n", "k"), s_minus_partition),
    "Sk": (make_star_matching, ("n", "k"), None),
    "D": (make_double_star, ("a", "b"), None),
    "star": (make_star, ("r",), star_partition),
    "theta": (make_theta, ("p", "q"), None),
    "split": (make_complete_split, ("k", "s"), split_partition),
    "G4": (make_G4, ("r", "t"), g4_partition),
}


def make_graph(spec: FamilySpec) -> Graph:
    if spec.tag not in _FAMILIES:
        raise ValueError(f"unknown family tag {spec.tag!r}")
    maker, names, _ = _FAMILIES[spec.tag]
    return maker(*(spec.params[k] for k in names))


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


def closed_form_rho(spec: FamilySpec) -> RhoDescriptor:
    """Exact spectral radius read off the family's equitable quotient.

    Every family with a partition is connected, so the Perron vector is
    constant on the blocks and the radius is the largest root of the
    quotient's characteristic polynomial: exact in Q(sqrt d) up to
    degree 2, an integer polynomial with its correctly rounded largest
    root beyond.  A family without a partition, or a member on which
    the partition is not equitable, raises ValueError.
    """
    g = make_graph(spec)
    _, names, partition = _FAMILIES[spec.tag]
    if partition is None:
        raise ValueError(f"no closed form registered for family {spec.tag!r}")
    quo = is_equitable(g, partition(*(spec.params[k] for k in names)))
    if isinstance(quo, NonEquitableWitness):
        raise ValueError(f"partition of {spec.tag!r} is not equitable: {quo}")
    poly = quo.char_poly()
    if poly.degree == 1:
        ex = QuadExt(-poly.coeffs[0])
    elif poly.degree == 2:
        ex = largest_root_of_monic_quadratic(poly.coeffs[1], poly.coeffs[0])
    else:
        return RhoDescriptor(largest_real_root(poly), poly=poly)
    return RhoDescriptor(float(ex), exact=ex)
