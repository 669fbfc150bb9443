"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from hypothesis import HealthCheck, settings, strategies as st

from spectheta.families import make_graph, parse_family_spec
from spectheta.graphs import Graph
from spectheta.polynomials import Polynomial
from spectheta.theta import ThetaWitness

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, picks)


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8) -> Graph:
    """Random tree plus extra edges, so connectivity holds by construction."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    pairs = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, edges + list(extra))


def edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of g as pairs u < v, in ascending order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
    """G[S] relabeled 0..|S|-1 in ascending vertex order, and the map back
    (index i of the copy is vertex back[i] of g): the reference that the
    code reading S in place as a mask of g is checked against."""
    back = tuple(v for v in range(g.n) if (s >> v) & 1)
    pos = {v: i for i, v in enumerate(back)}
    inside = [(pos[u], pos[v]) for u, v in edges(g) if u in pos and v in pos]
    return Graph.from_edges(len(back), inside), back


def edited(g: Graph, add=(), drop=(), n: Optional[int] = None) -> Graph:
    """g on n vertices (default g.n) with the edges of add put in and
    those of drop, which must be present, taken out."""
    gone = {(min(e), max(e)) for e in drop}
    kept = edges(g)
    assert gone <= set(kept), "dropping an edge that is not there"
    return Graph.from_edges(g.n if n is None else n, [e for e in kept if e not in gone] + list(add))


def at(p: Polynomial, x) -> Fraction:
    """p(x), exactly."""
    x = Fraction(x)
    return sum((c * x**k for k, c in enumerate(p.coeffs)), Fraction(0))


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in edges(g)])


def member(text: str) -> Graph:
    """The family member a spec such as "S-,n=10,k=2" names."""
    return make_graph(parse_family_spec(text))


def reference_char_poly(matrix) -> Polynomial:
    """det(xI - M) by the Faddeev-LeVerrier recurrence over Python ints,
    the reference that the power-trace char_poly is checked against:
    M_1 = M, c_k = -tr(M M_(k-1))/k, M_k = M M_(k-1) + c_k I."""
    n = len(matrix)
    sparse = [[(j, a) for j, a in enumerate(r) if a] for r in matrix]
    N = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        MN = []
        for i in range(n):
            acc = [0] * n
            for j, a in sparse[i]:
                acc = [s + a * t for s, t in zip(acc, N[j])]
            MN.append(acc)
        tr = sum(MN[i][i] for i in range(n))
        assert tr % k == 0, "non-integer trace division in recurrence"
        c = -(tr // k)
        coeffs.append(c)
        for i in range(n):
            MN[i][i] += c
        N = MN
    return Polynomial(list(reversed(coeffs)))


def reference_contains_theta(g: Graph, p: int, q: int) -> Optional[ThetaWitness]:
    """The theta detector before ball pruning, kept as the reference its
    witnesses are checked against: a whole-graph BFS from v for every
    anchor edge uv, and a distance test on each path step."""
    if g.n < p + q or g.m < p + q + 1:
        return None
    nbrs = [[y for y in range(g.n) if g.has_edge(x, y)] for x in range(g.n)]
    for u, v in edges(g):
        if len(nbrs[u]) < 3 or len(nbrs[v]) < 3:
            continue
        dist = [g.n + 1] * g.n
        dist[v], frontier, d = 0, [v], 0
        while frontier:
            d += 1
            frontier = list(dict.fromkeys(y for x in frontier for y in nbrs[x] if dist[y] > g.n))
            for y in frontier:
                dist[y] = d

        def paths(length, blocked):
            def rec(path, left):
                cur = path[-1]
                if left == 1:
                    if g.has_edge(cur, v):
                        yield tuple(path) + (v,)
                    return
                for w in nbrs[cur]:
                    if w != v and w not in path and w not in blocked:
                        if dist[w] <= left - 1:
                            yield from rec(path + [w], left - 1)

            yield from rec([u], length)

        for path_p in paths(p, ()):
            for path_q in paths(q, path_p[1:-1]):
                return ThetaWitness((u, v), path_p, path_q)
    return None
