"""Detectors for theta subgraphs (not induced: extra edges are allowed).

A theta witness for lengths (p, q) is a pair of anchor vertices joined by
an edge plus two internally disjoint paths between them of p and q edges.
With p, q >= 2 the three routes are pairwise internally disjoint, so the
union is a subdivided triple edge.

The main detector fixes each edge uv with both degrees at least 3 as the
anchors and searches for the two paths depth-first, pruned by the balls
around v (int masks, built once per v in each call).  A separate brute-force
injection oracle (tiny patterns only) exists so the detector never has
to be trusted on its own word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, _iter_bits

DETECTOR_VERSION = "1"


@dataclass(frozen=True)
class ThetaWitness:
    """Anchor edge plus the two internally disjoint paths, as vertex lists.

    Both paths run from anchors[0] to anchors[1] inclusive.
    """

    anchors: tuple[int, int]
    path_p: tuple[int, ...]
    path_q: tuple[int, ...]

    def validate(self, g: Graph) -> None:
        u, v = self.anchors
        if not g.has_edge(u, v):
            raise ValueError("anchors not adjacent")
        for path in (self.path_p, self.path_q):
            if path[0] != u or path[-1] != v:
                raise ValueError("path does not join the anchors")
            if len(set(path)) != len(path):
                raise ValueError("path revisits a vertex")
            for a, b in zip(path, path[1:]):
                if not g.has_edge(a, b):
                    raise ValueError(f"missing path edge ({a},{b})")
        inner_p = set(self.path_p[1:-1])
        inner_q = set(self.path_q[1:-1])
        if inner_p & inner_q:
            raise ValueError("paths share an internal vertex")
        if u in inner_p or v in inner_p or u in inner_q or v in inner_q:
            raise ValueError("anchor appears inside a path")


def _balls(g: Graph, v: int, radius: int) -> list[int]:
    """Masks B_0 ⊆ ... ⊆ B_radius, B_d the vertices within distance d of v."""
    ball = frontier = 1 << v
    balls = [ball]
    for _ in range(radius):
        grown = 0
        for w in _iter_bits(frontier):
            grown |= g.adj[w]
        frontier = grown & ~ball
        ball |= frontier
        balls.append(ball)
    return balls


def _paths(g, u, v, length, blocked, ball_v):
    """Yield simple u..v paths with `length` edges avoiding blocked bits.

    v itself may not appear as an intermediate vertex, and with `left`
    edges to go the next one lies in ball_v[left - 1].  Neighbors are
    tried in ascending order, so the first witness is deterministic.
    """
    stack = [u]

    def rec(cur, used, left):
        if left == 1:
            if (g.adj[cur] >> v) & 1:
                stack.append(v)
                yield tuple(stack)
                stack.pop()
            return
        cand = g.adj[cur] & ~used & ~(1 << v) & ball_v[left - 1]
        for w in _iter_bits(cand):
            stack.append(w)
            yield from rec(w, used | (1 << w), left - 1)
            stack.pop()

    yield from rec(u, blocked | (1 << u), length)


def check_theta_lengths(p: int, q: int) -> None:
    """Refuse path lengths outside 2 <= p <= q."""
    if p < 2:
        raise ValueError("first path length must be at least 2")
    if q < p:
        raise ValueError("path lengths must satisfy p <= q")


def contains_theta(g: Graph, p: int, q: int) -> Optional[ThetaWitness]:
    """First witness of a theta subgraph with path lengths (1, p, q).

    The direct anchor edge is the length-1 route; p and q count edges on
    the other two routes.  Requires 2 <= p <= q.  Returns None when no
    witness exists.
    """
    check_theta_lengths(p, q)
    need_n = p + q
    need_m = p + q + 1
    if g.n < need_n or g.m < need_m:
        return None
    # an anchor meets the anchor edge and both paths: degree at least 3
    hubs = sum(1 << u for u, row in enumerate(g.adj) if row.bit_count() >= 3)
    balls: dict[int, list[int]] = {}
    for u in _iter_bits(hubs):
        for v in _iter_bits(g.adj[u] & hubs & ~((2 << u) - 1)):
            ball_v = balls.get(v)
            if ball_v is None:
                ball_v = balls[v] = _balls(g, v, q - 1)
            for path_p in _paths(g, u, v, p, 0, ball_v):
                inner = 0
                for w in path_p[1:-1]:
                    inner |= 1 << w
                for path_q in _paths(g, u, v, q, inner, ball_v):
                    w = ThetaWitness((u, v), path_p, path_q)
                    w.validate(g)
                    return w
    return None


def is_theta133_free(g: Graph) -> bool:
    return contains_theta(g, 3, 3) is None


def oracle_contains_subgraph(g: Graph, h: Graph) -> bool:
    """Injection test: does g contain a (not necessarily induced) copy of h?

    Plain backtracking over vertex maps with edge consistency checked on
    each prefix.  Pattern vertices are tried in descending degree order
    and nothing cleverer, which is the point: this is the slow second
    opinion for the real detector.  Capped at 8 pattern vertices.
    """
    if h.n > 8:
        raise ValueError("oracle capped at 8 pattern vertices")
    if h.n > g.n or h.m > g.m:
        return False
    order = sorted(range(h.n), key=lambda v: -h.degree(v))
    # for each position, the earlier positions it must be adjacent to
    req = []
    for i, hv in enumerate(order):
        req.append([j for j in range(i) if h.has_edge(hv, order[j])])

    assign = [-1] * h.n
    used = [False] * g.n

    def rec(i):
        if i == len(order):
            return True
        for gv in range(g.n):
            if used[gv]:
                continue
            ok = True
            for j in req[i]:
                if not g.has_edge(gv, assign[j]):
                    ok = False
                    break
            if ok:
                used[gv] = True
                assign[i] = gv
                if rec(i + 1):
                    return True
                used[gv] = False
                assign[i] = -1
        return False

    return rec(0)
