"""Isomorph-free enumeration of graphs by edge count, and extremal search.

Canonical form: per connected component, iterated signature refinement
followed by branch-and-bound over the remaining cell orderings, taking
the lexicographically least graph6 payload.  Each leaf of the search
packs the payload's bits into one int, which compares as the payload
does, and the payload and rows are built once, for the least leaf.
The growth below keys its classes by the vertex count and that int, so
it builds the payload and rows only for a class it has not seen.
Each refinement pass counts neighbors only into the cells the previous
pass split off (McKay and Piperno's splitters), which yields the same
partitions as counting into every cell.  Cells whose members are mutual
twins (all open neighborhoods equal, or all closed neighborhoods equal)
never need branching, which keeps stars, cliques, and matchings cheap.
Component canonical strings are sorted and the blocks reassembled, so
the whole-graph form is label-invariant.

Enumeration of the graphs with m edges and no isolated vertices runs in
two stages, on canonical strings and raw adjacency rows:

1. Connected classes.  Those with e edges are grown from those with e-1
   edges by joining two non-adjacent vertices or hanging a new vertex on
   an existing one.  Only the children whose new element is the one with
   the largest key are kept (the invariant stage of McKay's acceptance
   test), and those are deduplicated by the connected canonical form.
   The removable elements R(G) of a connected graph G are its leaves if
   it has any, and otherwise its cycle edges.  A leaf on u has key
   kappa(u), and an edge ab has key (max, min) of kappa(a), kappa(b),
   where kappa(x) = (deg x, sum of the degrees of x's neighbours).  A
   child is kept when no element of R(child) has a larger key than its
   new leaf or edge.  A join's new edge lies on a cycle, so a join child
   with a leaf is never kept, and only pairs that cover every leaf of
   the parent are joined: none when it has three leaves or more.  Each
   parent's keys are computed once, and a child's are updated from them
   where the new element changes them.  This finds every class.  R(G) is
   non-empty for G with an edge, because a leafless connected graph with
   an edge has a cycle.
   Removing an element of R(G) leaves a connected graph with e-1 edges.
   So take x in R(G) with the largest key and remove it.  What is left
   is isomorphic to a class with e-1 edges, and the join or hang that
   adds x back to that class makes a child isomorphic to G whose new
   element is x.  Keys are invariant, so nothing in R(child) beats x,
   and that child is kept.  Tied keys let several isomorphic children
   through, hence the deduplication.
2. All classes.  A class with m edges is a multiset of connected classes
   whose edge counts sum to m, and its canonical form is the sorted
   component forms reassembled, exactly as canonical_form builds it.

labeled_class_count checks the number of classes by Burnside's lemma, in
integers, with no graph and no canonical form.

Given a pattern theta(1,p,q), stage 1 grows each level from the
pattern-free classes of the level below and runs the detector only on
the classes with no leaf.  A kept class with a leaf is a hang child of
a free parent, and theta has minimum degree 2, so a copy of it misses
the new leaf and would lie in the parent.

extremal_search builds only the pattern-free classes of stage 1.  It
counts the pattern-free classes with m edges as multisets of them (the
Euler transform), takes the count of all classes from Burnside's lemma,
and ranks only the pattern-free connected classes with m edges: its
docstring proves that a disconnected graph never wins or ties.  It ranks
them a vertex count at a time, smallest first, and stops where Hong's
bound shows that no larger vertex count can reach the best radius found.
It builds a Graph only for a vertex count it ranks, and with jobs > 1 a
process pool computes that vertex count's radii.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from collections import Counter
from contextlib import nullcontext
from functools import lru_cache
from itertools import groupby
from math import comb, factorial, gcd, lcm, prod, sqrt
from typing import Iterator, Optional, Sequence

from .graphs import (
    Graph,
    _graph6_header,
    _graph6_payload,
    _iter_bits,
    _refine,
    components,
)
from .spectral import spectral_radii, spectral_radius
from .theta import DETECTOR_VERSION, contains_theta

CANON_MAX_VERTICES = 32

CACHE_ENV = "SPECTHETA_CACHE_DIR"

Rows = tuple[int, ...]  # adjacency bitsets, one per vertex


def _is_twin_cell(adj: Sequence[int], cell: list[int]) -> bool:
    """All-equal open neighborhoods or all-equal closed neighborhoods.

    Either way every transposition inside the cell is an automorphism,
    so the cell's internal order cannot affect the canonical payload.
    """
    first = cell[0]
    if all(adj[v] == adj[first] for v in cell[1:]):
        return True
    cf = adj[first] | (1 << first)
    return all(adj[v] | (1 << v) == cf for v in cell[1:])


def _least_leaf(adj: Sequence[int], comp: int) -> tuple[int, dict[int, int]]:
    """The least leaf of the canonical search on the connected component
    comp of the graph with rows adj: its graph6 payload bits packed into
    one int, and its order, each vertex's position in 0..|comp|-1.  Two
    components with the same vertex count are isomorphic iff their least
    leaves' ints are equal."""
    best: list = [None, None]

    def descend(cells: list[list[int]], splitters: list[list[int]]) -> None:
        cells = _refine(adj, cells, splitters)
        branch_at = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1 and not _is_twin_cell(adj, cell):
                branch_at = i
                break
        if branch_at < 0:
            # the payload's bits, column j (its pairs (i, j), i < j) after
            # column j - 1, so ints compare as the payloads do
            bits = earlier = 0
            pos: dict[int, int] = {}
            for cell in cells:
                for v in cell:
                    j = len(pos)
                    column = 0
                    a = adj[v] & earlier
                    while a:
                        low = a & -a
                        column |= 1 << j - 1 - pos[low.bit_length() - 1]
                        a ^= low
                    bits = bits << j | column
                    pos[v] = j
                    earlier |= 1 << v
            if best[0] is None or bits < best[0]:
                best[:] = bits, pos
            return
        cell = cells[branch_at]
        for v in cell:
            rest = [w for w in cell if w != v]
            descend(cells[:branch_at] + [[v], rest] + cells[branch_at + 1:], [[v]])

    unit = [list(_iter_bits(comp))]
    descend(unit, unit)
    return best[0], best[1]


def _placed(adj: Sequence[int], pos: dict[int, int]) -> tuple[str, Rows]:
    """The graph6 string and the rows of the vertices of pos, each moved
    to its position."""
    rows = [0] * len(pos)
    for v, j in pos.items():
        a = adj[v]
        while a:
            low = a & -a
            rows[j] |= 1 << pos[low.bit_length() - 1]
            a ^= low
    return _graph6_header(len(rows)) + _graph6_payload(len(rows), rows), tuple(rows)


def _canon_connected_g6(adj: Sequence[int], comp: int) -> tuple[str, Rows]:
    """Canonical graph6 string of the connected component comp of the
    graph with rows adj, and the rows it encodes on 0..|comp|-1."""
    return _placed(adj, _least_leaf(adj, comp)[1])


def _union_g6(parts: list[tuple[str, Rows]]) -> tuple[str, Rows]:
    """Canonical form of a disjoint union and the rows it encodes, given
    the form and rows of each part.

    The blocks are laid out in sorted order of their forms, so the result
    does not depend on the order the parts come in.  No parts give the
    empty graph.
    """
    blocks = sorted(parts)
    if len(blocks) == 1:
        return blocks[0]
    rows: list[int] = []
    for _, block in blocks:
        offset = len(rows)
        rows.extend(row << offset for row in block)
    return _graph6_header(len(rows)) + _graph6_payload(len(rows), rows), tuple(rows)


def canonical_form(g: Graph) -> str:
    """graph6 string invariant under relabeling; vertices capped at 32."""
    if g.n > CANON_MAX_VERTICES:
        raise ValueError(f"canonical form capped at {CANON_MAX_VERTICES} vertices")
    return _union_g6([_canon_connected_g6(g.adj, comp) for comp in components(g)])[0]


def _is_bridge(rows: list[int], a: int, b: int) -> bool:
    """Whether dropping the edge ab disconnects a from b."""
    reached = 1 << a
    frontier = rows[a] & ~(1 << b)
    while frontier:
        if (frontier >> b) & 1:
            return False
        reached |= frontier
        grown = 0
        for x in _iter_bits(frontier):
            grown |= rows[x]
        frontier = grown & ~reached
    return True


def _children(adj: Rows) -> Iterator[list[int]]:
    """The rows of the children of the connected graph with rows adj that
    pass the acceptance test: joins, then hangs.

    kappa(x) is the int deg x << 16 | (sum of the degrees of x's
    neighbours), ordered as the pair is below 32,768 edges.  The parent's
    keys are computed once: a hang on u changes kappa only at u and its
    neighbours, and a join uv only at u, v and their neighbours.
    """
    n = len(adj)
    deg = [row.bit_count() for row in adj]
    edges = [(a, b) for a in range(n) for b in _iter_bits(adj[a] & ~((2 << a) - 1))]
    kappa = [d << 16 for d in deg]
    for a, b in edges:
        kappa[a] += deg[b]
        kappa[b] += deg[a]
    leaves = [x for x in range(n) if deg[x] == 1]
    # a join child keeps every leaf of the parent that it does not cover
    if len(leaves) > 2:
        pairs = []
    elif len(leaves) == 2:
        pairs = [leaves]
    elif leaves:
        pairs = [(leaves[0], v) for v in range(n) if v != leaves[0]]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in pairs:
        if (adj[u] >> v) & 1:
            continue
        key = kappa.copy()
        key[u] += 1 << 16 | deg[v] + 1
        key[v] += 1 << 16 | deg[u] + 1
        for y in _iter_bits(adj[u]):
            key[y] += 1
        for y in _iter_bits(adj[v]):
            key[y] += 1
        top = max(key[u], key[v]), min(key[u], key[v])
        rows = list(adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        # the new edge has the largest key among the cycle edges
        if all((max(key[a], key[b]), min(key[a], key[b])) <= top or _is_bridge(rows, a, b)
               for a, b in edges):
            yield rows
    anchors = [(x, adj[x].bit_length() - 1) for x in leaves]
    for u in range(n):
        # the new leaf's anchor u has the largest key among the leaves'
        # anchors, whose sums grow by one where they neighbour u
        top = kappa[u] + (1 << 16 | 1)
        if all(kappa[a] + ((adj[u] >> a) & 1) <= top for x, a in anchors if x != u):
            rows = list(adj) + [1 << u]
            rows[u] |= 1 << n
            yield rows


@lru_cache(maxsize=None)
def _connected_classes(e: int, pattern: Optional[tuple] = None) -> tuple[tuple[str, Rows], ...]:
    """Canonical strings and rows of the connected graphs with e edges, sorted
    by string; given pattern = (p, q), only those with no theta(1,p,q), grown
    from the free ones with e-1 edges, as a canonical parent is a subgraph."""
    if e == 0:
        return (("@", (0,)),)  # K1, which the hang step turns into K2
    seen: dict[tuple[int, int], tuple[str, Rows]] = {}  # (n, least leaf) -> form, rows
    # an unfiltered level is cached under (e,) alone, however it is reached
    for _, adj in _connected_classes(e - 1, pattern) if pattern else _connected_classes(e - 1):
        for rows in _children(adj):
            n = len(rows)
            bits, pos = _least_leaf(rows, (1 << n) - 1)
            if (n, bits) not in seen:
                seen[n, bits] = _placed(rows, pos)
    # a class with a leaf is a hang child of a free parent, so it is free
    return tuple(sorted((form, rows) for form, rows in seen.values() if pattern is None
                        or any(row.bit_count() == 1 for row in rows)
                        or contains_theta(Graph(len(rows), rows), *pattern) is None))


@lru_cache(maxsize=None)
def _iso_classes(m: int) -> tuple[Graph, ...]:
    # every connected class with 1..m edges, in ascending edge count
    parts = [(e, c) for e in range(1, m + 1) for c in _connected_classes(e)]
    forms: list[tuple[str, Rows]] = []
    chosen: list[tuple[str, Rows]] = []

    def pick(left: int, start: int) -> None:
        # multisets as non-decreasing index sequences into parts
        if left == 0:
            forms.append(_union_g6(chosen))
            return
        for i in range(start, len(parts)):
            e, c = parts[i]
            if e > left:
                return
            chosen.append(c)
            pick(left - e, i)
            chosen.pop()

    pick(m, 0)
    return tuple(Graph(len(rows), rows) for _, rows in sorted(forms))


def enumerate_by_size(m: int, budget: int = 12) -> tuple[Graph, ...]:
    """All graphs with m edges and no isolated vertices, one per class.

    The budget guards against accidental huge sweeps; class counts grow
    roughly threefold per added edge.
    """
    _check_size(m, budget)
    return _iso_classes(m)


def _check_size(m: int, budget: int) -> None:
    """Refuse a negative m, and an m above the budget."""
    if m < 0:
        raise ValueError("need m >= 0")
    if m > budget:
        raise ValueError(f"budget exceeded: m={m} > budget={budget}")


def _partitions(n: int, top: int) -> Iterator[list[int]]:
    """Partitions of n into parts of at most top, largest first."""
    if n == 0:
        yield []
    for k in range(min(n, top), 0, -1):
        yield from ([k] + rest for rest in _partitions(n - k, k))


def labeled_class_count(m: int) -> int:
    """Isomorphism classes with m edges and no isolated vertices, by
    Burnside's lemma over the graphs on n = 2m vertices with m edges
    (Harary and Palmer, Graphical Enumeration, ch. 4), in plain integers.

    A k-cycle gives (k-1)//2 pair cycles of length k and, for even k, one
    of length k/2; cycles of lengths a and b give gcd(a, b) of length
    lcm(a, b).  A permutation fixes the coefficient of x^m in the product
    of 1 + x^|c| over its pair cycles c, and its type occurs n!/z times.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    n = 2 * m
    total = 0
    for parts in _partitions(n, n):
        pairs = Counter()  # pair cycle length -> how many
        for i, a in enumerate(parts):
            pairs[a] += (a - 1) // 2
            if a % 2 == 0:
                pairs[a // 2] += 1
            for b in parts[i + 1:]:
                pairs[lcm(a, b)] += gcd(a, b)
        coeffs = [1] + [0] * m  # of x^0..x^m in the product so far
        for length, count in pairs.items():
            if length <= m:
                coeffs = [sum(comb(count, j) * coeffs[k - length * j]
                              for j in range(k // length + 1)) for k in range(m + 1)]
        z = prod(parts) * prod(factorial(c) for c in Counter(parts).values())
        total += factorial(n) // z * coeffs[m]
    classes, rest = divmod(total, factorial(n))
    if rest:
        raise ArithmeticError(f"Burnside sum {total} is not a multiple of {n}!")
    return classes


_SEARCH_BUDGET = 14  # the largest m extremal_search takes

_SCOPE_NOTE = (
    "exhaustive over isomorphism classes with this edge count and no"
    " isolated vertices; radii by certified power iteration"
)


# radii this close to the best count as ties for the argmax
_TIE_TOL = 1e-9

# Hong's bound prunes a vertex count only when it falls this far below the
# best radius, far above the power iteration's error, so that no graph
# within _TIE_TOL of the best is ever pruned
_HONG_SLACK = 1e-6


def _multisets(counts: list[int]) -> int:
    """Multisets of parts whose sizes sum to m = len(counts), given
    counts[e - 1] kinds of part of size e: the coefficient of x^m in the
    product of (1 - x^e)^-counts[e - 1], the Euler transform."""
    m = len(counts)
    ways = [1] + [0] * m  # multisets of each total, over the kinds so far
    for e, kinds in enumerate(counts, start=1):
        for _ in range(kinds):
            for total in range(e, m + 1):
                ways[total] += ways[total - e]
    return ways[m]


def extremal_search(
    m: int,
    pattern: tuple[int, int] = (3, 3),
    jobs: int = 1,
) -> dict:
    """Max spectral radius over all m-edge graphs avoiding the pattern.

    The report is {"body": ..., "meta": ...}, as `search` prints it: the
    body holds only run-independent content, so stored reports compare
    byte for byte, and timing and the worker count live in meta.  total
    and survivors count every class with m edges and no isolated vertex,
    and argmax lists every survivor within _TIE_TOL of the best radius,
    sorted.

    Only pattern-free connected classes are built.  total is Burnside's
    count, labeled_class_count(m).  A class is a multiset of connected
    classes, and theta(1,p,q) is connected, so a disjoint union avoids it
    iff every component does: survivors is the Euler transform of the
    pattern-free connected counts.

    The argmax is connected for m >= 1.  Let G be a disconnected
    pattern-free graph with m edges, H a component of largest radius, so
    rho(G) = rho(H), and H' the graph H with the other m - e(H) >= 1
    edges hung as pendants at one of its vertices.  H' is connected with
    m edges.  It is pattern-free: theta has minimum degree 2, so a copy
    of it in H' uses no pendant vertex and lies in H.  And H is a proper
    subgraph of the connected H', so by Perron-Frobenius
    rho(H') > rho(H) = rho(G).  So G is neither the best nor tied with it.

    The pattern-free connected classes with m edges are ranked a vertex
    count at a time, smallest first, and a Graph is built only for a
    vertex count that is ranked.  Hong's bound, rho <= sqrt(2m - n + 1)
    for a connected graph (equality for K_n and the star), falls as n
    grows, so once it drops below the best radius so far no larger vertex
    count can win or tie.  The radii come from spectral_radii, or with
    jobs > 1 from spectral_radius in a process pool; a graph's
    certificate does not depend on its batch or its worker, so the body
    is the same for any worker count.
    """
    t0 = time.monotonic()
    _check_size(m, _SEARCH_BUDGET)
    level = _connected_classes(m, pattern) if m else ()
    scored: list[tuple[str, float]] = [] if m else [("?", 0.0)]  # the empty graph
    best_rho = 0.0
    pool = nullcontext()
    if jobs > 1:
        # imported here: the process pool costs every other run ~20 ms of import
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    with pool:
        # sorted by form, so by vertex count: a graph6 string opens with chr(63 + n)
        for n, group in groupby(level, key=lambda c: len(c[1])):
            if sqrt(2 * m - n + 1) < best_rho - _HONG_SLACK:
                break
            forms, rows = zip(*group)
            graphs = [Graph(n, r) for r in rows]
            certs = (pool.map(spectral_radius, graphs, chunksize=-(-len(graphs) // jobs))
                     if jobs > 1 else spectral_radii(graphs))
            rhos = [cert.rho for cert in certs]
            scored += zip(forms, rhos)
            best_rho = max(best_rho, *rhos)
    body = {
        "m": m,
        "pattern": list(pattern),
        "predicate": f"theta(1,{pattern[0]},{pattern[1]})-free",
        "total": labeled_class_count(m),
        "survivors": _multisets([len(_connected_classes(e, pattern)) for e in range(1, m + 1)]),
        "best_rho": best_rho,
        "argmax": sorted(form for form, rho in scored if rho >= best_rho - _TIE_TOL),
        "detector_version": DETECTOR_VERSION,
        "scope_note": _SCOPE_NOTE,
    }
    return {"body": body, "meta": {"runtime_seconds": time.monotonic() - t0, "jobs": jobs}}


# the keys of a stored report, whose body and meta extremal_search builds
_REPORT_KEYS = {
    "body": {"m", "pattern", "predicate", "total", "survivors", "best_rho", "argmax",
             "detector_version", "scope_note"},
    "meta": {"runtime_seconds", "jobs"},
}


def _cache_dir(explicit: Optional[str]) -> str:
    """The cache directory, made if missing, so a bad one fails before a search."""
    d = explicit or os.environ.get(CACHE_ENV, os.path.expanduser("~/.spectheta_cache"))
    os.makedirs(d, exist_ok=True)
    return d


def _cache_path(dirname: str, m: int, pattern: tuple[int, int]) -> str:
    return os.path.join(dirname, f"search_m{m}_t{pattern[0]}_{pattern[1]}.json")


def search_cache_put(report: dict, cache_dir: Optional[str] = None) -> str:
    """Store an extremal_search report; returns the file's path."""
    d = _cache_dir(cache_dir)
    body = report["body"]
    path = _cache_path(d, body["m"], body["pattern"])
    # write beside the target and rename over it, so a reader sees the old
    # file or the new one and a failed write leaves the old file in place
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def search_cache_get(
    m: int, pattern: tuple[int, int] = (3, 3), cache_dir: Optional[str] = None
) -> Optional[dict]:
    """The stored report for (m, pattern), or None when there is none that
    this detector version wrote.  A file that is not such a report, down
    to its exact keys, is discarded with a warning."""
    path = _cache_path(_cache_dir(cache_dir), m, pattern)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            report = json.load(fh)
        if {k: set(v) if isinstance(v, dict) else None for k, v in report.items()} != _REPORT_KEYS:
            raise ValueError("unexpected keys")
    except (AttributeError, TypeError, ValueError) as exc:
        warnings.warn(f"discarding unreadable cache file {path}: {exc}")
        return None
    body = report["body"]
    if body["detector_version"] != DETECTOR_VERSION:
        return None
    if body["m"] != m or body["pattern"] != list(pattern):
        warnings.warn(f"cache file {path} disagrees with its key; ignoring")
        return None
    return report
