"""Isomorph-free enumeration of graphs by edge count, and extremal search.

Canonical form: per connected component, iterated signature refinement
followed by branch-and-bound over the remaining cell orderings, taking
the lexicographically least graph6 payload.  Each refinement pass counts
neighbors only into the cells the previous pass split off (McKay and
Piperno's splitters), which yields the same partitions as counting into
every cell.  Cells whose members are mutual twins (all open neighborhoods
equal, or all closed neighborhoods equal) never need branching, which
keeps stars, cliques, and matchings cheap.  Component canonical strings
are sorted and the blocks reassembled, so the whole-graph form is
label-invariant.

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
   with a leaf is never kept.  This finds every class.  R(G) is non-empty for G with
   an edge, because a leafless connected graph with an edge has a cycle.
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

extremal_search builds only stage 1.  It counts the classes and the
pattern-free classes with m edges as multisets of connected ones (the
Euler transform), and ranks only the pattern-free connected classes
with m edges: its docstring proves that a disconnected graph never wins
or ties.  It ranks them one vertex count at a time, smallest first, and
stops where Hong's bound shows that no larger vertex count can reach the
best radius found.  With jobs > 1 a process pool computes the radii of
each vertex count; nothing else is spread over it.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from collections import Counter
from functools import lru_cache
from itertools import chain, groupby
from math import comb, factorial, gcd, lcm, prod, sqrt
from typing import Callable, Iterator, Optional, Sequence

from .graphs import (
    Graph,
    _graph6_header,
    _graph6_payload,
    _iter_bits,
    _refine,
    components,
)
from .spectral import spectral_radii
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


def _canon_connected_g6(adj: Sequence[int], comp: int) -> tuple[str, Rows]:
    """Canonical graph6 string of the connected component comp of the
    graph with rows adj, and the rows it encodes on 0..|comp|-1."""
    n = comp.bit_count()
    best: list[Optional[tuple[str, list[int]]]] = [None]

    def descend(cells: list[list[int]], splitters: list[list[int]]) -> None:
        cells = _refine(adj, cells, splitters)
        branch_at = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1 and not _is_twin_cell(adj, cell):
                branch_at = i
                break
        if branch_at < 0:
            order: list[int] = []
            for cell in cells:
                order.extend(cell)
            pos = {v: i for i, v in enumerate(order)}
            rows = [0] * n
            for v in order:
                a = adj[v]
                while a:
                    low = a & -a
                    rows[pos[v]] |= 1 << pos[low.bit_length() - 1]
                    a ^= low
            payload = _graph6_payload(n, rows)
            if best[0] is None or payload < best[0][0]:
                best[0] = payload, rows
            return
        cell = cells[branch_at]
        for v in cell:
            rest = [w for w in cell if w != v]
            descend(cells[:branch_at] + [[v], rest] + cells[branch_at + 1:], [[v]])

    unit = [list(_iter_bits(comp))]
    descend(unit, unit)
    payload, rows = best[0]
    return _graph6_header(n) + payload, tuple(rows)


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


def _kappa(rows: list[int], x: int) -> tuple[int, int]:
    """kappa(x) = (deg x, sum of the degrees of x's neighbours)."""
    return rows[x].bit_count(), sum(rows[y].bit_count() for y in _iter_bits(rows[x]))


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


def _hang_is_canonical(rows: list[int], u: int) -> bool:
    """Whether the leaf just hung on u has the largest key among the leaves."""
    top = _kappa(rows, u)
    anchors = {row.bit_length() - 1 for row in rows if row.bit_count() == 1}
    return all(_kappa(rows, a) <= top for a in anchors)


def _join_is_canonical(rows: list[int], u: int, v: int) -> bool:
    """Whether the edge uv just joined has the largest key among the cycle
    edges, and the graph has no leaf."""
    if any(row.bit_count() == 1 for row in rows):
        return False
    keys = [_kappa(rows, x) for x in range(len(rows))]
    top = max(keys[u], keys[v]), min(keys[u], keys[v])
    for a, row in enumerate(rows):
        for b in _iter_bits(row & ~((2 << a) - 1)):  # each edge once, as a < b
            key = max(keys[a], keys[b]), min(keys[a], keys[b])
            if key > top and not _is_bridge(rows, a, b):
                return False
    return True


@lru_cache(maxsize=None)
def _connected_classes(e: int) -> tuple[tuple[str, Rows], ...]:
    """Canonical strings and rows of the connected graphs with e edges,
    sorted by string."""
    if e == 0:
        return (("@", (0,)),)  # K1, which the hang step turns into K2
    seen: dict[str, Rows] = {}
    for _, adj in _connected_classes(e - 1):
        n = len(adj)
        # join two non-adjacent vertices
        for u in range(n):
            for v in range(u + 1, n):
                if not (adj[u] >> v) & 1:
                    rows = list(adj)
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    if _join_is_canonical(rows, u, v):
                        form, canon = _canon_connected_g6(rows, (1 << n) - 1)
                        seen[form] = canon
        # hang a new vertex on an existing one
        for u in range(n):
            rows = list(adj) + [1 << u]
            rows[u] |= 1 << n
            if _hang_is_canonical(rows, u):
                form, canon = _canon_connected_g6(rows, (2 << n) - 1)
                seen[form] = canon
    return tuple(sorted(seen.items()))


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


def _check_size(m: int, budget: int = 12) -> None:
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


def _split(graphs: list[Graph], parts: int) -> list[list[Graph]]:
    """graphs in at most `parts` contiguous runs of near-equal length."""
    size = -(-len(graphs) // parts)
    return [graphs[i:i + size] for i in range(0, len(graphs), size)]


def _rank(
    m: int, candidates: list[tuple[str, Graph]], radii: Callable[[list[Graph]], list]
) -> tuple[float, list[str]]:
    """Best radius over the connected m-edge candidates, and the sorted
    canonical strings within _TIE_TOL of it.

    The candidates go to radii one vertex count at a time, smallest
    first.  Hong's bound, rho <= sqrt(2m - n + 1) for a connected graph
    (equality for K_n and the star), falls as n grows, so once it drops
    below the best radius so far no larger vertex count can win or tie.
    """
    scored: list[tuple[str, float]] = []
    best_rho = 0.0
    for n, group in groupby(sorted(candidates, key=lambda c: c[1].n), key=lambda c: c[1].n):
        if sqrt(2 * m - n + 1) < best_rho - _HONG_SLACK:
            break
        forms, graphs = zip(*group)
        rhos = [cert.rho for cert in radii(list(graphs))]
        scored += zip(forms, rhos)
        best_rho = max(best_rho, *rhos)
    return best_rho, sorted(form for form, rho in scored if rho >= best_rho - _TIE_TOL)


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

    Only connected classes are built.  A class is a multiset of connected
    classes, so total is the Euler transform of the connected counts.
    theta(1,p,q) is connected, so a disjoint union avoids it iff every
    component does, and survivors is the Euler transform of the
    pattern-free connected counts.

    The argmax is connected for m >= 1.  Let G be a disconnected
    pattern-free graph with m edges, H a component of largest radius, so
    rho(G) = rho(H), and H' the graph H with the other m - e(H) >= 1
    edges hung as pendants at one of its vertices.  H' is connected with
    m edges.  It is pattern-free: theta has minimum degree 2, so a copy
    of it in H' uses no pendant vertex and lies in H.  And H is a proper
    subgraph of the connected H', so by Perron-Frobenius
    rho(H') > rho(H) = rho(G).  So G is neither the best nor tied with it.

    Only the pattern-free connected classes with m edges are ranked, a
    vertex count at a time (_rank), through spectral_radii, whose
    certificate for a graph does not depend on its batch.  When jobs > 1
    each vertex count's graphs are split over the workers.  So the body
    is the same for any worker count.
    """
    t0 = time.monotonic()
    _check_size(m)
    counts, free_counts = [], []
    free: list[tuple[str, Graph]] = []  # at the loop's end, those with m edges
    for e in range(1, m + 1):
        classes = [(form, Graph(len(rows), rows)) for form, rows in _connected_classes(e)]
        free = [(form, g) for form, g in classes if contains_theta(g, *pattern) is None]
        counts.append(len(classes))
        free_counts.append(len(free))
    if m == 0:
        best_rho, argmax = 0.0, ["?"]  # the empty graph
    elif jobs > 1:
        # imported here: the process pool costs every other run ~20 ms of import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            best_rho, argmax = _rank(m, free, lambda graphs: list(
                chain.from_iterable(pool.map(spectral_radii, _split(graphs, jobs)))))
    else:
        best_rho, argmax = _rank(m, free, spectral_radii)
    body = {
        "m": m,
        "pattern": list(pattern),
        "predicate": f"theta(1,{pattern[0]},{pattern[1]})-free",
        "total": _multisets(counts),
        "survivors": _multisets(free_counts),
        "best_rho": best_rho,
        "argmax": argmax,
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
        if {k: set(v) for k, v in report.items()} != _REPORT_KEYS:
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
