"""Bitset-backed simple undirected graphs and their basic queries.

Vertices are the ints 0..n-1.  Each adjacency row is a Python int used as
a bitset: bit v of row u is set iff uv is an edge.  Arbitrary-precision
ints make the same representation serve the single-word fast path
(n <= 64) and the larger constructions, up to a hard cap of MAX_VERTICES.

Graphs are immutable after construction.
A vertex set is a plain int mask in the same form as a row.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 512

_G6_TEXT_PREFIX = ">>graph6<<"


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refine(
    adj: Sequence[int], cells: list[list[int]], splitters: list[list[int]]
) -> list[list[int]]:
    """Split cells by neighbor counts into the splitters until stable.

    The result is equitable; from the unit partition it is the coarsest
    equitable partition.  A split cell is replaced in place by its parts,
    in ascending order of their count vectors.

    Each cell must have equal counts into every cell outside splitters.
    That holds when splitters is every cell, and after a pass when the
    splitters are the cells it created, less the last child of each split
    cell: a cell that did not split adds a constant to every signature,
    and the last child's count is its parent's count minus its siblings'.
    So the buckets, and their sorted order, are those of a pass against
    every cell, and the partition is the same as refining against all of
    them each pass.
    """
    while splitters:
        masks = [sum(1 << v for v in cell) for cell in splitters]
        new_cells: list[list[int]] = []
        splitters = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple, list[int]] = {}
            for v in cell:
                row = adj[v]
                buckets.setdefault(tuple([(row & mk).bit_count() for mk in masks]), []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                parts = [buckets[key] for key in sorted(buckets)]
                new_cells.extend(parts)
                splitters.extend(parts[:-1])
        cells = new_cells
    return cells


def check_vertex_count(n: int) -> None:
    """Refuse n outside 0..MAX_VERTICES; builders call it before making rows."""
    if n < 0 or n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


class Graph:
    """Immutable simple graph with a cached edge count."""

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, adj: Sequence[int]):
        check_vertex_count(n)
        rows = tuple(adj)
        if len(rows) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        total = 0
        for u, row in enumerate(rows):
            if row < 0 or row & ~full:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
            total += row.bit_count()
            r = row
            while r:
                low = r & -r
                v = low.bit_length() - 1
                r ^= low
                if not (rows[v] >> u) & 1:
                    raise ValueError(f"asymmetric edge {u}->{v}")
        self.n = n
        self.adj = rows
        self.m = total // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on n vertices; duplicate edges collapse."""
        check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop edge at {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_subset(g: Graph, s: int) -> None:
    if s & ~((1 << g.n) - 1):
        raise ValueError("vertex set has members outside the graph")


def edge_count_within(g: Graph, s: int) -> int:
    """e(S): edges with both endpoints in S, each counted once."""
    _check_subset(g, s)
    total = 0
    for v in _iter_bits(s):
        total += (g.adj[v] & s).bit_count()
    return total // 2


def components(g: Graph, s: Optional[int] = None) -> list[int]:
    """Connected components of G[S] as masks, ordered by smallest vertex.

    S defaults to every vertex of g.
    """
    if s is None:
        s = (1 << g.n) - 1
    _check_subset(g, s)
    out = []
    left = s
    while left:
        comp = frontier = left & -left
        while frontier:
            nxt = 0
            for v in _iter_bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & s & ~comp
            comp |= frontier
        left &= ~comp
        out.append(comp)
    return out


def is_bipartite(g: Graph) -> Optional[tuple[int, int]]:
    """The two sides of a 2-coloring as masks, or None when there is none.

    Breadth-first layers alternate sides; an edge inside a layer closes
    an odd cycle.
    """
    sides = [0, 0]
    seen = 0
    for start in range(g.n):
        if (seen >> start) & 1:
            continue
        frontier, parity = 1 << start, 0
        while frontier:
            sides[parity] |= frontier
            seen |= frontier
            reach = 0
            for v in _iter_bits(frontier):
                if g.adj[v] & frontier:
                    return None
                reach |= g.adj[v]
            frontier = reach & ~seen
            parity ^= 1
    return sides[0], sides[1]


# graph6 serialization (header byte 63+n for n <= 62, column-major
# upper-triangle payload in 6-bit chunks offset by 63)

def _graph6_header(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    raise ValueError("graph6 sizes beyond 258047 unsupported")


def _graph6_payload(n: int, rows: Sequence[int]) -> str:
    chars = []
    acc = 0
    nbits = 0
    for j in range(1, n):
        rowj = rows[j]
        for i in range(j):
            acc = (acc << 1) | ((rowj >> i) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        chars.append(chr(63 + acc))
    return "".join(chars)


def to_graph6(g: Graph) -> str:
    return _graph6_header(g.n) + _graph6_payload(g.n, g.adj)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_TEXT_PREFIX):
        s = s[len(_G6_TEXT_PREFIX):]
    if not s:
        raise ValueError("empty graph6 text")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"graph6 character {ch!r} out of range")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("graph6 sizes beyond 258047 unsupported")
        if len(s) < 4:
            raise ValueError("malformed graph6 header")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    need = n * (n - 1) // 2
    nchars = (need + 5) // 6
    if len(body) < nchars:
        raise ValueError("truncated graph6 payload")
    if len(body) > nchars:
        raise ValueError("unexpected trailing characters")
    rows = [0] * n
    i, j = 0, 1
    k = 0
    for ch in body:
        val = ord(ch) - 63
        for shift in range(5, -1, -1):
            bit = (val >> shift) & 1
            if k < need:
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    j += 1
                    i = 0
                k += 1
            elif bit:
                raise ValueError("nonzero padding bits")
    return Graph(n, rows)
