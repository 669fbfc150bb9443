"""Spectral radius certificates and exact characteristic polynomials.

Numeric route: shifted power iteration on A+I per connected component
(the shift keeps bipartite components from oscillating), reporting the
Rayleigh estimate together with the residual max|Ax - rho*x| so callers
can judge the result instead of trusting it.  spectral_radii runs the
iteration on many graphs at once: components of equal size are stacked
and iterated together, each leaving the stack when it converges, so a
graph gets the same certificate alone or in any batch.

Exact route: characteristic polynomials over the integers via the
Faddeev-LeVerrier recurrence, plus equitable-partition quotients whose
characteristic polynomials divide the full one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .graphs import Graph, _iter_bits, _refine, components
from .polynomials import Polynomial, divides_exactly, largest_real_root

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class SpectralCertificate:
    """Numeric spectral radius with its own quality evidence."""

    rho: float
    perron: tuple[float, ...]
    residual: float
    iterations: int
    converged: bool


def _adjacency_stack(members: Sequence[tuple[Graph, int]], k: int) -> np.ndarray:
    """(B, k, k) adjacency matrices of B connected k-vertex components
    (vertex masks), each relabeled to 0..k-1 in ascending vertex order."""
    import numpy as np  # here, so the paths without radii never load numpy

    A = np.zeros((len(members), k, k))
    for b, (g, comp) in enumerate(members):
        pos = {v: i for i, v in enumerate(_iter_bits(comp))}
        for v, i in pos.items():
            row = g.adj[v]
            while row:
                low = row & -row
                A[b, i, pos[low.bit_length() - 1]] = 1.0
                row ^= low
    return A


def _iterate_stack(A: np.ndarray) -> Iterator[tuple]:
    """Shifted power iteration on a (B, k, k) stack of connected components.

    Yields (rows, rho, residual, iterations, converged, perron) each time
    some components stop, rows being their indices in the stack; a
    component stops when its residual is at most DEFAULT_TOL * max(rho,
    1) or at the iteration cap, and leaves the stack.  matmul forms each
    component's products on their own, in a shape fixed by k, and every
    other step is elementwise or a max, so a component's numbers do not
    depend on what else is in the stack.
    """
    import numpy as np

    B, k, _ = A.shape
    if k == 1:
        zeros = np.zeros(B)
        yield np.arange(B), zeros, zeros, 0, np.ones(B, dtype=bool), np.ones((B, 1))
        return
    cap = int(100 * k * math.log(k + 2)) + 10_000
    live = np.arange(B)
    x = np.ones((B, k, 1))
    # 0-d arrays are cheaper ufunc operands than Python floats
    one, lim = np.array(1.0), np.array(DEFAULT_TOL)
    it = 0
    while True:
        it += 1
        y = A @ x + x  # (A+I)x, shift avoids bipartite oscillation
        xt = x.transpose(0, 2, 1)
        r = (xt @ y) / (xt @ x) - one
        # residual on A itself; x is max-normalized, its max exactly 1.0
        res = np.maximum.reduce(np.abs(y - x - r * x), axis=1, keepdims=True)
        done = res <= lim * np.maximum(r, one)
        finished = np.count_nonzero(done)
        if finished or it == cap:
            ok = done.ravel()
            if it < cap:
                stop, perron = ok, x[ok, :, 0]
            else:  # unconverged components report the next iterate
                stop = np.ones_like(ok)
                nxt = y / np.maximum.reduce(y, axis=1, keepdims=True)
                perron = np.where(done, x, nxt)[:, :, 0]
            yield live[stop], r.ravel()[stop], res.ravel()[stop], it, ok[stop], perron
            if finished == live.size or it == cap:
                return
            live, A, y = live[~ok], A[~ok], y[~ok]
        x = y / np.maximum.reduce(y, axis=1, keepdims=True)


def spectral_radii(graphs: Sequence[Graph]) -> list[SpectralCertificate]:
    """Certificate for the adjacency spectral radius of each graph.

    Disconnected inputs take the max over components (the first by
    smallest vertex on ties); the reported eigenvector is the winning
    component's, zero elsewhere.  A graph's certificate is the same
    bit for bit whether it is passed alone or inside any batch.
    """
    by_size: dict[int, list[tuple[int, int]]] = {}
    for gi, g in enumerate(graphs):
        if g.n == 0:
            raise ValueError("empty graph has no spectral radius")
        for comp in components(g):
            by_size.setdefault(comp.bit_count(), []).append((gi, comp))
    count = len(graphs)
    best: list = [None] * count  # ((rho, -lowest bit), component, perron row)
    worst, total, ok = [0.0] * count, [0] * count, [True] * count
    for k, members in by_size.items():
        A = _adjacency_stack([(graphs[gi], comp) for gi, comp in members], k)
        for rows, rho, resid, it, conv, perron in _iterate_stack(A):
            stopped = zip(rows.tolist(), rho.tolist(), resid.tolist(), conv.tolist(), perron)
            for j, r, e, c, vec in stopped:
                gi, comp = members[j]
                key = (r, -(comp & -comp))
                if best[gi] is None or key > best[gi][0]:
                    best[gi] = (key, comp, vec)
                worst[gi] = max(worst[gi], e)
                total[gi] += it
                ok[gi] = ok[gi] and c
    out = []
    for gi, g in enumerate(graphs):
        (r, _), comp, vec = best[gi]
        perron = [0.0] * g.n
        for v, value in zip(_iter_bits(comp), vec.tolist()):
            perron[v] = value
        out.append(SpectralCertificate(r, tuple(perron), worst[gi], total[gi], ok[gi]))
    return out


def spectral_radius(g: Graph) -> SpectralCertificate:
    """Certificate for the adjacency spectral radius of g; see spectral_radii."""
    return spectral_radii([g])[0]


def char_poly(matrix: Sequence[Sequence[int]]) -> Polynomial:
    """det(xI - M) for an integer matrix, exactly.

    Faddeev-LeVerrier over Python ints: M_1 = M, c_k = -tr(M M_{k-1})/k,
    M_k = M M_{k-1} + c_k I.  Every division is checked to be exact.
    """
    n = len(matrix)
    rows = [list(r) for r in matrix]
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
        for a in r:
            if not isinstance(a, int):
                raise TypeError("entries must be ints")
    if n == 0:
        return Polynomial([1])
    if n > 64:
        raise ValueError("char_poly capped at 64x64")
    sparse = [[(j, a) for j, a in enumerate(r) if a] for r in rows]
    N = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        MN = []
        for i in range(n):
            acc = [0] * n
            for j, a in sparse[i]:
                nr = N[j]
                acc = [s + a * t for s, t in zip(acc, nr)]
            MN.append(acc)
        tr = sum(MN[i][i] for i in range(n))
        if tr % k != 0:
            raise ArithmeticError("non-integer trace division in recurrence")
        c = -(tr // k)
        coeffs.append(c)
        for i in range(n):
            MN[i][i] += c
        N = MN
    return Polynomial(list(reversed(coeffs)))


def adjacency_char_poly(g: Graph) -> Polynomial:
    rows = [[1 if g.has_edge(i, j) else 0 for j in range(g.n)] for i in range(g.n)]
    return char_poly(rows)


# a quotient matrix: entry (i, j) counts the neighbours a vertex of
# block i has in block j
Quotient = tuple[tuple[int, ...], ...]


def is_equitable(g: Graph, partition: Sequence[Sequence[int]]) -> Optional[Quotient]:
    """The quotient matrix when every block sees every block uniformly,
    else None."""
    blocks = [tuple(sorted(b)) for b in partition]
    seen = 0
    for b in blocks:
        if not b:
            raise ValueError("empty block")
        for v in b:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if (seen >> v) & 1:
                raise ValueError(f"vertex {v} appears in two blocks")
            seen |= 1 << v
    if seen != (1 << g.n) - 1:
        raise ValueError("partition does not cover every vertex")
    masks = [sum(1 << v for v in b) for b in blocks]
    entries = []
    for b in blocks:
        row = []
        for mask in masks:
            counts = [(g.adj[v] & mask).bit_count() for v in b]
            if any(c != counts[0] for c in counts):
                return None
            row.append(counts[0])
        entries.append(tuple(row))
    return tuple(entries)


def coarsest_equitable_partition(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Degree refinement from the single-block partition until stable."""
    if g.n == 0:
        return ()
    unit = [list(range(g.n))]
    return tuple(tuple(cell) for cell in _refine(g.adj, unit, unit))


def verify_quotient_divides(g: Graph, quotient: Quotient) -> bool:
    """Two-part check tying an equitable quotient to its host graph.

    The quotient's characteristic polynomial must divide the graph's
    exactly, and its largest root must match the power-iteration
    spectral radius within 1e-9.
    """
    pq = char_poly(quotient)
    if not divides_exactly(pq, adjacency_char_poly(g)):
        return False
    rho = spectral_radius(g).rho
    try:
        top = largest_real_root(pq)
    except ValueError:
        return False
    return abs(top - rho) <= 1e-9
