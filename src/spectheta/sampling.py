"""Seeded random graph generation for property sweeps.

All samplers take an explicit random.Random so sweeps are reproducible
from a single seed recorded in reports.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .graphs import Graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float) -> Graph:
    """Random spanning tree (random parent attachment) plus extra edges."""
    if n < 1:
        raise ValueError("need n >= 1")
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_edge_prob:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def sample_graphs(
    seed: int,
    count: int,
    n_max: int,
    connected: bool = False,
    accept: Optional[Callable[[Graph], bool]] = None,
) -> list[Graph]:
    """count graphs with 1 <= n <= n_max passing the accept filter."""
    rng = random.Random(seed)
    out: list[Graph] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 100_000:
            raise RuntimeError("sampler failed to fill its quota")
        n = rng.randint(1, n_max)
        if connected:
            g = random_connected_graph(rng, n, rng.uniform(0.05, 0.5))
        else:
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        if accept is not None and not accept(g):
            continue
        out.append(g)
    return out
