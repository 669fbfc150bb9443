"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import itertools
import random

from hypothesis import HealthCheck, settings, strategies as st

from spectheta.families import make_graph, parse_family_spec
from spectheta.graphs import Graph

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


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def member(text: str) -> Graph:
    """The family member a spec such as "S-,n=10,k=2" names."""
    return make_graph(parse_family_spec(text))
