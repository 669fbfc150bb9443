import itertools
import math
import random
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

import numpy as np

from conftest import connected_graphs, edited, graphs, induced_subgraph, member
from spectheta.enumeration import enumerate_by_size
from spectheta.families import f_poly, family_partition, make_graph, parse_family_spec
from spectheta.graphs import Graph, components
from spectheta.polynomials import largest_real_root
from spectheta import spectral
from spectheta.spectral import (
    adjacency_char_poly,
    char_poly,
    coarsest_equitable_partition,
    is_equitable,
    spectral_radii,
    spectral_radius,
    verify_quotient_divides,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_known_radii():
    assert spectral_radius(complete(5)).rho == pytest.approx(4.0, abs=1e-10)
    assert spectral_radius(cycle(7)).rho == pytest.approx(2.0, abs=1e-10)
    assert spectral_radius(member("star,r=9")).rho == pytest.approx(3.0, abs=1e-10)
    assert spectral_radius(petersen()).rho == pytest.approx(3.0, abs=1e-10)
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert spectral_radius(p3).rho == pytest.approx(math.sqrt(2), abs=1e-10)


def test_certificate_contents():
    cert = spectral_radius(member("S,n=10,k=2"))
    assert cert.converged
    assert max(cert.perron) == pytest.approx(1.0, abs=0)
    assert all(x > 0 for x in cert.perron)
    assert cert.residual <= 1e-12 * max(1.0, cert.rho)
    d = asdict(cert)
    assert set(d) >= {"rho", "perron", "residual", "iterations", "converged"}


def test_disconnected_takes_component_max():
    # K1,5 (rho sqrt5) beats K3 (rho 2); loser coordinates are zeroed
    g = Graph.from_edges(9, [(0, i) for i in range(1, 6)] + [(6, 7), (7, 8), (6, 8)])
    cert = spectral_radius(g)
    assert cert.rho == pytest.approx(math.sqrt(5), abs=1e-10)
    assert cert.perron[0] == pytest.approx(1.0)
    assert cert.perron[6] == cert.perron[7] == cert.perron[8] == 0.0


def _reference_certificate(g, tol=1e-12):
    """The per-component loop the batched kernel replaced, kept as the
    reference: one component at a time, same operations in the same order."""
    best_rho, best_vec, worst, total, all_ok = -math.inf, {}, 0.0, 0, True
    for comp in components(g):
        sub, back = induced_subgraph(g, comp)
        k = sub.n
        if k == 1:
            rho, vec, resid, it, ok = 0.0, {back[0]: 1.0}, 0.0, 0, True
        else:
            A = np.array(
                [[1.0 if sub.has_edge(u, v) else 0.0 for v in range(k)] for u in range(k)]
            )
            x = np.ones(k)
            cap = int(100 * k * math.log(k + 2)) + 10_000
            it, ok = 0, False
            while it < cap:
                it += 1
                y = A @ x + x
                rho = float(x @ y) / float(x @ x) - 1.0
                top = float(x.max())
                xn = x / top
                resid = float(np.max(np.abs((y - x) / top - rho * xn)))
                if resid <= tol * max(1.0, rho):
                    ok, x = True, xn
                    break
                x = y / float(y.max())
            vec = {back[i]: float(x[i] / x.max()) for i in range(k)}
        total += it
        worst = max(worst, resid)
        all_ok = all_ok and ok
        if rho > best_rho:
            best_rho, best_vec = rho, vec
    perron = tuple(best_vec.get(v, 0.0) for v in range(g.n))
    return (best_rho, perron, worst, total, all_ok)


def _batch_corpus():
    star_and_cycle = Graph.from_edges(
        11, [(0, i) for i in range(1, 5)] + [(5 + i, 5 + (i + 1) % 6) for i in range(6)]
    )
    return [
        Graph(1, [0]),  # K1
        member("S,n=10,k=2"),
        Graph.from_edges(6, [(0, 2), (2, 3), (3, 0), (4, 5)]),  # vertex 1 isolated
        cycle(8),  # bipartite
        member("star,r=6"),  # bipartite
        star_and_cycle,  # two bipartite components, radius 2 each
        complete(5),
        petersen(),
        member("G4,r=6,t=2"),
        Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (5, 6)]),
        cycle(3),
    ] + list(enumerate_by_size(5))


def test_batch_certificates_equal_single_ones():
    corpus = _batch_corpus()
    batched = spectral_radii(corpus)
    assert len(batched) == len(corpus)
    for g, cert in zip(corpus, batched):
        assert cert == spectral_radius(g), g
    # any sub-batch, in any order, gives the same certificates
    rev = spectral_radii(corpus[::-3])
    assert rev == batched[::-3]
    assert spectral_radii([]) == []


def test_batched_kernel_matches_per_component_reference():
    rng = random.Random(5)
    corpus = _batch_corpus()
    for _ in range(60):
        n = rng.randint(1, 14)
        pairs = itertools.combinations(range(n), 2)
        corpus.append(Graph.from_edges(n, [p for p in pairs if rng.random() < 0.3]))
    for g, cert in zip(corpus, spectral_radii(corpus)):
        want = _reference_certificate(g)
        got = (cert.rho, cert.perron, cert.residual, cert.iterations, cert.converged)
        assert got == want, g


def test_iteration_cap_matches_reference(monkeypatch):
    # tol 0 stops only the triangle (exact eigenvector); the paths run to the cap
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 0.0)
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    triangle_and_path = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
    certs = spectral_radii([path4, triangle_and_path])
    assert not any(c.converged for c in certs)
    for g, cert in zip((path4, triangle_and_path), certs):
        want = _reference_certificate(g, tol=0.0)
        assert (cert.rho, cert.perron, cert.residual, cert.iterations, cert.converged) == want


def test_spectral_radii_rejects_empty_graph():
    with pytest.raises(ValueError):
        spectral_radii([cycle(4), Graph(0, [])])


def test_single_vertex_certificate():
    cert = spectral_radius(Graph(1, [0]))
    assert cert.rho == 0.0 and cert.perron == (1.0,)


def test_radius_matches_char_poly_root_on_random_graphs():
    # disconnected graphs included: a top eigenvalue shared by two
    # components is a repeated root, which exact isolation still finds
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 10)
        g = Graph.from_edges(
            n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.45]
        )
        if g.m == 0:
            continue
        cert = spectral_radius(g)
        root = largest_real_root(adjacency_char_poly(g))
        assert abs(cert.rho - root) <= 1e-8, (g, cert.rho, root)
        checked += 1


def test_orbit_coordinates_agree():
    for g in (cycle(8), complete(6), petersen()):
        cert = spectral_radius(g)
        assert max(cert.perron) - min(cert.perron) <= 1e-9
    cert = spectral_radius(member("S,n=9,k=2"))
    leaves = cert.perron[2:]
    assert max(leaves) - min(leaves) <= 1e-9


@given(connected_graphs(min_n=2, max_n=8), st.data())
def test_adding_an_edge_strictly_increases_radius(g, data):
    missing = [
        (u, v) for u, v in itertools.combinations(range(g.n), 2) if not g.has_edge(u, v)
    ]
    if not missing:
        return
    u, v = data.draw(st.sampled_from(missing))
    before = spectral_radius(g).rho
    after = spectral_radius(edited(g, add=[(u, v)])).rho
    assert after - before > 1e-10


def test_char_poly_known_values():
    assert adjacency_char_poly(complete(3)).coeffs == (-2, -3, 0, 1)
    assert adjacency_char_poly(Graph(2, [0b10, 0b01])).coeffs == (-1, 0, 1)
    assert char_poly([[2]]).coeffs == (-2, 1)


@given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=4))
def test_char_poly_multiplicative_over_disjoint_union(g, h):
    rows = [g.adj[v] | 0 for v in range(g.n)] + [h.adj[v] << g.n for v in range(h.n)]
    union = Graph(g.n + h.n, rows)
    assert adjacency_char_poly(union) == adjacency_char_poly(g) * adjacency_char_poly(h)


def test_char_poly_input_validation():
    with pytest.raises(ValueError):
        char_poly([[0, 1]])  # not square
    with pytest.raises(ValueError):
        adjacency_char_poly(member("star,r=70"))  # above the exact-size cap


def test_equitable_partition_vs_witness():
    g = member("S,n=7,k=2")
    quo = is_equitable(g, ((0, 1), tuple(range(2, 7))))
    assert quo == ((1, 5), (2, 0))
    assert is_equitable(g, ((0, 2), (1, 3, 4, 5, 6))) is None

    with pytest.raises(ValueError):
        is_equitable(g, ((0, 1), (2, 3)))  # not covering
    with pytest.raises(ValueError):
        is_equitable(g, ((0,), (0, 1, 2, 3, 4, 5, 6)))  # double cover


def test_coarsest_partition_on_join_family():
    part = coarsest_equitable_partition(member("S,n=9,k=2"))
    sizes = sorted(len(b) for b in part)
    assert sizes == [2, 7]
    assert is_equitable(member("S,n=9,k=2"), part) is not None


def _reference_coarsest_partition(g):
    """The full-pass loop: relabel every vertex by (label, counts into
    every block) until the labels stop changing."""
    if g.n == 0:
        return ()
    labels = [0] * g.n
    while True:
        masks = {}
        for v in range(g.n):
            masks.setdefault(labels[v], 0)
            masks[labels[v]] |= 1 << v
        keys = sorted(masks)
        sig = {}
        for v in range(g.n):
            sig[v] = (labels[v],) + tuple((g.adj[v] & masks[k]).bit_count() for k in keys)
        fresh = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new_labels = [fresh[sig[v]] for v in range(g.n)]
        if new_labels == labels:
            break
        labels = new_labels
    out = {}
    for v in range(g.n):
        out.setdefault(labels[v], []).append(v)
    return tuple(tuple(out[k]) for k in sorted(out))


@given(graphs(max_n=12))
def test_coarsest_partition_matches_full_pass_reference(g):
    assert coarsest_equitable_partition(g) == _reference_coarsest_partition(g)


def test_coarsest_partition_matches_reference_on_small_classes():
    for m in range(0, 7):
        for g in enumerate_by_size(m):
            assert coarsest_equitable_partition(g) == _reference_coarsest_partition(g)


def test_coarsest_partition_is_singletons_on_asymmetric_tree():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])
    part = coarsest_equitable_partition(g)
    assert all(len(b) >= 1 for b in part)
    assert is_equitable(g, part) is not None


def _divides(g, partition):
    return verify_quotient_divides(g, is_equitable(g, partition))


def test_quotient_divides_families():
    assert _divides(member("S,n=12,k=2"), ((0, 1), tuple(range(2, 12))))
    assert _divides(member("star,r=8"), ((0,), tuple(range(1, 9))))
    # the even-m member S-((m+4)/2, 2): its quotient quartic is f(m, 1)
    for m in range(6, 65, 2):
        spec = parse_family_spec(f"S-,n={(m + 4) // 2},k=2")
        g = make_graph(spec)
        quo = is_equitable(g, family_partition(spec))
        assert char_poly(quo) == f_poly(m, 1), m
        assert verify_quotient_divides(g, quo), m


def test_quotient_char_poly_matches_small_case():
    quo = is_equitable(member("S,n=23,k=2"), ((0, 1), tuple(range(2, 23))))
    assert char_poly(quo).coeffs == (-42, -1, 1)  # largest root exactly 7
    assert spectral_radius(member("S,n=23,k=2")).rho == pytest.approx(7.0, abs=1e-9)


def test_enumerated_radii_agree_with_char_poly():
    for g in enumerate_by_size(5):
        if len(components(g)) != 1:
            continue
        cert = spectral_radius(g)
        root = largest_real_root(adjacency_char_poly(g))
        assert abs(cert.rho - root) <= 1e-8
