import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from math import sqrt
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import edited, graphs, induced_subgraph, member, relabel
from spectheta.enumeration import (
    _TIE_TOL,
    _canon_connected_g6,
    _children,
    _connected_classes,
    _is_bridge,
    _multisets,
    canonical_form,
    enumerate_by_size,
    extremal_search,
    labeled_class_count,
    search_cache_get,
    search_cache_put,
)
from spectheta.families import make_theta
from spectheta.graphs import Graph, _iter_bits, _refine, components, parse_graph6, to_graph6
from spectheta.spectral import spectral_radii, spectral_radius
from spectheta.theta import contains_theta, is_theta133_free

CLASS_COUNTS = [1, 1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613]  # m = 0..10, OEIS A000664
CONNECTED_COUNTS = [1, 1, 3, 5, 12, 30, 79, 227, 710, 2322, 8071]  # e = 1..11, OEIS A002905
FREE_CONNECTED_COUNTS = [1, 1, 3, 5, 12, 30, 78, 222, 673, 2135]  # theta(1,3,3)-free, e = 1..10
# sha256 of the "\n"-joined graph6 strings of enumerate_by_size(m), m = 0..10
# (6,877 strings), so that no kernel change moves a canonical representative
CANONICAL_STRINGS_SHA256 = "efa8eaa147456325bc81d5b9099a8a49f5d1d57b39ede76e204745dc83ad109c"


def _reference_classes(m_max):
    """The whole-graph sweep the two-stage enumerator replaced, kept as the
    reference: every class with m - 1 edges gets one edge in every way
    (join, hang a vertex, disjoint edge), deduplicated by canonical form.
    Yields the sorted canonical strings for m = 0..m_max."""
    level = {"?": Graph(0, [])}
    yield sorted(level)
    for _ in range(m_max):
        seen = {}
        for parent in level.values():
            n = parent.n
            children = [edited(parent, add=[(u, v)]) for u in range(n)
                        for v in range(u + 1, n) if not parent.has_edge(u, v)]
            children += [edited(parent, add=[(u, n)], n=n + 1) for u in range(n)]
            children.append(edited(parent, add=[(n, n + 1)], n=n + 2))
            for child in children:
                seen.setdefault(canonical_form(child), child)
        level = seen
        yield sorted(level)


def _reference_search(m, pattern):
    """The whole-class ranking the connected search replaced, kept as the
    reference: every class with m edges, the pattern filter on each, a
    radius for every survivor, and the argmax within _TIE_TOL."""
    classes = enumerate_by_size(m)
    survivors = [g for g in classes if contains_theta(g, *pattern) is None]
    rhos = [cert.rho for cert in spectral_radii([g for g in survivors if g.n])] or [0.0]
    best = max(rhos)
    argmax = sorted(to_graph6(g) for g, rho in zip(survivors, rhos) if rho >= best - _TIE_TOL)
    return {"total": len(classes), "survivors": len(survivors), "best_rho": best, "argmax": argmax}


def _unfiltered_connected(e_max):
    """The connected growth before the acceptance filter, kept as the
    reference: every join and hang child of every class is canonicalized
    and deduplicated.  Yields the sorted canonical strings for e = 0..e_max."""
    level = ["@"]
    yield tuple(level)
    for _ in range(e_max):
        seen = set()
        for parent in level:
            adj = parse_graph6(parent).adj
            n = len(adj)
            for u in range(n):
                for v in range(u + 1, n):
                    if not (adj[u] >> v) & 1:
                        rows = list(adj)
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                        seen.add(_canon_connected_g6(rows, (1 << n) - 1)[0])
            for u in range(n):
                rows = list(adj) + [1 << u]
                rows[u] |= 1 << n
                seen.add(_canon_connected_g6(rows, (2 << n) - 1)[0])
        level = sorted(seen)
        yield tuple(level)


def _reference_refine(adj, cells):
    """The refinement before splitters, kept as the reference: every pass
    counts neighbors into every cell, until a pass splits nothing."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig = {}
            for v in cell:
                sig[v] = tuple((adj[v] & mk).bit_count() for mk in masks)
            buckets = {}
            for v in cell:
                buckets.setdefault(sig[v], []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(buckets):
                    new_cells.append(buckets[key])
        cells = new_cells
        if not changed:
            return cells


def _reference_kappa(rows, x):
    return rows[x].bit_count(), sum(rows[y].bit_count() for y in _iter_bits(rows[x]))


def _reference_hang_is_canonical(rows, u):
    """The acceptance test before the parent's keys were reused, kept as
    the reference, as are the two below: every key is recomputed from the
    child's rows.  Whether the leaf just hung on u has the largest key
    among the leaves."""
    top = _reference_kappa(rows, u)
    anchors = {row.bit_length() - 1 for row in rows if row.bit_count() == 1}
    return all(_reference_kappa(rows, a) <= top for a in anchors)


def _reference_join_is_canonical(rows, u, v):
    """Whether the edge uv just joined has the largest key among the cycle
    edges, and the graph has no leaf."""
    if any(row.bit_count() == 1 for row in rows):
        return False
    keys = [_reference_kappa(rows, x) for x in range(len(rows))]
    top = max(keys[u], keys[v]), min(keys[u], keys[v])
    for a, row in enumerate(rows):
        for b in _iter_bits(row & ~((2 << a) - 1)):  # each edge once, as a < b
            key = max(keys[a], keys[b]), min(keys[a], keys[b])
            if key > top and not _is_bridge(rows, a, b):
                return False
    return True


@given(graphs(max_n=7), st.data())
def test_canonical_form_is_relabeling_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_form(g) == canonical_form(relabel(g, list(perm)))


def test_canonical_form_separates_similar_trees():
    # same degree multiset (3,2,2,1,1,1), different attachment point
    t_a = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    t_b = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    assert sorted(t_a.degree(v) for v in range(6)) == sorted(t_b.degree(v) for v in range(6))
    assert canonical_form(t_a) != canonical_form(t_b)


def test_canonical_form_handles_disconnected():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 2)])
    h = Graph.from_edges(6, [(4, 5), (0, 1), (1, 2), (2, 0)])
    assert canonical_form(g) == canonical_form(h)


def test_component_forms_read_the_host_rows():
    # a triangle and a P4 on interleaved labels, each canonicalised in place
    g = Graph.from_edges(7, [(0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 6)])
    comps = components(g)
    got = [_canon_connected_g6(g.adj, comp) for comp in comps]
    assert got == [("Bw", (6, 5, 3)), ("CL", (8, 4, 10, 5))]
    for comp, (form, _) in zip(comps, got):
        assert form == canonical_form(induced_subgraph(g, comp)[0])
    assert canonical_form(g) == "Fw?Gg"


def test_canonical_graph_round_trip():
    g = member("S-,n=8,k=2")
    cg = parse_graph6(canonical_form(g))
    assert canonical_form(cg) == canonical_form(g)
    assert cg.m == g.m


def test_canonical_form_size_cap():
    with pytest.raises(ValueError):
        canonical_form(member("star,r=40"))  # 41 vertices > 32


def test_enumeration_counts():
    for m, want in enumerate(CLASS_COUNTS):
        assert len(enumerate_by_size(m)) == want, m


def test_connected_class_counts():
    for e, want in enumerate(CONNECTED_COUNTS, start=1):
        assert len(_connected_classes(e)) == want, e
        if e < len(CLASS_COUNTS):
            assert sum(len(components(g)) == 1 for g in enumerate_by_size(e)) == want, e


def test_class_counts_are_the_euler_transform_of_connected_counts():
    # a class is a multiset of connected classes; the search counts its
    # survivors this way, and Burnside's count, its total, shares no code
    # with it
    for m in range(1, len(CONNECTED_COUNTS) + 1):
        assert _multisets(CONNECTED_COUNTS[:m]) == labeled_class_count(m), m
    assert _multisets([]) == 1  # the empty graph


def test_connected_growth_matches_unfiltered_growth():
    for e, want in enumerate(_unfiltered_connected(9)):
        classes = _connected_classes(e)
        assert tuple(form for form, _ in classes) == want, e
        assert all(rows == parse_graph6(form).adj for form, rows in classes), e


@pytest.mark.parametrize("pattern", [(2, 2), (2, 3), (3, 3)])
def test_free_growth_is_the_filtered_growth(pattern):
    # growing only free classes loses none: same forms and rows as the
    # unfiltered growth with the pattern holders dropped
    for e in range(11):
        want = tuple((form, rows) for form, rows in _connected_classes(e)
                     if contains_theta(Graph(len(rows), rows), *pattern) is None)
        assert _connected_classes(e, pattern) == want, e
    if pattern == (3, 3):
        got = [len(_connected_classes(e, pattern)) for e in range(1, 11)]
        assert got == FREE_CONNECTED_COUNTS and sum(got) == 3160


@given(graphs(max_n=9))
def test_refine_matches_reference_refine(g):
    adj = list(g.adj)
    unit = [list(range(g.n))]
    stable = _refine(adj, unit, unit)
    assert stable == _reference_refine(adj, unit)
    for i, cell in enumerate(stable):
        if len(cell) == 1:
            continue
        for v in cell:
            cells = stable[:i] + [[v], [w for w in cell if w != v]] + stable[i + 1:]
            assert _refine(adj, cells, [[v]]) == _reference_refine(adj, cells), (i, v)


def test_children_are_the_reference_acceptance_sites():
    # a wrong key update can let through a duplicate or drop a child whose
    # class another child reaches, and leave the classes as they were; the
    # children each parent yields, one per join or hang site, show it
    for e in range(9):
        for _, adj in _connected_classes(e):
            n = len(adj)
            want = []
            for u in range(n):
                for v in range(u + 1, n + 1):  # v = n hangs a new vertex on u
                    if v < n and (adj[u] >> v) & 1:
                        continue
                    rows = list(adj) + [0] * (v == n)
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    if (_reference_hang_is_canonical(rows, u) if v == n
                            else _reference_join_is_canonical(rows, u, v)):
                        want.append(rows)
            assert sorted(_children(adj)) == sorted(want), adj


def test_free_growth_work_counts():
    # counted in a fresh interpreter, so the growth is cold and this
    # process's cache is left as it is; a class with a leaf is free without
    # the detector (see _connected_classes)
    code = (
        "from spectheta import enumeration as en\n"
        "calls = {'canon': 0, 'theta': 0, 'leafy': 0}\n"
        "canon, theta = en._least_leaf, en.contains_theta\n"
        "def counted_canon(adj, comp):\n"
        "    calls['canon'] += 1\n"
        "    return canon(adj, comp)\n"
        "def counted_theta(g, p, q):\n"
        "    calls['theta'] += 1\n"
        "    calls['leafy'] += any(row.bit_count() == 1 for row in g.adj)\n"
        "    return theta(g, p, q)\n"
        "en._least_leaf, en.contains_theta = counted_canon, counted_theta\n"
        "en._connected_classes(10, (3, 3))\n"
        "print(calls)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "{'canon': 4334, 'theta': 237, 'leafy': 0}"


def test_canonical_strings_are_pinned():
    text = "\n".join(to_graph6(g) for m in range(11) for g in enumerate_by_size(m))
    assert text.count("\n") + 1 == 6877
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_STRINGS_SHA256


def test_enumeration_matches_reference_sweep():
    for m, want in enumerate(_reference_classes(7)):
        assert [to_graph6(g) for g in enumerate_by_size(m)] == want, m


def test_enumeration_well_formed():
    seen = set()
    for g in enumerate_by_size(6):
        assert g.m == 6
        assert all(g.degree(v) > 0 for v in range(g.n))
        key = canonical_form(g)
        assert key not in seen
        seen.add(key)


def test_enumeration_budget():
    with pytest.raises(ValueError, match="budget exceeded: m=13 > budget=12"):
        enumerate_by_size(13)
    with pytest.raises(ValueError, match="budget exceeded: m=15 > budget=14"):
        extremal_search(15)
    with pytest.raises(ValueError, match="need m >= 0"):
        extremal_search(-1)


def test_labeled_count_oracle_small():
    for m, want in enumerate(CLASS_COUNTS):
        assert labeled_class_count(m) == want == len(enumerate_by_size(m)), m
    assert labeled_class_count(16) == 12334829  # OEIS A000664


def test_canonical_form_is_invariant_on_every_class_to_m8():
    # one seeded relabeling of each of the 788 classes with m <= 8
    rng = random.Random(8)
    for m in range(9):
        for g in enumerate_by_size(m):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == to_graph6(g), (m, perm)


def test_enumeration_contains_known_families():
    canon = {canonical_form(g) for g in enumerate_by_size(7)}
    assert canonical_form(make_theta(3, 3)) in canon
    assert canonical_form(member("S,n=5,k=2")) in canon
    assert canonical_form(member("star,r=7")) in canon


def test_join_family_is_enumerated_and_its_radius_matches():
    from spectheta.families import closed_form_rho, parse_family_spec

    for m in (3, 5, 7, 9):
        n = (m + 3) // 2
        g = member(f"S,n={n},k=2")
        assert is_theta133_free(g)
        canon = {canonical_form(h) for h in enumerate_by_size(m)}
        assert canonical_form(g) in canon
        desc = closed_form_rho(parse_family_spec(f"S,n={n},k=2"))
        assert abs(spectral_radius(g).rho - desc.value) <= 1e-9


def test_search_report_shape():
    body = extremal_search(5, (3, 3))["body"]
    assert body["total"] == 26 and body["survivors"] == 26  # pattern needs 7 edges
    assert body["predicate"] == "theta(1,3,3)-free"
    assert body["argmax"] == sorted(body["argmax"])
    for g6 in body["argmax"]:
        g = parse_graph6(g6)
        assert g.m == 5
        assert contains_theta(g, 3, 3) is None
        assert spectral_radius(g).rho == pytest.approx(body["best_rho"], abs=1e-9)


def test_search_excludes_pattern_holders():
    body = extremal_search(7, (3, 3))["body"]
    assert body["total"] == 177 and body["survivors"] == 176  # exactly the pattern itself drops
    body22 = extremal_search(6, (2, 2))["body"]
    assert body22["total"] == 68 and body22["survivors"] == 64


@pytest.mark.parametrize("pattern", [(3, 3), (2, 2), (2, 3)])
def test_search_matches_whole_class_reference(pattern):
    for m in range(10):
        body = extremal_search(m, pattern)["body"]
        want = _reference_search(m, pattern)
        assert {key: body[key] for key in want} == want, m  # best_rho exactly


def test_search_keeps_a_tie_at_hong_equality():
    # six theta(1,2,2)-free graphs with 9 edges tie at rho = 3; one is the
    # star K_{1,9}, whose radius meets Hong's bound sqrt(2m - n + 1), so a
    # prune at equality would drop it
    body = extremal_search(9, (2, 2))["body"]
    assert body["best_rho"] == 3.0
    assert body["argmax"] == ["EFz_", "ELv_", "F@QFw", "G??Gf{", "H????F~", "I??????~w"]
    star = parse_graph6("I??????~w")
    assert sorted(star.degree(v) for v in range(star.n)) == [1] * 9 + [9]
    assert sqrt(2 * star.m - star.n + 1) == body["best_rho"]


@pytest.mark.slow
@pytest.mark.parametrize(
    "m, total, survivors, best_rho, argmax",
    [
        (11, 15216, 13947, 4.051374241731038, ["EJ^w"]),
        # 274 of the ranked classes have one vertex count, so the two
        # workers get a batch each
        (12, 52944, 46571, 4.105482616526305, ["F@K~w"]),
        # K5 with three pendants at one vertex: x^3 - 3x^2 - 7x + 9 =
        # (x - 1)(x^2 - 2x - 9), whose largest root is 1 + sqrt(10)
        (13, 193367, 161875, 4.162277660168381, ["G?CW~{"]),
    ],
)
def test_search_with_two_workers_past_the_fixtures(m, total, survivors, best_rho, argmax):
    body = extremal_search(m, (3, 3), jobs=2)["body"]
    assert (body["total"], body["survivors"], body["best_rho"], body["argmax"]) == (
        total, survivors, best_rho, argmax
    )
    if m == 13:
        assert abs(body["best_rho"] - (1 + sqrt(10))) <= 1e-12


@pytest.mark.slow
def test_free_connected_counts_at_11_to_13_edges():
    assert [len(_connected_classes(e, (3, 3))) for e in (11, 12, 13)] == [7099, 24742, 89575]


def test_search_is_deterministic_and_jobs_independent():
    # the one vertex count ranked at m = 8, five, has two graphs: fewer
    # than three workers
    a, b, c = (extremal_search(8, (3, 3), jobs=jobs)["body"] for jobs in (1, 2, 3))
    assert a == b == c  # whole bodies, best_rho compared exactly


def test_search_builds_graphs_only_for_the_vertex_counts_it_ranks(monkeypatch):
    _connected_classes(10, (3, 3))  # warm: the growth builds a Graph per leafless new class
    built = []

    def counting_graph(n, rows):
        built.append(n)
        return Graph(n, rows)

    monkeypatch.setattr("spectheta.enumeration.Graph", counting_graph)
    extremal_search(10, (3, 3))
    # K5 has radius 4 = sqrt(2 * 10 - 5 + 1), and Hong's bound at six
    # vertices, sqrt(15), is below it: only K5's vertex count is ranked
    assert built == [5]


def test_report_round_trip():
    # the report is plain JSON: no tuples, nothing a reader has to rebuild
    rep = extremal_search(4, (2, 3))
    assert json.loads(json.dumps(rep)) == rep
    assert rep["meta"]["jobs"] == 1 and rep["meta"]["runtime_seconds"] >= 0


def test_cache_round_trip(tmp_path):
    rep = extremal_search(4, (3, 3))
    path = search_cache_put(rep, str(tmp_path))
    assert path.endswith("search_m4_t3_3.json")
    assert search_cache_get(4, (3, 3), str(tmp_path)) == rep
    assert search_cache_get(5, (3, 3), str(tmp_path)) is None


@pytest.mark.parametrize(
    "edit",
    [
        lambda blob: blob["body"].pop("scope_note"),
        lambda blob: blob["body"].update(note="extra"),
        lambda blob: blob["meta"].pop("jobs"),
        lambda blob: blob.pop("meta"),
        lambda blob: blob.update(body=[]),
        lambda blob: blob.update(body=list(blob["body"])),
        lambda blob: blob.update(meta=list(blob["meta"])),
    ],
    ids=["body_lacks_a_key", "body_has_an_extra_key", "meta_lacks_a_key", "no_meta", "body_not_a_dict",
         "body_is_a_list_of_its_keys", "meta_is_a_list_of_its_keys"],
)
def test_cache_discards_a_report_with_other_keys(tmp_path, edit):
    path = search_cache_put(extremal_search(3, (3, 3)), str(tmp_path))
    blob = json.loads(Path(path).read_text())
    edit(blob)
    Path(path).write_text(json.dumps(blob))
    with pytest.warns(UserWarning, match="discarding unreadable cache file"):
        assert search_cache_get(3, (3, 3), str(tmp_path)) is None


def test_cache_rejects_corruption_and_version_skew(tmp_path):
    rep = extremal_search(3, (3, 3))
    path = search_cache_put(rep, str(tmp_path))
    blob = json.loads(Path(path).read_text())
    blob["body"]["detector_version"] = "ancient"
    Path(path).write_text(json.dumps(blob))
    assert search_cache_get(3, (3, 3), str(tmp_path)) is None

    with open(path, "w") as fh:
        fh.write("{not json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert search_cache_get(3, (3, 3), str(tmp_path)) is None
    assert caught


def test_cache_put_failure_keeps_old_file(tmp_path, monkeypatch):
    rep = extremal_search(3, (3, 3))
    path = search_cache_put(rep, str(tmp_path))
    before = Path(path).read_text()

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"body": {"m": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError):
        search_cache_put({**rep, "meta": {**rep["meta"], "runtime_seconds": 1.0}}, str(tmp_path))
    assert Path(path).read_text() == before
    assert os.listdir(tmp_path) == [os.path.basename(path)]


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECTHETA_CACHE_DIR", str(tmp_path))
    rep = extremal_search(2, (3, 3))
    search_cache_put(rep)
    assert (tmp_path / "search_m2_t3_3.json").exists()
    got = search_cache_get(2, (3, 3))
    assert got is not None and got["body"]["m"] == 2
