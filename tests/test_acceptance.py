"""The acceptance gate: every criterion at full stated scale.

Each test runs one criterion, prints its one-line verdict, and asserts
it passed with its pinned detail.  Criterion functions live in
spectheta.acceptance so the CLI report-all subcommand runs the same
code.
"""

import re
import time

from spectheta import acceptance
from spectheta.families import FamilySpec, RhoDescriptor, make_graph
from spectheta.graphs import Graph
from spectheta.quadratic import QuadExt
from spectheta.spectral import spectral_radii, spectral_radius
from spectheta.acceptance import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


# each criterion's detail at the scale its test runs, which is the
# report-all line without its seconds; criterion 10's worst residual is
# float noise and is masked
DETAILS = {
    1: "odd m in [3,201]: 0 mismatches",
    2: "60 (k,s) pairs: 0 mismatches",
    3: "998 even sizes: 0 sign failures; m=92 margin 1.192268e-04 vs frozen 1.192268e-04",
    4: "0 failures",
    5: "3864 (graph, pattern) checks, 0 disagreements",
    6: "m in 1..6: all counts agree",
    7: "200 graphs, 3332 rotations, 0 violations",
    8: "11189 classified components, 0 fell outside the taxonomy",
    9: "freeness, isomorphy, quartic shape, fixtures all hold",
    10: "167 graphs, worst residual *, 0 over tolerance",
}


def _run(fn, budget=None, **kw):
    t0 = time.monotonic()
    result = fn(**kw)
    elapsed = time.monotonic() - t0
    print(result.line())
    assert result.passed, result.line()
    assert re.sub(r"worst residual \S+,", "worst residual *,", result.detail) == DETAILS[result.number]
    if budget is not None:
        assert elapsed <= budget, f"over budget: {elapsed:.1f}s > {budget}s"
    return result


def test_criterion_01_exact_join_family_values_all_odd_sizes():
    _run(criterion_1, budget=5.0)


def test_criterion_01_records_a_wrong_closed_form(monkeypatch):
    closed_form_rho = acceptance.closed_form_rho

    def damaged(spec):
        desc = closed_form_rho(spec)
        if spec == FamilySpec("S", {"n": 6, "k": 2}):  # the member with m = 9
            return RhoDescriptor(desc.value, exact=desc.exact + QuadExt(1))
        return desc

    monkeypatch.setattr(acceptance, "closed_form_rho", damaged)
    result = criterion_1()
    assert result.passed is False
    assert "1 mismatches at [9]" in result.detail, result.detail


def test_criterion_02_exact_clique_join_values():
    _run(criterion_2, budget=5.0)


def test_criterion_03_exact_sign_sweep_to_2000():
    _run(criterion_3, budget=30.0)


def test_criterion_04_quotient_divisibility_and_identity():
    _run(criterion_4)


def test_criterion_04_takes_its_radii_from_one_batch(monkeypatch):
    batches = []

    def counted(graphs):
        batches.append(len(graphs))
        return spectral_radii(graphs)

    monkeypatch.setattr(acceptance, "spectral_radii", counted)
    assert criterion_4().passed
    assert batches == [227]


def test_criterion_04_batch_gives_each_graph_its_own_certificate():
    graphs = [make_graph(spec) for spec in acceptance._quotient_sweep()]
    assert spectral_radii(graphs) == [spectral_radius(g) for g in graphs]


def test_criterion_04_records_a_non_equitable_partition(monkeypatch):
    family_partition = acceptance.family_partition

    def damaged(spec):
        if spec.tag == "star" and spec.params == {"r": 5}:
            return ((0, 1), (2, 3, 4, 5))  # the centre shares a block with a leaf
        return family_partition(spec)

    monkeypatch.setattr(acceptance, "family_partition", damaged)
    result = criterion_4()
    assert result.passed is False
    assert "('star', 5)" in result.detail, result.detail


def test_criterion_05_detector_oracle_equivalence():
    _run(criterion_5, budget=600.0, m_max=8)


def test_criterion_06_enumeration_counts_match_oracle():
    _run(criterion_6, budget=5.0, m_max=6)


def test_criterion_07_rotation_monotonicity():
    _run(criterion_7)


def test_criterion_08_neighborhood_taxonomy_is_total():
    _run(criterion_8, m_max=8)


def test_criterion_09_desk_scale_substitutes():
    _run(criterion_9, m_max=10)


def test_criterion_09_records_a_wrong_construction(monkeypatch):
    make_graph = acceptance.make_graph

    def damaged(spec):
        # drop the clique edge of G4(4, 1) and of S-(7, 2) alike, as a
        # fault in the skeleton table that both rows share would
        g = make_graph(spec)
        if spec in (FamilySpec("G4", {"r": 4, "t": 1}), FamilySpec("S-", {"n": 7, "k": 2})):
            rows = list(g.adj)
            rows[0] &= ~0b10
            rows[1] &= ~0b1
            return Graph(g.n, rows)
        return g

    monkeypatch.setattr(acceptance, "make_graph", damaged)
    result = criterion_9(m_max=1)  # no fixtures below m = 2
    assert result.passed is False
    assert result.detail == "iso failure at r=4", result.detail


def test_criterion_10_apex_identity_layer():
    _run(criterion_10)
