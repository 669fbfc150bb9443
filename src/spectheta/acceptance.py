"""The acceptance suite: ten self-contained criteria with frozen targets.

Each criterion function returns a CriterionResult and is independent of
the others.  Frozen constants were computed once with independent
oracles (class counting, exact sign arithmetic, bisection) and are
pinned here as regression values.

run_all drives every criterion; the CLI's report-all subcommand and the
acceptance test module both go through it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Optional

from .enumeration import (
    canonical_form,
    enumerate_by_size,
    extremal_search,
    labeled_class_count,
)
from .families import FamilySpec, closed_form_rho, f_poly, family_partition, make_graph, make_theta
from .graphs import Graph
from .polynomials import Polynomial
from .quadratic import QuadExt
from .sampling import sample_graphs
from .spectral import char_poly, is_equitable, spectral_radius, verify_quotient_divides
from .theta import contains_theta, is_theta133_free, oracle_contains_subgraph
from .verifiers import check_eq1, check_lemma26, neighborhood_classifications, rotation_sweep

# seed of the sampled corpora; criterion 7 and `verify --lemma 2.1` add 7, criterion 10 adds 10
CORPUS_SEED = 1729

# class counts for m = 1..6 (OEIS A000664), frozen 2025-08
ORACLE_CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68}

# spot check for the exact-sign sweep: rho minus bound at m=92,
# computed by bisection on the quartic, frozen to 1e-6
SPOT_MARGIN_M92 = 1.1922681111720124e-4

FIXTURE_PACKAGE = "spectheta.fixtures.extremal"


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} criterion {self.number} ({self.name}): {self.detail} [{self.seconds:.2f}s]"


def _result(number: int, name: str, t0: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(number, name, passed, detail, time.monotonic() - t0)


def _equals_bound(spec: FamilySpec, bound: QuadExt) -> bool:
    """The family radius is bound exactly in Q(sqrt d), and the power
    iteration on the built member agrees to 1e-9."""
    return (
        closed_form_rho(spec).exact == bound
        and abs(spectral_radius(make_graph(spec)).rho - float(bound)) <= 1e-9
    )


def criterion_1() -> CriterionResult:
    """Theorem 1.3's equality case: S((m+3)/2, 2) has radius
    (1+sqrt(4m-3))/2 exactly, at every odd size 3..201."""
    t0 = time.monotonic()
    bad = []
    for m in range(3, 202, 2):
        spec = FamilySpec("S", {"n": (m + 3) // 2, "k": 2})
        if not _equals_bound(spec, QuadExt(Fraction(1, 2), Fraction(1, 2), 4 * m - 3)):
            bad.append(m)
    return _result(
        1,
        "join family equality values",
        t0,
        not bad,
        f"odd m in [3,201]: {len(bad)} mismatches" + (f" at {bad[:5]}" if bad else ""),
    )


def criterion_2() -> CriterionResult:
    """Theorem 1.1's equality case: K_k joined to s isolated vertices, with
    m = k(k-1)/2 + ks edges, has radius (k-1+sqrt(4m-k^2+1))/2 exactly,
    for k in 3..5 and s in 1..20."""
    t0 = time.monotonic()
    bad = []
    for k in (3, 4, 5):
        for s in range(1, 21):
            m = k * (k - 1) // 2 + k * s
            bound = QuadExt(Fraction(k - 1, 2), Fraction(1, 2), 4 * m - k * k + 1)
            if not _equals_bound(FamilySpec("split", {"k": k, "s": s}), bound):
                bad.append((k, s))
    return _result(
        2,
        "clique join equality values",
        t0,
        not bad,
        f"60 (k,s) pairs: {len(bad)} mismatches" + (f" at {bad[:5]}" if bad else ""),
    )


def criterion_3() -> CriterionResult:
    """Exact negative sign for every even size in [6,2000], plus the
    frozen m=92 margin."""
    t0 = time.monotonic()
    bad = []
    for m in range(6, 2001, 2):
        chk = check_lemma26(m)
        if not (chk.holds and chk.exact):
            bad.append(m)
    spot = check_lemma26(92)
    spot_ok = abs(spot.margin - SPOT_MARGIN_M92) <= 1e-6
    passed = not bad and spot_ok
    return _result(
        3,
        "exact pendant-family sign sweep",
        t0,
        passed,
        f"998 even sizes: {len(bad)} sign failures; m=92 margin "
        f"{spot.margin:.6e} vs frozen {SPOT_MARGIN_M92:.6e}",
    )


def criterion_4() -> CriterionResult:
    """Quotient characteristic polynomials divide exactly, and the
    apex-family quotient reproduces the governing quartic verbatim."""
    t0 = time.monotonic()
    failures = []
    sweeps = (
        [FamilySpec("S", {"n": n, "k": 2}) for n in range(4, 31)]
        + [FamilySpec("star", {"r": r}) for r in range(1, 31)]
        + [FamilySpec("split", {"k": k, "s": s}) for k in range(1, 6) for s in range(1, 11)]
        + [FamilySpec("G4", {"r": r, "t": t}) for r in range(1, 21) for t in range(0, 6)]
    )
    x = Polynomial([0, 1])
    for spec in sweeps:
        g = make_graph(spec)
        quo = is_equitable(g, family_partition(spec))
        if quo is None or not verify_quotient_divides(g, quo):
            failures.append((spec.tag, *spec.params.values()))
            continue
        if spec.tag == "G4":
            # quotient char poly == the quartic, coefficient for coefficient;
            # t=0 drops the pendant block: quartic = x * cubic quotient
            r, t = spec.params["r"], spec.params["t"]
            poly = char_poly(quo)
            if (poly if t else x * poly) != f_poly(2 * r + t + 1, t):
                failures.append(("identity", 2 * r + t + 1, t))
    return _result(
        4,
        "quotient divisibility and quartic identity",
        t0,
        not failures,
        f"{len(failures)} failures" + (f", first {failures[:3]}" if failures else ""),
    )


def criterion_5(m_max: int = 8) -> CriterionResult:
    """Fast detector agrees with the brute-force injection oracle."""
    t0 = time.monotonic()
    patterns = ((2, 2), (2, 3), (3, 3))
    disagreements = 0
    checked = 0
    corpus = []
    for m in range(0, m_max + 1):
        corpus.extend(enumerate_by_size(m))
    corpus.extend(sample_graphs(CORPUS_SEED, 500, 9))
    pattern_graphs = {(p, q): make_theta(p, q) for p, q in patterns}
    for g in corpus:
        for p, q in patterns:
            fast = contains_theta(g, p, q) is not None
            slow = oracle_contains_subgraph(g, pattern_graphs[(p, q)])
            checked += 1
            if fast != slow:
                disagreements += 1
    return _result(
        5,
        "detector vs oracle equivalence",
        t0,
        disagreements == 0,
        f"{checked} (graph, pattern) checks, {disagreements} disagreements",
    )


def criterion_6(m_max: int = 6) -> CriterionResult:
    """Class counts match the frozen values and Burnside's count, which
    shares no code with the enumeration or the canonical form."""
    t0 = time.monotonic()
    bad = []
    for m in range(1, m_max + 1):
        fast = len(enumerate_by_size(m))
        counted = labeled_class_count(m)
        frozen = ORACLE_CLASS_COUNTS[m]
        if not fast == counted == frozen:
            bad.append((m, fast, counted, frozen))
    return _result(
        6,
        "enumeration count oracle",
        t0,
        not bad,
        f"m in 1..{m_max}: " + ("all counts agree" if not bad else f"mismatches {bad}"),
    )


def criterion_7() -> CriterionResult:
    """Rotating private edges toward the heavier endpoint always raises
    the radius on a seeded corpus of 200 graphs."""
    t0 = time.monotonic()
    sweep = rotation_sweep(sample_graphs(CORPUS_SEED + 7, 200, 12, connected=True))
    return _result(
        7,
        "rotation monotonicity sweep",
        t0,
        sweep["violations"] == 0,
        f"{sweep['graphs']} graphs, {sweep['rotations']} rotations, {sweep['violations']} violations",
    )


def _theta_free_family_corpus() -> list[Graph]:
    specs = (
        [FamilySpec(tag, {"n": n, "k": 2}) for n in range(4, 17) for tag in ("S", "S-")]
        + [FamilySpec("star", {"r": r}) for r in range(0, 11)]
        + [FamilySpec("Sk", {"n": n, "k": (n - 1) // 2}) for n in range(3, 12, 2)]
        + [FamilySpec("D", {"a": a, "b": b}) for a in range(1, 6) for b in range(a, 6)]
        + [FamilySpec("G4", {"r": r, "t": t}) for r in range(1, 9) for t in range(0, 5)]
    )
    return [make_graph(spec) for spec in specs]


def criterion_8(m_max: int = 8) -> CriterionResult:
    """Every connected component of every vertex neighborhood in the
    theta-free corpus (enumerated classes up to m_max plus the extremal
    families) falls inside the taxonomy: c4_spanned, s1, double_star or
    star, never "other"."""
    t0 = time.monotonic()
    offenders = 0
    checked = 0
    corpus = []
    for m in range(0, m_max + 1):
        corpus.extend(g for g in enumerate_by_size(m) if is_theta133_free(g))
    corpus.extend(_theta_free_family_corpus())
    for g in corpus:
        for u in range(g.n):
            for _, cls in neighborhood_classifications(g, u):
                checked += 1
                if cls.kind == "other":
                    offenders += 1
    return _result(
        8,
        "neighborhood component taxonomy",
        t0,
        offenders == 0,
        f"{checked} classified components, {offenders} fell outside the taxonomy",
    )


def _load_fixture(m: int) -> Optional[dict]:
    name = f"search_m{m}_t3_3.json"
    root = resources.files(FIXTURE_PACKAGE)
    path = root.joinpath(name)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def criterion_9(m_max: int = 10, jobs: int = 1) -> CriterionResult:
    """Desk-scale substitute checks for the out-of-reach regime."""
    t0 = time.monotonic()
    problems = []
    for m in range(4, 61, 2):
        if not is_theta133_free(make_graph(FamilySpec("S-", {"n": (m + 4) // 2, "k": 2}))):
            problems.append(f"family not free at m={m}")
    for r in range(1, 26):
        apex = make_graph(FamilySpec("G4", {"r": r, "t": 1}))
        # S-(r+3, 2) from its definition, not the skeleton table G4 shares:
        # K2 on {0, 1} joined to 2..n-1, less the edge (1, n-1)
        n = r + 3
        join = [(a, b) for a in (0, 1) for b in range(2, n) if (a, b) != (1, n - 1)]
        damaged = Graph.from_edges(n, [(0, 1)] + join)
        if canonical_form(apex) != canonical_form(damaged):
            problems.append(f"iso failure at r={r}")
    for t in (3, 5, 7, 9):
        for m in range(t + 3, t + 44, 2):
            diff = f_poly(m, t) - f_poly(m, 1)
            want = Polynomial([(t - 1) * (m - t - 2) // 2, t - 1])
            if diff != want or any(c <= 0 for c in want.coeffs):
                problems.append(f"difference shape at (m,t)=({m},{t})")
    # stored search reports: regenerated bodies must match byte-for-byte
    # (best_rho at 1e-12 relative, guarding numeric library drift);
    # nothing here claims these small sizes reflect the large-m statement
    for m in range(2, min(m_max, 10) + 1, 2):
        fixture = _load_fixture(m)
        if fixture is None:
            problems.append(f"missing fixture m={m}")
            continue
        fresh = extremal_search(m, (3, 3), jobs=jobs)["body"]
        stored = fixture["body"]
        rho_a, rho_b = fresh.pop("best_rho"), stored.pop("best_rho")
        if fresh != stored:
            problems.append(f"report body drift at m={m}")
        elif abs(rho_a - rho_b) > 1e-12 * max(1.0, abs(rho_b)):
            problems.append(f"best_rho drift at m={m}")
    return _result(
        9,
        "regime-honesty substitute checks",
        t0,
        not problems,
        "; ".join(problems) if problems else "freeness, isomorphy, quartic shape, fixtures all hold",
    )


def criterion_10() -> CriterionResult:
    """Apex identity holds to 1e-8 across families and random graphs."""
    t0 = time.monotonic()
    worst = 0.0
    bad = 0
    specs = [FamilySpec("S-", {"n": n, "k": 2}) for n in range(4, 31)] + [
        FamilySpec("G4", {"r": r, "t": t}) for r in range(1, 11) for t in range(0, 4)
    ]
    graphs = [make_graph(spec) for spec in specs]
    graphs.extend(sample_graphs(CORPUS_SEED + 10, 100, 12, connected=True, accept=is_theta133_free))
    for g in graphs:
        chk = check_eq1(g)
        worst = max(worst, chk.margin)
        if not chk.holds:
            bad += 1
    return _result(
        10,
        "apex identity layer",
        t0,
        bad == 0,
        f"{len(graphs)} graphs, worst residual {worst:.2e}, {bad} over tolerance",
    )


def run_all(m_max: int = 8, jobs: int = 1) -> list[CriterionResult]:
    """Every criterion, with the enumeration-heavy ones capped by m_max."""
    runners: list[Callable[[], CriterionResult]] = [
        criterion_1,
        criterion_2,
        criterion_3,
        criterion_4,
        lambda: criterion_5(m_max=min(m_max, 8)),
        lambda: criterion_6(m_max=min(m_max, 6)),
        criterion_7,
        lambda: criterion_8(m_max=min(m_max, 8)),
        lambda: criterion_9(m_max=min(m_max, 10), jobs=jobs),
        criterion_10,
    ]
    return [fn() for fn in runners]
