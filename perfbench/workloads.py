"""The four benchmark workloads: the CLI call, its seeded input, and the
check that decides whether one operation's output is correct.

Each workload is one `spectheta` subcommand.  `prepare` builds the
operation's inputs from the seed (outside any timed region) and returns a
`Job`; `Job.check` inspects one finished operation and returns an empty
string when the output is correct, or the first reason it is not.

The program under test is imported from the checkout's `src/` only to
generate inputs and to judge outputs: the screen verdicts come from the
brute-force injection oracle, never from the detector being timed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from spectheta.acceptance import SPOT_MARGIN_M92
from spectheta.families import make_theta
from spectheta.graphs import Graph, parse_graph6, to_graph6
from spectheta.theta import ThetaWitness, oracle_contains_subgraph

SEARCH_M = 10
SCREEN_LINES = 1500
SCREEN_N = (16, 64)
CERTIFY_RANGE = (6, 4000, 2)
SPOT_M = 92
GATE_CAP = 5
CRITERIA = 10

WORKLOADS = ("search-m10", "screen", "certify", "gate-m5")


@dataclass
class Job:
    """One workload instance: what to run and how to judge each result."""

    argv: list[str]
    items: int
    check: Callable[[int, str], str]
    stdin_text: Optional[str] = None
    needs_cache_dir: bool = False


def screen_lines(seed: int, count: int = SCREEN_LINES) -> list[str]:
    """Seeded graph6 lines: n uniform in 16..64, m uniform in n..3n/2,
    the m edges drawn uniformly without replacement."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        n = rng.randint(*SCREEN_N)
        m = rng.randint(n, 3 * n // 2)
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < m:
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
        lines.append(to_graph6(Graph.from_edges(n, sorted(pairs))))
    return lines


def screen_expected(lines: list[str]) -> list[bool]:
    """Oracle verdicts, True when the graph is theta(1,3,3)-free."""
    pattern = make_theta(3, 3)
    return [not oracle_contains_subgraph(parse_graph6(s), pattern) for s in lines]


def check_screen(lines: list[str], expected: list[bool], returncode: int, out: str) -> str:
    if returncode != 0:
        return f"exit code {returncode}"
    records = out.splitlines()
    if len(records) != len(lines):
        return f"{len(records)} verdicts for {len(lines)} lines"
    for i, (line, free, raw) in enumerate(zip(lines, expected, records)):
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError:
            return f"line {i}: not JSON"
        if rec.get("graph6") != line:
            return f"line {i}: graph6 echo differs"
        if rec.get("free") is not free:
            return f"line {i}: verdict {rec.get('free')} but oracle says {free}"
        w = rec.get("witness")
        if free:
            if w is not None:
                return f"line {i}: witness on a free graph"
            continue
        try:
            wit = ThetaWitness(tuple(w["anchors"]), tuple(w["path_p"]), tuple(w["path_q"]))
            wit.validate(parse_graph6(line))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"line {i}: bad witness ({exc})"
        if len(wit.path_p) != 4 or len(wit.path_q) != 4:
            return f"line {i}: witness paths are not of length 3"
    return ""


def load_fixture(root: str) -> dict:
    path = os.path.join(
        root, "src", "spectheta", "fixtures", "extremal", f"search_m{SEARCH_M}_t3_3.json"
    )
    with open(path) as fh:
        return json.load(fh)


def check_search(fixture: dict, returncode: int, out: str) -> str:
    """Body equal to the stored fixture, best_rho to 1e-12 relative (the
    rule acceptance criterion 9 applies), and computed, not cached."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads(out)
        fresh = dict(report["body"])
        from_cache = report["meta"]["from_cache"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"unreadable report ({exc})"
    if from_cache is not False:
        return "report came from a cache"
    stored = dict(fixture["body"])
    rho_a, rho_b = fresh.pop("best_rho", None), stored.pop("best_rho")
    if fresh != stored:
        return "report body differs from the fixture"
    if not isinstance(rho_a, float) or abs(rho_a - rho_b) > 1e-12 * max(1.0, abs(rho_b)):
        return f"best_rho {rho_a} differs from the fixture's {rho_b}"
    return ""


def check_certify(ms: list[int], returncode: int, out: str) -> str:
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        records = json.loads(out)
    except json.JSONDecodeError:
        return "not JSON"
    if not isinstance(records, list) or len(records) != len(ms):
        return f"expected {len(ms)} records"
    for m, rec in zip(ms, records):
        if not isinstance(rec, dict) or rec.get("exact") is not True or rec.get("holds") is not True:
            return f"m={m}: not an exact, holding verdict"
    margin = records[ms.index(SPOT_M)].get("margin")
    if not isinstance(margin, float) or abs(margin - SPOT_MARGIN_M92) > 1e-6:
        return f"m={SPOT_M} margin {margin} differs from the frozen {SPOT_MARGIN_M92}"
    return ""


def check_gate(returncode: int, out: str) -> str:
    if returncode != 0:
        return f"exit code {returncode}"
    lines = out.splitlines()
    want = [f"PASS criterion {k} (" for k in range(1, CRITERIA + 1)]
    if len(lines) != CRITERIA or not all(a.startswith(b) for a, b in zip(lines, want)):
        return "expected ten PASS lines, criteria 1..10 in order"
    return ""


def prepare(name: str, seed: int, root: str) -> Job:
    """The workload's job for this seed; the screen oracle runs here."""
    if name == "search-m10":
        fixture = load_fixture(root)
        return Job(
            ["search", "--m", str(SEARCH_M), "--theta", "3,3", "--jobs", "1"],
            items=fixture["body"]["total"],
            check=lambda rc, out: check_search(fixture, rc, out),
            needs_cache_dir=True,
        )
    if name == "screen":
        lines = screen_lines(seed)
        expected = screen_expected(lines)
        return Job(
            ["free", "--theta", "3,3"],
            items=len(lines),
            check=lambda rc, out: check_screen(lines, expected, rc, out),
            stdin_text="\n".join(lines) + "\n",
        )
    if name == "certify":
        lo, hi, step = CERTIFY_RANGE
        ms = list(range(lo, hi + 1, step))
        return Job(
            ["verify", "--lemma", "2.6", "--m-range", f"{lo}:{hi}:{step}"],
            items=len(ms),
            check=lambda rc, out: check_certify(ms, rc, out),
        )
    if name == "gate-m5":
        return Job(
            ["report-all", "--m", str(GATE_CAP), "--jobs", "1"],
            items=CRITERIA,
            check=check_gate,
        )
    raise ValueError(f"unknown workload {name!r}")
