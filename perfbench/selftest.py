"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the screen generator is deterministic per seed, that every
output check accepts a correct output and rejects a deliberately
corrupted one (so corruption would count in `failed`), and that span
aggregation computes busy and self times as documented.  Takes a few
seconds; it runs three tiny CLI operations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import tracer  # noqa: E402
import workloads  # noqa: E402
from run import CLI_BOOT  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestFailure(what)


def cli(args: list[str], stdin: str = "") -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    p = subprocess.run(
        [sys.executable, "-c", CLI_BOOT] + args, input=stdin, capture_output=True, text=True, env=env, timeout=120
    )
    return p.returncode, p.stdout


def test_generator_is_seeded() -> None:
    a, b, c = workloads.screen_lines(7, 25), workloads.screen_lines(7, 25), workloads.screen_lines(8, 25)
    expect(a == b, "same seed gave different lines")
    expect(a != c, "different seeds gave the same lines")
    expect(len(set(a)) == len(a), "duplicate lines in one stream")


def test_screen_check() -> None:
    lines = workloads.screen_lines(11, 30)
    expected = workloads.screen_expected(lines)
    expect(0 < sum(expected) < len(expected), "seed 11 should mix free and non-free graphs")
    rc, out = cli(["free", "--theta", "3,3"], "\n".join(lines) + "\n")
    expect(workloads.check_screen(lines, expected, rc, out) == "", "correct screen output rejected")

    records = [json.loads(r) for r in out.splitlines()]
    i = expected.index(False)
    flipped = [dict(r) for r in records]
    flipped[i].update(free=True, witness=None)
    bad = "\n".join(json.dumps(r) for r in flipped)
    expect(workloads.check_screen(lines, expected, rc, bad) != "", "flipped verdict accepted")

    broken = [dict(r) for r in records]
    w = dict(broken[i]["witness"])
    w["path_q"] = list(w["path_p"])
    broken[i]["witness"] = w
    bad = "\n".join(json.dumps(r) for r in broken)
    expect(workloads.check_screen(lines, expected, rc, bad) != "", "invalid witness accepted")
    expect(workloads.check_screen(lines, expected, rc, "\n".join(out.splitlines()[:-1])) != "", "missing verdict accepted")
    expect(workloads.check_screen(lines, expected, 2, out) != "", "non-zero exit accepted")


def test_search_check() -> None:
    fixture = workloads.load_fixture(ROOT)
    good = {"body": dict(fixture["body"]), "meta": {"from_cache": False, "jobs": 1, "runtime_seconds": 1.0}}
    expect(workloads.check_search(fixture, 0, json.dumps(good)) == "", "fixture body rejected")
    for key, value in (
        ("survivors", fixture["body"]["survivors"] + 1),
        ("argmax", fixture["body"]["argmax"][:-1] + ["F?~~w"]),
        ("best_rho", fixture["body"]["best_rho"] * (1 + 1e-9)),
    ):
        bad = json.loads(json.dumps(good))
        bad["body"][key] = value
        expect(workloads.check_search(fixture, 0, json.dumps(bad)) != "", f"altered {key} accepted")
    cached = json.loads(json.dumps(good))
    cached["meta"]["from_cache"] = True
    expect(workloads.check_search(fixture, 0, json.dumps(cached)) != "", "cached report accepted")


def test_certify_check() -> None:
    ms = [90, 92, 94]
    rc, out = cli(["verify", "--lemma", "2.6", "--m-range", "90:94:2"])
    expect(workloads.check_certify(ms, rc, out) == "", "correct certify output rejected")
    records = json.loads(out)
    records[0]["holds"] = False
    expect(workloads.check_certify(ms, rc, json.dumps(records)) != "", "failed sign accepted")
    records = json.loads(out)
    records[1]["margin"] += 2e-6
    expect(workloads.check_certify(ms, rc, json.dumps(records)) != "", "drifted m=92 margin accepted")


def test_gate_check() -> None:
    good = "\n".join(f"PASS criterion {k} (x): y [0.01s]" for k in range(1, 11))
    expect(workloads.check_gate(0, good) == "", "ten PASS lines rejected")
    expect(workloads.check_gate(0, good.replace("PASS criterion 6", "FAIL criterion 6")) != "", "FAIL accepted")
    expect(workloads.check_gate(0, "\n".join(good.splitlines()[:9])) != "", "nine lines accepted")
    expect(workloads.check_gate(1, good) != "", "exit 1 accepted")


def test_span_aggregation() -> None:
    rec = tracer.Recorder()

    def leaf():
        time.sleep(0.01)

    def outer(depth):
        leaf_t()
        if depth:
            outer_t(depth - 1)

    leaf_t = rec.wrap("graphs.to_graph6", leaf)
    outer_t = rec.wrap("theta.contains_theta", outer, lambda a, k, r: None)
    outer_t(1)  # outer -> leaf, outer -> leaf
    leaf_t()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "spans")
        rec.dump(path, {"classes": 0, "augmentations": 0, "span_cost_s": 0.0, "post_s": 0.0})
        head, name_id, parent, start, end = tracer.load_spans(path)
        expect(head["count"] == 5 and list(parent) == [-1, 0, 0, 2, -1], "span parents wrong")
        m = tracer.layer_metrics(path, wall_s=1.0)
    outer_busy = end[0] - start[0]
    leaf_busy = sum(end[i] - start[i] for i in (1, 3, 4))
    expect(m["theta.contains_theta.calls"] == 2, "nested calls not all counted")
    expect(abs(m["theta.contains_theta.busy_s"] - outer_busy) < 1e-12, "recursive busy time double-counted")
    expect(abs(m["graphs.to_graph6.busy_s"] - leaf_busy) < 1e-12, "leaf busy time wrong")
    inner_self = m["theta.contains_theta.self_s"] - (outer_busy - leaf_busy + (end[4] - start[4]))
    expect(abs(inner_self) < 1e-12, "self time of a recursive layer wrong")
    expect(abs(m["cli.self_s"] - (1.0 - outer_busy - (end[4] - start[4]))) < 1e-12, "self time wrong")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for t in tests:
        try:
            t()
        except SelfTestFailure as exc:
            failures += 1
            print(f"FAIL {t.__name__}: {exc}")
        else:
            print(f"ok   {t.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
