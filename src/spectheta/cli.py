"""Command line front end.

Subcommands: construct, rho, free, search, verify, decompose,
report-all.  Exit code 0 means the run completed and every verdict
held, 1 means a verdict failed (a gated check whose hypotheses were not
met is not a failure), 2 means the invocation itself was bad or a file
could not be read or written.  `free` on stdin writes an error record
for each malformed graph6 line, goes on, and exits 2 at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from typing import Optional

from .acceptance import CORPUS_SEED, run_all
from .enumeration import extremal_search, search_cache_get, search_cache_put
from .families import closed_form_rho, make_graph, parse_family_spec
from .graphs import Graph, _iter_bits, parse_graph6, to_graph6
from .polynomials import Polynomial
from .quadratic import QuadExt
from .sampling import sample_graphs
from .spectral import (
    char_poly,
    coarsest_equitable_partition,
    is_equitable,
    spectral_radius,
    verify_quotient_divides,
)
from .theta import check_theta_lengths, contains_theta
from .verifiers import (
    DecompositionReport,
    check_eq1,
    check_eq4,
    check_lemma25,
    check_lemma26,
    check_lemma27,
    decompose_at,
    rotation_sweep,
)


def _parse_theta(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected p,q but got {text!r}")
    p, q = (int(x) for x in parts)
    check_theta_lengths(p, q)
    return p, q


def _parse_m_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:step but got {text!r}")
    lo, hi, step = (int(x) for x in parts)
    if step < 1 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    return range(lo, hi + 1, step)


def _load_graph(args) -> Graph:
    if getattr(args, "graph6", None) and getattr(args, "family", None):
        raise ValueError("give either --graph6 or --family, not both")
    if getattr(args, "graph6", None):
        return parse_graph6(args.graph6)
    if getattr(args, "family", None):
        return make_graph(parse_family_spec(args.family))
    raise ValueError("a graph is required: pass --graph6 or --family")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _dumps(obj) -> str:
    # a non-finite float raises ValueError (exit 2) rather than print
    # a bare Infinity or NaN, which is not JSON
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _vs(mask: int) -> list[int]:
    return list(_iter_bits(mask))


def _quad_dict(q: QuadExt) -> dict:
    return {"a": str(q.a), "b": str(q.b), "d": q.d, "float": float(q)}


def _poly_dict(p: Polynomial) -> dict:
    return {"coeffs": list(p.coeffs)}


def _closed_form_dict(spec, rho: float) -> Optional[dict]:
    try:
        desc = closed_form_rho(spec)
    except ValueError:
        return None
    return {
        "value": desc.value,
        "exact": _quad_dict(desc.exact) if desc.exact is not None else None,
        "poly": _poly_dict(desc.poly) if desc.poly is not None else None,
        "matches_iteration": abs(desc.value - rho) <= 1e-9 * max(1.0, abs(rho)),
    }


def _decomposition_dict(rep: DecompositionReport) -> dict:
    return {
        "apex": rep.apex,
        "N0": _vs(rep.N0),
        "Nplus": _vs(rep.Nplus),
        "W": _vs(rep.W),
        "eW": rep.eW,
        "eNW": rep.eNW,
        "c": rep.c,
        "components": [
            {
                "vertices": _vs(comp.vertices),
                "kind": comp.classification.kind,
                "params": list(comp.classification.params),
                "variant": comp.classification.variant,
                "reaches_W": _vs(comp.reaches_W),
                "zeta": comp.zeta,
            }
            for comp in rep.components
        ],
        "zeta_total": sum(comp.zeta for comp in rep.components),
        "rho": rep.certificate.rho,
        "perron": list(rep.certificate.perron),
    }


def cmd_construct(args) -> int:
    g = make_graph(parse_family_spec(args.family))
    _emit(to_graph6(g), args.out)
    return 0


def cmd_rho(args) -> int:
    g = _load_graph(args)
    cert = spectral_radius(g)
    out = {
        "graph6": to_graph6(g),
        "n": g.n,
        "m": g.m,
        "rho": cert.rho,
        "residual": cert.residual,
        "iterations": cert.iterations,
        "converged": cert.converged,
    }
    if args.family:
        cf = _closed_form_dict(parse_family_spec(args.family), cert.rho)
        if cf is not None:
            out["closed_form"] = cf
    _emit(_dumps(out), args.out)
    return 0


def _free_verdict(g: Graph, p: int, q: int) -> dict:
    w = contains_theta(g, p, q)
    return {"graph6": to_graph6(g), "free": w is None, "witness": asdict(w) if w else None}


def cmd_free(args) -> int:
    p, q = _parse_theta(args.theta)
    if args.graph6:
        _emit(_dumps(_free_verdict(parse_graph6(args.graph6), p, q)), args.out)
        return 0
    bad = 0
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as sink:
        for raw in sys.stdin:
            raw = raw.strip()
            if not raw:
                continue
            try:
                g = parse_graph6(raw)
            except ValueError as exc:
                bad += 1
                record = {"graph6": raw, "error": str(exc)}
            else:
                record = _free_verdict(g, p, q)
            print(json.dumps(record, sort_keys=True), file=sink, flush=True)
    if bad:
        print(f"error: {bad} malformed graph6 line(s)", file=sys.stderr)
        return 2
    return 0


def cmd_search(args) -> int:
    pattern = _parse_theta(args.theta)
    report = search_cache_get(args.m, pattern, args.cache_dir)
    cached = report is not None
    if report is None:
        report = extremal_search(args.m, pattern, jobs=args.jobs)
        search_cache_put(report, args.cache_dir)
    report["meta"]["from_cache"] = cached
    _emit(_dumps(report), args.out)
    return 0


def _refuse_unread_flags(args) -> None:
    """Refuse a verify flag that the chosen check would ignore."""
    graph = ("graph6", "family")
    reads = ("m", "m_range") if args.lemma == "2.6" else graph
    check = f"--lemma {args.lemma}" if args.lemma else f"--eq {args.eq}"
    for flag in graph + ("m", "m_range"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"verify {check} does not read --{flag.replace('_', '-')}")


def cmd_verify(args) -> int:
    if (args.lemma is None) == (args.eq is None):
        raise ValueError("give exactly one of --lemma or --eq")
    _refuse_unread_flags(args)

    if args.lemma == "2.1":
        if args.graph6 or args.family:
            graphs = [_load_graph(args)]
        else:
            graphs = sample_graphs(CORPUS_SEED + 7, 100, 10, connected=True)
        out = rotation_sweep(graphs)
        _emit(_dumps(out), args.out)
        return 1 if out["violations"] else 0

    if args.lemma == "2.3":
        g = _load_graph(args)
        part = coarsest_equitable_partition(g)
        quo = is_equitable(g, part)
        ok = verify_quotient_divides(g, quo)
        out = {
            "partition": [list(b) for b in part],
            "quotient": [list(row) for row in quo],
            "quotient_char_poly": _poly_dict(char_poly(quo)),
            "divides": ok,
        }
        _emit(_dumps(out), args.out)
        return 0 if ok else 1

    if args.lemma == "2.6":
        if (args.m is None) == (args.m_range is None):
            raise ValueError("--lemma 2.6 needs one of --m or --m-range")
        ms = [args.m] if args.m is not None else _parse_m_range(args.m_range)
        # the largest m first, so an m past the bound fails before the sweep
        last = check_lemma26(ms[-1])
        checks = [check_lemma26(m) for m in ms[:-1]] + [last]
        payload = [asdict(c) for c in checks]
        _emit(_dumps(payload[0] if args.m is not None else payload), args.out)
        return 1 if any(c.holds is False for c in checks) else 0

    # lemma 2.5, lemma 2.7, eq 1 and eq 4: one graph, one verdict
    g = _load_graph(args)
    check = {"2.5": check_lemma25, "2.7": check_lemma27, "1": check_eq1, "4": check_eq4}
    chk = check[args.lemma or args.eq](g)
    _emit(_dumps(asdict(chk)), args.out)
    return 1 if chk.holds is False else 0


def cmd_decompose(args) -> int:
    rep = decompose_at(_load_graph(args))
    _emit(_dumps(_decomposition_dict(rep)), args.out)
    return 0


def cmd_report_all(args) -> int:
    m_max = args.m if args.m is not None else 8
    if m_max < 1:
        raise ValueError("--m must be at least 1")
    results = run_all(m_max=m_max, jobs=args.jobs)
    for r in results:
        print(r.line())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dumps([asdict(r) for r in results]) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _add_graph_flags(sub) -> None:
    sub.add_argument("--graph6", help="graph6 string naming the input graph")
    sub.add_argument("--family", help="family spec like S-,n=48,k=2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectheta",
        description="construct, measure, and verify spectral extremal graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a family member as graph6")
    p.add_argument("--family", required=True, help="family spec like G4,r=45,t=1")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("rho", help="certified spectral radius")
    _add_graph_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("free", help="theta-subgraph freeness verdicts")
    p.add_argument("--theta", default="3,3", metavar="p,q")
    p.add_argument("--graph6", help="single graph; otherwise graph6 lines are read from stdin")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("search", help="extremal search over all graphs of one size")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta", default="3,3", metavar="p,q")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache-dir")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify", help="run one verifier")
    _add_graph_flags(p)
    p.add_argument("--lemma", choices=["2.1", "2.3", "2.5", "2.6", "2.7"])
    p.add_argument("--eq", choices=["1", "4"])
    p.add_argument("--m", type=int)
    p.add_argument("--m-range", metavar="lo:hi:step")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("decompose", help="apex neighborhood decomposition")
    _add_graph_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("report-all", help="run the acceptance criteria")
    p.add_argument("--m", type=int, help="cap for the enumeration-heavy criteria")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report_all)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("jobs must be at least 1")
        if args.out:
            # fail on an unwritable --out before the work; append mode
            # never truncates a file that is already there
            open(args.out, "a").close()
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
