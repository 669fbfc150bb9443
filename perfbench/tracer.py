"""Span tracing for one traced `spectheta` operation, and the per-layer
metrics computed from its spans.

Run as a script it performs one operation in-process with spans around
the public functions of each module:

    python3 perfbench/tracer.py SPANS_FILE -- <spectheta arguments>

The wrappers are installed from here, with no edit to the package: each
target function is replaced under every name the package binds it to
(`spectheta.enumeration.spectral_radius`, `spectheta.cli.extremal_search`,
...), and methods are replaced on their class.  Spans (name, start, end,
parent) stay in memory and are written to SPANS_FILE when the operation
has finished, together with a few counters read off return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Optional

# (module, attribute path); the span name is "<module>.<last attribute>"
TARGETS = [
    ("enumeration", "extremal_search"),
    ("enumeration", "enumerate_by_size"),
    ("enumeration", "canonical_form"),
    ("enumeration", "labeled_class_count"),
    ("spectral", "spectral_radius"),
    ("spectral", "char_poly"),
    ("theta", "contains_theta"),
    ("graphs", "parse_graph6"),
    ("graphs", "to_graph6"),
    ("polynomials", "largest_real_root"),
    ("polynomials", "Polynomial.eval_quad"),
    ("quadratic", "QuadExt.sign"),
    ("verifiers", "check_lemma26"),
] + [("acceptance", f"criterion_{k}") for k in range(1, 11)]


class Recorder:
    """Spans as parallel arrays, indexed in call order; a parent always
    precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters = {
            "power_iterations": 0,
            "unconverged": 0,
            "theta_free": 0,
            "max_m": -1,
        }

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        head = {"names": self.names, "count": len(self.start), "counters": self.counters}
        head.update(extra)
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(rec: Recorder) -> dict:
    """Wrap every target wherever the package binds it; returns the
    unwrapped originals by span name."""
    import importlib

    importlib.import_module("spectheta.cli")
    modules = [m for k, m in sorted(sys.modules.items()) if k == "spectheta" or k.startswith("spectheta.")]
    counters = rec.counters

    def after_radius(args, kwargs, cert):
        counters["power_iterations"] += cert.iterations
        counters["unconverged"] += not cert.converged

    def after_theta(args, kwargs, witness):
        counters["theta_free"] += witness is None

    def after_enumerate(args, kwargs, classes):
        m = args[0] if args else kwargs["m"]
        counters["max_m"] = max(counters["max_m"], m)

    hooks = {
        "spectral.spectral_radius": after_radius,
        "theta.contains_theta": after_theta,
        "enumeration.enumerate_by_size": after_enumerate,
    }
    originals = {}
    for module, attr in TARGETS:
        owner = importlib.import_module(f"spectheta.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        name = f"{module}.{leaf}"
        orig = getattr(owner, leaf)
        wrapped = rec.wrap(name, orig, hooks.get(name))
        originals[name] = orig
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return originals


def span_cost_s(n: int = 20000) -> float:
    """Seconds one span adds to a call, from timing a wrapped and a bare
    no-op; multiplied by the span count it estimates the tracing cost."""

    def noop():
        return None

    traced = Recorder().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    t1 = clock()
    for _ in range(n):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def enumeration_counts(enumerate_by_size: Callable, max_m: int) -> dict:
    """Classes at the largest size enumerated, and the children tried to
    build that level from its parents (join a non-edge, hang a vertex,
    add a disjoint edge).  Both levels are already in the package's
    cache, so this does no enumeration."""
    if max_m < 1:
        return {"classes": 0, "augmentations": 0}
    classes = len(enumerate_by_size(max_m, budget=max_m))
    tried = 0
    for g in enumerate_by_size(max_m - 1, budget=max_m):
        tried += g.n * (g.n - 1) // 2 - g.m + g.n + 1
    return {"classes": classes, "augmentations": tried}


def traced_main(spans_path: str, cli_args: list[str]) -> int:
    rec = Recorder()
    originals = install(rec)
    from spectheta import cli

    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    done = time.perf_counter()
    extra = enumeration_counts(originals["enumeration.enumerate_by_size"], rec.counters["max_m"])
    extra["span_cost_s"] = span_cost_s() * len(rec.start)
    # the tracer's own work after the operation, kept out of cli.self_s
    extra["post_s"] = time.perf_counter() - done
    rec.dump(spans_path, extra)
    return rc


# ---- reading spans back (benchmark side) --------------------------------


def load_spans(path: str) -> tuple[dict, array, array, array, array]:
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (head, *arrays)


def layer_metrics(path: str, wall_s: float) -> dict:
    """Per-layer metrics of one traced operation whose wall time, spawn to
    exit, was wall_s."""
    head, name_id, parent, start, end = load_spans(path)
    names = head["names"]
    calls = {name: 0 for name in names}
    busy = {name: 0.0 for name in names}
    own = {name: 0.0 for name in names}
    covered = [0.0] * len(start)  # time each span's children cover
    root_s = 0.0
    for i in reversed(range(len(start))):  # children before their parent
        nid = name_id[i]
        name = names[nid]
        dur = end[i] - start[i]
        calls[name] += 1
        own[name] += dur - covered[i]
        p = parent[i]
        if p < 0:
            root_s += dur
        else:
            covered[p] += dur
        # busy time counts the outermost span of a name only
        while p >= 0 and name_id[p] != nid:
            p = parent[p]
        if p < 0:
            busy[name] += dur

    c = head["counters"]
    theta_calls = calls["theta.contains_theta"]
    out = {
        "enumeration.classes": head["classes"],
        "enumeration.augmentations": head["augmentations"],
        "enumeration.accept_ratio": head["classes"] / head["augmentations"] if head["augmentations"] else 0.0,
        "spectral.power_iterations": c["power_iterations"],
        "spectral.unconverged": c["unconverged"],
        "theta.free_ratio": c["theta_free"] / theta_calls if theta_calls else 0.0,
        "cli.self_s": wall_s - root_s - head["post_s"],
        "trace.spans": len(start),
        "trace.span_cost_s": head["span_cost_s"],
    }
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = own[name]
        out[f"{name}.us_per_call"] = 1e6 * busy[name] / calls[name] if calls[name] else 0.0
    return out


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py SPANS_FILE -- <spectheta arguments>", file=sys.stderr)
        sys.exit(2)
    sys.exit(traced_main(sys.argv[1], sys.argv[3:]))
