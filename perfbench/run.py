"""The spectheta benchmark: cold CLI operations in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client starts one cold
`spectheta` process at a time (`--jobs 1`); the next starts only after
the previous has exited.  Each operation is timed from spawn to exit,
its process tree's CPU time and peak memory are read from `wait4`, and
its output is checked.  Operations repeat until the next one would end
past S seconds (at least one always runs).

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics from
traced operations (see tracer.py), each paired with an untraced one so
the tracing overhead is measured in the same run.

The benchmark writes only under `.perfbench_run/` in the checkout, never
touches the user's search cache, and stops every process it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CLI_BOOT = "import sys; from spectheta.cli import main; sys.exit(main())"
SETUP_ARGS = ["--help"]
SETUP_REPEATS = 5
RUN_DEADLINE_S = 165.0
# the search cache is redirected per operation; these must not leak in
CACHE_VARS = ("XLAB_CACHE_DIR", "SPECTHETA_CACHE_DIR")


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    out: str


class Runner:
    """Spawns one process at a time inside a private work directory."""

    def __init__(self, work: str):
        self.work = work
        env = {k: v for k, v in os.environ.items() if k not in CACHE_VARS}
        env["PYTHONPATH"] = SRC
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.serial = 0

    def spawn(self, argv: list[str], stdin_path: str | None, timeout: float) -> Sample:
        self.serial += 1
        out_path = os.path.join(self.work, f"out{self.serial}")
        err_path = os.path.join(self.work, f"err{self.serial}")
        with open(stdin_path or os.devnull, "rb") as fin, open(out_path, "wb") as fout, open(
            err_path, "wb"
        ) as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=self.env, cwd=self.work)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            out = fh.read()
        with open(err_path) as fh:
            err = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        rc = proc.returncode
        if rc != 0 and err:
            print(err.rstrip()[-2000:], file=sys.stderr)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, rc, out)


def cli_argv(job, work: str, serial: int) -> list[str]:
    argv = list(job.argv)
    if job.needs_cache_dir:
        # a fresh, empty cache directory: the search must compute
        argv += ["--cache-dir", os.path.join(work, f"cache{serial}")]
    return argv


def setup_sample(runner: Runner) -> float:
    """Cold start of a spectheta process that does no work: interpreter,
    numpy and package import, argparse."""
    s = runner.spawn([sys.executable, "-c", CLI_BOOT] + SETUP_ARGS, None, 60)
    if s.returncode != 0:
        raise RuntimeError("spectheta --help failed")
    return s.wall_s


def metric_specs(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer
    import workloads

    job = workloads.prepare(workload, seed, ROOT)
    base = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    try:
        runner = Runner(work)
        stdin_path = None
        if job.stdin_text is not None:
            stdin_path = os.path.join(work, "stdin")
            with open(stdin_path, "w") as fh:
                fh.write(job.stdin_text)
        # one unmeasured start first, so byte-code compilation is not counted;
        # then one set-up sample before each operation, so the samples span
        # the run as the operations do
        setup_sample(runner)
        setups: list[float] = []

        plain: list[Sample] = []
        traced: list[Sample] = []
        layers: list[dict] = []
        attempted = failed = 0
        t_start = time.perf_counter()
        deadline = t_start + RUN_DEADLINE_S

        def one(argv: list[str], spans: str | None = None) -> Sample:
            nonlocal attempted, failed
            timeout = max(5.0, deadline - time.perf_counter())
            s = runner.spawn(argv, stdin_path, timeout)
            attempted += 1
            reason = job.check(s.returncode, s.out)
            if spans is not None and not reason:
                if not os.path.exists(spans):
                    reason = "no spans written"
                else:
                    layers.append(tracer.layer_metrics(spans, s.wall_s))
                    os.remove(spans)
                    if layers[-1]["spectral.unconverged"]:
                        reason = "unconverged spectral radius"
            if reason:
                failed += 1
                print(f"{workload}: operation {attempted} failed: {reason}", file=sys.stderr)
            return s

        while True:
            setups.append(setup_sample(runner))
            serial = attempted
            plain.append(one([sys.executable, "-c", CLI_BOOT] + cli_argv(job, work, serial)))
            step = setups[-1] + plain[-1].wall_s
            if trace:
                spans = os.path.join(work, f"spans{serial}")
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--"]
                traced.append(one(argv + cli_argv(job, work, serial + 1), spans))
                step += traced[-1].wall_s
            elapsed = time.perf_counter() - t_start
            if elapsed + step > seconds or time.perf_counter() + step > deadline:
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_sample(runner))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(setups)

    wall = statistics.median(s.wall_s for s in plain)
    if trace:
        if not layers:
            raise RuntimeError("no traced operation produced spans")
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_ratio"] = statistics.median(s.wall_s for s in traced) / wall - 1.0
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(s.cpu_s for s in plain),
            "items_per_s": job.items / wall,
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
            "setup_s": setup_s,
            "ok_ratio": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs(trace)}
    print(
        f"{workload} seed={seed}: {len(plain)} untraced, {len(traced)} traced operations; "
        f"median wall {wall:.3f} s; setup {setup_s:.3f} s",
        file=sys.stderr,
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spectheta", "cli.py")):
        print(f"no spectheta sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import spectheta
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(spectheta.__file__))) != SRC:
        print(f"spectheta imported from {spectheta.__file__}, not the checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
