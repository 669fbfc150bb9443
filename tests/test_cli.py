import ast
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import spectheta
from conftest import member
from spectheta import cli
from spectheta.cli import main
from spectheta.enumeration import canonical_form
from spectheta.families import make_theta
from spectheta.graphs import parse_graph6, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _no_constant(name):
    # json.loads accepts Infinity and NaN unless told otherwise
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out, parse_constant=_no_constant)


def test_cli_paths_without_radii_never_load_numpy():
    code = (
        "import sys\n"
        "from spectheta.cli import main\n"
        "loaded = 'numpy' in sys.modules\n"
        "main(['construct', '--family', 'S,n=6,k=2'])\n"
        "main(['free', '--graph6', 'E~~w'])\n"
        "main(['verify', '--lemma', '2.6', '--m', '92'])\n"
        "main(['verify', '--lemma', '2.6', '--m-range', '6:200:2'])\n"
        "from spectheta.families import closed_form_rho, parse_family_spec\n"
        "closed_form_rho(parse_family_spec('S-,n=48,k=3'))\n"
        "print(loaded, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(spectheta.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False False"


def test_benchmark_tracer_still_binds_its_targets(tmp_path, monkeypatch):
    # perfbench/tracer.py wraps package functions by name and reads
    # iterations and converged off each spectral_radius certificate
    bench = pathlib.Path(__file__).parents[1] / "perfbench"
    spans = tmp_path / "spans"
    src = os.path.dirname(os.path.dirname(spectheta.__file__))
    done = subprocess.run(
        [sys.executable, str(bench / "tracer.py"), str(spans), "--", "rho", "--family", "S,n=5,k=2"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert spans.exists()
    monkeypatch.syspath_prepend(str(bench))
    import tracer

    metrics = tracer.layer_metrics(str(spans), wall_s=1.0)
    assert metrics["spectral.spectral_radius.calls"] >= 1
    assert metrics["spectral.power_iterations"] > 0
    assert metrics["spectral.unconverged"] == 0


def _defined_names(tree):
    """Top-level functions, classes and constants, and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__version__":
                yield target.id


def _named_names(tree):
    """Identifiers the code reads: names, attributes, imports, keyword
    arguments and the words of non-docstring strings."""
    docstrings = {
        ast.get_docstring(node, clean=False)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value not in docstrings:
            yield from re.findall(r"\w+", node.value)


def test_every_package_name_is_read_outside_the_tests():
    # the package's surface is what src/, the CLI and the benchmark call;
    # a name only tests reach is dead code with a test around it
    root = pathlib.Path(__file__).parents[1]
    sources = sorted((root / "src" / "spectheta").glob("*.py"))
    used = set(re.findall(r"\w+", (root / "pyproject.toml").read_text()))
    defined = []
    for path in sources + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        used.update(_named_names(tree))
        if path in sources:
            defined += [(path.stem, name) for name in _defined_names(tree)]
    assert [f"{mod}.{name}" for mod, name in defined if name not in used] == []


def test_construct_emits_graph6(capsys):
    code, out = run(capsys, "construct", "--family", "S-,n=10,k=2")
    assert code == 0
    g, want = parse_graph6(out.strip()), member("S-,n=10,k=2")
    assert (g.n, g.adj) == (want.n, want.adj)


def test_construct_to_file(tmp_path, capsys):
    target = tmp_path / "g.g6"
    code, out = run(capsys, "construct", "--family", "star,r=4", "--out", str(target))
    assert code == 0 and out == ""
    assert parse_graph6(target.read_text().strip()).m == 4


def test_rho_reports_certificate_and_closed_form(capsys):
    code, d = run_json(capsys, "rho", "--family", "G4,r=45,t=1")
    assert code == 0
    assert d["n"] == 48 and d["m"] == 92
    assert d["rho"] == pytest.approx(10.026398668439942, abs=1e-9)
    assert d["converged"] is True
    assert d["closed_form"]["matches_iteration"] is True
    assert d["closed_form"]["poly"]["coeffs"] == [45, -90, -92, 0, 1]


def test_rho_from_graph6(capsys):
    code, d = run_json(capsys, "rho", "--graph6", "C~")
    assert code == 0
    assert d["rho"] == pytest.approx(3.0, abs=1e-9)
    assert "closed_form" not in d


def test_free_single_graph(capsys):
    code, d = run_json(capsys, "free", "--graph6", to_graph6(make_theta(3, 3)))
    assert code == 0
    assert d["free"] is False
    assert d["witness"]["anchors"] == [0, 1]


def test_free_streams_stdin(capsys, monkeypatch):
    lines = "\n".join([to_graph6(member("S-,n=8,k=2")), "C~", ""])
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code, out = run(capsys, "free", "--theta", "3,3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["free"] for r in rows] == [True, True]


def test_free_reports_a_bad_line_and_goes_on(capsys, monkeypatch):
    theta = to_graph6(make_theta(3, 3))
    monkeypatch.setattr("sys.stdin", io.StringIO(f"C~\nnot graph6\n{theta}\n"))
    code, out = run(capsys, "free")
    assert code == 2
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["graph6"] for r in rows] == ["C~", "not graph6", theta]
    assert rows[0]["free"] is True
    assert set(rows[1]) == {"graph6", "error"} and rows[1]["error"]
    assert rows[2]["free"] is False


def test_free_rejects_bad_theta(capsys):
    code = main(["free", "--theta", "3", "--graph6", "C~"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "--family", "S,n=5,k=2", "--out", "{tmp}/missing/x.json"],
        ["search", "--m", "4", "--cache-dir", "{tmp}/file/x"],
        ["search", "--m", "9", "--cache-dir", "{tmp}/cache", "--out", "{tmp}/missing/x.json"],
        ["report-all", "--m", "2", "--out", "{tmp}/missing/x.json"],
    ],
    ids=["rho --out", "search --cache-dir", "search --out", "report-all --out"],
)
def test_os_errors_exit_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    # a bad path is refused before the search or the criteria run
    def never(*args, **kw):
        raise AssertionError("worked before checking the path")

    monkeypatch.setattr(cli, "extremal_search", never)
    monkeypatch.setattr(cli, "run_all", never)
    (tmp_path / "file").write_text("")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_search_uses_cache(tmp_path, capsys):
    argv = ("search", "--m", "4", "--theta", "3,3", "--cache-dir", str(tmp_path))
    code, fresh = run(capsys, *argv)
    assert code == 0
    d = json.loads(fresh)
    assert d["meta"]["from_cache"] is False
    assert d["body"]["total"] == 11
    assert d["body"]["argmax"] == ["CN"]

    code, cached = run(capsys, *argv)
    assert code == 0
    d = json.loads(cached)
    assert d["meta"]["from_cache"] is True
    assert d["body"]["best_rho"] == pytest.approx(2.170086486626033, abs=1e-12)

    # the same bytes, apart from from_cache and the runtime
    def masked(text):
        return re.sub(r'"(from_cache|runtime_seconds)": .*', "", text)

    assert masked(fresh) == masked(cached)


def test_verify_sign_sweep_single(capsys):
    code, d = run_json(capsys, "verify", "--lemma", "2.6", "--m", "92")
    assert code == 0
    assert d["holds"] is True
    assert d["margin"] == pytest.approx(1.1922681111720124e-4, abs=1e-9)


def test_verify_sign_sweep_range(capsys):
    code, rows = run_json(capsys, "verify", "--lemma", "2.6", "--m-range", "6:30:2")
    assert code == 0
    assert len(rows) == 13 and all(r["holds"] for r in rows)


def test_verify_sign_sweep_rejects_odd(capsys):
    assert main(["verify", "--lemma", "2.6", "--m", "93"]) == 2


def test_verify_quotient(capsys):
    code, d = run_json(capsys, "verify", "--lemma", "2.3", "--family", "S,n=23,k=2")
    assert code == 0
    assert d["divides"] is True
    assert d["quotient_char_poly"]["coeffs"] == [-42, -1, 1]


def test_verify_rotation_for_one_graph(capsys):
    code, d = run_json(capsys, "verify", "--lemma", "2.1", "--graph6", "DJ{")
    assert code == 0
    # K4 with a pendant: no pair has a heavier u and private edges at v
    assert d == {"graphs": 1, "rotations": 0, "violations": 0, "min_margin": None}
    code, d = run_json(capsys, "verify", "--lemma", "2.1", "--family", "D,a=1,b=2")
    assert code == 0
    assert (d["graphs"], d["rotations"], d["violations"]) == (1, 3, 0)
    assert d["min_margin"] > 1e-10
    assert main(["verify", "--lemma", "2.1", "--graph6", "C`"]) == 2  # disconnected


def test_verify_rotation_sweep(capsys):
    code, d = run_json(capsys, "verify", "--lemma", "2.1")
    assert code == 0
    assert set(d) == {"graphs", "rotations", "violations", "min_margin"}
    assert (d["graphs"], d["rotations"], d["violations"]) == (100, 989, 0)
    assert d["min_margin"] > 1e-10


def test_verify_bipartite_bound(capsys):
    code, d = run_json(capsys, "verify", "--lemma", "2.5", "--family", "star,r=9")
    assert code == 0
    assert d["holds"] is True


def test_verify_gated_is_not_failure(capsys):
    g6 = to_graph6(make_theta(3, 3))
    code, d = run_json(capsys, "verify", "--eq", "4", "--graph6", g6)
    assert code == 0
    assert d["holds"] is None


def test_eq4_fails_below_the_papers_range_with_every_hypothesis_true(capsys):
    # K5 with apex 8, which also carries a pendant and the path 8-2-3-1:
    # m = 14, far below the paper's m >= 92, and e(W) = 1 exceeds the bound
    code, d = run_json(capsys, "verify", "--eq", "4", "--graph6", "HB?GW]n")
    assert code == 1
    assert d["holds"] is False
    assert [h["holds"] for h in d["hypotheses"]] == [True, True]
    assert (d["lhs"], d["extra"]["apex"]) == (1.0, 8)
    assert d["margin"] == pytest.approx(-0.003059349444531234, abs=1e-12)


def test_verify_apex_identity_tolerance_failure(capsys, monkeypatch):
    monkeypatch.setattr("spectheta.verifiers.EQ1_TOL", 1e-30)
    code, d = run_json(capsys, "verify", "--eq", "1", "--family", "S,n=8,k=2")
    assert code == 1
    assert d["holds"] is False and d["extra"]["tolerance"] == 1e-30


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--lemma", "2.7", "--graph6", "@"],
        ["verify", "--eq", "4", "--graph6", "@"],
        ["verify", "--lemma", "2.7", "--graph6", "A_"],
    ],
)
def test_gate_margin_below_two_edges_is_null(capsys, argv):
    # (1 + sqrt(4m - 5))/2 is not real for m < 2: no margin to report
    code, d = run_json(capsys, *argv)
    assert code == 0
    assert d["extra"]["gate_margin"] is None
    assert {"name": "rho_exceeds_gate_bound", "holds": True} in d["hypotheses"]


def test_non_finite_output_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr("spectheta.cli.rotation_sweep", lambda graphs: {"violations": 0, "min_margin": math.inf})
    assert main(["verify", "--lemma", "2.1", "--graph6", "C~"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_usage_errors(capsys, monkeypatch):
    assert main(["verify", "--m", "92"]) == 2  # neither --lemma nor --eq
    assert main(["verify", "--lemma", "2.6", "--eq", "1", "--m", "92"]) == 2
    assert main(["verify", "--lemma", "2.6", "--m", "92", "--m-range", "6:8:2"]) == 2
    # flags the check would ignore
    assert main(["verify", "--lemma", "2.7", "--family", "S,n=10,k=2", "--m-range", "6:8:2", "--m", "7"]) == 2
    assert main(["verify", "--lemma", "2.6", "--m", "92", "--graph6", "@"]) == 2
    assert main(["rho"]) == 2
    assert main(["rho", "--graph6", "C~", "--family", "star,r=3"]) == 2
    assert main(["construct", "--family", "nope,n=1"]) == 2
    assert main(["free", "--graph6", "definitely not graph6"]) == 2
    assert main(["report-all", "--m", "0"]) == 2
    assert main(["report-all", "--m", "-3"]) == 2
    # a bad pattern is refused before the first graph is read
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["free", "--theta", "1,5"]) == 2
    assert main(["search", "--m", "40", "--theta", "4,3"]) == 2
    assert "error:" in capsys.readouterr().err
    # tolerances and the corpus seed are constants: --tol and --seed are
    # no flags of any subcommand
    for argv in (
        ["not-a-command"],
        ["rho", "--graph6", "C~", "--tol", "1e-3"],
        ["verify", "--eq", "1", "--family", "S,n=8,k=2", "--tol", "1e-3"],
        ["verify", "--lemma", "2.1", "--seed", "7"],
        ["report-all", "--m", "2", "--seed", "7"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--lemma", "2.7", "--family", "S,n=10,k=2", "--m", "7"], "verify --lemma 2.7 does not read --m"),
        (["--lemma", "2.6", "--m-range", "6:8:2", "--graph6", "DJ{"], "verify --lemma 2.6 does not read --graph6"),
        (["--lemma", "2.6", "--m", "92", "--family", "S,n=8,k=2"], "verify --lemma 2.6 does not read --family"),
        (["--lemma", "2.1", "--graph6", "DJ{", "--m", "7"], "verify --lemma 2.1 does not read --m"),
        (["--lemma", "2.1", "--m-range", "6:8:2"], "verify --lemma 2.1 does not read --m-range"),
        (["--lemma", "2.1", "--m", "8"], "verify --lemma 2.1 does not read --m"),
        (["--lemma", "2.3", "--family", "S,n=23,k=2", "--m", "1"], "verify --lemma 2.3 does not read --m"),
        (["--lemma", "2.5", "--family", "star,r=9", "--m-range", "6:8:2"], "verify --lemma 2.5 does not read --m-range"),
        (["--eq", "1", "--family", "S,n=8,k=2", "--m", "3"], "verify --eq 1 does not read --m"),
        (["--eq", "4", "--family", "S,n=8,k=2", "--m", "3"], "verify --eq 4 does not read --m"),
    ],
)
def test_verify_refuses_flags_its_check_ignores(capsys, argv, message):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _readme_commands():
    """Single-command rho, verify and decompose lines of the README's
    Command line block."""
    text = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["spectheta"] and "|" not in argv and argv[1] in ("rho", "verify", "decompose"):
            out.append(argv[1:])
    return out


README_COMMANDS = _readme_commands()


def test_readme_block_has_commands():
    assert len(README_COMMANDS) >= 10


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a) for a in README_COMMANDS])
def test_readme_examples_run(capsys, argv):
    code, _ = run_json(capsys, *argv)
    assert code == 0


def test_decompose_output_shape(capsys):
    code, d = run_json(capsys, "decompose", "--family", "G4,r=5,t=2")
    assert code == 0
    assert d["apex"] == 0
    assert d["N0"] == [7, 8]
    assert d["c"] == 1
    assert d["components"][0]["kind"] == "star"
    assert d["zeta_total"] == pytest.approx(sum(c["zeta"] for c in d["components"]))


def test_decompose_rejects_disconnected(capsys):
    assert main(["decompose", "--graph6", "C`"]) == 2


def test_apex_checks_reject_disconnected(capsys):
    for flags in (["--lemma", "2.7"], ["--eq", "1"], ["--eq", "4"]):
        assert main(["verify", *flags, "--graph6", "C`"]) == 2
        assert capsys.readouterr().err == "error: decomposition requires a connected graph\n"


def test_construct_then_verify_round_trip(capsys):
    code, out = run(capsys, "construct", "--family", "G4,r=7,t=1")
    g6 = out.strip()
    code, d = run_json(capsys, "verify", "--eq", "1", "--graph6", g6)
    assert code == 0 and d["holds"] is True
    assert canonical_form(parse_graph6(g6)) == canonical_form(member("S-,n=10,k=2"))


def _same_output(got, want, where="$"):
    """Equal JSON trees: key sets, ints, strings, bools and nulls exactly,
    floats within 1e-12 relative (absolute below 1)."""
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        scale = max(1.0, abs(want))
        assert got == want or abs(got - want) <= 1e-12 * scale, (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), (where, got, want)
        for key in want:
            _same_output(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for i, (a, b) in enumerate(zip(got, want)):
            _same_output(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_verify.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_apex_outputs_match_golden(capsys, case):
    # verify --lemma 2.7, --eq 1, --eq 4 and decompose on six inputs,
    # pinned so that the report layout and its values cannot drift
    code, out = run_json(capsys, *case["argv"])
    assert code == case["code"]
    _same_output(out, case["output"])
