import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import spectheta
from conftest import member
from spectheta.cli import main
from spectheta.enumeration import canonical_form
from spectheta.families import make_theta
from spectheta.graphs import parse_graph6, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_cli_paths_without_radii_never_load_numpy():
    code = (
        "import sys\n"
        "from spectheta.cli import main\n"
        "loaded = 'numpy' in sys.modules\n"
        "main(['construct', '--family', 'S,n=6,k=2'])\n"
        "main(['free', '--graph6', 'E~~w'])\n"
        "main(['verify', '--lemma', '2.6', '--m', '92'])\n"
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


def test_construct_emits_graph6(capsys):
    code, out = run(capsys, "construct", "--family", "S-,n=10,k=2")
    assert code == 0
    assert parse_graph6(out.strip()) == member("S-,n=10,k=2")


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


def test_search_uses_cache(tmp_path, capsys):
    code, d = run_json(
        capsys, "search", "--m", "4", "--theta", "3,3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert d["meta"]["from_cache"] is False
    assert d["body"]["total"] == 11
    assert d["body"]["argmax"] == ["CN"]

    code, d = run_json(
        capsys, "search", "--m", "4", "--theta", "3,3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert d["meta"]["from_cache"] is True
    assert d["body"]["best_rho"] == pytest.approx(2.170086486626033, abs=1e-12)


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


def test_verify_apex_identity_tolerance_failure(capsys):
    code = main(["verify", "--eq", "1", "--family", "S,n=8,k=2", "--tol", "1e-30"])
    assert code == 1


def test_usage_errors(capsys):
    assert main(["verify", "--m", "92"]) == 2  # neither --lemma nor --eq
    assert main(["verify", "--lemma", "2.6", "--eq", "1", "--m", "92"]) == 2
    assert main(["rho"]) == 2
    assert main(["rho", "--graph6", "C~", "--family", "star,r=3"]) == 2
    assert main(["construct", "--family", "nope,n=1"]) == 2
    assert main(["free", "--graph6", "definitely not graph6"]) == 2
    assert main(["rho", "--graph6", "C~", "--tol", "0"]) == 2
    assert main(["report-all", "--m", "0"]) == 2
    assert main(["report-all", "--m", "-3"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


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
