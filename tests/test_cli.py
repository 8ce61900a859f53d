"""End-to-end tests of the command-line interface: exit codes, JSON shapes,
artifact determinism."""

import json
import math
import os
import re

import pytest

from lowdisc.cli import main
from lowdisc.quality import p_alpha


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    code, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, _ = run(capsys, "p2", "--a", "1,2")  # --n missing
    assert code == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_lattice_csv_to_stdout(capsys):
    code, out = run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2"
    assert lines[1] == "0/4,0/4"
    assert lines[2] == "1/4,3/4"


def test_gen_json_inlines_csv(capsys):
    code, out = run(capsys, "gen", "--kind", "halton", "--bases", "2,3", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "halton"
    assert payload["n"] == 4
    assert payload["s"] == 2
    assert payload["csv"].startswith("x1,x2")


GEN_NEEDS = {
    "lattice": ["--a", "--n"],
    "kronecker": ["--alphas", "--n"],
    "halton": ["--bases", "--n"],
    "hybrid": ["--first", "--second"],
    "digital": ["--matrices"],
    "niederreiter": ["--b", "--s", "--m"],
    "polylattice": ["--b", "--f", "--g"],
}


@pytest.mark.parametrize("kind", list(GEN_NEEDS))
def test_gen_missing_parameters_is_domain_error(capsys, kind):
    # the check runs before any value is used, so "1" stands in for all
    needs = GEN_NEEDS[kind]
    for given in range(len(needs)):
        argv = ["gen", "--kind", kind]
        for option in needs[:given]:
            argv += [option, "1"]
        code, out = run(capsys, *argv)
        assert code == 1
        named = re.findall(r"--[a-z0-9-]+", json.loads(out)["error"])
        assert named == ["--kind"] + needs[given:]


def test_gen_writes_artifacts_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "net"
    code, _ = run(
        capsys,
        "gen", "--kind", "niederreiter", "--b", "2", "--s", "2", "--m", "3",
        "--out", str(out_dir),
    )
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["manifest.json", "points.csv", "points.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["params"]["m"] == 3
    assert set(manifest["outputs"]) == {"points.csv", "points.json"}
    sidecar = json.loads((out_dir / "points.json").read_text())
    assert sidecar["provenance"]["kind"] == "niederreiter"
    assert "matrices" in sidecar["provenance"]


def test_gen_artifacts_are_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _ = run(
            capsys,
            "gen", "--kind", "kronecker", "--alphas", "sqrt(2),sqrt(3)", "--n", "20",
            "--out", str(d),
        )
        assert code == 0
    for name in ("points.csv", "points.json", "manifest.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_gen_digital_replays_recorded_matrices(tmp_path, capsys):
    src = tmp_path / "src"
    run(capsys, "gen", "--kind", "niederreiter", "--b", "3", "--s", "2", "--m", "2",
        "--out", str(src))
    dst = tmp_path / "dst"
    code, _ = run(
        capsys,
        "gen", "--kind", "digital", "--matrices", str(src / "points.json"),
        "--out", str(dst),
    )
    assert code == 0
    assert (dst / "points.csv").read_bytes() == (src / "points.csv").read_bytes()


def test_gen_digital_from_plain_matrix_file(tmp_path, capsys):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({"b": 2, "matrices": [[[1, 0], [0, 1]]]}))
    code, out = run(capsys, "gen", "--kind", "digital", "--matrices", str(path))
    assert code == 0
    assert out.splitlines() == ["x1", "0/4", "2/4", "1/4", "3/4"]
    # a window of the sequence instead of the full net
    code, out = run(
        capsys,
        "gen", "--kind", "digital", "--matrices", str(path),
        "--start", "1", "--n", "2",
    )
    assert code == 0
    assert out.splitlines() == ["x1", "2/4", "1/4"]


def test_gen_hybrid_concatenates_csvs(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "4", "--out", str(d1))
    run(capsys, "gen", "--kind", "halton", "--bases", "5", "--n", "4", "--out", str(d2))
    code, out = run(
        capsys,
        "gen", "--kind", "hybrid",
        "--first", str(d1 / "points.csv"), "--second", str(d2 / "points.csv"),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,x3"
    lattice_lines = (d1 / "points.csv").read_text().splitlines()
    for got, left in zip(lines[1:], lattice_lines[1:]):
        assert got.startswith(left + ",")


def test_gen_digital_needs_matrices(capsys):
    code, out = run(capsys, "gen", "--kind", "digital")
    assert code == 1
    assert "error" in json.loads(out)


# ---------------------------------------------------------------------------
# verify / discrepancy / p2 / integrate
# ---------------------------------------------------------------------------

def test_verify_reads_sidecar_for_dual_t(tmp_path, capsys):
    out_dir = tmp_path / "net"
    run(capsys, "gen", "--kind", "niederreiter", "--b", "2", "--s", "2", "--m", "4",
        "--out", str(out_dir))
    code, out = run(
        capsys,
        "verify", "--points", str(out_dir / "points.csv"),
        "--b", "2", "--m", "4", "--s", "2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["t_geometric"] == 0
    assert report["t_dual"] == 0
    assert report["star_discrepancy"] == {"num": 11, "den": 64}


def test_verify_keeps_denominators_of_odd_m_net(tmp_path, capsys):
    # the third matrix's last digit row is zero, so every numerator of that
    # column is even; the written denominator 512 must survive the CSV
    out_dir = tmp_path / "net"
    run(capsys, "gen", "--kind", "niederreiter", "--b", "2", "--s", "3", "--m", "9",
        "--out", str(out_dir))
    code, out = run(
        capsys,
        "verify", "--points", str(out_dir / "points.csv"),
        "--b", "2", "--m", "9", "--s", "3", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["t_geometric"] == 1
    assert report["t_dual"] == 1
    assert report["diagnostic_ratio"] is not None


def test_verify_polylattice_rebuilds_matrices(tmp_path, capsys):
    out_dir = tmp_path / "pl"
    run(capsys, "gen", "--kind", "polylattice", "--b", "2", "--f", "1,1,0,1",
        "--g", "1", "--out", str(out_dir))
    code, out = run(
        capsys,
        "verify", "--points", str(out_dir / "points.csv"),
        "--b", "2", "--m", "3", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["t_dual"] == 0  # g coprime to f: full rank


def test_verify_reports_p2_of_a_lattice(tmp_path, capsys):
    # the sidecar's provenance names the lattice, so verify can compute P_2
    out_dir = tmp_path / "fib"
    run(capsys, "gen", "--kind", "lattice", "--a", "1,34", "--n", "55",
        "--out", str(out_dir))
    code, out = run(capsys, "verify", "--points", str(out_dir / "points.csv"), "--json")
    assert code == 0
    assert json.loads(out)["p2"] == p_alpha([1, 34], 55)


def test_verify_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("x1,x2\n0/2,1/2\n")
    code, out = run(capsys, "verify", "--points", str(path), "--s", "3")
    assert code == 1
    assert "error" in json.loads(out)


def test_discrepancy_exact_output(tmp_path, capsys):
    path = tmp_path / "fib.csv"
    run(capsys, "gen", "--kind", "lattice", "--a", "1,8", "--n", "13", "--out", str(tmp_path))
    code, out = run(
        capsys, "discrepancy", "--points", str(tmp_path / "points.csv"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["num"], payload["den"]) == (28, 169)
    assert payload["exact"] is True


def test_discrepancy_budget_error(tmp_path, capsys):
    run(capsys, "gen", "--kind", "lattice", "--a", "1,89", "--n", "9000",
        "--out", str(tmp_path))
    code, out = run(
        capsys, "discrepancy", "--points", str(tmp_path / "points.csv")
    )
    assert code == 1
    assert "error" in json.loads(out)
    # explicit override succeeds
    code, out = run(
        capsys, "discrepancy", "--points", str(tmp_path / "points.csv"),
        "--n-limit", "9000", "--json",
    )
    assert code == 0


def test_p2_single_point(capsys):
    code, out = run(capsys, "p2", "--a", "1", "--n", "1", "--json")
    assert code == 0
    assert abs(json.loads(out)["p2"] - math.pi ** 2 / 3) < 1e-12


def test_integrate_constant_and_box(tmp_path, capsys):
    run(capsys, "gen", "--kind", "halton", "--bases", "2,3", "--n", "32",
        "--out", str(tmp_path))
    points = str(tmp_path / "points.csv")
    code, out = run(capsys, "integrate", "--points", points, "--f", "const1",
                    "--json")
    assert code == 0
    assert json.loads(out)["estimate"] == 1.0
    code, out = run(capsys, "integrate", "--points", points, "--f", "box",
                    "--y", "0.5,0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 0.25
    assert payload["abs_error"] <= 0.2
    code, out = run(capsys, "integrate", "--points", points, "--f", "nope")
    assert code == 1


# ---------------------------------------------------------------------------
# isbn
# ---------------------------------------------------------------------------

def test_isbn_valid_exit_0(capsys):
    code, out = run(capsys, "isbn", "0-521-39231-4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["weighted_sum"] == 176


def test_isbn_invalid_exit_1(capsys):
    code, out = run(capsys, "isbn", "0-521-39231-5", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["weighted_sum"] == 186


def test_isbn_malformed_is_structured_error(capsys):
    code, out = run(capsys, "isbn", "12345")
    assert code == 1
    assert "error" in json.loads(out)


# ---------------------------------------------------------------------------
# cmsweep / factor
# ---------------------------------------------------------------------------

def test_cmsweep_q13(capsys):
    code, out = run(capsys, "cmsweep", "--q", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"q": 13, "count": 1, "witnesses": [6]}


def test_factor_squared_binomial(capsys):
    code, out = run(capsys, "factor", "--p", "2", "--coeffs", "1,0,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["factors"] == [{"coeffs": [1, 1], "multiplicity": 2}]


def test_factor_from_poly_file(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("p=3\n0,0,2,2\n")  # 2x^3 + 2x^2 = 2 x^2 (x + 1)
    code, out = run(capsys, "factor", "--poly-file", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["content"] == 2
    assert payload["factors"] == [
        {"coeffs": [0, 1], "multiplicity": 2},
        {"coeffs": [1, 1], "multiplicity": 1},
    ]


def test_factor_human_rendering(capsys):
    code, out = run(capsys, "factor", "--p", "2", "--coeffs", "1,0,1")
    assert code == 0
    assert out.strip() == "x^2+1 = (x+1)^2 over F_2"


def test_factor_needs_input(capsys):
    code, out = run(capsys, "factor", "--p", "2")
    assert code == 1
    assert "error" in json.loads(out)


# ---------------------------------------------------------------------------
# inversive / inversive-audit / zaremba
# ---------------------------------------------------------------------------

def test_inversive_orbit_and_period(capsys):
    code, out = run(capsys, "inversive", "--q", "5", "--a", "1", "--b", "0",
                    "--u0", "2", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit"] == [2, 3, 2, 3]
    assert payload["period"] == 2
    assert payload["pre_period"] == 0


def test_inversive_default_length_is_one_period(capsys):
    code, out = run(capsys, "inversive", "--q", "5", "--a", "1", "--b", "1",
                    "--u0", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit"] == [0, 1, 2, 4]
    assert payload["n"] == payload["period"] == 4


def test_inversive_bad_params(capsys):
    code, out = run(capsys, "inversive", "--q", "6", "--a", "1", "--b", "0",
                    "--u0", "2")
    assert code == 1
    assert "error" in json.loads(out)


def test_inversive_audit_clean_and_thread_invariant(capsys):
    code, out1 = run(capsys, "inversive-audit", "--qmax", "13", "--json")
    assert code == 0
    code, out2 = run(capsys, "inversive-audit", "--qmax", "13", "--json")
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["violations"] == []
    assert payload["combinations"] > 0


def test_threads_option_is_gone(capsys):
    assert main(["zaremba", "--base", "2", "--mmax", "4", "--c", "3", "--threads", "2"]) == 2
    assert main(["inversive-audit", "--qmax", "13", "--threads", "2"]) == 2
    capsys.readouterr()


def test_zaremba_csv_frozen_prefix(capsys):
    code, out = run(capsys, "zaremba", "--base", "2", "--mmax", "8", "--c", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,witness,max_quotient,quotients"
    witnesses = [int(line.split(",")[2]) for line in lines[1:]]
    assert witnesses == [1, 3, 3, 7, 25, 19, 47, 75]


def test_zaremba_absent_witness_exits_1(capsys):
    # c=1 means all partial quotients equal 1: impossible for n=4
    code, out = run(capsys, "zaremba", "--base", "2", "--mmax", "2", "--c", "1")
    assert code == 1
    assert ",,," in out


def test_zaremba_artifact_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    outs = []
    for d in dirs:
        code, out = run(capsys, "zaremba", "--base", "3", "--mmax", "8",
                        "--c", "5", "--out", str(d))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert (dirs[0] / "zaremba.csv").read_bytes() == (dirs[1] / "zaremba.csv").read_bytes()


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_reproduce_single_criterion(capsys):
    code, out = run(capsys, "reproduce", "5")
    assert code == 0
    assert "criterion  5" in out
    assert "PASS" in out


def test_reproduce_json(capsys):
    code, out = run(capsys, "reproduce", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["criterion"] == 6
    assert payload[0]["passed"] is True


def test_reproduce_unknown_criterion(capsys):
    code, out = run(capsys, "reproduce", "99")
    assert code == 1
    assert "error" in json.loads(out)
