"""End-to-end tests of the command-line interface: exit codes, JSON shapes,
artifact determinism."""

import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import csv_reference
import pytest

import lowdisc
from lowdisc import pointsets
from lowdisc.algebra import Poly
from lowdisc.cli import _read_points, build_parser, main
from lowdisc.pointsets import halton, lattice_points, niederreiter_net
from lowdisc.quality import P_ALPHA_BUDGET, BudgetError, assess, p_alpha


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


@pytest.mark.parametrize("kind, option, error", [
    ("halton", "--bases", "empty list of bases"),
    ("kronecker", "--alphas", "empty list of alphas"),
])
def test_gen_with_no_coordinates_is_an_error(capsys, kind, option, error):
    # a set of points without coordinates renders as blank lines, which
    # every reader of point CSVs refuses as an empty CSV
    code, out = run(capsys, "gen", "--kind", kind, option, "", "--n", "3")
    assert code == 1
    assert json.loads(out) == {"error": error}


@pytest.mark.parametrize("argv, text", [
    (["gen", "--kind", "lattice", "--a", "1,,3", "--n", "4"], "1,,3"),
    (["gen", "--kind", "lattice", "--a", "1,3,", "--n", "4"], "1,3,"),
    (["p2", "--a", "1, ,34", "--n", "55"], "1, ,34"),
    (["factor", "--p", "2", "--coeffs", "1,,1"], "1,,1"),
    (["gen", "--kind", "polylattice", "--b", "2", "--f", "1,1,0,1", "--g", "1;;1"], "1;;1"),
    (["gen", "--kind", "polylattice", "--b", "2", "--f", "1,1,0,1", "--g", "1;1,,1"], "1,,1"),
    (["gen", "--kind", "polylattice", "--b", "2", "--f", "1,,0,1", "--g", "1"], "1,,0,1"),
    (["gen", "--kind", "halton", "--bases", "2,,3", "--n", "4"], "2,,3"),
    (["gen", "--kind", "kronecker", "--alphas", "sqrt(2),,sqrt(3)", "--n", "4"], "sqrt(2),,sqrt(3)"),
    (["integrate", "--points", "POINTS", "--f", "box", "--y", "0.5,,0.5"], "0.5,,0.5"),
])
def test_a_blank_list_entry_is_an_error(tmp_path, capsys, argv, text):
    # dropping the entry would silently give a set of another dimension or
    # another polynomial
    run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "8", "--out", str(tmp_path))
    argv = [str(tmp_path / "points.csv") if arg == "POINTS" else arg for arg in argv]
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": f"blank entry in {text!r}"}


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


def test_gen_digital_replays_a_polylattice_sidecar(tmp_path, capsys):
    src = tmp_path / "src"
    run(capsys, "gen", "--kind", "polylattice", "--b", "2", "--f", "1,1,0,1",
        "--g", "1;1,1", "--out", str(src))
    dst = tmp_path / "dst"
    code, _ = run(
        capsys,
        "gen", "--kind", "digital", "--matrices", str(src / "points.json"),
        "--out", str(dst),
    )
    assert code == 0
    assert (dst / "points.csv").read_bytes() == (src / "points.csv").read_bytes()


@pytest.mark.parametrize(
    "content,error",
    [
        ({"matrices": [[[1]]]}, ': provenance lacks "b" for its matrices'),
        ({"kind": "lattice", "a": [1, 3], "n": 4}, " holds no generating matrices"),
    ],
)
def test_gen_digital_names_what_its_matrices_file_lacks(tmp_path, capsys, content, error):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps(content))
    code, out = run(capsys, "gen", "--kind", "digital", "--matrices", str(path))
    assert code == 1
    assert json.loads(out) == {"error": f"{path}{error}"}


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


@pytest.mark.parametrize("argv, error", [
    (["--kind", "lattice", "--a", "1,3", "--n", "4", "--start", "2"], "gen --kind lattice does not read --start"),
    (
        ["--kind", "niederreiter", "--b", "2", "--s", "2", "--m", "2", "--n", "2"],
        "gen --kind niederreiter does not read --n",
    ),
    (["--kind", "digital", "--matrices", "MATS", "--start", "3"], "gen --kind digital reads --start only with --n"),
])
def test_gen_refuses_an_option_its_kind_does_not_read(tmp_path, capsys, argv, error):
    # going on would write points as if the option were not there
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"b": 2, "matrices": [[[1, 0], [0, 1]]]}))
    code, out = run(capsys, "gen", *[str(mats) if arg == "MATS" else arg for arg in argv])
    assert code == 1
    assert json.loads(out) == {"error": error}


def test_gen_lattice_takes_float_and_a_zero_start(capsys):
    # --float applies to every kind, and --start 0 is its default
    code, out = run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "2", "--start", "0", "--float")
    assert code == 0
    assert out.splitlines() == ["x1,x2", "0.0,0.0", "0.5,0.5"]


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


@pytest.mark.parametrize(
    "gen_args,net",
    [
        (["--kind", "niederreiter", "--b", "3", "--s", "3", "--m", "4"], (3, 4)),
        (["--kind", "polylattice", "--b", "2", "--f", "1,1,0,1,1", "--g", "1;1,1,1"], (2, 4)),
        (["--kind", "halton", "--bases", "2,3,5", "--n", "300", "--start", "7"], None),
        (["--kind", "lattice", "--a", "1,34", "--n", "55"], None),
        (["--kind", "digital", "--matrices", "MATS"], (3, 2)),
    ],
)
def test_gen_output_reads_through_the_array_route(tmp_path, capsys, monkeypatch, gen_args, net):
    # gen's own CSVs must never need the general line parser: a change that
    # sends them there would only show as a slower benchmark
    def general_parser_called(text, provenance):
        raise AssertionError("gen output went through the general CSV parser")

    monkeypatch.setattr(pointsets, "_general_csv", general_parser_called)
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"b": 3, "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 2]]]}))
    gen_args = [str(mats) if arg == "MATS" else arg for arg in gen_args]
    out_dir = tmp_path / "set"
    code, _ = run(capsys, "gen", *gen_args, "--out", str(out_dir))
    assert code == 0
    argv = ["verify", "--points", str(out_dir / "points.csv"), "--json"]
    if net:
        argv += ["--b", str(net[0]), "--m", str(net[1])]
    code, out = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["representation"] == "exact_rational"
    if net:
        assert report["t_geometric"] is not None


@pytest.mark.parametrize("sidecar", [[1, 2], "text", {"provenance": [1, 2]}])
def test_verify_sidecar_that_is_not_an_object_is_an_error(tmp_path, capsys, sidecar):
    run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "4", "--out", str(tmp_path))
    side = tmp_path / "side.json"
    side.write_text(json.dumps(sidecar))
    code, out = run(capsys, "verify", "--points", str(tmp_path / "points.csv"),
                    "--sidecar", str(side))
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "sidecar,missing",
    [
        ({"matrices": [[[1]]]}, '"b" for its matrices'),
        ({"provenance": {"kind": "lattice", "n": 4}}, '"a" for its lattice'),
        ({"kind": "lattice", "a": [1, 3]}, '"n" for its lattice'),
        ({"kind": "polylattice", "b": 2, "g": [[1]]}, '"f" for its polylattice'),
        ({"kind": "polylattice", "b": 2, "f": [1, 1, 0, 1]}, '"g" for its polylattice'),
    ],
)
def test_verify_sidecar_missing_a_field_names_it(tmp_path, capsys, sidecar, missing):
    run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "4", "--out", str(tmp_path))
    side = tmp_path / "side.json"
    side.write_text(json.dumps(sidecar))
    code, out = run(capsys, "verify", "--points", str(tmp_path / "points.csv"),
                    "--sidecar", str(side))
    assert code == 1
    assert json.loads(out) == {"error": f"{side}: provenance lacks {missing}"}


@pytest.mark.parametrize(
    "sidecar,error",
    [
        ({"kind": "lattice", "a": [1, 3], "n": "4"}, 'field "n" must be an int'),
        ({"kind": "lattice", "a": [1, 3], "n": True}, 'field "n" must be an int'),
        ({"kind": "lattice", "a": [1, 3.5], "n": 4}, 'field "a" must be a list of ints'),
        ({"kind": "lattice", "a": [1, 3], "n": 0}, 'fields "a", "n": need n >= 1'),
        ({"b": 2, "matrices": 5}, 'field "matrices" must be a list of lists of lists of ints'),
        ({"b": 2.0, "matrices": [[[1]]]}, 'field "b" must be an int'),
        ({"b": 4, "matrices": [[[1]]]}, 'fields "b", "matrices": modulus must be prime, got 4'),
        ({"b": 2, "matrices": [[]]}, 'fields "b", "matrices": need at least one matrix, with a row'),
        (
            {"kind": "polylattice", "b": 2, "f": [1, 1, 0, 1], "g": 7},
            'field "g" must be a list of lists of ints',
        ),
    ],
)
def test_verify_sidecar_with_a_bad_field_names_it(tmp_path, capsys, sidecar, error):
    run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "4", "--out", str(tmp_path))
    side = tmp_path / "side.json"
    side.write_text(json.dumps(sidecar))
    code, out = run(capsys, "verify", "--points", str(tmp_path / "points.csv"),
                    "--sidecar", str(side))
    assert code == 1
    assert json.loads(out)["error"].startswith(f"{side}: provenance {error}")
    code, out = run(capsys, "gen", "--kind", "digital", "--matrices", str(side))
    assert code == 1
    assert json.loads(out)["error"].startswith(f"{side}: provenance {error}")


def test_verify_ignores_a_lattice_sidecar_of_other_points(tmp_path, capsys):
    # 55 Halton points with the sidecar of the 55-point Fibonacci lattice
    run(capsys, "gen", "--kind", "halton", "--bases", "2,3", "--n", "55",
        "--out", str(tmp_path / "halton"))
    run(capsys, "gen", "--kind", "lattice", "--a", "1,34", "--n", "55",
        "--out", str(tmp_path / "fib"))
    code, out = run(capsys, "verify", "--points", str(tmp_path / "halton" / "points.csv"),
                    "--sidecar", str(tmp_path / "fib" / "points.json"), "--json")
    assert code == 0
    assert json.loads(out)["p2"] is None
    # the same sidecar next to its own points still gives P_2
    code, out = run(capsys, "verify", "--points", str(tmp_path / "fib" / "points.csv"), "--json")
    assert json.loads(out)["p2"] == p_alpha([1, 34], 55)


def test_verify_ignores_matrices_of_other_points(tmp_path, capsys):
    # a Niederreiter net with the matrices of another net of the same size
    run(capsys, "gen", "--kind", "niederreiter", "--b", "2", "--s", "2", "--m", "4",
        "--out", str(tmp_path / "net"))
    run(capsys, "gen", "--kind", "polylattice", "--b", "2", "--f", "1,1,0,0,1",
        "--g", "1;1,0,1", "--out", str(tmp_path / "pl"))
    for sidecar, t_dual in (("pl", None), ("net", 0)):
        code, out = run(capsys, "verify", "--points", str(tmp_path / "net" / "points.csv"),
                        "--sidecar", str(tmp_path / sidecar / "points.json"),
                        "--b", "2", "--m", "4", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["t_geometric"] == 0
        assert report["t_dual"] == t_dual


@pytest.mark.parametrize("start,n", [(0, 8), (3, 5), (8, 8)])
def test_verify_block_of_a_net_reports_no_dual_t(tmp_path, capsys, start, n):
    # digital_points(G, start, n) with square G but fewer than b^m points:
    # the dual t describes the whole net, not the block
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({"b": 2, "matrices": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    ]}))
    out_dir = tmp_path / "block"
    run(capsys, "gen", "--kind", "digital", "--matrices", str(mats),
        "--start", str(start), "--n", str(n), "--out", str(out_dir))
    code, out = run(capsys, "verify", "--points", str(out_dir / "points.csv"), "--json")
    assert code == 0
    assert json.loads(out)["t_dual"] is None
    run(capsys, "gen", "--kind", "digital", "--matrices", str(mats), "--out", str(out_dir))
    code, out = run(capsys, "verify", "--points", str(out_dir / "points.csv"), "--json")
    assert json.loads(out)["t_dual"] == 0


def test_verify_float_csv_of_a_net_keeps_dual_t(tmp_path, capsys):
    out_dir = tmp_path / "net"
    run(capsys, "gen", "--kind", "niederreiter", "--b", "3", "--s", "2", "--m", "3",
        "--float", "--out", str(out_dir))
    code, out = run(capsys, "verify", "--points", str(out_dir / "points.csv"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["representation"] == "float"
    assert report["t_dual"] == 0


def test_numerator_beyond_int64_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("x1\n9223372036854775808/3\n")
    for command in ("verify", "discrepancy", "integrate"):
        code, out = run(capsys, command, "--points", str(path))
        assert code == 1
        assert "outside [0, 3)" in json.loads(out)["error"]


def test_csv_tokens_int_would_misread_exit_1(tmp_path, capsys):
    path = tmp_path / "p.csv"
    for text, token in (("x1\n1_0/16\n", "'1_0'"), ("x1\n0.1_5\n", "'0.1_5'")):
        path.write_text(text)
        for command in ("verify", "discrepancy", "integrate"):
            code, out = run(capsys, command, "--points", str(path))
            assert code == 1
            assert token in json.loads(out)["error"]


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_HALTON_20K = ["gen", "--kind", "halton", "--bases", "2,3,5,7,11", "--n", "20000"]


def test_reading_a_csv_holds_memory_near_its_numerators(tmp_path, capsys, monkeypatch):
    # 1.23 MB of CSV for 0.8 MB of numerators; the whole-text parse peaked at 7.3 times these
    assert main([*_HALTON_20K, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(pointsets, "CSV_READ_BLOCK", 1 << 16)
    read = []
    peak = _traced_peak(lambda: read.append(_read_points(str(tmp_path / "points.csv"))))
    assert read[0].numerators.tolist() == halton([2, 3, 5, 7, 11], 20000).numerators.tolist()
    assert peak < 3 * read[0].numerators.nbytes, peak / read[0].numerators.nbytes


def test_gen_out_writes_the_csv_without_holding_it(tmp_path, capsys, monkeypatch):
    # the joined text alone is the CSV's byte size (rendering it whole took
    # 0.99 of it beyond building the set); a block of 512 rows is 1/40 of it
    monkeypatch.setattr(pointsets, "CSV_BLOCK", 512)
    assert main([*_HALTON_20K[:-1], "10", "--out", str(tmp_path / "warm")]) == 0
    built = _traced_peak(lambda: halton([2, 3, 5, 7, 11], 20000))
    wrote = _traced_peak(lambda: main([*_HALTON_20K, "--out", str(tmp_path / "set")]))
    capsys.readouterr()
    assert wrote - built < (tmp_path / "set" / "points.csv").stat().st_size / 2, (wrote, built)


_BIG_START = 2 ** 63 + 3


@pytest.mark.parametrize("block", [7, pointsets.CSV_BLOCK])
@pytest.mark.parametrize(
    "gen,build",
    [
        (["--kind", "halton", "--bases", "2,3,5,7,11"], lambda n: halton([2, 3, 5, 7, 11], n)),
        (["--kind", "niederreiter", "--b", "3", "--s", "3", "--m", "8"], lambda n: niederreiter_net(3, 3, 8)),
        (
            ["--kind", "halton", "--bases", "2,3", "--start", str(_BIG_START)],
            lambda n: halton([2, 3], n, start=_BIG_START),  # Python ints past 2^63
        ),
    ],
    ids=["halton-s5", "net-b3", "halton-past-2^63"],
)
def test_gen_out_writes_the_oracle_bytes_across_block_edges(tmp_path, capsys, monkeypatch, block, gen, build):
    # every golden case is shorter than one block; these cross block edges
    monkeypatch.setattr(pointsets, "CSV_BLOCK", block)
    n = 3 * block + 5
    sized = gen if "niederreiter" in gen else [*gen, "--n", str(n)]
    code, out = run(capsys, "gen", *sized, "--out", str(tmp_path), "--json")
    assert code == 0
    want = csv_reference.pointset_to_csv(build(n)).encode()
    digest = hashlib.sha256(want).hexdigest()
    assert (tmp_path / "points.csv").read_bytes() == want
    assert json.loads((tmp_path / "manifest.json").read_text())["outputs"]["points.csv"] == digest
    assert json.loads(out)["outputs"]["points.csv"] == digest


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


def test_p2_refuses_over_budget_work_at_once(capsys, monkeypatch):
    start = time.perf_counter()
    code, out = run(capsys, "p2", "--a", "1,3", "--n", "10000000000000")
    assert time.perf_counter() - start < 1
    assert code == 1
    error = json.loads(out)["error"]
    assert "20000000000000" in error and str(P_ALPHA_BUDGET) in error
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=str(P_ALPHA_BUDGET)):
        p_alpha([1, 3], 10 ** 13)
    assert time.perf_counter() - start < 1
    # the cap bounds n * s itself: work equal to it runs through the CLI,
    # the library and assess, and a cap one lower refuses all three
    fibonacci = lattice_points([1, 34], 55)
    monkeypatch.setattr("lowdisc.quality.P_ALPHA_BUDGET", 110)
    assert run(capsys, "p2", "--a", "1,34", "--n", "55")[0] == 0
    assert run(capsys, "p2", "--a", "1,34", "--n", "56")[0] == 1
    assert assess(fibonacci).p2 == p_alpha([1, 34], 55)
    monkeypatch.setattr("lowdisc.quality.P_ALPHA_BUDGET", 109)
    assert run(capsys, "p2", "--a", "1,34", "--n", "55")[0] == 1
    with pytest.raises(BudgetError, match="109"):
        p_alpha([1, 34], 55)
    assert assess(fibonacci).p2 is None


# the work at each edge: q^2 = 169 table entries for q = 13; 2 (q - 1) q
# summed over the odd primes q <= 13, 668 orbit elements; 375 candidates
# a in (2^m / 4, 2^m) for m <= 8; and degree 2 for x^2 + x + 1.  Each library call (function, arguments)
# over the cap is far larger than the CLI's, and is refused as fast.
@pytest.mark.parametrize(
    "module, budget, over, function, args_over, edge, at_edge, args_at_edge",
    [
        (
            "permutations", "FB_SWEEP_BUDGET", ["cmsweep", "--q", "10007"], "fb_sweep", (1_000_000_007,),
            169, ["cmsweep", "--q", "13"], (13,),
        ),
        (
            "generators", "AUDIT_BUDGET", ["inversive-audit", "--qmax", "1000"], "audit_bound", (10 ** 9,),
            668, ["inversive-audit", "--qmax", "13"], (13,),
        ),
        (
            "diophantine", "ZAREMBA_BUDGET", ["zaremba", "--base", "2", "--mmax", "40", "--c", "3"],
            "zaremba_table", (2, 10 ** 6, 3), 375, ["zaremba", "--base", "2", "--mmax", "8", "--c", "3"], (2, 8, 3),
        ),
        (
            "factorizer", "FACTOR_DEGREE_BUDGET", ["factor", "--p", "2", "--coeffs", ",".join(["1"] * 258)], "factor",
            (Poly([1] * 10 ** 5, 2),), 2, ["factor", "--p", "2", "--coeffs", "1,1,1"], (Poly([1, 1, 1], 2),),
        ),
    ],
)
def test_finite_field_handlers_refuse_over_budget_work_at_once(
    capsys, monkeypatch, module, budget, over, function, args_over, edge, at_edge, args_at_edge
):
    library = importlib.import_module(f"lowdisc.{module}")
    function = getattr(library, function)
    start = time.perf_counter()
    code, out = run(capsys, *over)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert str(getattr(library, budget)) in json.loads(out)["error"]
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=str(getattr(library, budget))):
        function(*args_over)
    assert time.perf_counter() - start < 1
    # the cap bounds the work itself: work equal to it runs, through the
    # CLI and the library, and one less cap refuses both
    monkeypatch.setattr(library, budget, edge)
    assert run(capsys, *at_edge, "--json")[0] == 0
    function(*args_at_edge)
    monkeypatch.setattr(library, budget, edge - 1)
    code, out = run(capsys, *at_edge, "--json")
    assert code == 1 and str(edge - 1) in json.loads(out)["error"]
    with pytest.raises(BudgetError, match=str(edge - 1)):
        function(*args_at_edge)


def test_zaremba_with_c_1_scans_nothing_so_any_m_runs(capsys):
    code, out = run(capsys, "zaremba", "--base", "2", "--mmax", "40", "--c", "1", "--json")
    assert code == 1  # every row absent
    assert json.loads(out)["absent"] == 40


def test_p2_of_an_empty_vector_is_an_error(capsys):
    code, out = run(capsys, "p2", "--a", "", "--n", "5")
    assert code == 1
    assert json.loads(out) == {"error": "empty generating vector"}


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


@pytest.mark.parametrize("y, error", [
    (None, "integrand 'box' needs --y y1,y2,..."),
    ("0.5", "--y has 1 coordinates, points have 2"),
    ("0.5,0.5,0.5", "--y has 3 coordinates, points have 2"),
])
def test_integrate_box_needs_a_corner_of_the_points_dimension(tmp_path, capsys, y, error):
    run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "8", "--out", str(tmp_path))
    argv = ["integrate", "--points", str(tmp_path / "points.csv"), "--f", "box", "--json"]
    code, out = run(capsys, *argv, *(["--y", y] if y is not None else []))
    assert code == 1
    assert json.loads(out) == {"error": error}


@pytest.mark.parametrize("y, bad", [("2,2", "2.0"), ("nan,0.5", "nan"), ("0.5,inf", "inf"),
                                    ("0.5,-0.25", "-0.25")])
def test_integrate_box_corner_outside_the_cube_is_an_error(tmp_path, capsys, y, bad):
    run(capsys, "gen", "--kind", "lattice", "--a", "1,3", "--n", "8", "--out", str(tmp_path))
    code, out = run(capsys, "integrate", "--points", str(tmp_path / "points.csv"),
                    "--f", "box", "--y", y, "--json")
    assert code == 1
    assert json.loads(out) == {"error": f"--y coordinate {bad} outside [0, 1]"}


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


def test_factor_certifies_a_degree_64_irreducible(capsys):
    # x^64 + x^4 + x^3 + x + 1; a trial-division certificate would not finish
    coeffs = ",".join(["1,1,0,1,1"] + ["0"] * 59 + ["1"])
    code, out = run(capsys, "factor", "--p", "2", "--coeffs", coeffs, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["factors"] == [{"coeffs": [int(c) for c in coeffs.split(",")], "multiplicity": 1}]


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


_NO_POLY = "polynomial file needs a p=<prime> line, then a coefficient line"


@pytest.mark.parametrize(
    "text,error",
    [
        ("1,1,0,1\n", _NO_POLY),
        ("p=2\n", _NO_POLY),
        ("p=2\n1,x,0\n", "invalid literal for int() with base 10: 'x'"),
        ("p=3\n1, 0, 5,\n", "blank entry in '1, 0, 5,'"),
        ("p=2\n1,,1\n", "blank entry in '1,,1'"),
    ],
    ids=["no-header", "no-coefficients", "garbage", "trailing-blank", "blank-entry"],
)
def test_factor_refuses_a_malformed_poly_file(tmp_path, capsys, text, error):
    # the coefficient line is read as --coeffs is: a blank entry is refused,
    # not skipped (p=2 with 1,,1 once factored x+1)
    path = tmp_path / "f.txt"
    path.write_text(text)
    code, out = run(capsys, "factor", "--poly-file", str(path))
    assert code == 1
    assert json.loads(out) == {"error": error}


def test_factor_human_rendering(capsys):
    code, out = run(capsys, "factor", "--p", "2", "--coeffs", "1,0,1")
    assert code == 0
    assert out.strip() == "x^2+1 = (x+1)^2 over F_2"


def test_factor_needs_input(capsys):
    code, out = run(capsys, "factor", "--p", "2")
    assert code == 1
    assert "error" in json.loads(out)


def test_factor_refuses_a_large_prime_characteristic_at_once(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "factor", "--p", str(2 ** 61 - 1), "--coeffs", "1,1")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "unsupported" in json.loads(out)["error"]


def test_factor_refuses_a_poly_file_over_its_degree_budget_at_once(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("p=2\n" + ",".join(["1"] * 258) + "\n")  # degree 257, one over the cap
    start = time.perf_counter()
    code, out = run(capsys, "factor", "--poly-file", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(out) == {"error": "factor takes degree at most 256, got 257"}


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


def test_reproduce_all_runs_every_criterion_in_order(capsys, monkeypatch):
    # perfbench/run.py and workloads.py read these keys off `reproduce all --json`
    from lowdisc import acceptance

    cheap = {cid: acceptance.ALL_CRITERIA[cid] for cid in (11, 1)}
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", cheap)
    code, out = run(capsys, "reproduce", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [row["criterion"] for row in payload] == [1, 11]
    keys = {"criterion", "name", "passed", "detail", "elapsed_seconds", "budget_seconds"}
    assert all(set(row) == keys and row["passed"] for row in payload)


def test_reproduce_all_gives_the_same_output_forked_and_in_process(capsys, monkeypatch):
    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    runs = {}
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        code, out = run(capsys, "reproduce", "all", "--json")
        payload = [{k: v for k, v in row.items() if k != "elapsed_seconds"} for row in json.loads(out)]
        text_code, text = run(capsys, "reproduce", "all")
        lines = [re.sub(r"\(\d+\.\d\ds / ", "(", line) for line in text.splitlines()]
        runs[len(cpus)] = code, payload, text_code, lines
    # one split per forked run: criterion 9's sweeps inside it stay in their process
    assert len(forks) == 2
    assert runs[2] == runs[1]
    code, payload, _, lines = runs[1]
    assert code == 0 and [row["criterion"] for row in payload] == list(range(1, 12))
    assert len(lines) == 11 and all(" PASS (" in line for line in lines)


@pytest.mark.parametrize("failing", [1, 2], ids=["first-fails", "second-fails"])
@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["forked", "in-process"])
def test_reproduce_all_reports_a_failed_criterion_from_either_process(capsys, monkeypatch, tmp_path, cpus, failing):
    from lowdisc import acceptance

    log = tmp_path / "pids"
    log.touch()

    def criterion(ok):
        def fn():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            # forked, each waits until the other has started, so each process runs one
            deadline = time.monotonic() + 10
            while len(cpus) > 1 and len(log.read_text().split()) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            return ok, "patched"

        return fn

    over_budget = 3 - failing
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", {
        failing: ("patched-fails", 10.0, criterion(False)),
        over_budget: ("patched-over-budget", 0.0, criterion(True)),
    })
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    code, out = run(capsys, "reproduce", "all")
    assert code == 1
    lines = out.splitlines()
    names = [f"criterion  {cid} [{acceptance.ALL_CRITERIA[cid][0]}] FAIL (" for cid in (1, 2)]
    assert len(lines) == 2 and [line[: len(name)] for line, name in zip(lines, names)] == names
    assert lines[over_budget - 1].endswith("over the 0s budget")
    assert len(set(log.read_text().split())) == len(cpus)


def test_reproduce_unknown_criterion(capsys):
    code, out = run(capsys, "reproduce", "99")
    assert code == 1
    assert "error" in json.loads(out)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_parser_is_built_once_and_survives_errors(tmp_path, capsys):
    # a usage error, a domain failure and --version first, then a valid gen;
    # its stdout and artifacts match those of a fresh interpreter's main
    assert build_parser() is build_parser()
    assert main([]) == 2
    assert run(capsys, "isbn", "0-521-39231-5")[0] == 1
    assert run(capsys, "--version")[0] == 0
    argv = ["gen", "--kind", "niederreiter", "--b", "3", "--s", "2", "--m", "3"]
    code, out = run(capsys, *argv, "--out", str(tmp_path / "reused"))
    assert code == 0
    assert build_parser() is build_parser()

    src = os.path.dirname(os.path.dirname(lowdisc.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from lowdisc.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv, "--out", str(tmp_path / "fresh")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )
    assert fresh.returncode == 0
    assert fresh.stdout == out.replace("reused", "fresh")
    names = sorted(os.listdir(tmp_path / "reused"))
    assert names == sorted(os.listdir(tmp_path / "fresh"))
    for name in names:
        reused = (tmp_path / "reused" / name).read_text()
        assert reused.replace("reused", "fresh") == (tmp_path / "fresh" / name).read_text()


# ---------------------------------------------------------------------------
# what a process loads
# ---------------------------------------------------------------------------

FINITE_FIELD_MODULES = {
    "lowdisc.factorizer",
    "lowdisc.generators",
    "lowdisc.diophantine",
    "lowdisc.permutations",
    "lowdisc.acceptance",
}


def _loaded_after(*runs):
    """The modules of a fresh interpreter that imported lowdisc.cli and then
    ran main on each argv in runs, each of which must exit 0."""
    script = (
        "import contextlib, io, json, sys\n"
        "from lowdisc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'modules': sorted(sys.modules)}))\n"
    )
    src = os.path.dirname(os.path.dirname(lowdisc.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    result = json.loads(fresh.stdout)
    assert result["codes"] == [0] * len(runs)
    return set(result["modules"])


def test_importing_the_cli_loads_no_finite_field_module():
    # nor hashlib, which only the runs that write artifacts use
    assert not _loaded_after() & (FINITE_FIELD_MODULES | {"hashlib"})


def test_the_pipeline_never_imports_numpy_ma(tmp_path):
    # an exact and a float s = 2 set, each through gen, verify and
    # discrepancy, so that the exact and the float sweep both run
    # and verify and discrepancy without --out never load hashlib
    gens, checks = [], []
    for kind, options in [("niederreiter", ["--b", "2", "--s", "2", "--m", "5"]),
                          ("kronecker", ["--alphas", "sqrt(2),sqrt(3)", "--n", "40"])]:
        out = str(tmp_path / kind)
        points = os.path.join(out, "points.csv")
        gens.append(["gen", "--kind", kind, *options, "--out", out])
        checks += [["verify", "--points", points], ["discrepancy", "--points", points]]
    for runs, unloaded in [(gens, set()), (checks, {"hashlib"})]:
        loaded = _loaded_after(*runs)
        assert "numpy.ma" not in loaded
        assert not loaded & (FINITE_FIELD_MODULES | unloaded)


def test_the_star_sweep_module_loads_with_the_first_sweep(tmp_path):
    out = str(tmp_path / "net")
    points = os.path.join(out, "points.csv")
    gen = ["gen", "--kind", "niederreiter", "--b", "2", "--s", "2", "--m", "5", "--out", out]
    # gen, and a verify whose D* is refused by its budget, never sweep
    assert "lowdisc.sweep" not in _loaded_after(gen, ["verify", "--points", points, "--n-limit", "2"])
    assert "lowdisc.sweep" in _loaded_after(gen, ["discrepancy", "--points", points])


def test_the_csv_reader_module_loads_with_the_first_read(tmp_path):
    # a process that only writes points, such as the benchmark's launcher,
    # never compiles the reader
    out = str(tmp_path / "net")
    gen = ["gen", "--kind", "niederreiter", "--b", "2", "--s", "2", "--m", "5", "--out", out]
    assert "lowdisc.csvread" not in _loaded_after(gen)
    assert "lowdisc.csvread" in _loaded_after(gen, ["verify", "--points", os.path.join(out, "points.csv")])


def test_a_finite_field_subcommand_loads_its_module():
    loaded = _loaded_after(["factor", "--p", "2", "--coeffs", "1,1,1"])
    assert "lowdisc.factorizer" in loaded
    assert "lowdisc.generators" not in loaded
