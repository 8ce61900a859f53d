"""A property test of the CLI pipeline: gen --out, then verify and
discrepancy on the files it wrote, each run in-process through cli.main.

Hypothesis draws a construction (a rank-1 lattice, a Halton set, a
Niederreiter net, a polynomial lattice, a digital set from a matrices file,
or a Kronecker set), its base b in {2, 3, 5, 7} where it has one, small
sizes, a --start where the kind reads one, and --float or not.  Each
example checks that the manifest and gen's payload give every file's
sha256; that the CSV holds the bytes of the row-by-row render of the
library's set and reads back as that set; that verify reports what assess
reports for the set in memory, with t from the points equal to t from the
matrices and to the library's t for a net; and that discrepancy gives the
library's D* or refuses the work the library refuses.  The examples below
the strategy pin t = 0 and t = m, one point, denominators near 2^62,
tokens of 18 digits, b > 2 and starts past 2^63."""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import csv_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowdisc.algebra import Poly
from lowdisc.cli import _read_points, main
from lowdisc.pointsets import (
    GeneratingMatrixSet,
    PointSet,
    digital_net,
    digital_points,
    halton,
    kronecker,
    lattice_points,
    niederreiter_matrices,
    niederreiter_net,
    polynomial_lattice,
    polynomial_lattice_matrices,
)
from lowdisc.quality import BudgetError, assess, minimal_t_dual, minimal_t_geometric, p_alpha, star_discrepancy

_TOP = 128  # b^m of a drawn net stays at most this
_STARTS = st.one_of(st.integers(0, 300), st.integers(2 ** 63 - 3, 2 ** 64 + 3))


def _digits_of(b: int) -> int:
    """The largest m with b^m <= _TOP."""
    m = 0
    while b ** (m + 1) <= _TOP:
        m += 1
    return m


def _csv_list(values) -> str:
    return ",".join(map(str, values))


@st.composite
def _specs(draw):
    """A construction as a JSON-ready dict, read by _construction."""
    kind = draw(st.sampled_from(["lattice", "halton", "niederreiter", "polylattice", "digital", "kronecker"]))
    spec = {"kind": kind, "float": draw(st.booleans())}
    if kind == "halton":
        spec["bases"] = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3, unique=True))
        spec.update(n=draw(st.integers(1, 40)), start=draw(_STARTS))
        return spec
    if kind == "kronecker":
        roots = st.sampled_from([2, 3, 5, 6, 7, 8, 10, 11, 13])
        spec["alphas"] = [f"sqrt({d})" for d in draw(st.lists(roots, min_size=1, max_size=3, unique=True))]
        spec.update(n=draw(st.integers(1, 30)), start=draw(_STARTS))
        return spec
    spec["b"] = b = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(0 if kind == "lattice" else 1, _digits_of(b)))
    entries = st.integers(0, b - 1)
    if kind == "lattice":
        spec.update(m=m, a=draw(st.lists(st.integers(0, b ** m), min_size=1, max_size=3)))
    elif kind == "niederreiter":
        spec.update(m=m, s=draw(st.integers(1, 4)))
    elif kind == "polylattice":
        spec["f"] = draw(st.lists(entries, min_size=m, max_size=m)) + [1]
        spec["g"] = draw(st.lists(st.lists(entries, min_size=1, max_size=m), min_size=1, max_size=3))
    else:
        cols = m if draw(st.booleans()) else draw(st.integers(m, m + 2))
        matrix = st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=m, max_size=m)
        spec["matrices"] = draw(st.lists(matrix, min_size=1, max_size=3))
        if cols > m or draw(st.booleans()):  # a block of points, not the net
            start = draw(st.integers(0, b ** cols - 1))
            spec.update(start=start, n=draw(st.integers(1, min(40, b ** cols - start))))
    return spec


def _construction(spec: dict, tmp: str):
    """gen's options for spec, the library's set for it, the (b, m) verify
    is told, and the generating matrices of a net (None for other sets)."""
    kind, b = spec["kind"], spec.get("b")
    if kind == "halton":
        argv = ["--bases", _csv_list(spec["bases"]), "--n", spec["n"], "--start", spec["start"]]
        return argv, halton(spec["bases"], spec["n"], start=spec["start"]), None, None
    if kind == "kronecker":
        argv = ["--alphas", _csv_list(spec["alphas"]), "--n", spec["n"], "--start", spec["start"]]
        return argv, kronecker(spec["alphas"], spec["n"], start=spec["start"]), None, None
    if kind == "lattice":
        n = b ** spec["m"]
        return ["--a", _csv_list(spec["a"]), "--n", n], lattice_points(spec["a"], n), (b, spec["m"]), None
    if kind == "niederreiter":
        b, s, m = spec["b"], spec["s"], spec["m"]
        return ["--b", b, "--s", s, "--m", m], niederreiter_net(b, s, m), (b, m), niederreiter_matrices(b, s, m)
    if kind == "polylattice":
        f, g = Poly(spec["f"], b), [Poly(gj, b) for gj in spec["g"]]
        argv = ["--b", b, "--f", _csv_list(spec["f"]), "--g", ";".join(map(_csv_list, spec["g"]))]
        return argv, polynomial_lattice(f, g), (b, f.degree), polynomial_lattice_matrices(f, g)
    G = GeneratingMatrixSet(b, spec["matrices"])
    path = os.path.join(tmp, "matrices.json")
    with open(path, "w") as fh:
        json.dump({"b": b, "matrices": spec["matrices"]}, fh)
    if "n" not in spec:
        return ["--matrices", path], digital_net(G), (b, G.rows), G
    argv = ["--matrices", path, "--n", spec["n"], "--start", spec["start"]]
    return argv, digital_points(G, spec["start"], spec["n"]), (b, G.rows), None


def _cli(*argv):
    """cli.main's exit code and its JSON output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    return code, json.loads(out.getvalue())


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _as_json(value):
    return json.loads(json.dumps(value))


def _zeros(rows: int, cols: int) -> list:
    return [[0] * cols for _ in range(rows)]


def _band(rows: int, cols: int) -> list:
    """A rows x cols 0/1 matrix of full row rank with ones on two diagonals."""
    return [[int(c in (r, r + 1)) for c in range(cols)] for r in range(rows)]


@settings(max_examples=200, deadline=None)
@given(spec=_specs())
@example(spec={"kind": "niederreiter", "float": False, "b": 5, "s": 3, "m": 3})  # t = 0, b > 2
@example(spec={"kind": "digital", "float": False, "b": 2, "matrices": [_zeros(3, 3)] * 2})  # t = m
@example(spec={"kind": "lattice", "float": False, "b": 7, "m": 0, "a": [1, 0]})  # one point
@example(spec={"kind": "halton", "float": False, "bases": [2, 3], "n": 5, "start": 2 ** 62 - 9})
@example(spec={"kind": "halton", "float": True, "bases": [3], "n": 1, "start": 2 ** 63 + 5})
@example(  # denominators 2^62, start past 2^63
    spec={"kind": "digital", "float": False, "b": 2, "matrices": [_band(62, 65)], "n": 3, "start": 2 ** 63 + 1}
)
@example(  # 18-digit denominators 2^59 through the block reader
    spec={"kind": "digital", "float": False, "b": 2, "matrices": [_band(59, 60)] * 2, "n": 4, "start": 2 ** 59}
)
@example(spec={"kind": "kronecker", "float": False, "alphas": ["sqrt(2)"], "n": 3, "start": 2 ** 64})
def test_gen_verify_discrepancy_agree_with_the_library(spec):
    with tempfile.TemporaryDirectory() as tmp:
        argv, ps, net, G = _construction(spec, tmp)
        flags = ["--float"] if spec["float"] else []
        out = os.path.join(tmp, "set")
        code, payload = _cli("gen", "--kind", spec["kind"], *argv, *flags, "--out", out, "--json")
        assert code == 0, payload
        with open(os.path.join(out, "manifest.json")) as fh:
            digests = json.load(fh)["outputs"]
        for name in ("points.csv", "points.json"):
            assert digests[name] == payload["outputs"][name] == _sha256(os.path.join(out, name))
        # the file, and the set read back: the library's
        points = os.path.join(out, "points.csv")
        with open(points, "rb") as fh:
            assert fh.read() == csv_reference.pointset_to_csv(ps, spec["float"]).encode()
        want = PointSet.floating(ps.as_floats(), provenance=ps.provenance) if spec["float"] else ps
        back = _read_points(points)
        assert back.representation == want.representation and back.count == want.count
        if want.is_exact:
            assert back.denominators == want.denominators
            assert back.numerators.tolist() == want.numerators.tolist()
        else:
            assert back.float_rows.tolist() == want.float_rows.tolist()
        # verify, with the sidecar gen wrote: assess's report of the set in memory
        told = ["--b", net[0], "--m", net[1]] if net else []
        code, report = _cli("verify", "--points", points, *told, "--json")
        assert code == 0, report
        assert report == _as_json(assess(want, *(net or (None, None))).as_json_dict())
        if G is not None and want.is_exact:
            t = minimal_t_geometric(ps, *net)
            assert report["t_geometric"] == report["t_dual"] == t == minimal_t_dual(G)
        if spec["kind"] == "lattice":
            assert report["p2"] == p_alpha(spec["a"], ps.count)
            if want.is_exact:
                assert report["t_geometric"] == minimal_t_geometric(ps, *net) and report["t_dual"] is None
        # discrepancy: the library's D*, or the refusal the library gives
        code, result = _cli("discrepancy", "--points", points, "--json")
        try:
            d_star = star_discrepancy(want)
        except BudgetError as exc:
            assert (code, result) == (1, {"error": str(exc)})
        else:
            assert code == 0 and result["decimal"] == float(d_star)
            assert result["exact"] == want.is_exact
            if want.is_exact:
                assert (result["num"], result["den"]) == (d_star.numerator, d_star.denominator)
