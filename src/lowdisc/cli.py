"""Command-line entry point.

One executable, twelve subcommands: generation (gen), verification (verify,
discrepancy, p2, integrate), applied checks (isbn, cmsweep, factor,
inversive, inversive-audit, zaremba), and reproduce, which runs one
acceptance experiment end to end.

Conventions: exit 0 = success/valid, 1 = domain failure/invalid, 2 = usage
error.  Every subcommand takes --json for machine output (human-readable
text is the default) and --out DIR to write artifacts plus a run manifest.
Artifacts are deterministic: no timestamps, sorted JSON keys, so re-running
the same command yields byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .algebra import Poly, PrecisionError, parse_poly_file, poly_to_string
from .diophantine import zaremba_table
from .factorizer import factor
from .generators import (
    InversiveParams,
    audit_bound,
    inversive_sequence,
    least_period,
    to_unit_interval,
)
from .permutations import fb_sweep, isbn10_weighted_sum
from .pointsets import (
    GeneratingMatrixSet,
    PointSet,
    digital_net,
    digital_points,
    halton,
    hybrid,
    kronecker,
    lattice_points,
    niederreiter_net,
    polynomial_lattice,
    polynomial_lattice_matrices,
    pointset_from_csv,
    pointset_to_csv,
)
from .quality import BudgetError, assess, p_alpha, qmc_integrate, star_discrepancy

__all__ = ["main", "RunManifest"]


# ---------------------------------------------------------------------------
# Artifacts and manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """What was run and what came out, with content checksums."""

    command: str
    params: dict
    version: str
    outputs: dict  # filename -> sha256 hex digest

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "params": self.params,
                "version": self.version,
                "outputs": self.outputs,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_artifacts(out_dir: str, command: str, params: dict, files: dict) -> dict:
    """Write the named files plus manifest.json; returns name -> digest."""
    os.makedirs(out_dir, exist_ok=True)
    digests = {}
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(content)
        digests[name] = _sha256(content)
    manifest = RunManifest(
        command=command, params=params, version=__version__, outputs=digests
    )
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(manifest.to_json())
    return digests


def _emit(args, human: str, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _params(args, *names) -> dict:
    return {name: getattr(args, name) for name in names}


# ---------------------------------------------------------------------------
# Small parsers and pretty-printers
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _poly_pretty(f: Poly) -> str:
    if f.is_zero:
        return "0"
    terms = []
    for e in range(f.degree, -1, -1):
        c = f.coeffs[e] if e < len(f.coeffs) else 0
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            var = "x" if e == 1 else f"x^{e}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms)


def _load_points(args, provenance: Optional[dict] = None) -> PointSet:
    with open(args.points) as fh:
        text = fh.read()
    return pointset_from_csv(text, provenance)


def _fraction_payload(value) -> dict:
    if isinstance(value, Fraction):
        return {
            "num": value.numerator,
            "den": value.denominator,
            "decimal": float(value),
            "exact": True,
        }
    return {"decimal": float(value), "exact": False}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _matrices_from_file(path: str) -> GeneratingMatrixSet:
    """Accepts {"b":..,"matrices":..} directly or wrapped in "provenance"."""
    with open(path) as fh:
        meta = json.load(fh)
    if "provenance" in meta:
        meta = meta["provenance"]
    if "b" not in meta or "matrices" not in meta:
        raise ValueError(f"{path} holds no generating matrices")
    return GeneratingMatrixSet.from_lists(meta["b"], meta["matrices"])


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "lattice":
        if args.a is None or args.n is None:
            raise ValueError("gen --kind lattice needs --a and --n")
        ps = lattice_points(_int_list(args.a), args.n)
    elif kind == "kronecker":
        if args.alphas is None or args.n is None:
            raise ValueError("gen --kind kronecker needs --alphas and --n")
        ps = kronecker(_str_list(args.alphas), args.n, start=args.start)
    elif kind == "halton":
        if args.bases is None or args.n is None:
            raise ValueError("gen --kind halton needs --bases and --n")
        ps = halton(_int_list(args.bases), args.n, start=args.start)
    elif kind == "niederreiter":
        if args.b is None or args.s is None or args.m is None:
            raise ValueError("gen --kind niederreiter needs --b, --s and --m")
        ps = niederreiter_net(args.b, args.s, args.m)
    elif kind == "digital":
        if args.matrices is None:
            raise ValueError("gen --kind digital needs --matrices FILE.json")
        G = _matrices_from_file(args.matrices)
        if args.n is not None:
            ps = digital_points(G, args.start, args.n)
        else:
            ps = digital_net(G)
    elif kind == "polylattice":
        if args.b is None or args.f is None or args.g is None:
            raise ValueError("gen --kind polylattice needs --b, --f and --g")
        f = Poly(_int_list(args.f), args.b)
        g = [Poly(_int_list(part), args.b) for part in args.g.split(";")]
        ps = polynomial_lattice(f, g)
    elif kind == "hybrid":
        if args.first is None or args.second is None:
            raise ValueError("gen --kind hybrid needs --first and --second CSVs")
        with open(args.first) as fh:
            first = pointset_from_csv(fh.read())
        with open(args.second) as fh:
            second = pointset_from_csv(fh.read())
        ps = hybrid(first, second)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {kind!r}")

    csv_text = pointset_to_csv(ps, force_float=args.float)
    sidecar = json.dumps(
        {
            "n": ps.count,
            "s": ps.dim,
            "representation": ps.representation.value,
            "provenance": ps.provenance,
        },
        indent=2,
        sort_keys=True,
    ) + "\n"
    params = _params(
        args, "kind", "n", "a", "alphas", "bases", "b", "s", "m", "f", "g",
        "matrices", "first", "second", "start", "float",
    )
    if args.out:
        digests = _write_artifacts(
            args.out, "gen", params, {"points.csv": csv_text, "points.json": sidecar}
        )
        _emit(
            args,
            f"wrote {ps.count} points (s={ps.dim}, {ps.representation.value}) "
            f"to {os.path.join(args.out, 'points.csv')}",
            {"kind": kind, "n": ps.count, "s": ps.dim, "outputs": digests},
        )
    else:
        if args.json:
            print(
                json.dumps(
                    {
                        "kind": kind,
                        "n": ps.count,
                        "s": ps.dim,
                        "representation": ps.representation.value,
                        "provenance": ps.provenance,
                        "csv": csv_text,
                    },
                    sort_keys=True,
                )
            )
        else:
            sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------------------
# verify / discrepancy / p2 / integrate
# ---------------------------------------------------------------------------

def _sidecar_provenance(args) -> Optional[dict]:
    """The provenance recorded next to --points (or in --sidecar), if any."""
    path = args.sidecar
    if path is None:
        guess = os.path.splitext(args.points)[0] + ".json"
        path = guess if os.path.exists(guess) else None
    if path is None:
        return None
    with open(path) as fh:
        meta = json.load(fh)
    return meta.get("provenance", meta)


def _matrices_from_provenance(prov: Optional[dict]) -> Optional[GeneratingMatrixSet]:
    if prov is None:
        return None
    if "matrices" in prov:
        return GeneratingMatrixSet.from_lists(prov["b"], prov["matrices"])
    if prov.get("kind") == "polylattice":
        b = prov["b"]
        f = Poly(prov["f"], b)
        g = [Poly(coeffs, b) for coeffs in prov["g"]]
        return polynomial_lattice_matrices(f, g)
    return None


def cmd_verify(args) -> int:
    prov = _sidecar_provenance(args)
    ps = _load_points(args, prov)
    if args.s is not None and ps.dim != args.s:
        raise ValueError(f"points have s={ps.dim}, expected --s {args.s}")
    G = _matrices_from_provenance(prov)
    report = assess(ps, b=args.b, m=args.m, G=G, n_limit=args.n_limit)
    payload = report.as_json_dict()
    lines = [
        f"N={report.n} s={report.s} representation={report.representation}",
        f"t_geometric={report.t_geometric} t_dual={report.t_dual}",
        f"star_discrepancy={report.star_disc} ({report.star_disc_float})",
        f"p2={report.p2} diagnostic_ratio={report.diagnostic_ratio}",
    ]
    params = _params(args, "points", "b", "m", "s", "n_limit")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "verify", params, {"report.json": text})
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_discrepancy(args) -> int:
    ps = _load_points(args)
    value = star_discrepancy(ps, n_limit=args.n_limit)
    payload = _fraction_payload(value)
    payload["n"] = ps.count
    payload["s"] = ps.dim
    if isinstance(value, Fraction):
        human = f"D* = {value.numerator}/{value.denominator} = {float(value)}"
    else:
        human = f"D* = {value} (float point set; value is approximate)"
    params = _params(args, "points", "n_limit")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "discrepancy", params, {"report.json": text})
    _emit(args, human, payload)
    return 0


def cmd_p2(args) -> int:
    a = _int_list(args.a)
    value = p_alpha(a, args.n)
    payload = {"a": a, "n": args.n, "p2": value}
    params = _params(args, "a", "n")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "p2", params, {"report.json": text})
    _emit(args, f"P_2 = {value}", payload)
    return 0


_INTEGRANDS = {
    "const1": (lambda x: 1.0, 1.0),
    "prod2x": (lambda x: _prod2x(x), 1.0),
}


def _prod2x(x) -> float:
    acc = 1.0
    for v in x:
        acc *= 2.0 * v
    return acc


def cmd_integrate(args) -> int:
    ps = _load_points(args)
    if args.f == "box":
        if args.y is None:
            raise ValueError("integrand 'box' needs --y y1,y2,...")
        y = [float(tok) for tok in args.y.split(",")]
        if len(y) != ps.dim:
            raise ValueError(f"--y has {len(y)} coordinates, points have {ps.dim}")

        def fn(x):
            return 1.0 if all(v < yj for v, yj in zip(x, y)) else 0.0

        exact = 1.0
        for yj in y:
            exact *= yj
    elif args.f in _INTEGRANDS:
        fn, exact = _INTEGRANDS[args.f]
    else:
        raise ValueError(f"unknown integrand {args.f!r}")
    estimate = qmc_integrate(fn, ps)
    payload = {
        "f": args.f,
        "n": ps.count,
        "estimate": estimate,
        "exact": exact,
        "abs_error": abs(estimate - exact),
    }
    params = _params(args, "points", "f", "y")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "integrate", params, {"report.json": text})
    _emit(
        args,
        f"estimate = {estimate} (exact {exact}, error {payload['abs_error']})",
        payload,
    )
    return 0


# ---------------------------------------------------------------------------
# isbn / cmsweep / factor
# ---------------------------------------------------------------------------

def cmd_isbn(args) -> int:
    total = isbn10_weighted_sum(args.code)  # raises ValueError when malformed
    valid = total % 11 == 0
    payload = {"code": args.code, "valid": valid, "weighted_sum": total}
    verdict = "valid" if valid else "invalid"
    params = _params(args, "code")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "isbn", params, {"report.json": text})
    _emit(args, f"{args.code}: {verdict} (weighted sum {total} mod 11)", payload)
    return 0 if valid else 1


def cmd_cmsweep(args) -> int:
    result = fb_sweep(args.q)
    payload = {
        "q": result.q,
        "count": result.count,
        "witnesses": list(result.witnesses),
    }
    params = _params(args, "q")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "cmsweep", params, {"report.json": text})
    _emit(
        args,
        f"q={result.q}: {result.count} complete mappings of the half-power "
        f"family; witnesses b = {list(result.witnesses)}",
        payload,
    )
    # mismatches between the criterion and the exhaustive check would mean
    # the theory test itself failed; surface that as a domain failure
    return 0 if not result.mismatches else 1


def cmd_factor(args) -> int:
    if args.poly_file:
        with open(args.poly_file) as fh:
            f = parse_poly_file(fh.read())
    elif args.coeffs is not None and args.p is not None:
        f = Poly(_int_list(args.coeffs), args.p)
    else:
        raise ValueError("factor needs --poly-file, or --p with --coeffs")
    result = factor(f)
    verified = result.verify()
    payload = {
        "p": f.p,
        "input": list(f.coeffs),
        "content": result.content,
        "factors": [
            {"coeffs": list(g.coeffs), "multiplicity": mult}
            for g, mult in result.factors
        ],
        "verified": verified,
    }
    pieces = []
    if result.content != 1:
        pieces.append(str(result.content))
    for g, mult in result.factors:
        text = f"({_poly_pretty(g)})"
        pieces.append(text if mult == 1 else f"{text}^{mult}")
    human = f"{_poly_pretty(f)} = {' * '.join(pieces)} over F_{f.p}"
    params = _params(args, "p", "coeffs", "poly_file")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "factor", params, {"report.json": text})
    _emit(args, human, payload)
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# inversive / inversive-audit / zaremba
# ---------------------------------------------------------------------------

def cmd_inversive(args) -> int:
    params_obj = InversiveParams(q=args.q, a=args.a, b=args.b, u0=args.u0)
    info = least_period(params_obj)
    n = args.n if args.n is not None else info.period
    orbit = inversive_sequence(params_obj, n)
    payload = {
        "q": args.q,
        "a": args.a,
        "b": args.b,
        "u0": args.u0,
        "n": n,
        "orbit": orbit,
        "period": info.period,
        "pre_period": info.pre_period,
    }
    if args.unit:
        payload["unit"] = to_unit_interval(orbit, args.q)
    human = (
        f"u_n: {' '.join(str(v) for v in orbit)}  "
        f"(period {info.period}, pre-period {info.pre_period})"
    )
    params = _params(args, "q", "a", "b", "u0", "n", "unit")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "inversive", params, {"report.json": text})
    _emit(args, human, payload)
    return 0


def cmd_inversive_audit(args) -> int:
    result = audit_bound(args.qmax, workers=args.threads)
    payload = {
        "q_max": result.q_max,
        "combinations": result.combinations,
        "checks": result.checks,
        "violations": [list(v) for v in result.violations],
    }
    human = (
        f"audited {result.combinations} (q,a,b,s) combinations, "
        f"{result.checks} inequalities, q <= {result.q_max}: "
        f"{len(result.violations)} violations"
    )
    params = _params(args, "qmax", "threads")
    if args.out:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_artifacts(args.out, "inversive-audit", params, {"audit.json": text})
    _emit(args, human, payload)
    return 0 if not result.violations else 1


def cmd_zaremba(args) -> int:
    rows = zaremba_table(args.base, args.mmax, args.c, workers=args.threads)
    lines = ["m,n,witness,max_quotient,quotients"]
    absent = 0
    for row in rows:
        if row.witness is None:
            absent += 1
            lines.append(f"{row.m},{row.n},,,")
        else:
            q_text = " ".join(str(q) for q in row.quotients)
            lines.append(
                f"{row.m},{row.n},{row.witness},{row.max_quotient},{q_text}"
            )
    csv_text = "\n".join(lines) + "\n"
    payload = {
        "base": args.base,
        "m_max": args.mmax,
        "c": args.c,
        "absent": absent,
        "rows": [
            {
                "m": row.m,
                "n": row.n,
                "witness": row.witness,
                "quotients": None if row.witness is None else list(row.quotients),
            }
            for row in rows
        ],
    }
    params = _params(args, "base", "mmax", "c", "threads")
    if args.out:
        _write_artifacts(args.out, "zaremba", params, {"zaremba.csv": csv_text})
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(csv_text)
    return 0 if absent == 0 else 1


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def cmd_reproduce(args) -> int:
    from .acceptance import ALL_CRITERIA, format_result_line, run_criterion

    if args.criterion == "all":
        ids = sorted(ALL_CRITERIA)
    else:
        ids = [int(args.criterion)]
        if ids[0] not in ALL_CRITERIA:
            raise ValueError(
                f"unknown criterion {ids[0]}; valid: {sorted(ALL_CRITERIA)}"
            )
    results = [run_criterion(cid) for cid in ids]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "criterion": r.cid,
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "elapsed_seconds": round(r.elapsed, 3),
                        "budget_seconds": r.budget,
                    }
                    for r in results
                ],
                sort_keys=True,
            )
        )
    else:
        for r in results:
            print(format_result_line(r))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def _add_common(sub, out=True):
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    if out:
        sub.add_argument("--out", default=None, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdisc",
        description="Construction and verification of low-discrepancy point sets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="generate a point set as CSV")
    p.add_argument(
        "--kind",
        required=True,
        choices=[
            "lattice",
            "kronecker",
            "halton",
            "hybrid",
            "digital",
            "niederreiter",
            "polylattice",
        ],
    )
    p.add_argument("--n", type=int, default=None, help="number of points")
    p.add_argument("--a", default=None, help="lattice generator, e.g. 1,34")
    p.add_argument("--alphas", default=None, help="e.g. sqrt(2),sqrt(3)")
    p.add_argument("--bases", default=None, help="Halton bases, e.g. 2,3")
    p.add_argument("--b", type=int, default=None, help="prime base")
    p.add_argument("--s", type=int, default=None, help="dimension")
    p.add_argument("--m", type=int, default=None, help="digit resolution")
    p.add_argument("--f", default=None, help="modulus coefficients, constant first")
    p.add_argument("--g", default=None, help="generators, ';' between coordinates")
    p.add_argument("--matrices", default=None, help="JSON file with b and matrices")
    p.add_argument("--first", default=None, help="left CSV for --kind hybrid")
    p.add_argument("--second", default=None, help="right CSV for --kind hybrid")
    p.add_argument("--start", type=int, default=0, help="first index")
    p.add_argument("--float", action="store_true", help="render exact sets as floats")
    _add_common(p)
    p.set_defaults(handler=cmd_gen)

    p = subs.add_parser("verify", help="quality report for a point CSV")
    p.add_argument("--points", required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--sidecar", default=None, help="JSON with provenance/matrices")
    p.add_argument("--n-limit", type=int, default=None, dest="n_limit")
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("discrepancy", help="exact star discrepancy of a CSV")
    p.add_argument("--points", required=True)
    p.add_argument("--n-limit", type=int, default=None, dest="n_limit")
    _add_common(p)
    p.set_defaults(handler=cmd_discrepancy)

    p = subs.add_parser("p2", help="lattice worst-case error P_2")
    p.add_argument("--a", required=True, help="generator vector, e.g. 1,34")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_p2)

    p = subs.add_parser("integrate", help="equal-weight cubature over a CSV")
    p.add_argument("--points", required=True)
    p.add_argument("--f", default="prod2x", help="const1, prod2x, or box")
    p.add_argument("--y", default=None, help="box corner for --f box")
    _add_common(p)
    p.set_defaults(handler=cmd_integrate)

    p = subs.add_parser("isbn", help="validate an ISBN-10")
    p.add_argument("code")
    _add_common(p)
    p.set_defaults(handler=cmd_isbn)

    p = subs.add_parser("cmsweep", help="complete mappings X^((q+1)/2)+bX")
    p.add_argument("--q", type=int, required=True, help="odd prime")
    _add_common(p)
    p.set_defaults(handler=cmd_cmsweep)

    p = subs.add_parser("factor", help="factor a polynomial over F_p")
    p.add_argument("--p", type=int, default=None, help="prime modulus")
    p.add_argument("--coeffs", default=None, help="constant-first, e.g. 1,1,0,1")
    p.add_argument("--poly-file", default=None, dest="poly_file")
    _add_common(p)
    p.set_defaults(handler=cmd_factor)

    p = subs.add_parser("inversive", help="inversive generator orbit")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--u0", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="defaults to one period")
    p.add_argument("--unit", action="store_true", help="also emit u_n/q")
    _add_common(p)
    p.set_defaults(handler=cmd_inversive)

    p = subs.add_parser("inversive-audit", help="residue bound audit over primes")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=cmd_inversive_audit)

    p = subs.add_parser("zaremba", help="bounded-quotient witness table")
    p.add_argument("--base", type=int, required=True, choices=[2, 3, 5])
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=cmd_zaremba)

    p = subs.add_parser("reproduce", help="run one acceptance experiment")
    p.add_argument("criterion", help="criterion number, or 'all'")
    _add_common(p, out=False)
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, TypeError, KeyError, OSError, PrecisionError, BudgetError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
