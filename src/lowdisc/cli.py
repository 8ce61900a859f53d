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

The parser is built from one table, SUBCOMMANDS.  Each handler computes a
payload, human text and exit code and passes them to _finish, which prints
one or the other and, with --out, writes the artifacts (report.json unless
the handler names its files) and a manifest of the parsed options.  gen
prints by itself (its --out payload carries the files' digests) and builds
its point sets from a second table, kind -> (options needed, others read, builder).
gen --kind digital and verify read provenance files through one reader,
_provenance_file, which has pointsets.provenance_reference name a field
that is missing, mistyped or out of range; verify passes the provenance to
assess with the points.  Every list option, and the coefficient line of
factor --poly-file, goes through one reader, _list_option: an empty option
is an empty list, and a blank entry is an error.
The payloads of cmsweep, inversive, inversive-audit, zaremba and reproduce
are the fields of the records the library returns, by dataclasses.asdict.
The finite-field modules and acceptance are imported by the handlers that
use them, so gen, verify and discrepancy never load them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from .algebra import Poly
from .pointsets import (
    GeneratingMatrixSet,
    PointSet,
    csv_blocks,
    digital_net,
    digital_points,
    halton,
    hybrid,
    kronecker,
    lattice_points,
    niederreiter_net,
    polynomial_lattice,
    pointset_from_csv_file,
    pointset_to_csv,
    provenance_reference,
)
from .quality import P_ALPHA_BUDGET, BudgetError, assess, p_alpha, qmc_integrate, star_discrepancy

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Artifacts, manifests and output
# ---------------------------------------------------------------------------

def _json_file(obj) -> str:
    """The artifact form of a JSON value: indented, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# parsed options that are not parameters of the run; verify's --sidecar has
# never been recorded, and leaving it out keeps verify manifests unchanged
_UNRECORDED = {"command", "json", "out", "sidecar"}


def _write_artifacts(args, files: dict) -> dict:
    """Write the named files plus manifest.json under --out; returns name ->
    digest.  A file's content is a str or an iterable of str pieces, each
    written and hashed as it comes, so a file in pieces is never joined."""
    os.makedirs(args.out, exist_ok=True)
    digests = {}
    for name, content in files.items():
        digest = hashlib.sha256()
        with open(os.path.join(args.out, name), "wb") as fh:
            for data in map(str.encode, [content] if isinstance(content, str) else content):
                fh.write(data)
                digest.update(data)
        digests[name] = digest.hexdigest()
    # the manifest: what was run and what came out, with content checksums
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in _UNRECORDED},
        "version": __version__,
        "outputs": digests,
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        fh.write(_json_file(manifest))
    return digests


def _finish(args, payload, human: str, code: int = 0, files: Optional[dict] = None) -> int:
    """The one output path of every subcommand but gen.

    With --out, write the artifacts (report.json holding the payload unless
    files are named) and the manifest; then print the payload under --json,
    else the human text; return the exit code.
    """
    if getattr(args, "out", None):
        _write_artifacts(args, files or {"report.json": _json_file(payload)})
    print(json.dumps(payload, sort_keys=True) if args.json else human)
    return code


# ---------------------------------------------------------------------------
# Small parsers and pretty-printers
# ---------------------------------------------------------------------------

def _list_option(text: str, kind: Callable = int, sep: str = ",") -> list:
    """The entries of a list option, each stripped and read by kind: an
    empty option is an empty list, and a blank entry is an error."""
    tokens = [tok.strip() for tok in text.split(sep)] if text.strip() else []
    if "" in tokens:
        raise ValueError(f"blank entry in {text!r}")
    return [kind(tok) for tok in tokens]


def _poly_pretty(f: Poly) -> str:
    terms = []
    for e, c in reversed(list(enumerate(f.coeffs))):
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            var = "x" if e == 1 else f"x^{e}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms)


def _read_points(path: str, provenance: Optional[dict] = None) -> PointSet:
    with open(path, "rb") as fh:
        return pointset_from_csv_file(fh, provenance)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _provenance_file(path: str) -> tuple[dict, object]:
    """The provenance in path (its JSON object, or the one under its
    "provenance" key) and the reference that provenance_reference reads."""
    with open(path) as fh:
        meta = json.load(fh)
    if isinstance(meta, dict):
        meta = meta.get("provenance", meta)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: provenance is not a JSON object")
    try:
        return meta, provenance_reference(meta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _gen_digital(args) -> PointSet:
    _, G = _provenance_file(args.matrices)
    if not isinstance(G, GeneratingMatrixSet):
        raise ValueError(f"{args.matrices} holds no generating matrices")
    if args.n is None:
        if args.start:
            raise ValueError("gen --kind digital reads --start only with --n")
        return digital_net(G)
    return digital_points(G, args.start, args.n)


def _gen_polylattice(args) -> PointSet:
    f = Poly(_list_option(args.f), args.b)
    g = _list_option(args.g, lambda part: Poly(_list_option(part), args.b), ";")
    return polynomial_lattice(f, g)


# kind -> (options it needs, others it reads, builder).  The builders name
# each construction at call time: a profiler or tracer that rebinds the
# module attribute (as perfbench does) must see the call, which a stored
# function object hides.
_GEN_KINDS = {
    "lattice": (("a", "n"), (), lambda args: lattice_points(_list_option(args.a), args.n)),
    "kronecker": (
        ("alphas", "n"),
        ("start",),
        lambda args: kronecker(_list_option(args.alphas, str), args.n, start=args.start),
    ),
    "halton": (
        ("bases", "n"),
        ("start",),
        lambda args: halton(_list_option(args.bases), args.n, start=args.start),
    ),
    "hybrid": (
        ("first", "second"),
        (),
        lambda args: hybrid(_read_points(args.first), _read_points(args.second)),
    ),
    "digital": (("matrices",), ("n", "start"), _gen_digital),
    "niederreiter": (("b", "s", "m"), (), lambda args: niederreiter_net(args.b, args.s, args.m)),
    "polylattice": (("b", "f", "g"), (), _gen_polylattice),
}


def cmd_gen(args) -> int:
    needs, reads, build = _GEN_KINDS[args.kind]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"gen --kind {args.kind} needs {', '.join(missing)}")
    # an option is set when it differs from its default (--start's is 0);
    # --float applies to every kind
    read = (*needs, *reads, "kind", "float")
    defaults = {flags[0][2:]: kwargs.get("default") for flags, kwargs in SUBCOMMANDS["gen"][2]}
    unread = [f"--{k}" for k, v in defaults.items() if k not in read and getattr(args, k) != v]
    if unread:
        raise ValueError(f"gen --kind {args.kind} does not read {', '.join(unread)}")
    ps = build(args)
    described = {
        "n": ps.count,
        "s": ps.dim,
        "representation": ps.representation,
        "provenance": ps.provenance,
    }
    # gen prints by itself: with --out its payload carries the digests of
    # what it wrote, and without --out the points themselves are the output.
    # The CSV goes out in blocks; only --json without --out joins them.
    if args.out:
        digests = _write_artifacts(
            args, {"points.csv": csv_blocks(ps, args.float), "points.json": _json_file(described)}
        )
        payload = {"kind": args.kind, "n": ps.count, "s": ps.dim, "outputs": digests}
        human = (
            f"wrote {ps.count} points (s={ps.dim}, {ps.representation}) "
            f"to {os.path.join(args.out, 'points.csv')}"
        )
        print(json.dumps(payload, sort_keys=True) if args.json else human)
    elif args.json:
        csv_text = pointset_to_csv(ps, force_float=args.float)
        print(json.dumps({"kind": args.kind, **described, "csv": csv_text}, sort_keys=True))
    else:
        sys.stdout.writelines(csv_blocks(ps, args.float))
    return 0


# ---------------------------------------------------------------------------
# verify / discrepancy / p2 / integrate
# ---------------------------------------------------------------------------

def _sidecar_provenance(args) -> Optional[dict]:
    """The provenance recorded next to --points (or in --sidecar), if any."""
    path = args.sidecar
    if path is None:
        path = os.path.splitext(args.points)[0] + ".json"
        if not os.path.exists(path):
            return None
    return _provenance_file(path)[0]


def cmd_verify(args) -> int:
    prov = _sidecar_provenance(args)
    ps = _read_points(args.points, prov)
    if args.s is not None and ps.dim != args.s:
        raise ValueError(f"points have s={ps.dim}, expected --s {args.s}")
    report = assess(ps, b=args.b, m=args.m, n_limit=args.n_limit)
    lines = [
        f"N={report.n} s={report.s} representation={report.representation}",
        f"t_geometric={report.t_geometric} t_dual={report.t_dual}",
        f"star_discrepancy={report.star_discrepancy} ({report.star_discrepancy_float})",
        f"p2={report.p2} diagnostic_ratio={report.diagnostic_ratio}",
    ]
    return _finish(args, report.as_json_dict(), "\n".join(lines))


def cmd_discrepancy(args) -> int:
    ps = _read_points(args.points)
    value = star_discrepancy(ps, n_limit=args.n_limit)
    exact = isinstance(value, Fraction)
    payload = {"n": ps.count, "s": ps.dim, "decimal": float(value), "exact": exact}
    if exact:
        payload["num"] = value.numerator
        payload["den"] = value.denominator
        human = f"D* = {value.numerator}/{value.denominator} = {float(value)}"
    else:
        human = f"D* = {value} (float point set; value is approximate)"
    return _finish(args, payload, human)


def cmd_p2(args) -> int:
    a = _list_option(args.a)
    if args.n * len(a) > P_ALPHA_BUDGET:
        raise BudgetError(f"P_2 over n*s = {args.n * len(a)} coordinates exceeds the budget {P_ALPHA_BUDGET}")
    value = p_alpha(a, args.n)
    return _finish(args, {"a": a, "n": args.n, "p2": value}, f"P_2 = {value}")


_INTEGRANDS = {
    "const1": (lambda x: 1.0, 1.0),
    "prod2x": (lambda x: math.prod(2.0 * v for v in x), 1.0),
}


def cmd_integrate(args) -> int:
    ps = _read_points(args.points)
    if args.f == "box":
        if args.y is None:
            raise ValueError("integrand 'box' needs --y y1,y2,...")
        y = _list_option(args.y, float)
        if len(y) != ps.dim:
            raise ValueError(f"--y has {len(y)} coordinates, points have {ps.dim}")
        outside = [yj for yj in y if not 0.0 <= yj <= 1.0]  # NaN fails both
        if outside:
            raise ValueError(f"--y coordinate {outside[0]} outside [0, 1]")

        def fn(x):
            return 1.0 if all(v < yj for v, yj in zip(x, y)) else 0.0

        exact = math.prod(y)
    elif args.f in _INTEGRANDS:
        fn, exact = _INTEGRANDS[args.f]
    else:
        raise ValueError(f"unknown integrand {args.f!r}")
    estimate = qmc_integrate(fn, ps)
    error = abs(estimate - exact)
    payload = {
        "f": args.f,
        "n": ps.count,
        "estimate": estimate,
        "exact": exact,
        "abs_error": error,
    }
    return _finish(args, payload, f"estimate = {estimate} (exact {exact}, error {error})")


# ---------------------------------------------------------------------------
# isbn / cmsweep / factor
# ---------------------------------------------------------------------------

def cmd_isbn(args) -> int:
    from .permutations import isbn10_weighted_sum

    total = isbn10_weighted_sum(args.code)  # raises ValueError when malformed
    valid = total % 11 == 0
    payload = {"code": args.code, "valid": valid, "weighted_sum": total}
    verdict = "valid" if valid else "invalid"
    human = f"{args.code}: {verdict} (weighted sum {total} mod 11)"
    return _finish(args, payload, human, 0 if valid else 1)


def cmd_cmsweep(args) -> int:
    from .permutations import FB_SWEEP_BUDGET, fb_sweep

    if args.q ** 2 > FB_SWEEP_BUDGET:
        raise BudgetError(f"cmsweep over q^2 = {args.q ** 2} table entries exceeds the budget {FB_SWEEP_BUDGET}")
    result = fb_sweep(args.q)
    payload = asdict(result)
    del payload["mismatches"]
    human = (
        f"q={result.q}: {result.count} complete mappings of the half-power "
        f"family; witnesses b = {list(result.witnesses)}"
    )
    # mismatches between the criterion and the exhaustive check would mean
    # the theory test itself failed; surface that as a domain failure
    return _finish(args, payload, human, 0 if not result.mismatches else 1)


def cmd_factor(args) -> int:
    from .factorizer import factor

    if args.poly_file:
        # a p=<prime> line, then the coefficients as a list option; blank lines skipped
        with open(args.poly_file) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if len(lines) < 2 or not lines[0].lower().startswith("p="):
            raise ValueError("polynomial file needs a p=<prime> line, then a coefficient line")
        f = Poly(_list_option(lines[1]), int(lines[0][2:]))
    elif args.coeffs is not None and args.p is not None:
        f = Poly(_list_option(args.coeffs), args.p)
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
    return _finish(args, payload, human, 0 if verified else 1)


# ---------------------------------------------------------------------------
# inversive / inversive-audit / zaremba
# ---------------------------------------------------------------------------

def cmd_inversive(args) -> int:
    from .generators import InversiveParams, inversive_sequence, least_period, to_unit_interval

    params = InversiveParams(q=args.q, a=args.a, b=args.b, u0=args.u0)
    info = least_period(params)
    n = args.n if args.n is not None else info.period
    orbit = inversive_sequence(params, n)
    payload = {**asdict(params), **asdict(info), "n": n, "orbit": orbit}
    if args.unit:
        payload["unit"] = to_unit_interval(orbit, args.q)
    human = (
        f"u_n: {' '.join(str(v) for v in orbit)}  "
        f"(period {info.period}, pre-period {info.pre_period})"
    )
    return _finish(args, payload, human)


def cmd_inversive_audit(args) -> int:
    from .algebra import is_prime
    from .generators import AUDIT_BUDGET, audit_bound

    work = 0  # 2 (q - 1) orbits of length q for each odd prime q
    for q in range(3, args.qmax + 1):
        work += 2 * (q - 1) * q if is_prime(q) else 0
        if work > AUDIT_BUDGET:
            raise BudgetError(f"inversive-audit to q_max = {args.qmax} walks more than its budget of {AUDIT_BUDGET} orbit elements")
    result = audit_bound(args.qmax)
    payload = asdict(result)
    human = (
        f"audited {result.combinations} (q,a,b,s) combinations, "
        f"{result.checks} inequalities, q <= {result.q_max}: "
        f"{len(result.violations)} violations"
    )
    code = 0 if not result.violations else 1
    return _finish(args, payload, human, code, {"audit.json": _json_file(payload)})


def cmd_zaremba(args) -> int:
    from .diophantine import ZAREMBA_BUDGET, zaremba_table

    work = 0
    if args.c > 1 and args.base > 1:  # c = 1 scans nothing
        for m in range(1, args.mmax + 1):
            n = args.base ** m
            work += n - 1 - n // (args.c + 1)  # the a in (n / (c + 1), n)
            if work > ZAREMBA_BUDGET:
                raise BudgetError(f"zaremba to m = {args.mmax} may scan more than its budget of {ZAREMBA_BUDGET} candidates")
    rows = zaremba_table(args.base, args.mmax, args.c)
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
    table = "\n".join(lines)
    payload = {
        "base": args.base,
        "m_max": args.mmax,
        "c": args.c,
        "absent": absent,
        "rows": [asdict(row) for row in rows],
    }
    code = 0 if absent == 0 else 1
    return _finish(args, payload, table, code, {"zaremba.csv": table + "\n"})


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
    payload = [{**asdict(r), "elapsed_seconds": round(r.elapsed_seconds, 3)} for r in results]
    human = "\n".join(format_result_line(r) for r in results)
    return _finish(args, payload, human, 0 if all(r.passed for r in results) else 1)


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def _opt(*flags, **kwargs):
    """One add_argument call, written as a table entry."""
    return flags, kwargs


# subcommand -> (handler, help, options); every subcommand also takes
# --json, and every one but reproduce, which writes no artifacts, --out
SUBCOMMANDS = {
    "gen": (cmd_gen, "generate a point set as CSV", [
        _opt("--kind", required=True, choices=list(_GEN_KINDS)),
        _opt("--n", type=int, help="number of points"),
        _opt("--a", help="lattice generator, e.g. 1,34"),
        _opt("--alphas", help="e.g. sqrt(2),sqrt(3)"),
        _opt("--bases", help="Halton bases, e.g. 2,3"),
        _opt("--b", type=int, help="prime base"),
        _opt("--s", type=int, help="dimension"),
        _opt("--m", type=int, help="digit resolution"),
        _opt("--f", help="modulus coefficients, constant first"),
        _opt("--g", help="generators, ';' between coordinates"),
        _opt("--matrices", help="JSON file with b and matrices"),
        _opt("--first", help="left CSV for --kind hybrid"),
        _opt("--second", help="right CSV for --kind hybrid"),
        _opt("--start", type=int, default=0, help="first index"),
        _opt("--float", action="store_true", help="render exact sets as floats"),
    ]),
    "verify": (cmd_verify, "quality report for a point CSV", [
        _opt("--points", required=True),
        _opt("--b", type=int),
        _opt("--m", type=int),
        _opt("--s", type=int),
        _opt("--sidecar", help="JSON with provenance/matrices"),
        _opt("--n-limit", type=int),
    ]),
    "discrepancy": (cmd_discrepancy, "exact star discrepancy of a CSV", [
        _opt("--points", required=True),
        _opt("--n-limit", type=int),
    ]),
    "p2": (cmd_p2, "lattice worst-case error P_2", [
        _opt("--a", required=True, help="generator vector, e.g. 1,34"),
        _opt("--n", type=int, required=True),
    ]),
    "integrate": (cmd_integrate, "equal-weight cubature over a CSV", [
        _opt("--points", required=True),
        _opt("--f", default="prod2x", help="const1, prod2x, or box"),
        _opt("--y", help="box corner for --f box"),
    ]),
    "isbn": (cmd_isbn, "validate an ISBN-10", [_opt("code")]),
    "cmsweep": (cmd_cmsweep, "complete mappings X^((q+1)/2)+bX", [
        _opt("--q", type=int, required=True, help="odd prime"),
    ]),
    "factor": (cmd_factor, "factor a polynomial over F_p", [
        _opt("--p", type=int, help="prime modulus"),
        _opt("--coeffs", help="constant-first, e.g. 1,1,0,1"),
        _opt("--poly-file"),
    ]),
    "inversive": (cmd_inversive, "inversive generator orbit", [
        _opt("--q", type=int, required=True),
        _opt("--a", type=int, required=True),
        _opt("--b", type=int, required=True),
        _opt("--u0", type=int, required=True),
        _opt("--n", type=int, help="defaults to one period"),
        _opt("--unit", action="store_true", help="also emit u_n/q"),
    ]),
    "inversive-audit": (cmd_inversive_audit, "residue bound audit over primes", [
        _opt("--qmax", type=int, required=True),
    ]),
    "zaremba": (cmd_zaremba, "bounded-quotient witness table", [
        _opt("--base", type=int, required=True, choices=[2, 3, 5]),
        _opt("--mmax", type=int, required=True),
        _opt("--c", type=int, required=True),
    ]),
    "reproduce": (cmd_reproduce, "run one acceptance experiment", [
        _opt("criterion", help="criterion number, or 'all'"),
    ]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="lowdisc",
        description="Construction and verification of low-discrepancy point sets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if name != "reproduce":
            p.add_argument("--out", help="artifact directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    try:
        return SUBCOMMANDS[args.command][0](args)
    except (ValueError, TypeError, KeyError, OSError, BudgetError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
