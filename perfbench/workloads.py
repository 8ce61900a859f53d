"""Workloads of the lowdisc benchmark: seeded inputs, one pass over a fixed
job list through ``lowdisc.cli.main``, and the independent checks applied to
every operation of a pass.

An operation is one CLI command on the pipelines and one acceptance
criterion on ``reproduce-all``.  Each operation ends with a list of problems:
a "missing" problem means the operation gave no result where one was due
(nonzero exit code, a null t where the in-memory set has one); a "wrong"
problem means two routes gave different answers.  Any problem counts the
operation as failed; only "wrong" problems make the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from lowdisc import cli
from lowdisc.algebra import Poly, is_irreducible
from lowdisc.pointsets import (
    PointSet,
    halton,
    kronecker,
    niederreiter_net,
    pointset_to_csv,
    polynomial_lattice,
)
from lowdisc.quality import minimal_t_geometric

MISSING = "missing"
WRONG = "wrong"


@dataclass(frozen=True)
class PointJob:
    """One point set of a pipeline workload: gen, verify, maybe discrepancy."""

    label: str
    gen: tuple[str, ...]
    net: Optional[tuple[int, int]]  # (b, m) passed to verify for a (t, m, s)-net
    discrepancy: bool
    build: Callable[[], PointSet]  # the same set built in memory, for references


@dataclass
class Op:
    """One timed operation and what the checks found wrong with it."""

    command: str
    label: str
    seconds: float
    rc: Optional[int]  # None when the call raised instead of returning
    payload: object  # parsed JSON output, or None
    problems: list[tuple[str, str]] = field(default_factory=list)

    def problem(self, kind: str, text: str) -> None:
        self.problems.append((kind, f"{self.command} {self.label}: {text}"))


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _niederreiter(b: int, s: int, m: int, discrepancy: bool) -> PointJob:
    return PointJob(
        label=f"niederreiter-b{b}-s{s}-m{m}",
        gen=("--kind", "niederreiter", "--b", str(b), "--s", str(s), "--m", str(m)),
        net=(b, m),
        discrepancy=discrepancy,
        build=lambda: niederreiter_net(b, s, m),
    )


def _poly_lattice(rng: random.Random, b: int, s: int, m: int, discrepancy: bool) -> PointJob:
    # f irreducible and every g_j nonzero make each coordinate a permutation
    # of the b^m grid, so the work per set does not depend on the seed
    while True:
        f = [rng.randrange(b) for _ in range(m)] + [1]
        if is_irreducible(Poly(f, b)):
            break
    gs = [[1]]
    while len(gs) < s:
        g = [rng.randrange(b) for _ in range(m)]
        if any(g):
            gs.append(g)
    return PointJob(
        label=f"polylattice-b{b}-s{s}-m{m}",
        gen=(
            "--kind", "polylattice", "--b", str(b),
            "--f", ",".join(map(str, f)),
            "--g", ";".join(",".join(map(str, g)) for g in gs),
        ),
        net=(b, m),
        discrepancy=discrepancy,
        build=lambda: polynomial_lattice(Poly(f, b), [Poly(g, b) for g in gs]),
    )


def _kronecker(rng: random.Random, s: int, n: int) -> PointJob:
    non_squares = [d for d in range(2, 500) if round(d ** 0.5) ** 2 != d]
    alphas = [f"sqrt({d})" for d in rng.sample(non_squares, s)]
    start = rng.randrange(10 ** 6)
    return PointJob(
        label=f"kronecker-s{s}-n{n}",
        gen=("--kind", "kronecker", "--alphas", ",".join(alphas),
             "--n", str(n), "--start", str(start)),
        net=None,
        discrepancy=True,
        build=lambda: kronecker(alphas, n, start=start),
    )


def _halton(rng: random.Random, n: int) -> PointJob:
    bases = [2, 3, 5, 7, 11]
    # below 17650 the last index stays under 7^6, so every column keeps the
    # same denominator and the CSV the same token widths for any seed
    start = rng.randrange(17_000)
    return PointJob(
        label=f"halton-s{len(bases)}-n{n}",
        gen=("--kind", "halton", "--bases", ",".join(map(str, bases)),
             "--n", str(n), "--start", str(start)),
        net=None,
        discrepancy=False,
        build=lambda: halton(bases, n, start=start),
    )


def pipeline_exact_jobs(seed: int) -> list[PointJob]:
    rng = random.Random(seed)
    return [
        _niederreiter(2, 2, 13, True),
        _niederreiter(2, 3, 9, True),
        _poly_lattice(rng, 2, 3, 9, True),
        _kronecker(rng, 3, 512),
    ]


def pipeline_large_jobs(seed: int) -> list[PointJob]:
    rng = random.Random(seed)
    # even m only: an odd-m b=2 s=3 Niederreiter net trips the CSV
    # denominator defect and verify would skip the geometric t it should time
    return [
        _niederreiter(2, 3, 14, False),
        _niederreiter(3, 3, 10, False),
        _poly_lattice(rng, 2, 3, 14, False),
        _halton(rng, 100_000),
    ]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _call(command: str, label: str, argv: list[str]) -> Op:
    """Run one CLI command in-process, timing it and parsing its JSON."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:  # a crash fails this operation, not the benchmark
        seconds = time.perf_counter() - start
        op = Op(command, label, seconds, None, None)
        op.problem(MISSING, "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])
        return op
    seconds = time.perf_counter() - start
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    op = Op(command, label, seconds, rc, payload)
    if rc != 0:
        op.problem(MISSING, f"exit code {rc}: {out.getvalue().strip()[:200]}")
    elif payload is None:
        op.problem(MISSING, "output is not JSON")
    return op


def pipeline_pass(jobs: list[PointJob]) -> list[Op]:
    """gen -> verify [-> discrepancy] for every job, in the current directory.

    Paths are relative so that manifests, which record them, are the same
    bytes in every pass directory.
    """
    ops = []
    for job in jobs:
        d = job.label
        ops.append(_call("gen", d, ["gen", *job.gen, "--out", d, "--json"]))
        argv = ["verify", "--points", f"{d}/points.csv", "--out", f"{d}/verify", "--json"]
        if job.net:
            argv += ["--b", str(job.net[0]), "--m", str(job.net[1])]
        ops.append(_call("verify", d, argv))
        if job.discrepancy:
            ops.append(_call("discrepancy", d, [
                "discrepancy", "--points", f"{d}/points.csv",
                "--out", f"{d}/discrepancy", "--json",
            ]))
    return ops


def reproduce_pass() -> list[Op]:
    """``lowdisc reproduce all --json``, split into one operation per criterion."""
    whole = _call("reproduce", "all", ["reproduce", "all", "--json"])
    if not isinstance(whole.payload, list):
        if not whole.problems:
            whole.problem(MISSING, "output is not a list of criteria")
        return [whole]
    ops = []
    for row in whole.payload:
        op = Op("criterion", str(row.get("criterion")), row.get("elapsed_seconds"), whole.rc, row)
        if not row.get("passed"):
            op.problem(WRONG, f"failed: {row.get('detail')}")
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# References and checks
# ---------------------------------------------------------------------------

def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def references(jobs: list[PointJob]) -> dict[str, dict]:
    """Per job: sha256 of the in-memory set's CSV, and its geometric t."""
    refs = {}
    for job in jobs:
        ps = job.build()
        ref = {"csv_sha256": hashlib.sha256(pointset_to_csv(ps).encode()).hexdigest()}
        if job.net:
            ref["t"] = minimal_t_geometric(ps, *job.net)
        refs[job.label] = ref
    return refs


def _owner(relpath: str) -> tuple[str, str]:
    """(command, label) of the operation that wrote an artifact."""
    parts = Path(relpath).parts
    if len(parts) > 2:
        return parts[1], parts[0]
    return "gen", parts[0]


def check_pipeline(
    ops: list[Op],
    refs: dict[str, dict],
    digests: dict[str, str],
    first_digests: Optional[dict[str, str]],
) -> None:
    """Attach problems to the operations of one pipeline pass."""
    by_key = {(op.command, op.label): op for op in ops}
    for op in ops:
        if op.problems or op.command != "verify":
            continue
        report = op.payload
        t_geo, t_dual = report.get("t_geometric"), report.get("t_dual")
        if t_geo is not None and t_dual is not None and t_geo != t_dual:
            op.problem(WRONG, f"t_geometric {t_geo} != t_dual {t_dual}")
        want = refs[op.label].get("t")
        if want is not None:
            if t_geo is None:
                op.problem(MISSING, f"t_geometric is null; the in-memory set has t = {want}")
            elif t_geo != want:
                op.problem(WRONG, f"t_geometric {t_geo} != in-memory t {want}")
        disc = by_key.get(("discrepancy", op.label))
        if disc is not None and not disc.problems:
            mine = report.get("star_discrepancy")
            theirs = disc.payload
            if isinstance(mine, dict):
                same = (mine["num"], mine["den"]) == (theirs.get("num"), theirs.get("den"))
            else:
                same = mine is not None and mine == theirs.get("decimal")
            if mine is None:
                op.problem(MISSING, "star_discrepancy is null within its budget")
            elif not same:
                disc.problem(WRONG, f"D* {theirs} != verify's D* {mine}")
    for (command, label), op in by_key.items():
        if command == "gen" and not op.problems:
            got = digests.get(f"{label}/points.csv")
            if got != refs[label]["csv_sha256"]:
                op.problem(WRONG, "points.csv differs from the in-memory set's CSV")
    if first_digests is not None:
        for relpath in sorted(set(digests) | set(first_digests)):
            if digests.get(relpath) != first_digests.get(relpath):
                op = by_key.get(_owner(relpath))
                if op is not None:
                    op.problem(WRONG, f"{relpath} differs from the first pass")


def check_reproduce(ops: list[Op], first: Optional[list[Op]]) -> None:
    """Criterion details come from fixed seeds, so every pass must repeat them."""
    if first is None:
        return
    before = {op.label: op.payload for op in first}
    for op in ops:
        old = before.get(op.label)
        if isinstance(op.payload, dict) and isinstance(old, dict):
            if op.payload.get("detail") != old.get("detail"):
                op.problem(WRONG, "detail differs from the first pass")


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Optional[Callable[[int], list[PointJob]]]  # None: reproduce-all

    def inputs(self, seed: int) -> list[PointJob]:
        return self.jobs(seed) if self.jobs else []

    def run_pass(self, jobs: list[PointJob]) -> list[Op]:
        return pipeline_pass(jobs) if self.jobs else reproduce_pass()


WORKLOADS = {
    "pipeline-exact": Workload("pipeline-exact", pipeline_exact_jobs),
    "pipeline-large": Workload("pipeline-large", pipeline_large_jobs),
    "reproduce-all": Workload("reproduce-all", None),
}
