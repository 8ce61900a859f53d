"""No module of the package or of its tests imports a name at module level
that it never uses.  Stands in for a linter's unused-import rule, since the
test environment has none.  The check trusts `__all__`, so every name listed
there must also be defined in its module: a stale entry would hide an
unused import and break `import *`.

Every public top-level function and class of the package is read by other
code of the package, or named in README.md or under perfbench/, and so is
every public method and property of its classes, so public API that
nothing uses does not accumulate.  Likewise every defaulted parameter of
a public top-level function is passed by some call in the package or
under perfbench/, so no parameter stays that no caller sets.

Also: every function that the benchmark's tracer (perfbench/tracing.py)
wraps still exists under its name and still has the parameters the
tracer's hooks read, and its annotated return type still has the
attributes they read off its result, since the tracer finds all of them
by name and a rename would break a traced run without failing anything
else.

Criterion 4's trial-division oracle, and the lister of irreducibles it
divides by, name no factorizer code, so it stays independent of the route
it checks.

Also: cli.py splits text only inside its one list reader, so a new list
option cannot bring back a second decoder with rules of its own; cli.py
names no *_BUDGET constant, so each work budget is checked by the library
function that does the work and no handler grows a work formula; and no
package code calls itertools.product outside algebra.monic_irreducibles,
so a second lister of monic polynomials cannot grow back; and no package
code calls numpy's text readers (fromstring, loadtxt, genfromtxt), so the
exact CSV reader's digit routine stays the one parser of digits in bytes.
The package calls os.fork at one place, sweep.map_over_two_processes, so
a second fork path cannot grow back, and `lowdisc reproduce all` loads no
process pool (multiprocessing, concurrent.futures) and calls no pickle
function.  lowdisc.sweep imports nothing from lowdisc.quality, which loads
it, so the two cannot import each other again.

Last: no code of the package reads a provenance's fields outside the one
decoder, pointsets.provenance_reference, or writes into a provenance, so
every reference a provenance names is read with the same checks, and a
set's provenance stays what its construction passed."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

import pytest

from lowdisc.pointsets import PointSet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lowdisc"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    unused.append(bound)
    return unused


def test_checker_finds_unused_and_respects_exports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp, sys\n"
        "from typing import Optional, Sequence\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Optional[int]) -> int:\n"
        "    return sys.maxsize\n"
    )
    assert unused_imports(source) == ["os", "osp", "Sequence"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_test_imports(path):
    assert unused_imports(path.read_text()) == []


def undefined_exports(source: str) -> list[str]:
    """Names in `__all__` that no module-level def, class or assignment
    binds; an imported name does not count."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(_exported(tree) - defined)


def test_export_checker_finds_stale_and_imported_names():
    source = (
        "import cmath\n"
        "__all__ = ['LIMIT', 'f', 'C', 'cmath', 'gone']\n"
        "LIMIT = 3\n"
        "def f(): pass\n"
        "class C: pass\n"
    )
    assert undefined_exports(source) == ["cmath", "gone"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []


def _names_read(node: ast.AST) -> Counter:
    """Identifiers under node: names, attributes and imported names."""
    counts = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.alias):
            counts[n.name] += 1
    return counts


def unreferenced_public_names(sources: dict[str, str], text: str) -> list[str]:
    """The "module:name" of each public top-level def or class in sources
    that no code in sources reads outside its own definition (an `__all__`
    entry is a string, so it does not count) and that text does not name;
    then the "module:Class.name" of each public method or property of a
    top-level class that no code in sources reads as `.name` outside its
    own definition and that text does not name as `.name` or `name` in
    backticks."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    attrs = sum((_attributes_read(tree) for tree in trees.values()), Counter())
    dead = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and read[node.name] == _names_read(node)[node.name]
        and not re.search(rf"\b{node.name}\b", text)
    ]
    return dead + [
        f"{module}:{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and attrs[node.name] == _attributes_read(node)[node.name]
        and not re.search(rf"[.`]{node.name}\b", text)
    ]


def _attributes_read(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _readme_and_perfbench() -> str:
    files = [ROOT / "README.md", *sorted(PERFBENCH.glob("*.md")), *sorted(PERFBENCH.glob("*.py"))]
    return "\n".join(p.read_text() for p in files)


def test_reference_checker_finds_dead_public_names():
    sources = {
        "a.py": (
            "__all__ = ['dead', 'used']\n"
            "def used(): pass\n"
            "def dead(): return used()\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def _private(): pass\n"
            "class Named: pass\n"
            "class Method:\n"
            "    def read(self): return 0\n"
            "    def again(self): return self.again()\n"
            "    @property\n"
            "    def size(self): return 0\n"
            "    def documented(self): return 0\n"
            "    def _private(self): return 0\n"
        ),
        "b.py": "from .a import used\nprint(obj.read(), 'dead', size)\n",
    }
    assert unreferenced_public_names(sources, "see `Named`; not Method_x; `documented`") == [
        "a.py:dead",
        "a.py:recursive",
        "a.py:Method",
        "a.py:Method.again",
        "a.py:Method.size",
    ]
    planted = _package_sources()
    planted["quality.py"] += "\n\ndef planted_dead(points):\n    return planted_dead(points)\n"
    planted["algebra.py"] = planted["algebra.py"].replace(
        "class Poly:\n", "class Poly:\n    def planted_method(self):\n        return self.planted_method()\n", 1
    )
    assert unreferenced_public_names(planted, _readme_and_perfbench()) == [
        "quality.py:planted_dead",
        "algebra.py:Poly.planted_method",
    ]


def test_every_public_name_is_referenced():
    assert unreferenced_public_names(_package_sources(), _readme_and_perfbench()) == []


def unpassed_parameters(sources: dict[str, str]) -> list[str]:
    """The "module:function(name=)" of each defaulted parameter of a public
    top-level function in sources that no call in sources passes, by
    keyword or by position.  A call is matched by the function's name, and
    a starred argument passes every positional parameter."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = [
        call
        for tree in trees.values()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
    ]
    unpassed = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            defaulted = positional[len(positional) - len(fn.args.defaults):] + [
                a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
            ]
            passed = set()
            for call in calls:
                if getattr(call.func, "id", getattr(call.func, "attr", None)) != fn.name:
                    continue
                passed |= {kw.arg for kw in call.keywords}
                if any(isinstance(arg, ast.Starred) for arg in call.args):
                    passed |= set(positional)
                else:
                    passed |= set(positional[: len(call.args)])
            unpassed += [f"{module}:{fn.name}({name}=)" for name in defaulted if name not in passed]
    return unpassed


def _package_and_perfbench_sources() -> dict[str, str]:
    perfbench = {f"perfbench/{p.name}": p.read_text() for p in sorted(PERFBENCH.glob("*.py"))}
    return {**_package_sources(), **perfbench}


def test_parameter_checker_finds_unpassed_defaults():
    sources = {
        "a.py": (
            "def f(a, b=1, c=2, *, d=3, e=4, g): pass\n"
            "def h(x, y=0, z=0): pass\n"
            "def never(k=1): pass\n"
            "def _private(q=1): pass\n"
            "class C:\n"
            "    def method(self, r=1): pass\n"
        ),
        "b.py": "f(0, 1, e=5, g=6)\nmod.h(*args)\n",
    }
    assert unpassed_parameters(sources) == [
        "a.py:f(c=)",
        "a.py:f(d=)",
        "a.py:never(k=)",
    ]
    planted = _package_and_perfbench_sources()
    planted["quality.py"] += "\n\ndef planted(points, scale=1):\n    return points\n\n\nplanted(None)\n"
    assert unpassed_parameters(planted) == ["quality.py:planted(scale=)"]


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters(_package_and_perfbench_sources()) == []


def _tracer_names(source: str) -> tuple[list[str], dict[str, set[str]], dict[str, set[str]]]:
    """TIMED's "module.function" keys, and per hook method of Tracer (its
    aliases resolved) the argument names it reads through _arg and the
    attributes it reads off `result`."""
    tree = ast.parse(source)
    timed = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TIMED" for t in node.targets)
    )
    tracer = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    methods = {n.name: n for n in tracer.body if isinstance(n, ast.FunctionDef)}
    for node in tracer.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            methods.update((t.id, methods[node.value.id]) for t in node.targets)
    hooks = {name: method for name, method in methods.items() if name.startswith("_on_")}
    reads = {
        name: {
            call.args[3].value
            for call in ast.walk(method)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
        }
        for name, method in hooks.items()
    }
    results = {
        name: {
            node.attr
            for node in ast.walk(method)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "result"
        }
        for name, method in hooks.items()
    }
    return list(timed), reads, results


def _traced(qualname: str):
    module, name = qualname.split(".")
    return getattr(importlib.import_module(f"lowdisc.{module}"), name)


# an instance of each traced return type that is not a dataclass: its
# attributes are set when it is built, so only an instance has them
_RESULT_SAMPLES = {PointSet: PointSet.exact([[0]], [1])}


def _has_attribute(cls, name: str) -> bool:
    if dataclasses.is_dataclass(cls):
        fields = {field.name for field in dataclasses.fields(cls)}
        return name in fields or isinstance(getattr(cls, name, None), property)
    return hasattr(_RESULT_SAMPLES[cls], name)


def unresolved_result_reads(source: str) -> list[str]:
    """"module.function: result.name" for each attribute that a hook of the
    tracer in source reads off a result its function's return type lacks."""
    timed, _, results = _tracer_names(source)
    missing = []
    for qualname in timed:
        names = results.get("_on_" + qualname.replace(".", "_"), set())
        if names:
            returned = typing.get_type_hints(_traced(qualname))["return"]
            missing += [f"{qualname}: result.{n}" for n in sorted(names) if not _has_attribute(returned, n)]
    return missing


def test_result_attribute_checker_finds_a_renamed_field(monkeypatch):
    from lowdisc import generators

    @dataclasses.dataclass(frozen=True)
    class Renamed:
        check_count: int

    def audit_bound(q_max: int) -> Renamed:
        return Renamed(0)

    monkeypatch.setattr(generators, "audit_bound", audit_bound)
    assert unresolved_result_reads(TRACING.read_text()) == ["generators.audit_bound: result.checks"]
    # a point set's attributes are found on an instance
    renamed = TRACING.read_text().replace("result.count", "result.size")
    assert "pointsets.halton: result.size" in unresolved_result_reads(renamed)


def test_tracer_names_resolve_in_the_package():
    timed, reads, _ = _tracer_names(TRACING.read_text())
    hooks = {"_on_" + qualname.replace(".", "_"): qualname for qualname in timed}
    assert set(reads) <= set(hooks)  # no hook for a function it does not wrap
    for qualname in timed:
        params = inspect.signature(_traced(qualname)).parameters
        hook = "_on_" + qualname.replace(".", "_")
        assert reads.get(hook, set()) <= set(params), qualname
    assert unresolved_result_reads(TRACING.read_text()) == []


def test_tracer_sees_the_calls_of_handler_local_imports(capsys):
    # a handler that imports its function when it runs reads the module
    # attribute the tracer rebinds, so the call is recorded
    from lowdisc import cli

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["factor", "--p", "2", "--coeffs", "1,1,1"]) == 0
        assert cli.main(["cmsweep", "--q", "7"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    traced = {span[0] for span in tracer.spans}
    assert {"factorizer.factor", "permutations.fb_sweep"} <= traced


def test_criterion_4_oracle_uses_no_factorizer_code():
    # the oracle must reach its answer by trial division alone, or it would
    # agree with `factor` by construction
    from lowdisc import acceptance, algebra

    banned = {"is_irreducible", "factor", "kernel_basis", "factorizer"}
    for fn in (acceptance._naive_factor, algebra.monic_irreducibles):
        named = set()
        for node in ast.walk(ast.parse(inspect.getsource(fn))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                named.update((node.module or "").split("."))
        assert not named & banned, fn.__name__


def calls_outside(source: str, callee: str, inside: str | None) -> list[str]:
    """"function:line" (or "<module>:line") of each call of callee, as a
    method or attribute (`x.callee(`) or as a bare name, in source outside
    the top-level function named inside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == inside:
            continue
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [
            f"{where}:{call.lineno}"
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and callee in (getattr(call.func, "attr", None), getattr(call.func, "id", None))
        ]
    return found


def test_split_checker_finds_a_second_decoder():
    source = (
        "def _read(text):\n"
        "    return text.split(',')\n"
        "def handler(args):\n"
        "    return [int(t) for t in args.a.split(';')]\n"
        "KINDS = {'x': lambda args: args.b.split(',')}\n"
        "def other(path):\n"
        "    return os.path.splitext(path)\n"
    )
    assert calls_outside(source, "split", "_read") == ["handler:4", "<module>:5"]
    cli = (SRC / "cli.py").read_text()
    planted = cli.replace(
        "y = _list_option(args.y, float)", 'y = [float(tok) for tok in args.y.split(",")]', 1
    )
    assert planted != cli
    assert [where.partition(":")[0] for where in calls_outside(planted, "split", "_list_option")] == [
        "cmd_integrate"
    ]


def test_cli_splits_text_only_in_its_list_reader():
    assert calls_outside((SRC / "cli.py").read_text(), "split", "_list_option") == []


def test_the_package_calls_os_fork_at_one_place():
    # the star sweep and reproduce all share one helper, so a second fork
    # path, with faults, reaping and a reply format of its own, cannot grow back
    planted = "import os\ndef run():\n    pid = os.fork()\nfork()\n"
    assert calls_outside(planted, "fork", "") == ["run:3", "<module>:4"]
    sites = [
        f"{path.name}:{where.partition(':')[0]}"
        for path in sorted(SRC.glob("*.py"))
        for where in calls_outside(path.read_text(), "fork", "")
    ]
    assert sites == ["sweep.py:map_over_two_processes"]


def imports_of(source: str, module: str, target: str) -> list[int]:
    """Lines of the module `module` (a dotted name) that import the module
    `target` or a name from it, at any depth and in any form: `import`,
    `from ... import`, relative or absolute, and importlib.import_module or
    __import__ of a literal name."""
    package = module.split(".")[:-1]
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package, or to a parent of it
                base = ".".join(package[: len(package) - node.level + 1] + [base]).strip(".")
            named = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("import_module", "__import__")
            and node.args and isinstance(node.args[0], ast.Constant)
        ):
            name = node.args[0].value
            named = [".".join(package) + name if name.startswith(".") else name]
        else:
            continue
        if any(name == target or name.startswith(target + ".") for name in named):
            lines.append(node.lineno)
    return sorted(lines)


def test_import_checker_finds_every_form():
    planted = (
        "from .quality import x\n"
        "from . import quality\n"
        "import lowdisc.quality as q\n"
        "from lowdisc import quality, pointsets\n"
        "def f():\n"
        "    from lowdisc.quality import y\n"
        "    return importlib.import_module('.quality', 'lowdisc'), __import__('lowdisc.quality')\n"
        "from . import pointsets\n"
        "from .qualityx import z\n"
        "import lowdisc, quality\n"
        "importlib.import_module('lowdisc.pointsets')\n"
    )
    assert imports_of(planted, "lowdisc.sweep", "lowdisc.quality") == [1, 2, 3, 4, 6, 7, 7]


def test_the_sweep_imports_nothing_from_quality():
    # quality loads the sweep; a name it borrowed back would close the cycle
    assert imports_of((SRC / "sweep.py").read_text(), "lowdisc.sweep", "lowdisc.quality") == []
    assert imports_of((SRC / "quality.py").read_text(), "lowdisc.quality", "lowdisc.sweep") != []


def test_reproduce_all_loads_no_process_pool_and_calls_no_pickle():
    # numpy loads pickle when it is imported, so the run is checked for
    # calls into pickle, on the side that reads the child's reply
    script = (
        "import contextlib, io, json, os, pickle, sys\n"
        "from lowdisc.cli import main\n"
        "fork, forks, pickled = os.fork, [], []\n"
        "os.sched_getaffinity = lambda pid: {0, 1}  # the forked path on any machine\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "for name in ('dump', 'dumps', 'load', 'loads'):\n"
        "    setattr(pickle, name, lambda *args, name=name, **kwargs: pickled.append(name))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['reproduce', 'all'])\n"
        "print(json.dumps({'code': code, 'forks': len(forks), 'pickled': pickled, 'modules': sorted(sys.modules)}))\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True,
    )
    result = json.loads(fresh.stdout)
    assert (result["code"], result["forks"], result["pickled"]) == (0, 1, [])
    assert not {m for m in result["modules"] if m.partition(".")[0] in {"multiprocessing", "concurrent"}}


def budget_names(source: str) -> list[str]:
    """"name:line" of each identifier in source ending in _BUDGET: a name,
    an attribute or an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.ImportFrom):
            found += [f"{alias.name}:{node.lineno}" for alias in node.names if alias.name.endswith("_BUDGET")]
        elif isinstance(name, str) and name.endswith("_BUDGET"):
            found.append(f"{name}:{node.lineno}")
    return found


def test_budget_checker_finds_a_handler_formula():
    source = (
        "from .quality import P_ALPHA_BUDGET, p_alpha\n"
        "def handler(args):\n"
        "    if args.q ** 2 > permutations.FB_SWEEP_BUDGET or args.n > P_ALPHA_BUDGET:\n"
        "        raise BudgetError('over')\n"
    )
    assert budget_names(source) == ["P_ALPHA_BUDGET:1", "FB_SWEEP_BUDGET:3", "P_ALPHA_BUDGET:3"]
    cli = (SRC / "cli.py").read_text()
    planted = cli.replace(
        "    from .permutations import fb_sweep\n",
        "    from .permutations import FB_SWEEP_BUDGET, fb_sweep\n\n"
        "    if args.q ** 2 > FB_SWEEP_BUDGET:\n"
        "        raise BudgetError(f\"cmsweep over the budget {FB_SWEEP_BUDGET}\")\n",
        1,
    )
    assert planted != cli
    assert [where.partition(":")[0] for where in budget_names(planted)] == ["FB_SWEEP_BUDGET"] * 3


def test_cli_names_no_budget():
    # a handler that names a cap would repeat the work formula of the
    # library function behind it, which checks its own work
    assert budget_names((SRC / "cli.py").read_text()) == []


def test_product_checker_finds_a_second_lister():
    source = "from itertools import product\nMONICS = list(product(range(2), repeat=3))\n"
    assert calls_outside(source, "product", None) == ["<module>:2"]
    algebra = (SRC / "algebra.py").read_text()
    planted = algebra.replace(
        "    d = f.degree\n",
        "    d = f.degree\n    monics = list(itertools.product(range(f.p), repeat=d))\n",
        1,
    )
    assert planted != algebra
    found = calls_outside(planted, "product", "monic_irreducibles")
    assert [where.partition(":")[0] for where in found] == ["is_irreducible"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_monic_irreducibles_lists_monics(path):
    # itertools.product over coefficient tuples is how a second lister of
    # monic polynomials would start
    inside = "monic_irreducibles" if path.name == "algebra.py" else None
    assert calls_outside(path.read_text(), "product", inside) == []


# numpy's readers of numbers from text; each would be a second digit parser
TEXT_READERS = ("fromstring", "loadtxt", "genfromtxt")


def text_reader_calls(source: str) -> list[str]:
    """"name function:line" of each call of a TEXT_READERS function in source."""
    return [f"{name} {where}" for name in TEXT_READERS for where in calls_outside(source, name, None)]


def test_text_reader_checker_finds_numpy_readers():
    source = (
        "import numpy as np\n"
        "def read(data):\n"
        "    return np.fromstring(data.translate(SEPS), np.int64, sep=',')\n"
        "TABLE = np.loadtxt('table.csv', delimiter=',')\n"
        "def other(path):\n"
        "    return numpy.genfromtxt(path), np.frombuffer(path)\n"
    )
    assert text_reader_calls(source) == ["fromstring read:3", "loadtxt <module>:4", "genfromtxt other:6"]
    # the whole-text oracle keeps the parse the block reader replaced
    oracle = text_reader_calls((TESTS / "csv_reference.py").read_text())
    assert [where.partition(":")[0] for where in oracle] == ["fromstring canonical_exact_csv"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_package_reads_digits_only_in_its_csv_reader(path):
    # csvread parses the exact layout's numerators; the line parser reads
    # tokens with int() and float() after checking them
    assert text_reader_calls(path.read_text()) == []


# where package code may touch a provenance's fields: the decoder, the
# repr's read of its kind, and the one assignment that stores it
PROVENANCE_READERS = {"provenance_reference", "PointSet.__repr__", "PointSet._fill"}


def _is_provenance(node: ast.AST) -> bool:
    """Is node `<expr>.provenance`, or a name `prov` or `provenance`?"""
    if isinstance(node, ast.Attribute):
        return node.attr == "provenance"
    return isinstance(node, ast.Name) and node.id in {"prov", "provenance"}


def _touches_provenance(node: ast.AST) -> bool:
    """Does node subscript a provenance, read an attribute of one (its
    .get or any other method), or assign to one?"""
    if isinstance(node, (ast.Subscript, ast.Attribute)) and _is_provenance(node.value):
        return True
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Attribute) and _is_provenance(t) for t in targets)
    return False


def provenance_reads_outside(source: str, allowed: set[str]) -> list[str]:
    """"qualname:line" (or "<module>:line") of each subscript of, attribute
    read off, or assignment to a provenance in source outside the
    functions and methods whose qualified names are in allowed."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if where == "<module>" else f"{where}.{child.name}"
                if name not in allowed:
                    visit(child, name)
                continue
            if _touches_provenance(child):
                found.append(f"{where}:{child.lineno}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_provenance_checker_finds_a_second_reader():
    source = (
        "def provenance_reference(prov):\n"
        "    return prov['a'], prov.get('n')\n"
        "class PointSet:\n"
        "    def __repr__(self):\n"
        "        return self.provenance.get('kind')\n"
        "    def grow(self):\n"
        "        self.provenance['m'] = 3\n"
        "def build(ps, provenance):\n"
        "    ps.provenance = {}\n"
        "    return provenance.get('b'), ps.provenance, f(provenance=provenance)\n"
        "N = lambda prov: prov['n']\n"
    )
    allowed = {"provenance_reference", "PointSet.__repr__"}
    assert provenance_reads_outside(source, allowed) == [
        "PointSet.grow:7",
        "build:9",
        "build:10",
        "<module>:11",
    ]
    quality = (SRC / "quality.py").read_text()
    planted = quality.replace(
        "ref = provenance_reference(ps.provenance)",
        'ref = provenance_reference(ps.provenance) if ps.provenance.get("kind") else None',
        1,
    )
    assert planted != quality
    found = provenance_reads_outside(planted, PROVENANCE_READERS)
    assert [where.partition(":")[0] for where in found] == ["assess"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_decoder_reads_provenance_fields(path):
    assert provenance_reads_outside(path.read_text(), PROVENANCE_READERS) == []
