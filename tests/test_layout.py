"""Module boundaries of the package: no module reaches into a sibling's
private names, each submodule is importable under its own name (``__main__``
without running the CLI), and each polynomial model defines its own
multiplication.  The README names every verification suite, every
function the benchmark reports by name still exists, one constant bounds
the x-expansion variables and ``peel`` and the x-identity suites alone run
its guard, ``qtilde._bounded`` and ``peel`` alone apply a key bound, each
input rule is raised from one guard,
only ``polyring`` knows the layout of a packed monomial of either model
and only ``quantum`` that of route B's int keys, route B reaches no
polynomial arithmetic,
``polyring.peel`` is the only x-variable form of an EPoly, route B's
strips come strict out of its own walk rather than through a filter, the
classical product has no read-out of its own beside route C's, and every
functools memo is named in ``MEMOS``."""

import ast
import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lgschubert
from lgschubert import suites

PACKAGE_DIR = Path(lgschubert.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _private_sibling_imports(path: Path) -> list[str]:
    """Names starting with "_" imported from a sibling module, at any depth
    (function-local imports included)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").startswith("lgschubert")):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{node.module}.{alias.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_sibling_imports(path):
    assert _private_sibling_imports(path) == []


RETIRED_X_FORMS = {"dominant_expansion", "_e_times_m", "_orbit", "spread_tails", "epoly_to_xpoly",
                   "qtilde_dominant", "qtilde_x"}


def test_the_peeled_form_is_the_only_x_form():
    """Every x-variable check reads its polynomials through
    ``polyring.peel``, so no module defines or imports a second
    x-expansion beside it: none on dominant exponent vectors, none on
    x_1..x_m."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for alias in node.names for n in (alias.name, alias.asname)]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{path.stem}.{name}" for name in names if name in RETIRED_X_FORMS]
    assert found == []


def test_submodules_are_modules():
    for path in MODULES:
        if path.stem == "__init__":
            continue
        importlib.import_module(f"lgschubert.{path.stem}")
        assert isinstance(getattr(lgschubert, path.stem), types.ModuleType), path.stem
    import lgschubert.qtilde as qtilde_module

    assert isinstance(qtilde_module, types.ModuleType)


def test_main_module_import_runs_nothing(monkeypatch):
    from lgschubert import cli

    monkeypatch.setattr(cli, "main", lambda *args: pytest.fail("cli.main ran on import"))
    monkeypatch.delitem(sys.modules, "lgschubert.__main__", raising=False)
    importlib.import_module("lgschubert.__main__")


@pytest.mark.parametrize("argv, code, out", [
    (["product", "--n", "3", "--lambda", "3,2,1", "--mu", "3,2,1"], 0, "q^3\n"),
    (["product", "--n", "2", "--lambda", "1,2", "--mu", "1"], 2, ""),
])
def test_python_dash_m_runs_the_cli(argv, code, out):
    done = subprocess.run([sys.executable, "-m", "lgschubert", *argv], capture_output=True,
                          text=True, cwd=PACKAGE_DIR.parent)
    assert (done.returncode, done.stdout) == (code, out)


def test_each_polynomial_model_defines_its_own_mul():
    # the benchmark tracer wraps vars(cls)["__mul__"] to time each model apart
    from lgschubert.polyring import EPoly, XPoly

    e_mul, x_mul = vars(EPoly).get("__mul__"), vars(XPoly).get("__mul__")
    assert callable(e_mul) and callable(x_mul)
    assert e_mul is not x_mul


def test_readme_lists_every_suite():
    readme = (PACKAGE_DIR.parents[1] / "README.md").read_text()
    listed = re.search(r"Available suites: (.*?)\.\s+Bounds flags", readme, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == sorted(suites.SUITES)


# Spans whose function is gone from the package: bench/run.py reads each as
# 0 until the benchmark names its successor (``polyring.peel``) or drops it
# (``partitions.shrink_strips``, whose q-terms route B's own walk now reaches,
# and ``partitions.grow_strips``, as ``pieri-oracle`` now checks route B's rows).
RETIRED_SPANS = {"polyring.epoly_to_xpoly", "partitions.shrink_strips", "partitions.grow_strips"}


def test_benchmark_span_names_resolve():
    """bench/run.py reports the spans named in LAYER_FUNCTIONS and SELF_ONLY
    and reads a missing one as 0 calls, so each name must still be a public
    function of its module, or the own ``__mul__`` of EPoly or XPoly for a
    ``.mul`` name, except the retired spans, which must be missing.  The
    names are read from the source, not imported."""
    tree = ast.parse((PACKAGE_DIR.parents[1] / "bench" / "run.py").read_text())
    names = [name for node in tree.body if isinstance(node, ast.Assign)
             and [t.id for t in node.targets if isinstance(t, ast.Name)]
             in (["LAYER_FUNCTIONS"], ["SELF_ONLY"])
             for name in ast.literal_eval(node.value)]
    assert names
    missing = []
    for name in names:
        module_name, *path = name.split(".")
        module = importlib.import_module(f"lgschubert.{module_name}")
        if path[-1] == "mul":
            ok = path[0] in ("EPoly", "XPoly") and "__mul__" in vars(getattr(module, path[0]))
        else:
            fn = getattr(module, path[0], None)
            ok = (len(path) == 1 and not path[0].startswith("_") and callable(fn)
                  and fn.__module__ == module.__name__)
        if not ok:
            missing.append(name)
    assert set(missing) == RETIRED_SPANS


def test_one_strip_walk():
    """``quantum._row`` is the one strip walk, route B's, on masks: no
    module keeps another strip enumerator (``grow_strips``,
    ``shrink_strips``) or a shared helper (``_interlaced``), and the one
    nested ``walk`` is the one inside ``_row``.  Strictness is a bound
    inside that walk, never a filter after it: ``quantum`` does not name
    ``is_strict``, so discarded shapes cannot come back as a second path."""
    walks = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for outer in ast.walk(tree):
            if isinstance(outer, ast.FunctionDef):
                assert outer.name not in ("grow_strips", "shrink_strips", "_interlaced")
                walks += [(path.stem, outer.name) for node in outer.body
                          if isinstance(node, ast.FunctionDef) and node.name == "walk"]
        if path.stem == "quantum":
            assert "is_strict" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
                alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for alias in n.names}
    assert walks == [("quantum", "_row")]


def test_one_pfaffian_sum():
    """``qtilde.pfaffian_sum`` is the one loop that multiplies out the terms
    of ``pfaffian_terms`` with ``mul_into``; the basis recursion, its peeled
    twin and every Pfaffian check call it, so no module writes the sum out
    again."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for loop in ast.walk(func):
                if (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                        and getattr(loop.iter.func, "id", None) == "pfaffian_terms"
                        and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "mul_into"
                                for n in ast.walk(loop))):
                    found.append(f"{path.stem}.{func.name}")
    assert found == ["qtilde.pfaffian_sum"]


def _imported_modules(path: Path) -> set[str]:
    """Last dotted component of every module path imports or imports from,
    plus the modules ``from . import`` brings in by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found.add((node.module or "").rsplit(".", 1)[-1])
            if node.module in (None, "lgschubert"):
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return found


def _names(path: Path) -> set[str]:
    """Every name, attribute and imported name in a module's source."""
    tree = ast.parse(path.read_text())
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)})


def test_one_read_out_serves_both_rings():
    """The classical product is the q-degree-0 part of route C's memoised
    read-out, never a D_n filter of the stable expansion of its own:
    ``quantum`` imports nothing from ``classical``, and ``classical``
    imports nothing from ``qtilde`` and names no ``in_d``, so a second
    read-out cannot come back."""
    assert "classical" not in _imported_modules(PACKAGE_DIR / "quantum.py")
    assert "qtilde" not in _imported_modules(PACKAGE_DIR / "classical.py")
    assert "in_d" not in _names(PACKAGE_DIR / "classical.py")


def test_one_variable_limit():
    """Exactly one module-level ``*VAR_LIMIT`` constant guards the
    x-expansion and every check built on it, so two bounds for one guard
    cannot come back."""
    found = [f"{path.stem}.{target.id}" for path in MODULES
             for node in ast.parse(path.read_text()).body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name) and target.id.endswith("VAR_LIMIT")]
    assert found == ["polyring.XPANSION_VAR_LIMIT"]


def _callers(name: str) -> set[str]:
    """The package functions, as module.function, that call ``name``."""
    return {f"{path.stem}.{func.name}" for path in MODULES
            for func in ast.walk(ast.parse(path.read_text())) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name}


def test_the_variable_limit_is_raised_by_peel():
    """``check_var_limit`` is called by ``polyring.peel``, the one x-form
    builder, and by the five x-identity suites before any case; no check in
    ``symplectic`` names it, since every side it compares is peeled."""
    assert _callers("check_var_limit") == {
        "polyring.peel", "suites.suite_extension", "suites.suite_cprime_expansion",
        "suites.suite_lem2", "suites.suite_pfaffian_prime", "suites.suite_pfaffian_double_prime"}
    assert "check_var_limit" not in _names(PACKAGE_DIR / "symplectic.py")


def test_one_place_applies_the_read_out_bound():
    """``e_key_bound`` is called by ``qtilde._bounded``, which truncates
    route C's elements to the read-out's bound, and by ``polyring.peel``,
    which drops the monomials a truncated element cannot hold; the basis
    expansion takes no bound, so no second place applies it."""
    assert _callers("e_key_bound") == {"polyring.peel", "qtilde._bounded"}


def _raises_carrying(phrase: str) -> list[str]:
    """The ``raise`` statements of the package whose message text, in a
    plain string or the literal parts of an f-string, contains phrase."""
    return [f"{path.stem} line {node.lineno}" for path in MODULES
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Raise)
            if any(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                   and phrase in sub.value for sub in ast.walk(node))]


GUARDS = {"does not index a Schubert class": "partitions.require_dn",
          "is not a partition": "partitions.require_partition",
          "is not a strict partition": "partitions.require_strict",
          "guarded to m <=": "polyring.check_var_limit",
          "e-monomial weight": "polyring._check_weight",
          "negative q-degree": "quantum._encode"}


def test_one_guard_per_rule():
    """The D_n rule, the partition and strict-partition rules, the variable
    limit, the weight bound of a packed e-monomial and the q-degree rule of
    route B's int keys are each raised from one place, by one function
    defined once, so copies of a guard cannot come back."""
    for phrase in GUARDS:
        found = _raises_carrying(phrase)
        assert len(found) == 1, (phrase, found)
    names = {guard.split(".")[1] for guard in GUARDS.values()}
    defined = [f"{path.stem}.{node.name}" for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name in names]
    assert sorted(defined) == sorted(GUARDS.values())


def test_only_the_sweep_builds_failure_records():
    """Every suite's failure records come out of ``suites._sweep``: no other
    function names ``NO_CASES`` or spells out a dict keyed "error" or
    "suite", the report of ``cli.cmd_verify`` aside, so each record names
    its suite and a check that raises VerificationError is a failure."""
    found = set()
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                keys = [key.value for key in getattr(node, "keys", ()) if isinstance(key, ast.Constant)]
                if getattr(node, "id", None) == "NO_CASES" or {"error", "suite"} & set(keys):
                    found.add(f"{path.stem}.{func.name}")
    assert found == {"suites._sweep", "cli.cmd_verify"}


def _keywords(path: Path) -> set[str]:
    """The keyword names passed in the calls of a module."""
    return {kw.arg for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
            for kw in node.keywords}


def test_only_polyring_knows_the_key_layout(monkeypatch):
    """Both polynomial models key their terms by packed monomials whose
    field width is named in ``polyring`` alone; other modules convert
    through ``pack_e``, ``unpack_e``, ``pack_x`` and ``unpack_x`` and put
    x^prefix before a peeled form through ``times_x``.  No tuple monomial
    product and no monomial-product parameter is left, no module outside
    ``polyring`` hands ``XPoly`` a term map it spelled out itself, and
    every XPoly that the x-identity suites and check (c) build, their memos
    emptied first, is keyed by ints."""
    assert [path.stem for path in MODULES if "E_FIELD_BITS" in _names(path)] == ["polyring"]
    assert [path.stem for path in MODULES
            if {"_e_mono_mul", "x_mono_mul", "mono_mul"} & _names(path)] == []
    assert [path.stem for path in MODULES if "mono_mul" in _keywords(path)] == []
    spelled = [f"{path.stem} line {node.lineno}" for path in MODULES if path.stem != "polyring"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "XPoly"
               and any(isinstance(arg, (ast.Dict, ast.DictComp)) for arg in node.args)]
    assert spelled == []

    from lgschubert import polyring, symplectic

    keys = []
    init = polyring.XPoly.__init__

    def spy(self, m, terms):
        keys.extend(terms)
        init(self, m, terms)

    monkeypatch.setattr(polyring.XPoly, "__init__", spy)
    for memo in (symplectic._peeled, symplectic.c_prime, symplectic.c_double_prime,
                 polyring.elementary_xpoly, polyring._peel_steps):
        memo.cache_clear()
    for suite in (suites.suite_extension, suites.suite_cprime_expansion, suites.suite_lem2,
                  suites.suite_pfaffian_prime, suites.suite_pfaffian_double_prime):
        assert suite(4) == []
    assert suites.suite_qtilde_properties(4, 8) == []
    assert keys and all(type(key) is int for key in keys)


ROUTE_B = ("_row", "_fold", "qmul", "qprod_pieri", "giambelli_special", "pieri_operator_check")


def test_route_b_reaches_no_polynomial_arithmetic():
    """Route B is the paper's quantum Pieri rule and two-row Giambelli
    formula alone: its functions, and every function of ``quantum`` they
    call, name nothing that ``quantum`` imports from ``polyring`` or
    ``qtilde``, so ``engines-agree`` holds it against routes A and C with
    no arithmetic in common."""
    tree = ast.parse((PACKAGE_DIR / "quantum.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module in ("polyring", "qtilde") for alias in node.names}
    assert {"add_into", "basis"} <= imported
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, reached = list(ROUTE_B), set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        used = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        assert not used & (imported | {"polyring", "qtilde"}), (name, used & imported)
        todo += sorted(used & defs.keys())
    assert set(ROUTE_B) < reached


MASK_HELPERS = {"_mask_of", "_parts_of", "_class_of"}


def test_only_quantum_knows_the_mask_layout():
    """Route B's int keys (a class of D_n as a subset bitmask, its q-degree
    above bit n) are built and read by helpers that only ``quantum`` names;
    every other module sees (partition, d) classes."""
    assert [path.stem for path in MODULES if MASK_HELPERS & _names(path)] == ["quantum"]
    assert MASK_HELPERS <= _names(PACKAGE_DIR / "quantum.py")


# Every functools memo of the package, by module.  A memo keeps its results
# for the life of the process and hands one object to every caller, so a new
# one is named here; this is also the list a memo report reads.
MEMOS = {
    "cli": {"_layout", "build_parser", "code_fingerprint"},
    "partitions": {"_enum"},
    "polyring": {"_peel_steps", "elementary_xpoly"},
    "qtilde": {"_bounded", "_ordered_expansion", "_partition_keys", "basis"},
    "quantum": {"_constants_read", "_quotient_read", "_row", "giambelli_special"},
    "symplectic": {"_peel_terms", "_peeled", "c_double_prime", "c_prime"},
}
MEMO_FACTORIES = {"cache", "lru_cache", "cached_property"}


def _memo_factory(node) -> bool:
    """Whether node names a functools memo factory, called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in MEMO_FACTORIES


def test_every_memo_is_named():
    """The functions decorated with a functools memo, at any depth, are the
    ones in MEMOS, and no factory is used any other way (``f = cache(g)``
    would hide a memo from the first check)."""
    found, stray = {}, []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _memo_factory(dec):
                        found.setdefault(path.stem, set()).add(node.name)
                        decorators.update(id(sub) for sub in ast.walk(dec))
        stray += [f"{path.stem} line {node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute)) and _memo_factory(node)
                  and id(node) not in decorators]
    assert found == MEMOS
    assert stray == []
