"""Source hygiene checks that need only the syntax tree."""

import ast
import inspect
import random
import re
from fractions import Fraction
from pathlib import Path

import parajet.jets as jets
import parajet.series as series
from parajet.invariants import w_terms
from parajet.prolong import rank_det_exact, solve_linear_exact
from parajet.series import AffineTransform3, CurveTransform2, Poly2, TruncatedSeries1, TruncatedSeries2, _Series3

import reference

SRC = Path(__file__).resolve().parents[1] / "src" / "parajet"


def test_private_functions_are_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unused == []


def _references(tree) -> dict:
    """Count, per name, the Name, Attribute and import nodes that mention it."""
    counts: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.split(".")[-1]]
        else:
            continue
        for name in names:
            counts[name] = counts.get(name, 0) + 1
    return counts


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _attribute_references(tree) -> dict:
    """Count, per name, its ``.name`` accesses and the dotted strings ending in it.

    A method is reached only so: as an attribute, or through a dotted name such
    as the benchmark tracer's ``"ParabolicJet.filled"``.  A local variable or
    parameter of the same name is not a use, nor is an attribute of a module
    the file imports (``functools.partial``, ``shutil.copy``).
    """
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    counts: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                continue
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            name = node.value.rsplit(".", 1)[1]
        else:
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts


def _reference_totals(count=_references) -> dict:
    """Per name, its references across the sources, the tests and the benchmark."""
    root = SRC.parents[1]
    files = [p for d in ("src", "tests", "bench") for p in sorted((root / d).rglob("*.py"))]
    total: dict = {}
    for path in files:
        for name, n in count(ast.parse(path.read_text(encoding="utf-8"))).items():
            total[name] = total.get(name, 0) + n
    return total


def _unreferenced(nodes, total, count=_references) -> list:
    """Names among the definitions with no reference outside their own bodies (recursion)."""
    return [node.name for node in nodes if total.get(node.name, 0) - count(node).get(node.name, 0) == 0]


def test_module_level_names_are_referenced():
    total = _reference_totals()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defs = [n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        unused += [f"{path.name}:{name}" for name in _unreferenced(defs, total)]
    assert unused == []


def test_methods_are_referenced():
    total = _reference_totals(_attribute_references)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [
                n
                for n in cls.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (n.name.startswith("__") and n.name.endswith("__"))
            ]
            names = _unreferenced(methods, total, _attribute_references)
            unused += [f"{path.name}:{cls.name}.{name}" for name in names]
    assert unused == []


def test_contractions_in_jets_recurrence_and_verify_are_strict():
    # a zip that silently drops the tail of the longer operand hides a missing generator or record
    loose = [
        f"{name}:{node.lineno}"
        for name in ("invariants.py", "jets.py", "prolong.py", "recurrence.py", "verify.py")
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "zip"
        and not any(k.arg == "strict" and isinstance(k.value, ast.Constant) and k.value.value is True for k in node.keywords)
    ]
    assert loose == []


def test_references_run_on_no_parajet_kernel(monkeypatch):
    # each kernel gets a raising body through its code object, so every name bound to it raises
    def refuse(*args, **kwargs):
        raise AssertionError("a reference ran a parajet kernel")

    series_kernels = ("compose2", "apply_affine", "apply_affine_curve", "solve_implicit", "series3_from_bivariate_in_linear")
    series_kernels += ("_grid_image", "substitute_on_grid", "solve_on_grid", "_taylor_on_grid", "_shear_on_grid", "_binomial_table")
    kernels = [TruncatedSeries2.__mul__, TruncatedSeries2.shift, Poly2.__mul__, jets._binomial_dot]
    kernels += [rank_det_exact, solve_linear_exact]
    kernels += [getattr(series, name) for name in series_kernels]
    for kernel in kernels:
        monkeypatch.setattr(kernel, "__code__", refuse.__code__)
    F = Fraction
    f = reference.from_monomials2(3, {(2, 0): F(1), (1, 1): F(-1, 2), (0, 3): F(1, 3)})
    mono = reference.monomial(f)
    x, y = {(1, 0): F(1), (0, 1): F(1)}, {(0, 1): F(1), (2, 0): F(1, 2)}
    calls = {
        "over": lambda: reference.over(F(1), 3),
        "add": lambda: reference.add(mono, x),
        "monomial": lambda: reference.monomial(_Series3(2, {(1, 0, 0): 2, (0, 0, 1): -3}, 6)),
        "factorial": lambda: reference.factorial(mono),
        "from_monomials1": lambda: reference.from_monomials1(3, {2: F(1, 2)}),
        "from_monomials2": lambda: reference.from_monomials2(3, mono),
        "mul": lambda: reference.mul(mono, x, 3),
        "numerator_terms": lambda: reference.numerator_terms(w_terms, mono, 3),
        "shift": lambda: reference.shift(mono, (F(1, 2), F(-1, 3))),
        "evaluate": lambda: reference.evaluate(mono, (F(1, 2), 1)),
        "compose": lambda: reference.compose(mono, [x, y], 3),
        "linear_substitution": lambda: reference.linear_substitution(mono, (1, 0, F(1, 2), 0), (0, 1, 0, F(1, 4)), 3),
        "solve": lambda: reference.solve({(0, 0, 1): F(-1), (2, 0, 0): F(1), (0, 0, 2): F(1)}, 3),
        "rank_det": lambda: reference.rank_det([[F(1, 2), 2, 0], [1, F(-1, 3), 4]]),
        "solve_linear": lambda: reference.solve_linear([[0, F(1, 2)], [3, 1]], [[1, 2], [F(1, 3), 0]]),
        "apply_affine": lambda: reference.apply_affine(f, AffineTransform3(b=F(1, 3), r=F(2))),
        "apply_affine_curve": lambda: reference.apply_affine_curve(TruncatedSeries1(3, {2: F(1)}), CurveTransform2(c=F(1, 3))),
        "rank_one_fill": lambda: reference.rank_one_fill(reference.cone_model_jet(4).coords, 4),
        "w_chain_residual": lambda: reference.w_chain_residual(reference.cone_model_jet(6).coords, 4),
        "cone_branch_jet": lambda: reference.cone_branch_jet(random.Random(1), 6),
        "assert_same": lambda: reference.assert_same(f, reference.from_monomials2(3, mono)),
        "cone_model": lambda: reference.cone_model(4),
        "cone_model_jet": lambda: reference.cone_model_jet(4),
    }
    public = {name for name, fn in inspect.getmembers(reference, inspect.isfunction) if fn.__module__ == "reference" and not name.startswith("_")}
    assert set(calls) == public
    for call in calls.values():
        call()
