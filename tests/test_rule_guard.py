"""One home for the equality rule.

The rule ||X - Y|| <= rel_eq * max(1, ||X||, ||Y||) is written once, as the
quotient linalg._rel_gap. Outside linalg.py no module writes max(1.0, ...),
and rel_eq enters a comparison only as `_rel_gap(...) <= rel_eq` or
`_rel_gap(...) > rel_eq` (directly, or through a local bound to a _rel_gap
call). The exceptions are listed below, one entry per read: each is an
absolute slack or a check that is not the rule, and the list is the to-do
list of ROADMAP item 2, step 2. The guard asserts the list exactly, so a new
inline form fails it and a mended one must leave it.

A second guard keeps linalg._norm the one operator norm kernel: besides it,
only sv_extremes and multiplier.build read the values-only SVD entry.
"""

import ast
import inspect
import pkgutil
from importlib import import_module

import framemult

# (module, function, the source of the comparison, product or read)
ALLOWED = {
    # The public scale field and the + rel_eq slack of bound_satisfied.
    ("perturbation", "_report", "dev <= coef * mu + tol.rel_eq"),
    ("perturbation", "_report", "max(1.0, norm_old, norm_new)"),
    # The per2 floor: the raise in _companion_per2 and the verdict of _floor_ok.
    ("perturbation", "_companion_per2", "lo_old < floor - tol.rel_eq"),
    ("perturbation", "_floor_ok", "floor_ratio >= 1.0 - tol.rel_eq"),
    # The uniqueness probe's size and its breakage test.
    ("suites", "_trial_correction", "1000.0 * tol.rel_eq"),
    ("suites", "_trial_correction", "breakage >= 100.0 * tol.rel_eq"),
    # The inverse residual of invert, and its message.
    ("multiplier", "invert", "residual > tol.rel_eq"),
    ("multiplier", "invert", "tol.rel_eq"),
    # Tol plumbing: the CLI builds the Tol, the report prints it.
    ("cli", "main", "rel_eq=args.tol_rel"),
    ("suites", "SuiteReport._header", "self.config.tol.rel_eq"),
}

# Every verdict and band that reads the rule.
RULE_SITES = {
    ("linalg", "rel_residual"),
    ("multiplier", "Condition.residual"),
    ("multiplier", "_scalar_condition"),
    ("multiplier", "thm1_report"),
    ("frames", "equivalence_map"),
    ("representations", "_equivalence"),
    ("suites", "_companion_fields"),
    ("suites", "_trial_correction"),
    ("suites", "_trial_equivalence"),
}


def _modules():
    for info in pkgutil.iter_modules(framemult.__path__):
        yield info.name, ast.parse(inspect.getsource(import_module(f"framemult.{info.name}")))


def _walk(tree):
    """(node, qualified name of its function or class, chain of ancestors) for every node."""
    stack = [(tree, "", ())]
    while stack:
        node, scope, parents = stack.pop()
        yield node, scope, parents
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope, (*parents, node)) for child in ast.iter_child_nodes(node))


def _is_rel_gap(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_rel_gap"


def _rel_gap_locals(function) -> set[str]:
    """The names whose every assignment in the function is a _rel_gap call."""
    bound: dict[str, bool] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = bound.get(target.id, True) and _is_rel_gap(node.value)
    return {name for name, ok in bound.items() if ok}


def _sanctioned(node, parents) -> bool:
    """Whether the rel_eq read is the right side of `_rel_gap(...) <= rel_eq` or `> rel_eq`."""
    cmp = parents[-1]
    if not (isinstance(cmp, ast.Compare) and cmp.comparators == [node]):
        return False
    if not isinstance(cmp.ops[0], (ast.LtE, ast.Gt)):
        return False
    if _is_rel_gap(cmp.left):
        return True
    function = next(p for p in reversed(parents) if isinstance(p, ast.FunctionDef))
    return isinstance(cmp.left, ast.Name) and cmp.left.id in _rel_gap_locals(function)


def _anchor(node, parents):
    """The nearest enclosing comparison, else the product or sum the read sits in, else the read."""
    for parent in reversed(parents):
        if isinstance(parent, ast.Compare):
            return parent
    return parents[-1] if isinstance(parents[-1], ast.BinOp) else node


def _inline_rules() -> set[tuple[str, str, str]]:
    found = set()
    for module, tree in _modules():
        if module == "linalg":
            continue
        for node, scope, parents in _walk(tree):
            is_max = (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("max", "maximum")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 1
            )
            if is_max:
                found.add((module, scope, ast.unparse(node)))
            reads_rel_eq = (
                isinstance(node, ast.Attribute) and node.attr == "rel_eq"
            ) or (isinstance(node, ast.keyword) and node.arg == "rel_eq")
            if reads_rel_eq and not _sanctioned(node, parents):
                found.add((module, scope, ast.unparse(_anchor(node, parents))))
    return found


def test_rel_eq_and_max_one_appear_outside_the_rule_only_on_the_allow_list():
    found = _inline_rules()
    assert found - ALLOWED == set(), "an inline form of the rule outside linalg"
    assert ALLOWED - found == set(), "an allow-list entry no longer in the code: remove it"


def test_every_verdict_site_reads_the_rule():
    calls = {
        (module, scope)
        for module, tree in _modules()
        for node, scope, _ in _walk(tree)
        if _is_rel_gap(node)
    }
    assert RULE_SITES - calls == set()


def test_the_guard_flags_a_product_and_a_bare_quotient():
    product = ast.parse("def f(gap, scale, tol):\n    return gap <= tol.rel_eq * scale\n")
    quotient = ast.parse("def f(gap, scale, tol):\n    q = gap / scale\n    return q <= tol.rel_eq\n")
    rule = ast.parse("def f(gap, n, tol):\n    q = _rel_gap(gap, n)\n    return q <= tol.rel_eq\n")
    for tree, flagged in ((product, True), (quotient, True), (rule, False)):
        reads = [
            (node, parents)
            for node, _, parents in _walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "rel_eq"
        ]
        assert [not _sanctioned(node, parents) for node, parents in reads] == [flagged]


# sv_extremes and build take both ends of one SVD.
SVD_READERS = {("linalg", "_norm"), ("linalg", "sv_extremes"), ("multiplier", "build")}


def test_only_the_one_norm_and_the_extremes_read_the_svd_entry():
    readers = {
        (module, scope)
        for module, tree in _modules()
        for node, scope, _ in _walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == "_svd_values")
        or (isinstance(node, ast.Attribute) and node.attr == "_svd_values")
    }
    assert readers == SVD_READERS
