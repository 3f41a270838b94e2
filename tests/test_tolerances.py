"""Every tolerance in the package is a named constant beside its rule."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gini_bounds"


def _named_values(tree):
    """The value nodes of module- and class-level assignments to an
    upper-case name, each with a sign stripped."""
    bodies, values = [tree.body], set()
    while bodies:
        for stmt in bodies.pop():
            if isinstance(stmt, ast.ClassDef):
                bodies.append(stmt.body)
            elif isinstance(stmt, ast.Assign) and all(
                isinstance(x, ast.Name) and x.id.isupper() for x in stmt.targets
            ):
                value = stmt.value
                if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.USub, ast.UAdd)):
                    value = value.operand
                values.add(value)
    return values


def unnamed_tolerances(src=SRC):
    """file:line of each float literal 0 < |x| < 1e-5 outside a named constant."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = _named_values(tree)
        lines = sorted(
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-5 and node not in named
        )
        found += [f"{path.name}:{line}" for line in lines]
    return found


def test_src_has_no_unnamed_tolerance():
    assert unnamed_tolerances() == []


def test_guard_names_each_literal_outside_a_named_constant(tmp_path):
    (tmp_path / "module.py").write_text(
        "TOL = 1e-9\n"
        "class Spec:\n"
        "    _SLACK = -1e-12\n"
        "    def check(self, x):\n"
        "        return x <= 1e-12\n"
        "PAIR = (1e-9, 1e-9)\n"
        "tol = 1e-9\n"
        "BIG = 1e-5 + 0.5\n"
    )
    assert unnamed_tolerances(tmp_path) == ["module.py:5", "module.py:6", "module.py:6", "module.py:7"]
