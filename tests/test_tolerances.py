"""Every tolerance in the package is a named constant beside its rule."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gini_bounds"


def _is_tolerance(node):
    return isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) < 1e-5


def _named_constants(tree):
    """(line, value node) of each module- and class-level assignment to an
    upper-case name, the value with a sign stripped."""
    bodies, found = [tree.body], []
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
                found.append((stmt.lineno, value))
    return found


def unnamed_tolerances(src=SRC):
    """file:line of each float literal 0 < |x| < 1e-5 outside a named constant."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {value for _, value in _named_constants(tree)}
        lines = sorted(
            node.lineno
            for node in ast.walk(tree)
            if _is_tolerance(node) and node not in named
        )
        found += [f"{path.name}:{line}" for line in lines]
    return found


def underived_tolerances(src=SRC):
    """file:line of each named tolerance with no comment on its line or on the line above."""
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = [""] + text.splitlines()
        for line, value in sorted(_named_constants(ast.parse(text)), key=lambda c: c[0]):
            # A tolerance's line holds no string, so a "#" on it starts a comment.
            derived = "#" in lines[line] or lines[line - 1].lstrip().startswith("#")
            if _is_tolerance(value) and not derived:
                found.append(f"{path.name}:{line}")
    return found


def test_src_has_no_unnamed_tolerance():
    assert unnamed_tolerances() == []


def test_src_has_no_underived_tolerance():
    assert underived_tolerances() == []


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


def test_guard_names_each_named_tolerance_without_its_comment(tmp_path):
    (tmp_path / "module.py").write_text(
        "# The source of TOL.\n"
        "TOL = 1e-9\n"
        "EDGE = 1e-12  # the source of EDGE\n"
        "BARE = 1e-9\n"
        "class Spec:\n"
        "    # The source of _SLACK.\n"
        "    _SLACK = -1e-12\n"
        "    _BARE = 2e-12\n"
        "# A comment, then a blank line.\n"
        "\n"
        "GAP = 1e-9\n"
        "PANELS = 4000  # a trailing comment on the line above\n"
        "AFTER = 1e-6\n"
        "# Not a tolerance, so it needs no comment:\n"
        "BIG = 0.5\n"
        "SMALL_INT = 0\n"
    )
    assert underived_tolerances(tmp_path) == [
        "module.py:4", "module.py:8", "module.py:11", "module.py:13",
    ]
