"""README.md against the code it names: files, attributes, the module map
and its examples, which run as written."""

import ast
import dataclasses
import importlib
import json
import math
import re
import shlex
from pathlib import Path

import pytest

import gini_bounds
from gini_bounds import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gini_bounds"
README = (ROOT / "README.md").read_text(encoding="utf-8")
# Every inline code span, outside the fenced blocks.
SPANS = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", README, flags=re.M | re.S))
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
PACKAGE = gini_bounds.__name__


def _layout_entries():
    """The file name of each top-level bullet under "## Layout"."""
    layout = README.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `([\w.]+)` ", layout, flags=re.M)


def test_each_python_file_named_exists():
    files = [span for span in SPANS if span.endswith(".py")]
    assert files
    for name in files:
        assert (ROOT / name).is_file() or (SRC / name).is_file(), name


def _dotted_references():
    """Each `module.attr[.attr]` in a code span whose first part is the
    package, a submodule of it or a name it exports."""
    refs = []
    for span in SPANS:
        for match in re.finditer(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            first, *attrs = match.group().split(".")
            if attrs != ["py"] and first in {PACKAGE, *MODULES, *gini_bounds.__all__}:
                refs.append(match.group())
    return refs


@pytest.mark.parametrize("ref", _dotted_references())
def test_each_dotted_reference_resolves(ref):
    first, *attrs = ref.split(".")
    if first == PACKAGE:
        obj = gini_bounds
    elif first in MODULES:
        obj = importlib.import_module(f"{PACKAGE}.{first}")
    else:
        obj = getattr(gini_bounds, first)
    for attr in attrs:
        obj = getattr(obj, attr)


def test_layout_has_one_entry_per_module():
    assert sorted(_layout_entries()) == [f"{stem}.py" for stem in MODULES]


def test_cli_imports_no_lattice_mechanics():
    # Layout's cli entry: it holds no lattice mechanics, so it imports neither
    # the quarter builder, the row grouping, a survival rule, nor the masks
    # the atlas is built from; lattice builds every lattice that cli writes.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = [
        alias.name.rpartition(".")[2]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported
    mechanics = [
        name for name in imported
        if name in ("_triangle_lattice", "_row_groups", "region_masks") or name.endswith("_survival")
    ]
    assert mechanics == []


def test_lattice_imports_no_pruning_or_mask_internals():
    # Layout's bounds entry: bounds owns the candidates' pruning and the two
    # block entries, so lattice reaches the kernel and the masks only through
    # those entries, and imports neither the pruning rule nor the masks'
    # own passes.
    tree = ast.parse((SRC / "lattice.py").read_text(encoding="utf-8"))
    imported = [
        alias.name.rpartition(".")[2]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "_envelope_block" in imported and "_region_block" in imported
    internals = [
        name for name in imported if name in ("_live_candidates", "_active_masks", "region_masks")
    ]
    assert internals == []


def _fenced_blocks(section, lang):
    """The body of each ```lang block under README's "## section", in order."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", body, flags=re.M | re.S)


def _command_lines():
    """Each line of the "Command line" block as an argv, without its comment."""
    lines = [
        argv
        for block in _fenced_blocks("Command line", "bash")
        for line in block.splitlines()
        if (argv := shlex.split(line, comments=True))
    ]
    # An empty block would parametrize nothing, which pytest skips.
    if not lines:
        raise AssertionError("README's Command line section has no bash lines")
    return lines


@pytest.mark.parametrize("argv", _command_lines(), ids=" ".join)
def test_each_command_line_example_exits_0(argv, tmp_path, monkeypatch):
    # The 2 x 2 diagonal checkerboard that the gamma line reads.
    (tmp_path / "board.json").write_text('{"n": 2, "mass": [0.5, 0.0, 0.0, 0.5]}')
    monkeypatch.chdir(tmp_path)
    program, *args = argv
    assert program == "gini-bounds"
    assert cli.main(args) == 0


def test_library_quick_start_holds_what_its_comments_say():
    blocks = _fenced_blocks("Library quick start", "python")
    assert blocks
    names = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), names)
    rep, out, audit = names["rep"], names["out"], names["audit"]
    assert rep.bound == math.sqrt(6) / 6
    assert out.optimum <= rep.bound
    assert audit.upper_classification == "ProperQuasiCopula"
    assert audit.upper_report.min_volume < 0.0
    assert all(audit.checks.values())
    json.dumps(dataclasses.asdict(audit))
