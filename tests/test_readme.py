"""README.md against the code it names: files, attributes and the module map."""

import importlib
import re
from pathlib import Path

import pytest

import gini_bounds

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gini_bounds"
README = (ROOT / "README.md").read_text(encoding="utf-8")
# Every inline code span, outside the fenced blocks.
SPANS = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", README, flags=re.M | re.S))
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


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
    """Each `module.attr[.attr]` in a code span whose first part is a
    submodule of the package or a name it exports."""
    refs = []
    for span in SPANS:
        for match in re.finditer(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            first, *attrs = match.group().split(".")
            if attrs != ["py"] and (first in MODULES or first in gini_bounds.__all__):
                refs.append(match.group())
    return refs


@pytest.mark.parametrize("ref", _dotted_references())
def test_each_dotted_reference_resolves(ref):
    first, *attrs = ref.split(".")
    if first in MODULES:
        obj = importlib.import_module(f"gini_bounds.{first}")
    else:
        obj = getattr(gini_bounds, first)
    for attr in attrs:
        obj = getattr(obj, attr)


def test_layout_has_one_entry_per_module():
    assert sorted(_layout_entries()) == [f"{stem}.py" for stem in MODULES]
