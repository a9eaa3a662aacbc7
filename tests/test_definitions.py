"""Every module-level function and class of the package is named outside its own definition."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncjet"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# the files whose words count as uses: the package, its tests and its benchmark
CORPUS = sorted(p for d in (PACKAGE, ROOT / "tests", ROOT / "perfbench") for p in d.glob("*.py"))


def unnamed_definitions(source, others):
    """Module-level functions and classes of `source` that no word outside their own lines names.

    `others` lists the texts of the other files in which a use counts.
    """
    lines = source.splitlines()
    dead = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            word = re.compile(r"\b%s\b" % re.escape(node.name))
            outside = lines[:node.lineno - 1] + lines[node.end_lineno:]
            if not any(word.search(text) for text in outside + others):
                dead.append(node.name)
    return dead


def test_unnamed_definitions_are_found():
    source = "def used():\n    return 1\n\n\nclass Dead:\n    x = used()\n\n\ndef dead():\n    dead()\n"
    assert unnamed_definitions(source, []) == ["Dead", "dead"]
    assert unnamed_definitions(source, ["from m import dead"]) == ["Dead"]


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_nothing_unnamed(module):
    path = PACKAGE / module
    others = [p.read_text() for p in CORPUS if p != path]
    assert unnamed_definitions(path.read_text(), others) == []
