"""Static check: every module-level import in the package and tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/wigflow/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of `source` that nothing reads.

    A name counts as read when it is loaded anywhere in the module or named
    in a quoted annotation.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for ann in annotations:   # a quoted annotation such as "EigenResolvent"
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                read.update(n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_checker_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os\nimport sys\n"
           "from a import b, c as d, e\nx: 'd' = sys.argv\ny = 'e'\n")
    assert unused_imports(src) == [(2, "os"), (4, "b"), (4, "e")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
