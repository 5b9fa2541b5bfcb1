"""Import checks: every module-level import in the package and tests is
used, every public definition of the package is loaded by the package, and
a run loads no heavy scipy subpackage."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/wigflow/*.py"), *ROOT.glob("tests/*.py")])
# public definitions no command runs: evolve_scalar is the paper's scalar
# construction, which the tests hold the kernel to
UNLOADED = {"martingale.evolve_scalar"}


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


def unloaded_definitions(sources: dict) -> list:
    """"module.name" of each public module-level function and class of a
    package, given as {module name: source}, that no live code loads, and
    "module.Class.method" of each public method of a live public class
    that no live code loads as an attribute.

    Module-level statements and private definitions are live, and so is
    every public definition that live code loads by name (`f`, or `m.f` for
    a module m of the package).  A live class's body is live but for its
    public methods; each of those is live once live code loads its name as
    an attribute (`x.method`, of any x).  So a definition that only loads
    itself, or a chain of them that nothing live reaches, is reported whole.
    Public names are unique across the package, so a load matches by name.
    """
    defs, frontier = {}, []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defs[top.name] = (module, top)
            else:
                frontier.append(top)
    live, methods, loaded, attrs = set(), {}, set(), set()
    while frontier:
        for node in (n for top in frontier for n in ast.walk(top)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
                if getattr(node.value, "id", None) in sources:
                    loaded.add(node.attr)
        frontier = []
        for name in (loaded & defs.keys()) - live:
            live.add(name)
            module, top = defs[name]
            if isinstance(top, ast.FunctionDef):
                frontier.append(top)
                continue
            frontier += top.decorator_list + top.bases + top.keywords
            for stmt in top.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    methods[f"{module}.{name}.{stmt.name}"] = stmt
                else:
                    frontier.append(stmt)
        for key in [key for key, stmt in methods.items() if stmt.name in attrs]:
            frontier.append(methods.pop(key))
    return sorted([f"{module}.{name}" for name, (module, _top) in defs.items()
                   if name not in live] + list(methods))


def test_checker_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os\nimport sys\n"
           "from a import b, c as d, e\nx: 'd' = sys.argv\ny = 'e'\n")
    assert unused_imports(src) == [(2, "os"), (4, "b"), (4, "e")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unloaded_definition():
    sources = {"a": ("def used():\n    return helper()\ndef helper():\n    pass\n"
                     "def orphan():\n    return chain()\ndef chain():\n    pass\n"
                     "def selfish():\n    return selfish()\nclass Kept:\n    pass\n"),
               "b": ("from . import a\nfrom .a import Kept, chain\n"
                     "def _private():\n    return Kept()\nprint(a.used)\n")}
    assert unloaded_definitions(sources) == ["a.chain", "a.orphan", "a.selfish"]


def test_checker_finds_an_unloaded_method():
    sources = {"a": ("class Box:\n    size = 3\n    def __init__(self):\n"
                     "        self._fill()\n    def _fill(self):\n        return self.width\n"
                     "    @property\n    def width(self):\n        return self.height()\n"
                     "    def height(self):\n        pass\n    def spare(self):\n        pass\n"
                     "    def selfish(self):\n        return self.selfish()\n"
                     "    def tested(self):\n        pass\n"
                     "class Unused:\n    def helper(self):\n        pass\n"),
               "b": ("from .a import Box\nBox().size\n")}
    # the dead class is reported whole, not method by method
    assert unloaded_definitions(sources) == ["a.Box.selfish", "a.Box.spare", "a.Box.tested",
                                             "a.Unused"]


def test_every_public_definition_is_loaded():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in ROOT.glob("src/wigflow/*.py")}
    unloaded = unloaded_definitions(sources)
    assert unloaded == sorted(UNLOADED), f"public definitions nothing live loads: {unloaded}"


# after a run of every experiment: the scipy subpackages in sys.modules, and
# the heavy ones `import wigflow.cli` alone loaded
_RUN_IMPORTS = """
import json, sys
from wigflow import cli
heavy = [m for m in ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg")
         if m in sys.modules]
code = cli.main(["run", "--config", sys.argv[1], "--experiment", "all", "--threads", "1",
                 "--out", sys.argv[2]])
loaded = sorted(name for name, mod in sys.modules.items()
                if name.startswith("scipy.") and name.count(".") == 1 and hasattr(mod, "__path__"))
print(json.dumps({"code": code, "at_import": heavy, "subpackages": loaded}))
"""


def test_a_run_loads_only_scipy_special(tmp_path):
    # scipy.stats alone would add about 37 MiB and half a second to a run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src")] + sys.path)}
    res = subprocess.run([sys.executable, "-c", _RUN_IMPORTS,
                          str(ROOT / "perfbench" / "configs" / "tiny.json"), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.splitlines()[-1])
    assert seen["code"] == 0 and seen["at_import"] == []
    assert set(seen["subpackages"]) - {"scipy._lib"} == {"scipy.special"}
