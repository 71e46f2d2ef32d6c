"""Every name that a library module imports is used, exported through
`__all__` or kept on purpose with `# noqa: F401` on its import statement;
a name kept that way is one that perfbench's call tracer patches, and every
site the tracer patches exists; and the library runs on numpy alone, with
scipy left to the tests."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "fastdiff").glob("*.py"))


def imports(source: str, kept: bool) -> dict[str, int]:
    """name -> line of each name that `source` imports, on statements that
    carry `# noqa: F401` (kept) or do not (not kept)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if kept != any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    """`line name` for each imported name that `source` never uses."""
    tree = ast.parse(source)
    imported = imports(source, kept=False)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{line} {name}" for name, line in imported.items()
            if name not in used]


def test_checker_flags_only_unused_unmarked_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from json import dumps, loads\n"
              "from sys import (argv,  # noqa: F401\n"
              "                 path)\n"
              "from math import pi\n"
              "__all__ = ['pi']\n"
              "print(np.zeros(1), loads)\n")
    assert unused_imports(source) == ["2 os", "4 dumps"]
    assert imports(source, kept=True) == {"argv": 5, "path": 5}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def load_tracing() -> ModuleType:
    """perfbench's tracer module, loaded from its file and left out of
    `sys.modules`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kept_imports_are_traced_sites():
    tracing = load_tracing()
    patched = {(owner.__name__, attribute)
               for owner, attribute, *_ in tracing.SPAN_SITES
               if isinstance(owner, ModuleType)}
    kept = [(f"fastdiff.{path.stem}", name) for path in SOURCES
            for name in imports(path.read_text(), kept=True)]
    assert kept, "no tracer-only import found; is the check reading them?"
    assert [site for site in kept if site not in patched] == []


def test_every_traced_site_exists():
    tracing = load_tracing()
    sites = [(owner, attribute) for owner, attribute, *_
             in tracing.SPAN_SITES + tracing.COUNT_SITES]
    assert [f"{owner.__name__}.{attribute}" for owner, attribute in sites
            if attribute not in vars(owner)] == []


def test_library_imports_no_scipy():
    code = ("import sys, fastdiff, fastdiff.cli, fastdiff.experiment\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
