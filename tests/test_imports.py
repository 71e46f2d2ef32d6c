"""Every name that a library module imports is used, exported through
`__all__` or kept on purpose with `# noqa: F401` on its import statement;
and the library runs on numpy alone, with scipy left to the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "fastdiff").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """`line name` for each imported name that `source` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


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
