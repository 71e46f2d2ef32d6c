"""Every name that a library module imports is used, exported through
`__all__` or kept on purpose with `# noqa: F401` on its import statement;
a name kept that way is one that perfbench's call tracer patches, and every
site the tracer patches exists; no library module imports another's
underscore-prefixed names; only `storage` reads input files or writes
files; only the reverse driver and the training loop silence numpy's
overflow warnings; only the reverse driver and the sweep's per-seed block
draw draw chain normals; only `samplers` compares a value with a sampler name
or lists one; only `fast_schedule` issues warnings (a sweep builds its
schedules before it forks, and nothing relays a forked worker's warnings
to the caller); and the library runs on numpy alone, with scipy left to
the tests."""

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


def private_imports(source: str) -> list[str]:
    """`line name` for each underscore-prefixed name that `source` imports
    from a fastdiff module."""
    tree = ast.parse(source)
    return [f"{node.lineno} {alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "fastdiff")
            for alias in node.names if alias.name.startswith("_")]


def test_private_import_checker():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from . import _x, y\n"
              "from .errors import (typed,\n"
              "                     _TYPE_NAMES)\n"
              "from fastdiff.cli import _cmd_sample\n")
    assert private_imports(source) == ["3 _x", "4 _TYPE_NAMES",
                                       "6 _cmd_sample"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


FILE_READERS = ("json.load", "np.fromfile", "os.path.getsize")


def file_reads(source: str) -> list[str]:
    """The name of each call in `source` of a FILE_READERS function."""
    return sorted(ast.unparse(node.func)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in FILE_READERS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_storage_reads_input_files(path):
    assert file_reads(path.read_text()) == (
        sorted(FILE_READERS) if path.name == "storage.py" else [])


def file_writes(source: str) -> list[str]:
    """`line call` for each call in `source` that writes a file:
    `json.dump`, a `.tofile` method, or `open` with a mode that writes (or
    one that is not a literal)."""
    writes = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        modes = [*node.args[1:2], *(keyword.value for keyword in node.keywords
                                    if keyword.arg == "mode")]
        if name == "json.dump" or name.endswith(".tofile") or (
                name == "open" and any(
                    not isinstance(mode, ast.Constant)
                    or set(str(mode.value)) & set("wax+") for mode in modes)):
            writes.append((node.lineno, node.col_offset, name))
    return [f"{line} {name}" for line, _, name in sorted(writes)]


def test_file_write_checker():
    source = ("import json\n"
              "json.dump({}, open('a', 'w'))\n"
              "x.astype('<f8').tofile('b')\n"
              "open('c', mode='a+b'), open('d'), open('e', 'rb')\n"
              "open('f', m), json.dumps({}), json.load(open('g', mode='r'))\n")
    assert file_writes(source) == ["2 json.dump", "2 open",
                                   "3 x.astype('<f8').tofile", "4 open",
                                   "5 open"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_storage_writes_files(path):
    assert bool(file_writes(path.read_text())) == (path.name == "storage.py")


def overflow_silencers(source: str) -> int:
    """The number of `errstate` calls in `source` with `over="ignore"`."""
    return sum(ast.unparse(node.func).split(".")[-1] == "errstate"
               and any(keyword.arg == "over"
                       and ast.unparse(keyword.value) == "'ignore'"
                       for keyword in node.keywords)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Call))


def test_overflow_silencer_checker():
    source = ("import numpy as np\n"
              "from numpy import errstate\n"
              "with np.errstate(over='ignore', invalid='ignore'):\n"
              "    pass\n"
              "with np.errstate(over='raise'), errstate(invalid='ignore'):\n"
              "    pass\n"
              "with errstate(divide='ignore', over=\"ignore\"):\n"
              "    pass\n")
    assert overflow_silencers(source) == 2


# A chain's overflow is the driver's to report (a NumericError naming the
# step); training checks its own loss.
OVERFLOW_SILENCED_IN = ("samplers.py", "regressor.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_driver_and_training_silence_overflow(path):
    assert overflow_silencers(path.read_text()) == (
        path.name in OVERFLOW_SILENCED_IN)


def normal_draws(source: str) -> list[str]:
    """The function around each call of `chain_normals` in `source` (by
    name or as an attribute), or `<module>` for one outside a function."""
    draws = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) \
                and ast.unparse(node.func).split(".")[-1] == "chain_normals":
            draws.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return draws


def test_normal_draw_checker():
    source = ("from .rng import chain_normals\n"
              "block = chain_normals(0, 1, 2)\n"
              "def draw(seed):\n"
              "    def inner():\n"
              "        return rng.chain_normals(seed, 1, 2)\n"
              "    return chain_normals, inner()\n"
              "class Sweep:\n"
              "    def blocks(self):\n"
              "        return [chain_normals(s, 1, 2) for s in (0, 1)]\n")
    assert normal_draws(source) == ["<module>", "inner", "blocks"]


# One block per sampler run: the driver draws it, or a sweep draws it once
# per seed for every cell to read a prefix of.  A third draw path could
# desynchronise the rows from `fastdiff sample`.
NORMAL_DRAWS = {"samplers.py": ["_reverse_chain"],
                "experiment.py": ["_seed_normals"]}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_driver_and_the_sweep_draw_normals(path):
    assert normal_draws(path.read_text()) == NORMAL_DRAWS.get(path.name, [])


SAMPLER_NAMES = ("ddpm", "ddim")


def sampler_name_uses(source: str) -> list[int]:
    """The line of each comparison, match case, tuple, list, set or dict key
    in `source` that holds a sampler name as a literal.  A dict value, an
    argument or an f-string is not a use: it neither chooses nor lists."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            operands = node.elts
        elif isinstance(node, ast.Dict):
            operands = node.keys
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if any(isinstance(operand, ast.Constant)
               and operand.value in SAMPLER_NAMES for operand in operands):
            uses.append(node.lineno)
    return sorted(uses)


def test_sampler_name_checker():
    source = ("DEFAULTS = {'sampler': 'ddpm', **extra}\n"
              "if name == 'ddim' or 'ddpm' != name:\n"
              "    NAMES = ('ddpm', 'ddim')\n"
              "ok = name in NAMES and f'with ddpm {x}' and run('ddpm')\n"
              "TABLE = {'ddim': 1}\n"
              "match name:\n"
              "    case 'ddpm':\n"
              "        pass\n"
              "x = name in ['ddim'] or name in {'ddpm'}\n")
    assert sampler_name_uses(source) == [2, 2, 3, 5, 7, 9, 9]


# `samplers.SAMPLERS` and `samplers.reported_kappa` are the one statement of
# what a sampler name means; a second copy elsewhere could drift from it.
# `experiment`'s default run section names "ddpm" as a value, which is not
# a use.
@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_samplers_compares_sampler_names(path):
    assert bool(sampler_name_uses(path.read_text())) == (
        path.name == "samplers.py")


def warning_calls(source: str) -> list[str]:
    """`line call` for each call in `source` of `warn` or `warn_explicit`,
    as an attribute (`warnings.warn`) or by a bare name."""
    return [f"{node.lineno} {ast.unparse(node.func)}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and ast.unparse(node.func)
            .split(".")[-1] in ("warn", "warn_explicit")]


def test_warning_call_checker():
    source = ("import warnings\n"
              "from warnings import warn\n"
              "warnings.warn('a', stacklevel=2)\n"
              "def f():\n"
              "    warn('b')\n"
              "    warnings.warn_explicit('c', UserWarning, 'f.py', 1)\n"
              "warnings.simplefilter('ignore'), warnings.catch_warnings()\n")
    assert sorted(warning_calls(source)) == [
        "3 warnings.warn", "5 warn", "6 warnings.warn_explicit"]


# A sweep builds every schedule in its own process before it forks, and a
# forked worker's warnings would never reach the caller: so only the
# schedule builds may warn.
@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_fast_schedule_warns(path):
    assert bool(warning_calls(path.read_text())) == (
        path.name == "fast_schedule.py")


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


def test_a_sweep_does_not_import_numpy_ma():
    # numpy's np.unique imports numpy.ma on first use, about 10 ms that
    # every new process, sweep worker or benchmark set-up would pay again
    code = ("import sys, warnings\n"
            "import fastdiff.experiment as exp\n"
            "warnings.simplefilter('ignore')\n"
            "exp.run_sweep(exp.ExperimentConfig({\n"
            "    'schedule': {'beta_1': 1e-4, 'beta_T': 0.02, 'T': 40},\n"
            "    'data': {'preset': 'four_class_2d'}, 'conditional': True,\n"
            "    'sweep': {'kinds': ['step', 'var'],\n"
            "              'variants': ['linear', 'quadratic'],\n"
            "              'num_steps': [5, 20],\n"
            "              'samplers': [{'name': 'ddpm'}]},\n"
            "    'samples_per_cell': 16, 'seeds': [0]}))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
