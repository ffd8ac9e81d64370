"""Each module of ``hfg`` imports alone in a fresh interpreter, and loads
no module of a layer above it: the closed forms and the algebra below them
load no oracle module, and the condition layer loads no other module.  The
CLI loads ``pickle`` only when ``--jobs`` forks, and never a process pool."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hfg

PACKAGE = Path(hfg.__file__).parent
MODULES = sorted(
    ".".join(("hfg", *path.relative_to(PACKAGE).with_suffix("").parts)).removesuffix(
        ".__init__"
    )
    for path in PACKAGE.rglob("*.py")
)
ORACLE_MODULES = {"hfg.verify", "hfg.conditions"}
BELOW_THE_ORACLES = ("hfg.invariants", "hfg.fatgrid", "hfg.projective", "hfg.polycore")

_SCRIPT = (
    "import importlib, json, sys\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(json.dumps(sorted(k for k in sys.modules if k.split('.')[0] in sys.argv[2:])))\n"
)


_VERIFY_SCRIPT = (
    "import json, sys\n"
    "import hfg.cli\n"
    "try:\n"
    "    hfg.cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    assert not exc.code, exc.code\n"
    "print(json.dumps(sorted(k for k in sys.modules if k.split('.')[0] in"
    " ('concurrent', 'multiprocessing'))), file=sys.stderr)\n"
)


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(PACKAGE.parent)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=src,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=False,
    )


def modules_loaded_by(module: str, packages=("hfg",)) -> set[str]:
    """The modules of ``packages`` that importing ``module`` alone loads."""
    run = _run_python(_SCRIPT, module, *packages)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout))


def test_the_layered_modules_are_found():
    assert {*BELOW_THE_ORACLES, *ORACLE_MODULES, "hfg", "hfg.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_and_loads_no_layer_above_it(module):
    loaded = modules_loaded_by(module)
    assert module in loaded
    if module == "hfg.conditions":
        assert loaded == {"hfg", "hfg.conditions"}
    if any(module == m or module.startswith(m + ".") for m in BELOW_THE_ORACLES):
        assert not loaded & ORACLE_MODULES, sorted(loaded & ORACLE_MODULES)


def test_cli_loads_no_process_pool():
    assert not modules_loaded_by("hfg.cli", ("concurrent", "multiprocessing"))


def test_cli_loads_no_pickle():
    assert not modules_loaded_by("hfg.cli", ("pickle",))


def test_forked_verify_loads_no_process_pool():
    run = _run_python(_VERIFY_SCRIPT, "verify", "--m", "1,2", "--n", "1,2", "--jobs", "2")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["passed"] is True
    assert json.loads(run.stderr) == []
