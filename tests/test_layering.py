"""Each module of ``hfg`` imports alone in a fresh interpreter, and loads
no module of a layer above it: the closed forms and the algebra below them
load no oracle module, and the condition layer loads no other module.  The
CLI loads the process pool's modules only when ``--jobs`` asks for a pool."""
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


def modules_loaded_by(module: str, packages=("hfg",)) -> set[str]:
    """The modules of ``packages`` that importing ``module`` alone loads."""
    src = str(PACKAGE.parent)
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT, module, *packages],
        cwd=src,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=False,
    )
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
