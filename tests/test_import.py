import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import allwas


def modules_loaded_by_import(*prefixes):
    """The modules under ``prefixes`` that a fresh ``import allwas`` loads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(allwas.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, allwas; print(sorted(m for m in sys.modules if m.startswith({prefixes})))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return out.strip()


def test_import_loads_no_scipy():
    # scipy serves only the test oracles; importing the package must not
    # pay for it.
    assert modules_loaded_by_import("scipy") == "[]"


def test_import_loads_no_process_pool():
    # Only a parallel sweep uses the process pool, so run_sweep imports it.
    assert modules_loaded_by_import("multiprocessing", "concurrent.futures.process") == "[]"


def sibling_imports(path):
    """The allwas modules a source file imports."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "allwas" if node.level else None
            dotted += [".".join(filter(None, (package, node.module, alias.name)))
                       for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("allwas.")}


@pytest.mark.parametrize("module", ["data", "model"])
def test_corpus_and_head_modules_import_only_errors_and_seeding(module):
    # The corpus columns and the head work on plain arrays; neither needs
    # the transport, augmentation or acquisition layers.
    path = Path(allwas.__file__).parent / f"{module}.py"
    assert sibling_imports(path) <= {"errors", "seeding"}
