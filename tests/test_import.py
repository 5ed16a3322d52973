import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import allwas


def run_python(code: str, cwd=None) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports this
    checkout's allwas."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(allwas.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout.strip()


def modules_loaded_by_import(*prefixes):
    """The modules under ``prefixes`` that a fresh ``import allwas`` loads."""
    return run_python(
        f"import sys, allwas; print(sorted(m for m in sys.modules if m.startswith({prefixes})))")


def test_import_loads_no_scipy():
    # scipy serves only the test oracles; importing the package must not
    # pay for it.
    assert modules_loaded_by_import("scipy") == "[]"


def test_runs_without_scipy(tmp_path):
    # numpy is the package's one runtime dependency: with scipy unimportable,
    # the acquisition, augmentation and reporting paths all run.
    corpus = {"synthetic": {"n": 260, "d": 6, "priors": [0.7, 0.3], "seed": 3}}
    base = {"corpus": corpus, "out_dir": "runs", "seed_size": 10, "budget": 30,
            "k": 10, "repeats": 1, "model": {"hidden_dim": 8, "epochs": 2}}
    cells = {
        "allwas-p2": {"strategy": "allwas", "ot": {"p": 2.0},
                      "augmentation": {"mode": "wasserstein", "factor": 2}},
        "allwas-p1": {"strategy": "allwas", "ot": {"p": 1.0},
                      "augmentation": {"mode": "l2-kde", "factor": 2}},
        "egl": {"strategy": "egl"},
    }
    for label, cell in cells.items():
        (tmp_path / f"{label}.json").write_text(json.dumps({**base, "label": label, **cell}))
    out = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from allwas.cli import main\n"
        f"codes = [main(['run', f'{{label}}.json']) for label in {list(cells)}]\n"
        "codes.append(main(['report', 'runs']))\n"
        "codes.append(main(['stats', 'runs', '--pairs', 'allwas-p2:egl,allwas-p1:egl']))\n"
        "print(codes)\n", cwd=tmp_path)
    assert out.splitlines()[-1] == "[0, 0, 0, 0, 0]"
    assert "allwas-p1,egl," in out
    for label in cells:
        assert (tmp_path / "runs" / f"{label}.csv").exists()
    assert (tmp_path / "runs" / "significance.csv").exists()


def test_import_loads_no_process_pool():
    # Only a parallel sweep uses the process pool, so run_sweep imports it.
    assert modules_loaded_by_import("multiprocessing", "concurrent.futures.process") == "[]"


def test_import_loads_no_sax_utilities():
    # Only rendering an SVG escapes text, and xml.sax.saxutils loads the
    # urllib.request, http.client and email packages.
    assert modules_loaded_by_import("xml.sax", "urllib.request", "http", "email") == "[]"


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


def names_in(path):
    """Every name a source file uses, as a variable, an attribute or an
    import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_only_transport_names_the_eps_constants():
    # The adaptive eps has one implementation, transport.default_epsilon:
    # no other module rebuilds its rule from the constants.
    constants = {"EPS_MEDIAN_SCALE", "EPS_FLOOR"}
    package = Path(allwas.__file__).parent
    assert names_in(package / "transport.py") >= constants
    assert sorted(path.name for path in package.glob("*.py")
                  if path.name != "transport.py" and names_in(path) & constants) == []


def test_errors_module_imports_no_sibling():
    # Every module imports errors.py for its exception types and input
    # checks, so a sibling import there would load that layer everywhere.
    assert sibling_imports(Path(allwas.__file__).parent / "errors.py") == set()
