import os
import subprocess
import sys

import allwas


def test_import_loads_no_scipy():
    # scipy serves only the test oracles; importing the package must not
    # pay for it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(allwas.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, allwas; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
