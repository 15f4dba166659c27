"""Import cost: `import ctrldisc` must not load the linear-algebra subpackages."""

import os
import subprocess
import sys

import ctrldisc


def test_import_leaves_scipy_linear_algebra_unloaded():
    # the state solver imports scipy.linalg when it factors; loading it (or
    # scipy.sparse.linalg) at import time would add to every CLI start-up
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ctrldisc.__file__)))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ctrldisc; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, package_root], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
