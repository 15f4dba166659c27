"""Import cost: scipy is loaded only by the functions that use it.

`fem` imports `scipy.linalg` inside the function that factors the state
operator, and `quadrature` imports `scipy.special` inside
`conical_product_rule`; no solve builds a `scipy.sparse` matrix.  So
`import ctrldisc` loads numpy and the package but no scipy, an `audit-basis`
process never loads scipy, and a `solve` loads it at its first assembly.  Module-level scipy
imports would put about 0.23 s back on every CLI start-up.  Each check runs
in a fresh interpreter, because this test process has long since loaded scipy.
"""

import importlib.util
import os
import subprocess
import sys

import ctrldisc

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(ctrldisc.__file__)))
TRACER = os.path.join(os.path.dirname(PACKAGE_ROOT), "perfbench", "tracer.py")

LOADED_SCIPY = (
    "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
)


def run_fresh(code: str) -> str:
    """Run `code` in a new interpreter that finds this ctrldisc first; return stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code,
         PACKAGE_ROOT],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    out = run_fresh(f"import ctrldisc; print({LOADED_SCIPY})")
    assert out.strip() == "[]"


def test_audit_basis_loads_no_scipy():
    out = run_fresh(
        "import io, contextlib; from ctrldisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['audit-basis', '--dim', '3', '--max-degree', '6'])\n"
        f"print(code, {LOADED_SCIPY})"
    )
    assert out.strip() == "0 []"


def test_solve_resolves_the_deferred_imports():
    # a d=2, k=3 solve builds a conical rule (scipy.special, whose Gauss-Jacobi
    # roots load scipy.linalg; the solve itself never factors A, see
    # test_ocp.py::test_kkt_point_at_zero_needs_no_gradient_evaluation); its
    # operators are cell blocks and a band, not scipy.sparse matrices
    out = run_fresh(
        "import io, contextlib; from ctrldisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['solve', '--dim', '2', '--degree', '3', '--mesh', '4'])\n"
        f"print(code, [m for m in ('scipy.linalg', 'scipy.special', 'scipy.sparse') "
        f"if m in {LOADED_SCIPY}])"
    )
    assert out.strip() == "0 ['scipy.linalg', 'scipy.special']"


def test_cli_import_loads_every_layer_module():
    # tools that instrument a CLI process look the layer modules up in
    # sys.modules right after `import ctrldisc.cli`, so they must be loaded
    out = run_fresh(
        "import ctrldisc.cli; "
        "print(sorted(m for m in ('exactbasis', 'mesh', 'quadrature', 'fem', 'ocp') "
        "if 'ctrldisc.' + m in sys.modules))"
    )
    assert out.strip() == str(sorted(["exactbasis", "mesh", "quadrature", "fem", "ocp"]))


def test_benchmark_tracer_lookups_resolve(monkeypatch):
    # perfbench/tracer.py wraps package functions and methods by name; its
    # own tests are slow, so a rename or deletion is caught here.  The file is
    # only read: no bytecode cache is written next to it.
    import ctrldisc.cli  # noqa: F401  (loads every layer module, as the worker does)
    from ctrldisc import exactbasis, fem, mesh, ocp

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(sys.modules[f"ctrldisc.{module_name}"], attr)), attr
    for module_name, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(sys.modules[f"ctrldisc.{module_name}"], cls_name)
        assert callable(cls.__dict__[attr]), (cls_name, attr)
    assert fem.cg_solve is ocp.cg_solve and mesh.cell_affine_map is ocp.cell_affine_map
    # the worker clears the basis memo per op and the tracer counts basis functions
    assert callable(exactbasis.lagrange_basis.cache_clear)
    assert exactbasis.lagrange_basis(2, 1).node_count == 3
