"""Import cost: scipy is loaded only by the functions that use it.

`fem` imports `scipy.linalg` inside the function that factors the state
operator, and `quadrature` imports `scipy.special` inside
`conical_product_rule`; no solve builds a `scipy.sparse` matrix.  So
`import ctrldisc` loads numpy and the package but no scipy, an `audit-basis`
process never loads scipy, a clean-regime solve (which neither factors A nor
builds a quadrature rule) loads none either, and a negative-regime solve
loads scipy when it factors A and builds the audit rule.  Module-level scipy
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


def loaded_by_solve(degree: int) -> str:
    """Exit code and the scipy modules loaded by a fresh d=2 solve of the given degree."""
    return run_fresh(
        "import io, contextlib; from ctrldisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['solve', '--dim', '2', '--degree', '{degree}', '--mesh', '4'])\n"
        f"print(code, [m for m in ('scipy.linalg', 'scipy.special', 'scipy.sparse') "
        f"if m in {LOADED_SCIPY}])"
    ).strip()


def test_solve_resolves_the_deferred_imports():
    # clean regime (k=3): lambda = 0 from the exact integrals and operators
    # from exact Gram blocks, with no factorization and no audit rule
    assert loaded_by_solve(3) == "0 []"
    # negative regime (k=4): the banded factor (scipy.linalg) and the conical
    # audit rule of exactness 10 (scipy.special); the operators are cell
    # blocks and a band, never scipy.sparse matrices
    assert loaded_by_solve(4) == "0 ['scipy.linalg', 'scipy.special']"


def test_cli_import_loads_every_layer_module():
    # tools that instrument a CLI process look the layer modules up in
    # sys.modules right after `import ctrldisc.cli`, so they must be loaded
    out = run_fresh(
        "import ctrldisc.cli; "
        "print(sorted(m for m in ('exactbasis', 'mesh', 'quadrature', 'fem', 'ocp') "
        "if 'ctrldisc.' + m in sys.modules))"
    )
    assert out.strip() == str(sorted(["exactbasis", "mesh", "quadrature", "fem", "ocp"]))


def load_tracer(monkeypatch):
    """perfbench/tracer.py as a module; the file is only read, no bytecode cache is written."""
    import ctrldisc.cli  # noqa: F401  (loads every layer module, as the worker does)

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_lookups_resolve(monkeypatch):
    # perfbench/tracer.py wraps package functions and methods by name; its
    # own tests are slow, so a rename or deletion is caught here
    from ctrldisc import exactbasis, fem, mesh, ocp

    tracer = load_tracer(monkeypatch)
    for module_name, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(sys.modules[f"ctrldisc.{module_name}"], attr)), attr
    for module_name, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(sys.modules[f"ctrldisc.{module_name}"], cls_name)
        assert callable(cls.__dict__[attr]), (cls_name, attr)
    assert fem.cg_solve is ocp.cg_solve and mesh.cell_affine_map is ocp.cell_affine_map
    # the worker clears the basis memo per op and the tracer counts basis functions
    assert callable(exactbasis.lagrange_basis.cache_clear)
    assert exactbasis.lagrange_basis(2, 1).node_count == 3


def test_benchmark_tracer_sees_the_assembly_on_first_use(monkeypatch):
    # a Discretization assembles its operators on first use, looking the
    # assemblers up in ocp's namespace at call time; the wrappers the tracer
    # sets there must be the ones called, or its fem.* layers would read 0
    from ctrldisc import ocp

    tracer = load_tracer(monkeypatch)
    disc = ocp.Discretization(ocp.OcpConfig(2, 4, 2))
    with tracer.traced(tracer.Tracer()) as trace:
        disc.operator, disc.mass, disc.coupling, disc.control_mass  # first uses
    layers = ("fem.stiffness_mass", "fem.coupling", "fem.control_mass")
    assert {key: trace.calls[key] for key in layers} == dict.fromkeys(layers, 1)
