"""Import cost: a process loads only the scipy it calls.

`import ctrldisc` loads numpy and the package but no scipy, and an
`audit-basis` or `certificate` process never loads scipy.  A clean-regime
solve neither factors A nor builds a quadrature rule, so it loads none
either.  A negative-regime solve factors A with LAPACK dpbtrf/dpbtrs, which
`fem._flapack` takes from scipy's `_flapack` extension alone: the top-level
`scipy` package and `scipy.linalg._flapack` are loaded, but not the
`scipy.linalg` package, whose import costs a fresh process about 0.2 s.  Its
d=2 audit rule is built with numpy alone, so `scipy.special` is never loaded.
No solve builds a `scipy.sparse` matrix.  Each check runs in a fresh
interpreter, because this test process has long since loaded scipy.
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


def loaded_by_cli(*argv: str) -> str:
    """Exit code and the scipy modules loaded by a fresh `main(argv)`."""
    return run_fresh(
        "import io, contextlib; from ctrldisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        f"print(code, {LOADED_SCIPY})"
    ).strip()


def test_audit_basis_loads_no_scipy():
    assert loaded_by_cli("audit-basis", "--dim", "3", "--max-degree", "6") == "0 []"


def test_certificate_loads_no_scipy():
    # the certificate is exact rational arithmetic on the reference basis:
    # no mesh, no factorization, no quadrature rule
    assert loaded_by_cli("certificate", "--dim", "2", "--degree", "4") == "0 []"


def loaded_by_solve(*argv: str) -> str:
    """Exit code and the scipy modules loaded by a fresh `solve` with these arguments."""
    return run_fresh(
        "import io, contextlib; from ctrldisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['solve', *{list(argv)!r}])\n"
        f"print(code, [m for m in ('scipy.linalg._flapack', 'scipy.linalg', 'scipy.special', "
        f"'scipy.sparse') if m in {LOADED_SCIPY}])"
    ).strip()


def test_solve_resolves_the_deferred_imports():
    # clean regime (k=3): lambda = 0 from the exact integrals and operators
    # from exact Gram blocks, with no factorization and no audit rule
    assert loaded_by_solve("--dim", "2", "--degree", "3", "--mesh", "4") == "0 []"
    # negative regime: the banded factor from the LAPACK extension alone, the
    # d=2 conical audit rule from numpy, the operators as cell blocks and a band
    for argv in (("--dim", "2", "--degree", "4", "--mesh", "8"),
                 ("--dim", "1", "--degree", "10", "--mesh", "256")):
        assert loaded_by_solve(*argv) == "0 ['scipy.linalg._flapack']", argv


def test_a_later_scipy_linalg_import_reuses_the_lapack_extension():
    out = run_fresh(
        "import numpy as np; from ctrldisc import fem\n"
        "module = fem._flapack()\n"
        "print(sys.modules['scipy.linalg._flapack'] is module, 'scipy.linalg' in sys.modules)\n"
        "import scipy.linalg; from scipy.linalg import lapack\n"
        "(pbtrf,) = scipy.linalg.get_lapack_funcs(('pbtrf',), (np.ones(2),))\n"
        "print(lapack._flapack is module, pbtrf is module.dpbtrf, fem._flapack() is module)"
    )
    assert out.split() == ["True", "False", "True", "True", "True"]


def test_lapack_falls_back_to_the_scipy_linalg_import():
    # with the extension file not found, `from scipy.linalg import _flapack`
    # gives the same module by the slower import, with scipy.linalg loaded
    out = run_fresh(
        "from types import SimpleNamespace; from ctrldisc import fem\n"
        "asked = []\n"
        "fem.PathFinder = SimpleNamespace(find_spec=lambda name, path: asked.append(name))\n"
        "module = fem._flapack()\n"
        "from scipy.linalg import lapack\n"
        "print(asked, module is lapack._flapack, 'scipy.linalg' in sys.modules)"
    )
    assert out.strip() == "['scipy.linalg._flapack'] True True"


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


def test_benchmark_tracer_reads_the_qp_iteration_count(monkeypatch):
    # the tracer takes the iteration count from the QP core's result tuple
    # (abs(result[4])); the core returns (x, g, objective, residual,
    # iterations, failure), so a reordering would silently skew its counts
    from ctrldisc import ocp

    tracer = load_tracer(monkeypatch)
    disc = ocp.Discretization(ocp.OcpConfig(2, 4, 2))
    with tracer.traced(tracer.Tracer()) as trace:
        solution = ocp.solve_qp(disc)
    assert solution.iterations > 0
    assert trace.counts["ocp.qp_iterations"] == solution.iterations
    assert trace.calls["ocp.qp"] == 1
