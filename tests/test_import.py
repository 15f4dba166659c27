"""Import cost: a process loads only the numpy and scipy it calls.

`import ctrldisc` and `import ctrldisc.cli` load the exact layer alone: the
float layers (`mesh`, `quadrature`, `fem`, `ocp`) are registered but run,
and load numpy, only on first use.  So an `audit-basis`, a `certificate`
and a clean-regime `solve` or `convergence` process, whose report `cli`
writes from the exact regime test without reading `ocp`, load no numpy, run
where numpy is not installed, and print the same bytes, usage errors of
either regime included; without numpy, a negative-regime solve or study
fails with numpy's own ImportError.  The exact layer's records are named
tuples, so those processes load no `dataclasses` either, nor the `inspect`
it imports, nor `__future__`: about half of what a bare `import ctrldisc`
cost before.  None of them loads scipy.  A negative-regime solve
factors A with LAPACK dpbtrf/dpbtrs, called in numpy's own bundled OpenBLAS
(`fem._numpy_lapack`), so it loads no scipy either, and on Linux maps one
OpenBLAS.  Where numpy bundles none, the fallback `fem._flapack` takes them
from scipy's `_flapack` extension alone: the top-level `scipy` package and
`scipy.linalg._flapack` are loaded, but not the `scipy.linalg` package,
whose import costs a fresh process about 0.2 s.  Its d=2 audit rule is
built with numpy alone, so `scipy.special` is never loaded.  No solve builds
a `scipy.sparse` matrix.  Each check runs in a fresh interpreter, because
this test process has long since loaded scipy.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctrldisc
from ctrldisc import cli

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(ctrldisc.__file__)))
GOLDEN = Path(__file__).parent / "golden"
TRACER = os.path.join(os.path.dirname(PACKAGE_ROOT), "perfbench", "tracer.py")

LOADED_SCIPY = (
    "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
)


def fresh_process(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that finds this ctrldisc first, args in sys.argv[2:]."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code,
         PACKAGE_ROOT, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_fresh(code: str) -> str:
    """Run `code` in a new interpreter that finds this ctrldisc first; return stdout."""
    proc = fresh_process(code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# as if numpy were not installed: any import of it raises ModuleNotFoundError
BLOCK_NUMPY = "sys.modules['numpy'] = None; "
CLI_WITHOUT_NUMPY = (
    BLOCK_NUMPY + "from ctrldisc.cli import main; raise SystemExit(main(sys.argv[2:]))"
)


def test_import_loads_no_scipy():
    out = run_fresh(f"import ctrldisc; print({LOADED_SCIPY})")
    assert out.strip() == "[]"


def test_import_needs_no_numpy():
    out = run_fresh(BLOCK_NUMPY + "import ctrldisc, ctrldisc.cli; print(ctrldisc.cli.__name__)")
    assert out.strip() == "ctrldisc.cli"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["audit-basis", "--dim", "3", "--max-degree", "6"], "audit_basis_d3_k6.json"),
        (["audit-basis", "--dim", "1", "--max-degree", "10", "--csv"],
         "audit_basis_d1_k10_csv.csv"),
    ],
)
def test_audit_basis_without_numpy_prints_the_golden(argv, golden):
    proc = fresh_process(CLI_WITHOUT_NUMPY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()


def test_audit_basis_out_without_numpy_writes_the_golden(tmp_path):
    target = tmp_path / "report.json"
    argv = ["audit-basis", "--dim", "3", "--max-degree", "6", "--out", str(target)]
    proc = fresh_process(CLI_WITHOUT_NUMPY, *argv)
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    assert target.read_text() == (GOLDEN / "audit_basis_d3_k6.json").read_text()


def test_audit_basis_usage_error_without_numpy(capsys):
    argv = ["audit-basis", "--dim", "2", "--max-degree", "0"]
    proc = fresh_process(CLI_WITHOUT_NUMPY, *argv)
    assert proc.returncode == 2, proc.stderr
    assert cli.main(argv) == 2
    assert proc.stdout == capsys.readouterr().out  # the same bytes with numpy loaded


@pytest.mark.parametrize(
    "argv",
    [  # negative regime: only these solve on a mesh
        ["solve", "--dim", "2", "--degree", "4", "--mesh", "2"],
        ["convergence", "--dim", "1", "--degree", "10", "--meshes", "2,4"],
    ],
)
def test_a_command_that_needs_numpy_raises_its_import_error(argv):
    # not an AttributeError from a half-loaded float layer
    out = run_fresh(
        BLOCK_NUMPY + "from ctrldisc import cli\n"
        "try:\n"
        f"    cli.main({argv!r})\n"
        "except ImportError as err:\n"
        "    print(type(err).__name__, err.name)"
    )
    assert out.strip() == "ModuleNotFoundError numpy"


def test_without_numpy_a_solve_exits_as_an_uncaught_exception():
    proc = fresh_process(CLI_WITHOUT_NUMPY, "solve", "--dim", "2", "--degree", "4", "--mesh", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("ModuleNotFoundError: ")
    assert "numpy" in proc.stderr.splitlines()[-1]


# besides numpy, the exact path loads no dataclasses, whose import brings
# inspect, ast, dis and tokenize, and no __future__
EXACT_PATH_UNLOADED = ("numpy", "dataclasses", "inspect", "__future__")
# a CLI run where none of them can be imported
CLI_EXACT_PATH_ONLY = (
    "".join(f"sys.modules[{name!r}] = None; " for name in EXACT_PATH_UNLOADED[1:])
    + CLI_WITHOUT_NUMPY
)


def test_audit_basis_loads_no_numpy():
    loaded = f"sorted(m for m in {EXACT_PATH_UNLOADED!r} if m in sys.modules)"
    out = run_fresh(
        "import io, contextlib; from ctrldisc import cli\n"
        f"print({loaded})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['audit-basis', '--dim', '3', '--max-degree', '6'])\n"
        f"print(code, {loaded})"
    )
    assert out.splitlines() == ["[]", "0 []"]
    # and runs where none of them can be imported, printing the same bytes
    proc = fresh_process(CLI_EXACT_PATH_ONLY, "audit-basis", "--dim", "3",
                         "--max-degree", "6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "audit_basis_d3_k6.json").read_text()


# the exact layer's certificate reports: negative and clean regime
CERTIFICATE_GOLDENS = {
    "certificate_d2_k4.json": ["certificate", "--dim", "2", "--degree", "4"],
    "certificate_d1_k10.json": ["certificate", "--dim", "1", "--degree", "10"],
    "certificate_d2_k3.json": ["certificate", "--dim", "2", "--degree", "3"],
}


@pytest.mark.parametrize("golden", sorted(CERTIFICATE_GOLDENS))
def test_certificate_without_numpy_prints_the_golden(golden):
    # nor dataclasses, inspect or __future__: the certificate is a named tuple
    proc = fresh_process(CLI_EXACT_PATH_ONLY, *CERTIFICATE_GOLDENS[golden])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["certificate", "--dim", "1", "--degree", "25"],
        ["certificate", "--dim", "2", "--degree", "4", "--alpha", "inf"],
    ],
    ids=["degree-25", "alpha-inf"],
)
def test_certificate_usage_error_without_numpy(capsys, argv):
    proc = fresh_process(CLI_EXACT_PATH_ONLY, *argv)
    assert proc.returncode == 2, proc.stderr
    assert cli.main(argv) == 2
    assert proc.stdout == capsys.readouterr().out  # the same bytes with numpy loaded


# the clean regime's solve and study reports, written from the exact regime test
CLEAN_GOLDENS = {
    "solve_d2_k3_n64_alpha0.0502188.json": ["solve", "--dim", "2", "--degree", "3", "--mesh",
                                            "64", "--alpha", "0.0502188"],
    "convergence_d1_k7_m2_4.json": ["convergence", "--dim", "1", "--degree", "7",
                                    "--meshes", "2,4"],
}


@pytest.mark.parametrize("golden", sorted(CLEAN_GOLDENS))
def test_a_clean_solve_or_study_without_numpy_prints_the_golden(golden):
    # nor dataclasses, inspect or __future__: the report reads nothing in ocp
    proc = fresh_process(CLI_EXACT_PATH_ONLY, *CLEAN_GOLDENS[golden])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden", sorted(CLEAN_GOLDENS))
def test_a_clean_solve_or_study_loads_no_float_layer(golden):
    # where numpy is installed too: ocp stays the lazy module registered at import
    loaded = f"sorted(m for m in {EXACT_PATH_UNLOADED!r} if m in sys.modules)"
    out = run_fresh(
        "import io, contextlib, types; from ctrldisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({CLEAN_GOLDENS[golden]!r})\n"
        f"print(code, {loaded}, [m for m in ('mesh', 'quadrature', 'fem', 'ocp')\n"
        "       if type(sys.modules['ctrldisc.' + m]) is types.ModuleType])"
    )
    assert out.strip() == "0 [] []"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dim", "2", "--degree", "3", "--mesh", "0"],
        ["solve", "--dim", "2", "--degree", "3", "--mesh", "4", "--tol", "inf"],
        ["convergence", "--dim", "1", "--degree", "7", "--meshes", "4"],
        ["convergence", "--dim", "2", "--degree", "3", "--meshes=2,-3,-2"],
    ],
    ids=["mesh-0", "tol-inf", "meshes-4", "meshes-negative"],
)
def test_a_clean_usage_error_without_numpy(capsys, argv):
    proc = fresh_process(CLI_EXACT_PATH_ONLY, *argv)
    assert proc.returncode == 2, proc.stderr
    assert cli.main(argv) == 2
    assert proc.stdout == capsys.readouterr().out  # the same bytes with numpy loaded


def test_every_public_name_is_its_defining_modules_object():
    namespace = {}
    exec("from ctrldisc import *", namespace)
    for name in ctrldisc.__all__:
        obj = getattr(ctrldisc, name)
        assert obj.__module__.startswith("ctrldisc."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert namespace[name] is obj, name
    assert set(ctrldisc.__all__) <= set(dir(ctrldisc))
    with pytest.raises(AttributeError, match="no_such_name"):
        ctrldisc.no_such_name  # noqa: B018


# the package root's public names, as a literal: the root derives `__all__`
# and `dir()` from its one table, so a name dropped there must fail here
PUBLIC_NAMES = {
    "AuditReport", "ControlSpace", "ConvergenceStudy", "CounterexampleCertificate",
    "DegreeRecord", "Discretization", "FeasibilityAudit", "LagrangeBasisSpec",
    "OcpConfig", "QpConvergenceError", "QpSolution", "QuadratureRule",
    "SimplexMesh", "StateSpace", "StudyRun", "assemble_control_mass", "assemble_coupling",
    "assemble_load", "assemble_p1_stiffness_mass", "audit_degrees", "basis_integrals",
    "build_certificate", "cell_geometry", "conical_product_rule", "convergence_study",
    "feasibility_audit", "gauss_legendre_interval", "grundmann_moeller", "integral_of_square",
    "l2_error", "lagrange_basis", "lattice_nodes", "monomial_integral", "multi_indices",
    "simplex_rule", "solve_qp", "unit_interval_mesh", "unit_square_mesh",
}
SUBMODULES = {"cli", "exactbasis", "fem", "mesh", "ocp", "quadrature"}


def test_the_package_root_exports_its_public_names():
    assert sorted(ctrldisc.__all__) == sorted(PUBLIC_NAMES)
    public_dir = {name for name in dir(ctrldisc) if not name.startswith("_")}
    assert public_dir == PUBLIC_NAMES | SUBMODULES | {"importlib", "sys"}


def test_the_package_root_resolves_without_the_float_layers():
    # with numpy blocked, a float layer's body could not run; each float
    # layer must still be the lazy module registered at import
    out = run_fresh(
        BLOCK_NUMPY + "import types, ctrldisc; from ctrldisc import exactbasis\n"
        "names = sorted(set(ctrldisc.__all__) & set(exactbasis.__all__))\n"
        "print(len(ctrldisc.__all__), set(ctrldisc.__all__) <= set(dir(ctrldisc)))\n"
        "print(names, all(getattr(ctrldisc, n) is getattr(exactbasis, n) for n in names))\n"
        "print([m for m in ('mesh', 'quadrature', 'fem', 'ocp')\n"
        "       if type(sys.modules['ctrldisc.' + m]) is types.ModuleType])"
    )
    exact = sorted(["AuditReport", "CounterexampleCertificate", "DegreeRecord",
                    "LagrangeBasisSpec", "audit_degrees", "basis_integrals", "build_certificate",
                    "integral_of_square", "lagrange_basis", "lattice_nodes",
                    "monomial_integral", "multi_indices"])
    assert out.splitlines() == [f"{len(PUBLIC_NAMES)} True", f"{exact} True", "[]"]


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


def loaded_by_solve(*argv: str, before: str = "") -> str:
    """Exit code and the scipy modules loaded by a fresh `solve` run after `before`."""
    return run_fresh(
        before + "import io, contextlib; from ctrldisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['solve', *{list(argv)!r}])\n"
        f"print(code, {LOADED_SCIPY})"
    ).strip()


NEGATIVE_SOLVES = [("--dim", "2", "--degree", "4", "--mesh", "8"),
                   ("--dim", "1", "--degree", "10", "--mesh", "256")]


def test_solve_resolves_the_deferred_imports():
    # clean regime (k=3): lambda = 0 from the exact integrals and operators
    # from exact Gram blocks, with no factorization and no audit rule
    assert loaded_by_solve("--dim", "2", "--degree", "3", "--mesh", "4") == "0 []"
    # negative regime: the banded factor from numpy's own LAPACK, the d=2
    # conical audit rule from numpy, the operators as cell blocks and a band
    for argv in NEGATIVE_SOLVES:
        assert loaded_by_solve(*argv) == "0 []", argv


def test_without_numpys_lapack_a_solve_loads_the_lapack_extension_alone():
    # the library lookup finds nothing, as with a conda or distro numpy: the
    # factor comes from scipy's `_flapack`, without the scipy.linalg package
    for argv in NEGATIVE_SOLVES:
        out = loaded_by_solve(*argv, before="from ctrldisc import fem; "
                                            "fem._numpy_lapack_path = lambda: None\n")
        code, loaded = out.split(" ", 1)
        assert code == "0" and "'scipy.linalg._flapack'" in loaded, argv
        for name in ("scipy.linalg", "scipy.special", "scipy.sparse"):
            assert f"'{name}'" not in loaded, (argv, name)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_a_negative_solve_maps_one_openblas():
    from ctrldisc import fem

    if fem._numpy_lapack_path() is None:
        pytest.skip("this numpy bundles no OpenBLAS of its own")
    out = run_fresh(
        "import io, contextlib, os; from ctrldisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['solve', '--dim', '2', '--degree', '4', '--mesh', '8'])\n"
        "with open('/proc/self/maps') as maps:\n"
        "    paths = {line.split(maxsplit=5)[-1].strip() for line in maps\n"
        "             if len(line.split()) >= 6}\n"
        "print(code, sorted(os.path.basename(path) for path in paths if 'openblas' in path))"
    )
    code, libraries = out.strip().split(" ", 1)
    assert code == "0"
    assert libraries == repr([os.path.basename(fem._numpy_lapack_path())])


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
    # sys.modules right after `import ctrldisc.cli`, so they must be there,
    # though the float layers' bodies (and numpy) have not run yet
    out = run_fresh(
        "import ctrldisc.cli; "
        "print(sorted(m for m in ('exactbasis', 'mesh', 'quadrature', 'fem', 'ocp') "
        "if 'ctrldisc.' + m in sys.modules), 'numpy' in sys.modules)"
    )
    assert out.strip() == f"{sorted(['exactbasis', 'mesh', 'quadrature', 'fem', 'ocp'])} False"


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
