"""CLI: subcommands, report schemas, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ctrldisc
from ctrldisc.cli import dumps, main

from test_ocp import exact_reference_optimum, kkt_error_bounds, solution_support


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_audit_basis_d3_matches_sign_lists(capsys):
    code, out = run_cli(capsys, ["audit-basis", "--dim", "3", "--max-degree", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3
    nonneg = [r["k"] for r in payload["records"] if r["all_nonnegative"]]
    assert nonneg == [1, 3]


def test_audit_basis_json_flag_matches_default(capsys):
    _, explicit = run_cli(capsys, ["audit-basis", "--dim", "1", "--max-degree", "2", "--json"])
    _, default = run_cli(capsys, ["audit-basis", "--dim", "1", "--max-degree", "2"])
    assert explicit == default


def test_audit_basis_csv(capsys):
    code, out = run_cli(capsys, ["audit-basis", "--dim", "1", "--max-degree", "3", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,all_nonnegative,negative_indices,integrals"
    assert lines[1].startswith("1,true,,")
    assert "1/6;2/3;1/6" in lines[2]


def test_audit_basis_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, ["audit-basis", "--dim", "2", "--max-degree", "2", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["dimension"] == 2


def test_solve_feasible_regime(capsys):
    code, out = run_cli(
        capsys,
        ["solve", "--dim", "2", "--degree", "1", "--alpha", "0.1", "--mesh", "4", "--tol", "1e-10"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["J"] == pytest.approx(1.0, abs=1e-8)
    assert payload["control_norm"] <= 1e-8
    assert payload["config"]["mesh"] == 4


def test_certificate_success_with_finding(capsys):
    code, out = run_cli(capsys, ["certificate", "--dim", "2", "--degree", "2", "--alpha", "0.1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["error"] == "NoNegativeBasis"
    assert payload["dim"] == 2
    assert payload["degree"] == 2


def test_certificate_counterexample(capsys):
    code, out = run_cli(capsys, ["certificate", "--dim", "2", "--degree", "4", "--alpha", "0.1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == pytest.approx(1 / 15)
    assert payload["delta"] > 0
    assert payload["measured_objective"] <= payload["objective_bound"] + 1e-8
    assert payload["negative_local_indices"] == [3, 5, 12]
    assert payload["L_n"] == payload["beta"]  # y(w) is the constant -beta


def test_convergence_study_d1(capsys):
    code, out = run_cli(
        capsys,
        ["convergence", "--dim", "1", "--degree", "8", "--alpha", "0.1", "--meshes", "2,4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "INFEASIBLE_LIMIT"
    assert [r["n"] for r in payload["runs"]] == [2, 4]
    bound = 1.0 - payload["certificate"]["delta"]
    assert all(r["J"] <= bound + 1e-8 for r in payload["runs"])


def test_meshes_order_is_ascending(capsys):
    code, out = run_cli(
        capsys,
        ["convergence", "--dim", "1", "--degree", "7", "--alpha", "0.1", "--meshes", "4,2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["n"] for r in payload["runs"]] == [2, 4]
    assert payload["regime"] == "FEASIBLE_LIMIT"
    assert payload["certificate"] is None


def test_usage_errors_exit_2(capsys):
    assert main(["audit-basis", "--dim", "5", "--max-degree", "3"]) == 2
    capsys.readouterr()
    assert main(["solve", "--dim", "2", "--degree", "1"]) == 2  # missing --mesh
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    code, out = run_cli(capsys, ["convergence", "--dim", "1", "--degree", "2", "--meshes", "4"])
    assert code == 2
    assert json.loads(out)["error"] == "usage"
    code, out = run_cli(capsys, ["convergence", "--dim", "1", "--degree", "2", "--meshes", "a,b"])
    assert code == 2


SOLVE = ["solve", "--dim", "2", "--degree", "1", "--mesh", "2"]
CONVERGENCE = ["convergence", "--dim", "1", "--degree", "2"]


@pytest.mark.parametrize(
    "argv,named",
    [
        pytest.param(SOLVE + ["--alpha", "inf"], "alpha", id="solve-alpha-inf"),
        pytest.param(SOLVE + ["--alpha", "nan"], "alpha", id="solve-alpha-nan"),
        pytest.param(
            ["certificate", "--dim", "2", "--degree", "4", "--alpha", "inf"],
            "alpha",
            id="certificate-alpha-inf",
        ),
        pytest.param(SOLVE + ["--tol", "inf"], "qp_tol", id="solve-tol-inf"),
        pytest.param(SOLVE + ["--tol", "nan"], "qp_tol", id="solve-tol-nan"),
        pytest.param(CONVERGENCE + ["--meshes", ","], "--meshes", id="meshes-comma"),
        pytest.param(CONVERGENCE + ["--meshes", ""], "--meshes", id="meshes-empty"),
        pytest.param(
            ["certificate", "--dim", "1", "--degree", "25"],
            "control degree must be in 1..14, got 25",
            id="certificate-degree-25",
        ),
        pytest.param(
            ["solve", "--dim", "2", "--degree", "20", "--mesh", "2"],
            "control degree must be in 1..14, got 20",
            id="solve-degree-20",
        ),
        pytest.param(
            ["convergence", "--dim", "1", "--degree", "15"],
            "control degree must be in 1..14, got 15",
            id="convergence-degree-15",
        ),
    ],
)
def test_invalid_values_are_usage_errors_that_name_the_option(capsys, argv, named):
    # non-finite alpha or tol are rejected before any assembly, not after a
    # diverged QP (exit 3) or an unserializable report
    code, out = run_cli(capsys, argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage"
    assert named in payload["message"]


@pytest.mark.parametrize("tol", ["1e-16", "1e-18"])
def test_clean_regime_ignores_tight_tolerances(capsys, tol):
    # d=2, k=2 has exactly-zero vertex integrals whose float gradient entries
    # round below zero; the origin is decided from the exact integrals instead
    argv = ["solve", "--dim", "2", "--degree", "2", "--mesh", "8", "--tol", tol]
    code, out = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["J"] == 1
    assert report["iterations"] == 0
    assert report["kkt_residual"] == 0
    assert report["control_norm"] == 0
    assert report["neg_part_norm"] == 0


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out = run_cli(
        capsys, ["audit-basis", "--dim", "1", "--max-degree", "2", "--out", str(target)]
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage"
    assert "--out" in payload["message"]
    assert not target.parent.exists()


def test_numerical_failure_exit_3(capsys, monkeypatch):
    import ctrldisc.cli as cli_module
    from ctrldisc.ocp import OcpConfig as RealConfig

    def tiny_cap_config(**kwargs):
        kwargs["max_qp_iterations"] = 2
        return RealConfig(**kwargs)

    monkeypatch.setattr(cli_module, "OcpConfig", tiny_cap_config)
    code, out = run_cli(
        capsys,
        ["solve", "--dim", "1", "--degree", "8", "--alpha", "0.1", "--mesh", "2", "--tol", "1e-10"],
    )
    assert code == 3
    assert json.loads(out)["error"] == "QpConvergenceError"


def test_non_finite_gradient_is_a_numerical_failure(capsys, monkeypatch):
    # a non-finite objective must surface as exit 3, not as a report
    # serialization (usage) error
    from ctrldisc import ocp

    original = ocp.Discretization.scaled_gradient

    def broken(self, z):
        g = original(self, z)
        return g * np.nan if np.any(z) else g

    monkeypatch.setattr(ocp.Discretization, "scaled_gradient", broken)
    code, out = run_cli(
        capsys, ["solve", "--dim", "2", "--degree", "4", "--alpha", "0.1", "--mesh", "2"]
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "QpConvergenceError"
    assert "non-finite" in payload["message"]


def test_reports_are_byte_identical(capsys):
    argv = ["certificate", "--dim", "2", "--degree", "4", "--alpha", "0.1"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second
    argv = ["solve", "--dim", "1", "--degree", "8", "--alpha", "0.1", "--mesh", "4", "--tol", "1e-10"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_dumps_float_formatting():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps({"a": [1, True, None]}) == '{\n  "a": [\n    1,\n    true,\n    null\n  ]\n}'
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(TypeError):
        dumps(object())


def test_unreachable_tolerance_stagnates_quickly(capsys):
    # the smallest residual roundoff allows here is about 2.1e-17; without a
    # stagnation stop the QP would run its whole 200,000-iteration budget
    # before exit 3
    argv = ["solve", "--dim", "2", "--degree", "4", "--mesh", "4", "--tol", "1e-17"]
    start = time.perf_counter()
    code, out = run_cli(capsys, argv)
    elapsed = time.perf_counter() - start
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "QpConvergenceError"
    assert "stagnated" in payload["message"]
    assert int(re.search(r"of (\d+) iterations", payload["message"]).group(1)) < 5_000
    assert elapsed < 20.0


# Reports pinned byte for byte.  A change that moves one on purpose rewrites
# its file with the new `main(argv)` stdout and says so in CHANGES.md.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ARGV = {
    "solve_d2_k4_n8_alpha0.1": [
        "solve", "--dim", "2", "--degree", "4", "--mesh", "8", "--alpha", "0.1"
    ],
    "solve_d2_k3_n64_alpha0.0502188": [
        "solve", "--dim", "2", "--degree", "3", "--mesh", "64", "--alpha", "0.0502188"
    ],
    "solve_d1_k10_n256": ["solve", "--dim", "1", "--degree", "10", "--mesh", "256"],
    "certificate_d2_k4": ["certificate", "--dim", "2", "--degree", "4"],
    "certificate_d1_k10": ["certificate", "--dim", "1", "--degree", "10"],
    "convergence_d2_k4_m4_8_16": [
        "convergence", "--dim", "2", "--degree", "4", "--meshes", "4,8,16"
    ],
    "audit_basis_d3_k6": ["audit-basis", "--dim", "3", "--max-degree", "6"],
    "audit_basis_d2_k8": ["audit-basis", "--dim", "2", "--max-degree", "8"],
    "audit_basis_d1_k10_csv": ["audit-basis", "--dim", "1", "--max-degree", "10", "--csv"],
}


def golden_path(name):
    suffix = ".csv" if "--csv" in GOLDEN_ARGV[name] else ".json"
    return GOLDEN / f"{name}{suffix}"


def test_every_golden_report_has_its_argv():
    # the demos' pinned output lives in golden/demos, checked by test_demos.py
    reports = sorted(p for p in GOLDEN.iterdir() if p.name != "demos")
    assert reports == sorted(golden_path(name) for name in GOLDEN_ARGV)


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_report_matches_golden(capsys, name):
    code, out = run_cli(capsys, GOLDEN_ARGV[name])
    assert code == 0
    assert out == golden_path(name).read_text()


@pytest.mark.parametrize("name", ["solve_d2_k3_n64_alpha0.0502188", "solve_d2_k4_n8_alpha0.1"])
def test_report_does_not_depend_on_blas_threads(name):
    # the (cells x block) matrix products of a solve are large enough for
    # OpenBLAS to split across threads; the report must not move when it does
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ctrldisc.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ctrldisc.cli import main; main(sys.argv[1:])",
         *GOLDEN_ARGV[name]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_path(name).read_text()


@pytest.mark.parametrize(
    "name", ["solve_d2_k4_n8_alpha0.1", "solve_d1_k10_n256", "convergence_d2_k4_m4_8_16"]
)
def test_negative_regime_golden_agrees_with_the_exact_optimum(name):
    # every J and min_cell_avg a negative-regime golden pins lies within the
    # bounds its tolerance implies around the exact optimum (J* = 1 + c);
    # the float J also carries the state solves' roundoff, at most 7e-12 here
    report = json.loads(golden_path(name).read_text())
    config = report["config"]
    dim, degree, alpha, tol = (config[key] for key in ("dim", "degree", "alpha", "tol"))
    mu, c, j = exact_reference_optimum(dim, degree, alpha, solution_support(dim, degree, alpha))
    j_bound, c_bound = kkt_error_bounds(dim, degree, alpha, mu, tol)
    for run in report.get("runs", [report]):
        assert abs(Fraction(run["J"]) - j) <= j_bound
        assert abs(Fraction(run["min_cell_avg"]) - c) <= c_bound
