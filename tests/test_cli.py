"""CLI: subcommands, report schemas, exit codes, determinism."""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ctrldisc
from ctrldisc import cli
from ctrldisc.cli import dumps, main

from test_ocp import CLEAN_DEGREES, exact_reference_optimum, kkt_error_bounds, solution_support


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


def test_audit_json_schema():
    payload = cli._audit_report(ctrldisc.audit_degrees(2, 3))
    assert payload["dimension"] == 2
    assert [r["k"] for r in payload["records"]] == [1, 2, 3]
    for rec in payload["records"]:
        assert isinstance(rec["all_nonnegative"], bool)
        assert all(isinstance(i, int) for i in rec["negative_indices"])
        for s in rec["integrals"]:
            num, den = s.split("/")
            assert int(den) > 0
            Fraction(int(num), int(den))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_audit_json_formats_each_integral_as_its_own(d):
    # _audit_report formats each shared Fraction once; the strings must be
    # those of per-function formatting, also when equal integrals are
    # distinct objects
    report = ctrldisc.audit_degrees(d, 8)
    payload = cli._audit_report(report)
    assert [rec["integrals"] for rec in payload["records"]] == [
        [f"{v.numerator}/{v.denominator}" for v in record.integrals] for record in report.records
    ]
    copies = tuple(
        record._replace(integrals=tuple(map(Fraction, record.integrals)))
        for record in report.records
    )
    assert cli._audit_report(ctrldisc.AuditReport(d, copies)) == payload


def test_study_json_schema(capsys):
    argv = ["--dim", "1", "--degree", "8", "--alpha", "0.1"]
    code, out = run_cli(capsys, ["convergence", *argv, "--meshes", "2,4"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "regime", "certificate", "runs"}
    assert set(payload["config"]) == {"dim", "degree", "alpha", "tol"}
    assert payload["regime"] in ("FEASIBLE_LIMIT", "INFEASIBLE_LIMIT")
    assert set(payload["certificate"]) == {"beta", "M2", "t_hat", "delta"}
    assert [r["n"] for r in payload["runs"]] == [2, 4]
    for run in payload["runs"]:
        assert set(run) == {"n", "J", "min_cell_avg", "neg_part_norm", "iters"}
    # the study's certificate is the certificate report's four invariants
    _, out = run_cli(capsys, ["certificate", *argv])
    certificate = json.loads(out)
    assert payload["certificate"] == {key: certificate[key] for key in payload["certificate"]}


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

# Usage errors of `solve` and `convergence` after `--dim 2 --degree k`, with
# their message.  At d=2, k=3 is in the clean regime and k=4 in the negative
# one, and a usage error must not tell which (`malformed_cases` has the
# argparse errors).
REGIME_USAGE_ERRORS = [
    (["solve", "--mesh", "0"], "mesh parameter must be >= 1, got 0"),
    (["solve", "--mesh=-1"], "mesh parameter must be >= 1, got -1"),
    (["solve", "--mesh", "4", "--tol", "0"], "qp_tol must be finite and > 0, got 0.0"),
    (["solve", "--mesh", "4", "--tol", "inf"], "qp_tol must be finite and > 0, got inf"),
    (["solve", "--mesh", "4", "--alpha", "nan"], "alpha must be finite and > 0, got nan"),
    # a repeated option: the last value counts
    (["solve", "--mesh", "4", "--degree", "15"], "control degree must be in 1..14, got 15"),
    (["convergence", "--meshes", "4"], "a convergence study needs at least two mesh parameters"),
    (["convergence", "--meshes", "4", "--degree", "15"], "control degree must be in 1..14, got 15"),
    (
        ["convergence", "--meshes", "4,x"],
        "--meshes must be comma-separated integers: invalid literal for int() with base 10: 'x'",
    ),
    (["convergence", "--meshes=2,-3,-2"], "mesh parameter must be >= 1, got -3"),
    (["convergence", "--alpha", "nan"], "alpha must be finite and > 0, got nan"),
]


def regime_argv(argv, degree):
    """`argv` of REGIME_USAGE_ERRORS with `--dim 2 --degree degree` after its command."""
    return [argv[0], "--dim", "2", "--degree", str(degree), *argv[1:]]


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
        pytest.param(
            ["audit-basis", "--dim", "2", "--max-degree", "0"],
            "k_max must be >= 1, got 0",
            id="audit-max-degree-0",
        ),
        # both name the smallest bad mesh parameter, as the study checks them
        pytest.param(
            ["convergence", "--dim", "2", "--degree", "4", "--meshes=-3,-2"],
            "mesh parameter must be >= 1, got -3",
            id="meshes-all-negative",
        ),
        pytest.param(
            ["convergence", "--dim", "2", "--degree", "4", "--meshes=2,-3,-2"],
            "mesh parameter must be >= 1, got -3",
            id="meshes-some-negative",
        ),
        *(
            pytest.param(regime_argv(argv, degree), message, id=f"k{degree}-{' '.join(argv)}")
            for argv, message in REGIME_USAGE_ERRORS
            for degree in (3, 4)
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


# The clean regime's two routes.  `cli` writes a clean-regime report from
# the exact finding alone; the library writes it from `solve_qp`,
# `feasibility_audit` and `convergence_study` on a Discretization, which
# `cli` runs in the negative regime.  Both must print the same bytes.
CLEAN_WEIGHTS = [("0.1", "1e-10"), ("3.7e-4", "1e-300"), ("25", "1e-16")]


def take_the_library_route(monkeypatch):
    """Send every solve and study through `ocp`; return the configs `ocp.solve_qp` gets."""
    from ctrldisc import ocp

    solve_qp, configs = ocp.solve_qp, []

    def recorded(disc):
        configs.append(disc.config)
        return solve_qp(disc)

    monkeypatch.setattr(ocp, "solve_qp", recorded)
    monkeypatch.setattr(cli, "lagrange_basis", lambda dim, degree: SimpleNamespace(
        negative_indices=(0,)))  # a negative regime, as cli sees it
    return configs


@pytest.mark.parametrize("dim, degree", CLEAN_DEGREES)
@pytest.mark.parametrize("n", [1, 3, 8])
def test_a_clean_solve_prints_the_library_report(capsys, monkeypatch, dim, degree, n):
    argvs = [
        ["solve", "--dim", str(dim), "--degree", str(degree), "--mesh", str(n),
         "--alpha", alpha, "--tol", tol]
        for alpha, tol in CLEAN_WEIGHTS
    ]
    exact = [run_cli(capsys, argv) for argv in argvs]
    configs = take_the_library_route(monkeypatch)
    assert [run_cli(capsys, argv) for argv in argvs] == exact
    assert [(c.dim, c.degree, c.n) for c in configs] == [(dim, degree, n)] * len(argvs)
    assert {code for code, _ in exact} == {0}


@pytest.mark.parametrize("dim, degree", CLEAN_DEGREES)
@pytest.mark.parametrize("meshes", ["1,3,8", "8,3,3,1", "2,1"])
def test_a_clean_study_prints_the_library_report(capsys, monkeypatch, dim, degree, meshes):
    argvs = [
        ["convergence", "--dim", str(dim), "--degree", str(degree), "--meshes", meshes,
         "--alpha", alpha]
        for alpha, _ in CLEAN_WEIGHTS
    ]
    exact = [run_cli(capsys, argv) for argv in argvs]
    configs = take_the_library_route(monkeypatch)
    assert [run_cli(capsys, argv) for argv in argvs] == exact
    ns = sorted(set(map(int, meshes.split(","))))
    assert [c.n for c in configs] == ns * len(argvs)
    assert {code for code, _ in exact} == {0}


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
    from ctrldisc import ocp

    # solve_qp reads the cap at call time
    monkeypatch.setattr(ocp, "MAX_QP_ITERATIONS", 2)
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


# quotes, backslashes, control and non-ASCII characters, which need escaping
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'
report_text = st.text(alphabet=st.one_of(st.sampled_from(ESCAPED), st.characters()), max_size=12)
report_leaves = st.one_of(
    report_text,
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8),
    st.booleans(),
    st.none(),
    st.sampled_from([[], (), {}]),
)
report_payloads = st.recursive(
    report_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(report_text, children, max_size=4),
    ),
    max_leaves=24,
)


def plain(obj):
    """The payload with numpy ints as ints, as the standard library serializes it."""
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return int(obj) if isinstance(obj, np.integer) else obj


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(payload=report_payloads)
def test_dumps_equals_the_standard_library_without_floats(payload):
    assert dumps(payload) == json.dumps(plain(payload), indent=2)


@pytest.mark.parametrize(
    "payload", [float("inf"), {"a": [1, -np.inf]}, [np.float64("nan")], ({"b": float("nan")},)]
)
def test_dumps_rejects_non_finite_floats_anywhere(payload):
    with pytest.raises(ValueError, match="non-finite"):
        dumps(payload)


@pytest.mark.parametrize("payload", [object(), {"a": [{1, 2}]}, [Fraction(1, 2)], (b"x",)])
def test_dumps_rejects_unsupported_types_anywhere(payload):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps(payload)


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


# Argument parsing.  `parse_args` parses a well-formed argv from the option
# table `cli._COMMANDS` without building a parser, and hands any other argv to
# the full tree of `build_parser`, which is the oracle for every outcome of
# every argv.
HANDLERS = ("_cmd_audit", "_cmd_certificate", "_cmd_solve", "_cmd_convergence")
VALID = {
    "audit-basis": ["--dim", "3", "--max-degree", "6"],
    "certificate": ["--dim", "2", "--degree", "4", "--alpha", "0.2"],
    "solve": ["--dim", "2", "--degree", "3", "--mesh", "64", "--alpha", "0.1", "--tol", "1e-9"],
    "convergence": ["--dim", "1", "--degree", "8", "--meshes", "2,4"],
}
ABBREVIATED = {"--max-degree": "--max", "--degree": "--deg", "--meshes": "--mesh", "--alpha": "--al"}


def tree_parse(argv):
    return cli.build_parser().parse_args(argv)


def parse_outcome(capsys, argv, parse=cli.parse_args):
    """main(argv) parsing through `parse`, with every command handler a recorder.

    Returns the exit code, stdout, stderr and the namespace a handler received
    as a dict of reprs, which tell 3 from 3.0 and hold nan equal to nan (None
    when parsing exited).  A reference main parses through `tree_parse`.
    """
    parsed = []

    def record(args):
        parsed.append({key: repr(value) for key, value in vars(args).items()})
        return "parsed"

    with mock.patch.multiple(cli, parse_args=parse, **dict.fromkeys(HANDLERS, record)):
        code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err, parsed[0] if parsed else None


def well_formed_cases():
    for name, valid in VALID.items():
        yield [name, *valid]
    yield ["audit-basis", *VALID["audit-basis"], "--csv", "--out", "report.csv"]
    # values the table converts itself, with the tree's int and float
    yield ["audit-basis", "--dim", "\u0663", "--max-degree", "1_0"]  # ARABIC-INDIC DIGIT THREE
    yield ["solve", "--dim", "2", "--degree", "3", "--mesh", " 8", "--alpha", "1_0"]
    yield ["certificate", "--dim", "2", "--degree", "4", "--alpha", "nan"]
    yield ["certificate", "--dim", "2", "--degree", "4", "--alpha", "inf"]
    yield ["audit-basis", *VALID["audit-basis"], "--out", ""]


def malformed_cases():
    for name, valid in VALID.items():
        yield [name, "-h"]
        yield [name, *valid[2:]]  # missing the required --dim
        yield [name, "--dim", "x", *valid[2:]]  # not an int
        yield [name, "--dim", "5", *valid[2:]]  # not a choice
        yield [name, *valid, "--bogus"]
        yield [name, *valid, "stray"]
        yield [name, *valid[:2], "--", *valid[2:]]
        yield [name, *valid, "--", "stray"]
        yield [name, *valid[:-2], f"{valid[-2]}={valid[-1]}"]
        yield [name, *(ABBREVIATED.get(token, token) for token in valid)]
        yield ["--dim", "2", name, *valid]  # an option before the command
        yield [name[:3], *valid]  # a prefix of the command
    yield ["audit-basis", *VALID["audit-basis"], "--json", "--csv"]
    yield ["audit-basis", *VALID["audit-basis"], "--json", "--json"]
    yield ["audit-basis", "--dim", "", "--max-degree", "6"]
    yield ["solve", *VALID["solve"], "--dim", "1"]  # a repeated option
    yield ["solve", "--dim", "2", "--mesh", "4", "--deg", "4", "--mes", "8"]
    yield ["certificate", "--dim", "2", "--degree", "4", "--alpha", "-1e-3"]
    for degree in ("3", "4"):  # both regimes
        yield ["solve", "--dim", "2", "--degree", degree, "--mesh", "4", "--alpha", "-1e-3"]
        yield ["convergence", "--dim", "2", "--degree", degree, "--alpha", "-1e-3"]
    yield ["certificate", "--dim", "2", "--degree", "4", "--alpha"]  # no value
    yield []
    yield ["-h"]
    yield ["--help"]
    yield ["no-such-command", "--dim", "2"]


@pytest.mark.parametrize(
    "argv", [*well_formed_cases(), *malformed_cases()], ids=lambda argv: " ".join(argv) or "empty"
)
def test_parsing_matches_the_full_tree(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # for --out
    assert parse_outcome(capsys, argv) == parse_outcome(capsys, argv, tree_parse)


TOKENS = [
    *VALID, "sol", "audit", "-h", "--help", "--", "--dim", "--degree", "--deg", "--max-degree",
    "--max", "--mesh", "--meshes", "--alpha", "--tol", "--json", "--csv", "--out", "--dim=2",
    "--alpha=0.5", "1", "2", "3", "5", "x", "0.1", "-1", "4,8", "--bogus", "stray", "report",
    " 8", "1_0", "\u0663", "nan", "inf", "-1e-3", "",
]
tokens = st.lists(st.sampled_from(TOKENS), max_size=8)
valid_argv = st.sampled_from(sorted(VALID)).flatmap(
    lambda name: st.permutations(list(zip(VALID[name][::2], VALID[name][1::2]))).map(
        lambda pairs: [name, *(token for pair in pairs for token in pair)]
    )
)
argvs = st.one_of(
    tokens,
    st.tuples(st.sampled_from(sorted(VALID)), tokens).map(lambda t: [t[0], *t[1]]),
    st.tuples(valid_argv, st.lists(st.sampled_from(TOKENS), max_size=3)).map(lambda t: t[0] + t[1]),
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # read and reset per example
)
@given(argv=argvs)
def test_parsing_matches_the_full_tree_on_drawn_argv(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # for --out
    assert parse_outcome(capsys, argv) == parse_outcome(capsys, argv, tree_parse)


def test_main_without_argv_parses_sys_argv(capsys, monkeypatch):
    argv = ["solve", *VALID["solve"]]
    monkeypatch.setattr(sys, "argv", ["ctrldisc", *argv])
    assert parse_outcome(capsys, None) == parse_outcome(capsys, None, tree_parse)
    assert parse_outcome(capsys, None)[3] == parse_outcome(capsys, argv)[3]


def count_parsers(monkeypatch):
    """A list to which every `ArgumentParser` built from now on appends its prog."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_a_well_formed_command_builds_no_parser_and_any_other_the_tree(
    capsys, monkeypatch, tmp_path
):
    monkeypatch.chdir(tmp_path)  # for --out
    built = count_parsers(monkeypatch)
    cli.build_parser()
    tree = len(built)
    assert tree == 1 + len(VALID)  # the top level and one subparser per command
    for argv in well_formed_cases():
        built.clear()
        assert parse_outcome(capsys, argv)[0] == 0
        assert built == []
    for argv in malformed_cases():
        built.clear()
        parse_outcome(capsys, argv)
        assert len(built) == tree


def test_the_benchmark_argvs_build_no_parser(capsys, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ is only read
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    built = count_parsers(monkeypatch)
    for template in workloads.WORKLOADS.values():
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            for argv in workloads.op_sequence(template, seed):
                assert parse_outcome(capsys, argv)[0] == 0
                assert built == []
                assert parse_outcome(capsys, argv) == parse_outcome(capsys, argv, tree_parse)
                built.clear()


# The tree written out literally, so that an edit of the option table that
# moves it fails here.  Per command: its help and, per action, (option
# strings, dest, type, nargs, choices, required, default, help, index of its
# mutually exclusive group or None).
HELP_ACTION = (
    ["-h", "--help"], "help", None, 0, None, False, argparse.SUPPRESS,
    "show this help message and exit", None,
)
CERTIFICATE_ACTIONS = [
    HELP_ACTION,
    (["--dim"], "dim", int, None, (1, 2), True, None, None, None),
    (["--degree"], "degree", int, None, None, True, None, None, None),
    (["--alpha"], "alpha", float, None, None, False, 0.1, None, None),
]
TREE = {
    "audit-basis": (
        "sign audit of basis integrals per degree",
        [
            HELP_ACTION,
            (["--dim"], "dim", int, None, (1, 2, 3), True, None, None, None),
            (["--max-degree"], "max_degree", int, None, None, True, None, None, None),
            (["--json"], "json", None, 0, None, False, False, "JSON output (default)", 0),
            (["--csv"], "csv", None, 0, None, False, False, "CSV output", 0),
            (["--out"], "out", str, None, None, False, None, "write report to PATH", None),
        ],
    ),
    "certificate": ("build the negative-direction certificate", CERTIFICATE_ACTIONS),
    "solve": (
        "solve the QP on one mesh",
        [
            *CERTIFICATE_ACTIONS,
            (["--mesh"], "mesh", int, None, None, True, None, None, None),
            (["--tol"], "tol", float, None, None, False, 1e-10, None, None),
        ],
    ),
    "convergence": (
        "solve on a mesh family and classify",
        [
            *CERTIFICATE_ACTIONS,
            (
                ["--meshes"], "meshes", str, None, None, False, "4,8,16", "comma-separated ints",
                None,
            ),
        ],
    ),
}


def test_the_tree_built_from_the_table_holds_the_same_actions():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}

    def group_of(command, action):
        groups = command._mutually_exclusive_groups
        return next((i for i, group in enumerate(groups) if action in group._group_actions), None)

    tree = {
        name: (
            helps[name],
            [
                (
                    a.option_strings, a.dest, a.type, a.nargs, a.choices, a.required, a.default,
                    a.help, group_of(command, a),
                )
                for a in command._actions
            ],
        )
        for name, command in sub.choices.items()
    }
    assert tree == TREE
    assert list(tree) == list(TREE)  # the order `ctrldisc -h` lists them in


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
    # the clean regime: the NoNegativeBasis finding and a study with no certificate
    "certificate_d2_k3": ["certificate", "--dim", "2", "--degree", "3"],
    "convergence_d2_k4_m4_8_16": [
        "convergence", "--dim", "2", "--degree", "4", "--meshes", "4,8,16"
    ],
    "convergence_d1_k7_m2_4": ["convergence", "--dim", "1", "--degree", "7", "--meshes", "2,4"],
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
