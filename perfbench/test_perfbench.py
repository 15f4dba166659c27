"""Tests of the benchmark itself: smoke runs, oracles, tracing, seeded inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from oracles import check  # noqa: E402
from run import END_TO_END, PER_LAYER, REPORTED_END_TO_END, tail, trimmed_mean  # noqa: E402
from tracer import LAYER_METRICS, Tracer, traced  # noqa: E402
from probe import PROBES  # noqa: E402
from workloads import ALPHA_HIGH, ALPHA_LOW, PROBE, WORKLOADS, op_sequence  # noqa: E402

import ctrldisc  # noqa: E402
from ctrldisc import cli, exactbasis, fem, mesh, ocp  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )

# taken before any tracing replaces the module attribute
clear_memo = exactbasis.lagrange_basis.cache_clear


def run_op(argv) -> tuple[int, str]:
    clear_memo()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def outputs():
    """One real report per workload, from its seed-1 first op."""
    out = {}
    for name, workload in WORKLOADS.items():
        argv = op_sequence(workload, 1)[0]
        code, stdout = run_op(argv)
        out[name] = (argv, code, stdout)
    return out


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = dict(PER_LAYER if trace == "1" else REPORTED_END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    shown = dict(PER_LAYER if trace == "1" else END_TO_END)
    for name, unit in shown.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), name
    record = json.loads(lines[-2].removeprefix("record "))
    assert record["seed"] == 1
    assert record["op_argv"][0] == op_sequence(WORKLOADS[workload], 1)[0]
    assert {"python", "numpy", "scipy", "nproc", "src_sha256"} <= set(record["environment"])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(REPORTED_END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact-audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_oracles_accept_real_reports(outputs):
    for name, (argv, code, stdout) in outputs.items():
        assert check(name, argv, code, stdout) is None, name


def _mutated(stdout: str, edit) -> str:
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report)


def _set(key, value):
    def edit(report):
        report[key] = value
    return edit


SOLVE_FAKES = {
    "counterexample-qp": [
        _set("J", 0.99),  # above 1 - beta^2 / ((1 + alpha) M^2)
        _set("min_cell_avg", 0.0),
        _set("kkt_residual", 1e-6),
        lambda r: r["config"].update(alpha=0.2),
    ],
    "feasible-assembly": [
        _set("J", 1.0 - 1e-9),
        _set("iterations", 1),
        _set("min_cell_avg", -1e-3),
        lambda r: r["config"].update(mesh=32),
    ],
}


@pytest.mark.parametrize("name", sorted(SOLVE_FAKES))
def test_solve_oracles_reject_fabricated_reports(outputs, name):
    argv, code, stdout = outputs[name]
    assert check(name, argv, 3, stdout) is not None
    assert check(name, argv, code, "not json") is not None
    for edit in SOLVE_FAKES[name]:
        assert check(name, argv, code, _mutated(stdout, edit)) is not None


def _vertex_off(report):
    # a k=2 vertex integral moved off -1/120, an edge one moved so the sum holds
    integrals = report["records"][1]["integrals"]
    integrals[0], integrals[1] = "-1/60", "1/24"


def _sum_off(report):
    report["records"][1]["integrals"][4] = "1/31"


def _flags_off(report):
    report["records"][1].update(all_nonnegative=True, negative_indices=[])


AUDIT_FAKES = [
    _vertex_off,
    _sum_off,
    _flags_off,
    lambda report: report["records"].pop(),
    lambda report: report.update(dimension=2),
]


def test_audit_oracle_rejects_fabricated_reports(outputs):
    argv, code, stdout = outputs["exact-audit"]
    for edit in AUDIT_FAKES:
        assert check("exact-audit", argv, code, _mutated(stdout, edit)) is not None


def test_audit_oracle_rejects_wrong_nonnegative_degrees(outputs):
    # degree 2 with every integral set to 1/60 except one fixing the sum:
    # non-negative, so the degrees would read (1, 2, 3)
    argv, code, stdout = outputs["exact-audit"]

    def edit(report):
        rec = report["records"][1]
        n = len(rec["integrals"])
        rec["integrals"] = ["1/60"] * (n - 1) + [str(Fraction(1, 6) - Fraction(n - 1, 60))]
        rec["all_nonnegative"], rec["negative_indices"] = True, []

    assert check("exact-audit", argv, code, _mutated(stdout, edit)) is not None


def test_traced_run_is_transparent_and_counts_repeat(outputs):
    for name, (argv, code, stdout) in outputs.items():
        layers = []
        for _ in range(2):
            tracer = Tracer()
            with traced(tracer):
                assert run_op(argv) == (code, stdout), name
            layers.append(tracer.metrics())
        counts = [{k: m[k] for k, unit in LAYER_METRICS if unit == "count"} for m in layers]
        assert counts[0] == counts[1], name
    assert fem.cg_solve is ocp.cg_solve and mesh.cell_affine_map is ocp.cell_affine_map
    assert ocp.Discretization.__init__.__module__ == "ctrldisc.ocp"
    assert exactbasis.lagrange_basis is ctrldisc.lagrange_basis


def test_trace_attributes_the_counterexample_layers(outputs):
    argv, _, _ = outputs["counterexample-qp"]
    tracer = Tracer()
    with traced(tracer):
        run_op(argv)
    m = tracer.metrics()
    assert m["ocp.qp_iterations"] == 2861
    assert m["exactbasis.bases_built"] == 1 and m["exactbasis.basis_functions"] == 15
    # one affine map per cell in abs_dets, stiffness/mass, coupling and control mass
    assert m["mesh.affine_map_calls"] == 4 * 2 * 8 * 8
    # g0, the power iteration, then the QP's initial check, iterations and restarts
    qp_evals = 1 + 2861 + m["ocp.qp_restarts"]
    assert m["ocp.gradient_evals"] == 1 + m["ocp.power_gradient_evals"] + qp_evals
    assert all(m[k] > 0 for k, unit in LAYER_METRICS if unit == "s")


def test_tail_keeps_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 21)]) == (10.0, 50.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_trimmed_mean_leaves_out_the_slowest_tenth():
    assert trimmed_mean([float(i) for i in range(1, 11)]) == 5.0
    assert trimmed_mean([2.0, 4.0]) == 3.0


def test_every_workload_has_a_probe():
    assert set(PROBE) == set(WORKLOADS) and set(PROBE.values()) <= set(PROBES)


def test_probe_does_not_load_the_program():
    # a change to ctrldisc must not be able to change the reference probe
    code = ("import sys, probe; [probe.run_probe(name) for name in probe.PROBES]; "
            "print('ctrldisc' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=HERE, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_inputs_are_seeded_and_in_range():
    feasible = WORKLOADS["feasible-assembly"]
    assert op_sequence(feasible, 5) == op_sequence(feasible, 5)
    assert op_sequence(feasible, 5) != op_sequence(feasible, 6)
    alphas = [float(op[-1]) for op in op_sequence(feasible, 5)]
    assert all(ALPHA_LOW <= a <= ALPHA_HIGH for a in alphas)
    assert len(set(alphas)) == len(alphas)
    # any power-of-two prefix puts one alpha in each of that many log-equal strata
    width = (ALPHA_HIGH / ALPHA_LOW) ** (1 / 8)
    strata = sorted(int(math.log(a / ALPHA_LOW) / math.log(width)) for a in alphas[:8])
    assert strata == list(range(8))
    for name in ("counterexample-qp", "exact-audit"):
        assert op_sequence(WORKLOADS[name], 5) == op_sequence(WORKLOADS[name], 6)
