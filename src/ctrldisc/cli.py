"""Command-line interface: basis audits, certificates, solves, convergence studies.

All reports are machine-readable.  JSON is the default; floats are serialized
with fixed 17-significant-digit formatting so identical invocations produce
byte-identical output.  Exit codes: 0 success, 2 usage error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .exactbasis import audit_degrees
from .ocp import (
    Discretization,
    NoNegativeBasisError,
    OcpConfig,
    QpConvergenceError,
    build_certificate,
    convergence_study,
    feasibility_audit,
    solve_qp,
)

__all__ = ["dumps", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in report")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        inner = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return _render(obj, 0)


def _audit_csv(report_dict: dict) -> str:
    lines = ["k,all_nonnegative,negative_indices,integrals"]
    for rec in report_dict["records"]:
        lines.append(
            "{},{},{},{}".format(
                rec["k"],
                "true" if rec["all_nonnegative"] else "false",
                ";".join(str(i) for i in rec["negative_indices"]),
                ";".join(rec["integrals"]),
            )
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrldisc",
        description=(
            "Audit simplicial Lagrange basis integral signs and solve the "
            "coefficient-constrained model control problem."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit-basis", help="sign audit of basis integrals per degree")
    audit.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    audit.add_argument("--max-degree", type=int, required=True)
    fmt = audit.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    audit.add_argument("--out", type=str, default=None, help="write report to PATH")

    cert = sub.add_parser("certificate", help="build the negative-direction certificate")
    cert.add_argument("--dim", type=int, choices=(1, 2), required=True)
    cert.add_argument("--degree", type=int, required=True)
    cert.add_argument("--alpha", type=float, default=0.1)

    solve = sub.add_parser("solve", help="solve the QP on one mesh")
    solve.add_argument("--dim", type=int, choices=(1, 2), required=True)
    solve.add_argument("--degree", type=int, required=True)
    solve.add_argument("--alpha", type=float, default=0.1)
    solve.add_argument("--mesh", type=int, required=True)
    solve.add_argument("--tol", type=float, default=1e-10)

    conv = sub.add_parser("convergence", help="solve on a mesh family and classify")
    conv.add_argument("--dim", type=int, choices=(1, 2), required=True)
    conv.add_argument("--degree", type=int, required=True)
    conv.add_argument("--alpha", type=float, default=0.1)
    conv.add_argument("--meshes", type=str, default="4,8,16", help="comma-separated ints")

    return parser


# Mesh used by `certificate` for the measured quantities (the certified
# numbers beta, M2, t_hat, delta are mesh-independent).
CERTIFICATE_MESH = 4


def _cmd_audit(args) -> tuple[int, str]:
    if args.max_degree < 1:
        raise ValueError("--max-degree must be >= 1")
    report = audit_degrees(args.dim, args.max_degree).to_json_dict()
    text = _audit_csv(report) if args.csv else dumps(report)
    return EXIT_OK, text


def _cmd_certificate(args) -> tuple[int, str]:
    config = OcpConfig(dim=args.dim, degree=args.degree, n=CERTIFICATE_MESH, alpha=args.alpha)
    try:
        cert = build_certificate(config)
    except NoNegativeBasisError as err:
        payload = {
            "error": "NoNegativeBasis",
            "dim": err.dim,
            "degree": err.degree,
            "message": str(err),
        }
        return EXIT_OK, dumps(payload)  # documented success-with-finding
    payload = {
        "dim": cert.config.dim,
        "degree": cert.config.degree,
        "alpha": cert.config.alpha,
        "n": cert.config.n,
        "negative_local_indices": list(cert.ref_negative_indices),
        "beta": cert.beta,
        "M2": cert.m_squared,
        "t_hat": cert.step,
        "delta": cert.margin,
        "L_n": cert.state_norm,
        "objective_bound": cert.objective_bound,
        "measured_objective": cert.measured_objective,
    }
    return EXIT_OK, dumps(payload)


def _cmd_solve(args) -> tuple[int, str]:
    config = OcpConfig(
        dim=args.dim, degree=args.degree, n=args.mesh, alpha=args.alpha, qp_tol=args.tol
    )
    disc = Discretization(config)
    solution = solve_qp(disc)
    audit = feasibility_audit(disc, solution.control)
    payload = {
        "config": {
            "dim": config.dim,
            "degree": config.degree,
            "alpha": config.alpha,
            "mesh": config.n,
            "tol": config.qp_tol,
        },
        "J": solution.objective,
        "iterations": solution.iterations,
        "kkt_residual": solution.kkt_residual,
        "control_norm": float(np.linalg.norm(solution.control)),
        "min_cell_avg": audit.min_cell_average,
        "neg_part_norm": audit.negative_part_norm,
    }
    return EXIT_OK, dumps(payload)


def _cmd_convergence(args) -> tuple[int, str]:
    try:
        meshes = [int(tok) for tok in args.meshes.split(",") if tok.strip()]
    except ValueError as err:
        raise ValueError(f"--meshes must be comma-separated integers: {err}") from err
    if not meshes:
        raise ValueError(f"--meshes must be comma-separated integers, got {args.meshes!r}")
    config = OcpConfig(dim=args.dim, degree=args.degree, n=max(meshes), alpha=args.alpha)
    study = convergence_study(config, meshes)
    return EXIT_OK, dumps(study.to_json_dict())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    handlers = {
        "audit-basis": _cmd_audit,
        "certificate": _cmd_certificate,
        "solve": _cmd_solve,
        "convergence": _cmd_convergence,
    }
    try:
        code, text = handlers[args.command](args)
    except ValueError as err:
        sys.stdout.write(dumps({"error": "usage", "message": str(err)}) + "\n")
        return EXIT_USAGE
    except QpConvergenceError as err:
        sys.stdout.write(dumps({"error": type(err).__name__, "message": str(err)}) + "\n")
        return EXIT_NUMERICAL

    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as err:
            message = f"--out {out_path}: cannot write report: {err.strerror}"
            sys.stdout.write(dumps({"error": "usage", "message": message}) + "\n")
            return EXIT_USAGE
    else:
        sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
