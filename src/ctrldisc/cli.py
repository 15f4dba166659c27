"""Command-line interface: basis audits, certificates, solves, convergence studies.

All reports are machine-readable.  JSON is the default; floats are serialized
with fixed 17-significant-digit formatting so identical invocations produce
byte-identical output.  Exit codes: 0 success, 2 usage error, 3 numerical
failure.
"""

import argparse
import math
import sys
from json.encoder import encode_basestring_ascii

from . import ocp  # loaded on first use: an audit loads no numpy
from .exactbasis import audit_degrees

__all__ = ["dumps", "main", "parse_args"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    numpy integers, floats and arrays are written as their Python values.  A
    process that has not loaded numpy holds none, so numpy is not loaded here.
    """
    np = sys.modules.get("numpy")
    if np is None:
        ints, floats, sequences = int, float, (list, tuple)
    else:
        ints, floats, sequences = (int, np.integer), (float, np.floating), (list, tuple, np.ndarray)

    def render(obj, indent: int) -> str:
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)  # what json.dumps does with a str
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, ints):
            return str(int(obj))
        if isinstance(obj, floats):
            value = float(obj)
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r} in report")
            return format(value, ".17g")
        if isinstance(obj, dict):
            brackets = "{}"
            items = [
                f"{encode_basestring_ascii(str(k))}: {render(v, indent + 1)}"
                for k, v in obj.items()
            ]
        elif isinstance(obj, sequences):
            brackets = "[]"
            items = [render(v, indent + 1) for v in obj]
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        if not items:
            return brackets
        pad = "\n" + "  " * indent
        return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]

    return render(obj, 0)


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


def _audit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    parser.add_argument("--max-degree", type=int, required=True)
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    parser.add_argument("--out", type=str, default=None, help="write report to PATH")


def _certificate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, choices=(1, 2), required=True)
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--alpha", type=float, default=0.1)


def _solve_arguments(parser: argparse.ArgumentParser) -> None:
    _certificate_arguments(parser)
    parser.add_argument("--mesh", type=int, required=True)
    parser.add_argument("--tol", type=float, default=1e-10)


def _convergence_arguments(parser: argparse.ArgumentParser) -> None:
    _certificate_arguments(parser)
    parser.add_argument("--meshes", type=str, default="4,8,16", help="comma-separated ints")


# name -> (help, add_arguments), in the order `ctrldisc -h` lists the commands
_COMMANDS = {
    "audit-basis": ("sign audit of basis integrals per degree", _audit_arguments),
    "certificate": ("build the negative-direction certificate", _certificate_arguments),
    "solve": ("solve the QP on one mesh", _solve_arguments),
    "convergence": ("solve on a mesh family and classify", _convergence_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="ctrldisc",
        description=(
            "Audit simplicial Lagrange basis integral signs and solve the "
            "coefficient-constrained model control problem."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, building only the parser of the command it runs.

    When argv names a command, that command's parser alone parses the rest,
    as its subparser in the full tree would.  Empty argv, top-level help, an
    unknown command, or arguments the command's parser does not recognize go
    to the full tree, so that its usage, help and error messages come out
    unchanged.  argv None means sys.argv[1:].  Raises SystemExit as argparse
    does.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        _, add_arguments = _COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"ctrldisc {name}")
        add_arguments(parser)
        args, unrecognized = parser.parse_known_args(argv[1:])
        if not unrecognized:
            args.command = name
            return args
    return build_parser().parse_args(argv)


def _cmd_audit(args) -> tuple[int, str]:
    if args.max_degree < 1:
        raise ValueError("--max-degree must be >= 1")
    report = audit_degrees(args.dim, args.max_degree).to_json_dict()
    text = _audit_csv(report) if args.csv else dumps(report)
    return EXIT_OK, text


def _cmd_certificate(args) -> tuple[int, str]:
    # the certificate reads no mesh; OcpConfig validates dim, degree and alpha
    config = ocp.OcpConfig(dim=args.dim, degree=args.degree, n=1, alpha=args.alpha)
    try:
        cert = ocp.build_certificate(config)
    except ocp.NoNegativeBasisError as err:
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
        "negative_local_indices": list(cert.ref_negative_indices),
        **cert.to_json_dict(),
        "L_n": cert.beta,  # ||y(w)||: y(w) is the constant -beta on every mesh
        "objective_bound": cert.objective_bound,
        "measured_objective": cert.measured_objective,
    }
    return EXIT_OK, dumps(payload)


def _cmd_solve(args) -> tuple[int, str]:
    config = ocp.OcpConfig(
        dim=args.dim, degree=args.degree, n=args.mesh, alpha=args.alpha, qp_tol=args.tol
    )
    disc = ocp.Discretization(config)
    solution = ocp.solve_qp(disc)
    audit = ocp.feasibility_audit(disc, solution.control)
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
        # np.linalg.norm of a real vector is sqrt(u.dot(u)), bit for bit
        "control_norm": math.sqrt(solution.control.dot(solution.control)),
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
    config = ocp.OcpConfig(dim=args.dim, degree=args.degree, n=max(meshes), alpha=args.alpha)
    study = ocp.convergence_study(config, meshes)
    return EXIT_OK, dumps(study.to_json_dict())


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
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
    except ImportError:
        # a float layer that cannot load (no numpy) must not be looked at
        # again by the clause below, which would mask this error
        raise
    except ocp.QpConvergenceError as err:
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
