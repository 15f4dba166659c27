"""Command-line interface: basis audits, certificates, solves, convergence studies.

All reports are machine-readable, and their format is stated here alone: the
exact and float layers return records, which each command turns into its
report.  JSON is the default; floats are serialized with fixed
17-significant-digit formatting so identical invocations produce
byte-identical output.  Exit codes: 0 success, 2 usage error, 3 numerical
failure.  The clean regime, where no reference basis integral is negative,
is decided exactly: `certificate` reports it as a `NoNegativeBasis` finding
(`build_certificate` returns None), and `solve` and `convergence`, after
`ocp`'s own input rules, report lambda = 0, J = |Omega| = 1 and zeros, the
discrete optimum on every mesh (see `ocp.solve_qp`).  So `audit-basis`,
`certificate` and a clean-regime `solve` or `convergence` run on the exact
layer alone and load no numpy.
"""

import argparse
import math
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii

from . import ocp  # loaded on first use: only a negative-regime solve or study loads numpy
from .exactbasis import (DEFAULT_QP_TOL, SOLVE_DIMENSIONS, SUPPORTED_DIMENSIONS, _check_config,
                         _check_meshes, audit_degrees, build_certificate, lagrange_basis)

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


def _audit_report(report) -> dict:
    """The audit JSON of an `exactbasis.AuditReport`: integrals as "numerator/denominator"."""
    # Each integral object is formatted once.  The basis functions of one
    # permutation orbit share one Fraction (`lagrange_basis`), and every
    # object stays alive in report.records, so its id is a safe key.
    text = {}
    for r in report.records:
        for v in r.integrals:
            if id(v) not in text:
                text[id(v)] = f"{v.numerator}/{v.denominator}"
    return {
        "dimension": report.dim,
        "records": [
            {
                "k": r.degree,
                "integrals": [text[id(v)] for v in r.integrals],
                "all_nonnegative": r.all_nonnegative,
                "negative_indices": list(r.negative_indices),
            }
            for r in report.records
        ],
    }


def _certificate_fields(cert) -> dict:
    """The certificate's invariants, as both the certificate and the study report give them."""
    return {"beta": cert.beta, "M2": cert.m_squared, "t_hat": cert.step, "delta": cert.margin}


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


# One row per option of a command, in the order its help lists them.  type
# None is a store-true flag; default is the value of an absent option, as
# parsed; exclusive marks the --json/--csv mutually exclusive group.
_Option = namedtuple(
    "_Option",
    "flag type choices default required help exclusive",
    defaults=(None, None, None, False, None, False),
)

_CERTIFICATE_OPTIONS = (
    _Option("--dim", int, SOLVE_DIMENSIONS, required=True),
    _Option("--degree", int, required=True),
    _Option("--alpha", float, default=0.1),
)

# name -> (help, options), in the order `ctrldisc -h` lists the commands
_COMMANDS = {
    "audit-basis": (
        "sign audit of basis integrals per degree",
        (
            _Option("--dim", int, SUPPORTED_DIMENSIONS, required=True),
            _Option("--max-degree", int, required=True),
            _Option("--json", default=False, help="JSON output (default)", exclusive=True),
            _Option("--csv", default=False, help="CSV output", exclusive=True),
            _Option("--out", str, help="write report to PATH"),
        ),
    ),
    "certificate": ("build the negative-direction certificate", _CERTIFICATE_OPTIONS),
    "solve": (
        "solve the QP on one mesh",
        (
            *_CERTIFICATE_OPTIONS,
            _Option("--mesh", int, required=True),
            _Option("--tol", float, default=DEFAULT_QP_TOL),
        ),
    ),
    "convergence": (
        "solve on a mesh family and classify",
        (
            *_CERTIFICATE_OPTIONS,
            _Option("--meshes", str, default="4,8,16", help="comma-separated ints"),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, one subparser per command, built from `_COMMANDS`.

    It parses every command line that `parse_args` does not parse itself,
    and its usage, help and error messages are the CLI's.
    """
    parser = argparse.ArgumentParser(
        prog="ctrldisc",
        description=(
            "Audit simplicial Lagrange basis integral signs and solve the "
            "coefficient-constrained model control problem."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        group = None
        for opt in options:
            if opt.exclusive:
                group = group or command.add_mutually_exclusive_group()
            if opt.type is None:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"type": opt.type, "choices": opt.choices, "required": opt.required}
            target = group if opt.exclusive else command
            target.add_argument(opt.flag, default=opt.default, help=opt.help, **kwargs)
    return parser


def _parse_well_formed(name: str, tokens: list) -> argparse.Namespace | None:
    """The tree's namespace for a well-formed `[name, *tokens]` (see `parse_args`), else None."""
    options = _COMMANDS[name][1]
    by_flag = {opt.flag: opt for opt in options}
    given = {}
    tokens = iter(tokens)
    for flag in tokens:
        opt = by_flag.get(flag)
        if opt is None or flag in given:
            return None
        if opt.type is None:
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value reads as an option
        if value.startswith("-"):
            return None
        try:
            value = opt.type(value)
        except (TypeError, ValueError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        given[flag] = value
    if sum(by_flag[flag].exclusive for flag in given) > 1:
        return None
    args = argparse.Namespace(command=name)
    for opt in options:
        if opt.flag not in given and opt.required:
            return None
        setattr(args, opt.flag[2:].replace("-", "_"), given.get(opt.flag, opt.default))
    return args


def parse_args(argv=None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, without building a parser for a well-formed argv.

    A command followed by its own full option names, each once with a valid
    value, the required ones present and at most one of --json/--csv, is
    parsed here from `_COMMANDS`.  Anything else (help, errors,
    abbreviations, `--opt=value`, `--`, values that start with "-",
    repeated options) goes to the full tree, so every usage, help and error
    message is the tree's.  argv None means sys.argv[1:].  Raises SystemExit
    as argparse does.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args = _parse_well_formed(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def _cmd_audit(args) -> str:
    report = _audit_report(audit_degrees(args.dim, args.max_degree))
    return _audit_csv(report) if args.csv else dumps(report)


def _cmd_certificate(args) -> str:
    cert = build_certificate(args.dim, args.degree, args.alpha)
    if cert is None:  # the clean regime: a documented finding, not a failure
        payload = {
            "error": "NoNegativeBasis",
            "dim": args.dim,
            "degree": args.degree,
            "message": (
                f"all reference basis integrals are non-negative for d={args.dim}, "
                f"k={args.degree}; discrete optima converge to the feasible optimum"
            ),
        }
        return dumps(payload)
    payload = {
        "dim": cert.dim,
        "degree": cert.degree,
        "alpha": cert.alpha,
        "negative_local_indices": list(cert.ref_negative_indices),
        **_certificate_fields(cert),
        "L_n": cert.beta,  # ||y(w)||: y(w) is the constant -beta on every mesh
        "objective_bound": cert.objective_bound,
        "measured_objective": cert.measured_objective,
    }
    return dumps(payload)


def _solve_report(
    config, objective, iterations, kkt_residual, control_norm, min_cell_avg, neg_part_norm
) -> str:
    """The solve report; config is the checked (dim, degree, n, alpha, qp_tol)."""
    dim, degree, n, alpha, tol = config
    payload = {
        "config": {"dim": dim, "degree": degree, "alpha": alpha, "mesh": n, "tol": tol},
        "J": objective,
        "iterations": iterations,
        "kkt_residual": kkt_residual,
        "control_norm": control_norm,
        "min_cell_avg": min_cell_avg,
        "neg_part_norm": neg_part_norm,
    }
    return dumps(payload)


def _cmd_solve(args) -> str:
    config = _check_config(args.dim, args.degree, args.mesh, args.alpha, args.tol)
    if not lagrange_basis(*config[:2]).negative_indices:
        # the clean regime: lambda = 0, y = 0 and J = |Omega| = 1 on every mesh
        return _solve_report(config, 1.0, 0, 0.0, 0.0, 0.0, 0.0)
    disc = ocp.Discretization(ocp.OcpConfig(*config))
    solution = ocp.solve_qp(disc)
    audit = ocp.feasibility_audit(disc, solution.control)
    # np.linalg.norm of a real vector is sqrt(u.dot(u)), bit for bit
    control_norm = math.sqrt(solution.control.dot(solution.control))
    return _solve_report(config, solution.objective, solution.iterations, solution.kkt_residual,
                         control_norm, audit.min_cell_average, audit.negative_part_norm)


def _study_report(config, regime, cert, runs) -> str:
    """The study report; config as for `_solve_report`, runs (n, J, min avg, neg norm, iters)."""
    dim, degree, _, alpha, tol = config
    payload = {
        "config": {"dim": dim, "degree": degree, "alpha": alpha, "tol": tol},
        "regime": regime,
        "certificate": None if cert is None else _certificate_fields(cert),
        "runs": [
            {"n": n, "J": j, "min_cell_avg": average, "neg_part_norm": norm, "iters": iterations}
            for n, j, average, norm, iterations in runs
        ],
    }
    return dumps(payload)


def _cmd_convergence(args) -> str:
    try:
        meshes = [int(tok) for tok in args.meshes.split(",") if tok.strip()]
    except ValueError as err:
        raise ValueError(f"--meshes must be comma-separated integers: {err}") from err
    if not meshes:
        raise ValueError(f"--meshes must be comma-separated integers, got {args.meshes!r}")
    # the smallest mesh parameter first: a bad one is named as the study would name it
    config = _check_config(args.dim, args.degree, min(meshes), args.alpha, DEFAULT_QP_TOL)
    ns = _check_meshes(meshes)
    if not lagrange_basis(*config[:2]).negative_indices:
        # the clean regime: no certificate, and every mesh's optimum is lambda = 0
        return _study_report(config, "FEASIBLE_LIMIT", None, [(n, 1.0, 0.0, 0.0, 0) for n in ns])
    study = ocp.convergence_study(ocp.OcpConfig(*config), ns)
    runs = [(r.n, r.objective, r.min_cell_average, r.negative_part_norm, r.iterations)
            for r in study.runs]
    return _study_report(config, study.regime, study.certificate, runs)


def main(argv=None) -> int:
    """Run one command and print or write its report; the exit code is chosen here alone."""
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
        text = handlers[args.command](args)
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
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
