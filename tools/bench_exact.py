"""Exact-layer timings of two checkouts of ctrldisc, interleaved, as one JSON file.

    python tools/bench_exact.py PARENT_SRC CHANGE_SRC > BENCH_<n>.json

PARENT_SRC and CHANGE_SRC are the ``src`` directories of the two checkouts
(for example one made with ``git archive <commit> | tar -x -C DIR``).  Each
of ROUNDS rounds runs one worker process per checkout, and the rounds
alternate which checkout runs first, so slow drift of the machine hits both
alike.  A worker imports ``ctrldisc`` from its ``src`` with one BLAS thread
and times every case in process: one untimed warm-up, then up to REPEATS
timed runs (fewer once a case has used its time budget), each after
``lagrange_basis.cache_clear()`` so that no memo survives from the run
before.  A Gram case builds the basis untimed and times one
``gram(spec, spec)``; a CLI case times one ``cli.main(argv)`` with stdout
captured.  Each worker reports the best time of every case, one per round;
the file gives, per case and checkout, the best over all rounds and the
quartiles of the rounds' bests, so a reader can see whether a row moved by
more than the spread between rounds.

The change's worker also times VARIANTS, each a design choice of the
exact layer undone, beside the case it would replace: the d = 1 Gram by
orbits (``_gram_by_orbits`` alone, without the sum check and the memo, so a
lower bound of that route), and CLI runs without the Gram memo.

Then every FRESH_CASES command runs as a CLI process of its own, ``python -m
ctrldisc.cli ARGS`` with the checkout's ``src`` on PYTHONPATH and one BLAS
thread: what a user pays, imports included.  Each of FRESH_ROUNDS rounds runs
every command once per checkout, alternating which checkout goes first, after
one untimed process per command and checkout (which also writes the bytecode
caches).  The file gives, per command and checkout, the median, quartiles and
fastest of the wall times from spawn to exit, and the median and quartiles of
each child's peak resident set size (``ru_maxrss`` from ``os.wait4``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

GRAM_CASES = [(1, 8), (1, 10), (2, 4), (2, 8), (2, 14), (3, 2), (3, 6)]
CLI_CASES = [
    "solve --dim 2 --degree 4 --mesh 8",
    "solve --dim 1 --degree 10 --mesh 256",
    "solve --dim 2 --degree 8 --mesh 4",
    "convergence --dim 2 --degree 4 --meshes 4,8,16",
    "certificate --dim 2 --degree 4",
    "audit-basis --dim 3 --max-degree 6",
    "audit-basis --dim 3 --max-degree 10",
    "audit-basis --dim 2 --max-degree 14",
]
# (case as built, the same work with one choice undone)
VARIANTS = [
    ("gram d=1 k=8", "gram d=1 k=8 by orbits"),
    ("gram d=1 k=10", "gram d=1 k=10 by orbits"),
    (CLI_CASES[0], f"{CLI_CASES[0]} without the Gram memo"),
    (CLI_CASES[3], f"{CLI_CASES[3]} without the Gram memo"),
    (CLI_CASES[4], f"{CLI_CASES[4]} without the Gram memo"),
]
ROUNDS = 10
REPEATS = 100
BUDGET_S = 2.0  # per case and worker; every case still gets 3 timed runs
FRESH_CASES = [
    "solve --dim 2 --degree 4 --mesh 8",
    "solve --dim 1 --degree 10 --mesh 256",
    "convergence --dim 2 --degree 4 --meshes 4,8,16",
    "certificate --dim 2 --degree 4",
    "audit-basis --dim 3 --max-degree 6",
]
FRESH_ROUNDS = 11


def _best(run) -> float:
    run()
    times: list[float] = []
    while len(times) < REPEATS and (len(times) < 3 or sum(times) < BUDGET_S):
        times.append(run())
    return min(times)


def worker(src: str, variants: bool) -> dict:
    sys.path.insert(0, src)
    from ctrldisc import cli, exactbasis
    from ctrldisc.exactbasis import LagrangeBasisSpec, gram, lagrange_basis

    def gram_run(d, k, route=gram):
        def run():
            lagrange_basis.cache_clear()
            spec = lagrange_basis(d, k)
            start = perf_counter()
            route(spec, spec)
            return perf_counter() - start

        return run

    def cli_run(argv):
        def run():
            lagrange_basis.cache_clear()
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            return perf_counter() - start

        return run

    out = {f"gram d={d} k={k}": _best(gram_run(d, k)) for d, k in GRAM_CASES}
    out.update({command: _best(cli_run(command.split())) for command in CLI_CASES})
    if variants:
        orbits = exactbasis._gram_by_orbits
        for k in (8, 10):
            out[f"gram d=1 k={k} by orbits"] = _best(gram_run(1, k, orbits))
        LagrangeBasisSpec._grams = property(lambda spec: {})  # a fresh memo per gram call
        for command in (CLI_CASES[0], CLI_CASES[3], CLI_CASES[4]):
            out[f"{command} without the Gram memo"] = _best(cli_run(command.split()))
    return out


def fresh_process(src: str, command: str, env: dict) -> tuple[float, float]:
    """Wall time (s) and peak RSS (MiB) of one CLI process running `command` from `src`."""
    env = dict(env, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-m", "ctrldisc.cli", *command.split()]
    start = perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, argv)
    return elapsed, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def fresh_rounds(sides, env: dict) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """FRESH_ROUNDS interleaved rounds of every FRESH_CASES process per checkout."""
    for _, src, _ in sides:
        for command in FRESH_CASES:
            fresh_process(src, command, env)  # untimed: bytecode caches, file cache
    runs: dict[str, dict[str, list[tuple[float, float]]]] = {"parent": {}, "change": {}}
    for round_ in range(FRESH_ROUNDS):
        for command in FRESH_CASES:
            for label, src, _ in sides if round_ % 2 == 0 else sides[::-1]:
                runs[label].setdefault(command, []).append(fresh_process(src, command, env))
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", nargs="?")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--variants", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(worker(args.worker, args.variants), sys.stdout)
        return 0
    if not (args.parent_src and args.change_src):
        parser.error("PARENT_SRC and CHANGE_SRC are required")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rounds: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    sides = [("parent", args.parent_src, []), ("change", args.change_src, ["--variants"])]
    for round_ in range(ROUNDS):
        for label, src, flags in sides if round_ % 2 == 0 else sides[::-1]:
            argv = [sys.executable, __file__, "--worker", os.path.abspath(src), *flags]
            done = subprocess.run(argv, env=env, check=True, capture_output=True)
            times = json.loads(done.stdout)
            for case, seconds in times.items():
                rounds[label].setdefault(case, []).append(seconds)

    fresh = fresh_rounds(sides, env)

    import numpy

    def ms(seconds):
        return round(seconds * 1e3, 3)

    def fresh_row(label, command):
        times, rss = zip(*fresh[label][command])
        return {
            f"{label}_median_ms": ms(statistics.median(times)),
            f"{label}_quartiles_ms": [ms(q) for q in statistics.quantiles(times, n=4)],
            f"{label}_fastest_ms": ms(min(times)),
            f"{label}_maxrss_median_mib": round(statistics.median(rss), 1),
            f"{label}_maxrss_quartiles_mib": [
                round(q, 1) for q in statistics.quantiles(rss, n=4)
            ],
        }

    def quartiles(label, case):
        return [ms(q) for q in statistics.quantiles(rounds[label][case], n=4)]

    cases = [f"gram d={d} k={k}" for d, k in GRAM_CASES] + CLI_CASES
    best = {label: {case: min(t) for case, t in times.items()} for label, times in rounds.items()}
    change = best["change"]
    report = {
        "command": " ".join(["python", "tools/bench_exact.py", *sys.argv[1:]]),
        "method": (
            f"{ROUNDS} rounds of one worker process per checkout, alternating which "
            f"runs first; in process, one BLAS thread, best of up to {REPEATS} runs "
            f"per round (at least 3, {BUDGET_S} s budget per case), lagrange_basis "
            "memo cleared before every run; *_ms is the best over all rounds, "
            "*_quartiles_ms the quartiles of the rounds' bests"
        ),
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "unit": "ms",
        "results": [
            {
                "case": case,
                "parent_ms": ms(best["parent"][case]),
                "change_ms": ms(change[case]),
                "speedup": round(best["parent"][case] / change[case], 2),
                "parent_quartiles_ms": quartiles("parent", case),
                "change_quartiles_ms": quartiles("change", case),
                "median_speedup": round(
                    statistics.median(rounds["parent"][case])
                    / statistics.median(rounds["change"][case]),
                    2,
                ),
            }
            for case in cases
        ],
        "variants": [
            {
                "case": case,
                "change_ms": ms(change[case]),
                "variant": variant,
                "variant_ms": ms(change[variant]),
                "change_quartiles_ms": quartiles("change", case),
                "variant_quartiles_ms": quartiles("change", variant),
            }
            for case, variant in VARIANTS
        ],
        "fresh_process": {
            "method": (
                f"{FRESH_ROUNDS} rounds of one `python -m ctrldisc.cli` process per "
                "command and checkout, alternating which checkout runs first, after one "
                "untimed process each; one BLAS thread; wall time from spawn to exit, "
                "peak RSS of the child from os.wait4"
            ),
            "results": [
                {"case": command, **fresh_row("parent", command), **fresh_row("change", command)}
                for command in FRESH_CASES
            ],
        },
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
