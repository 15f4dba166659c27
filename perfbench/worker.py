"""Benchmark worker: one fresh process that imports ``ctrldisc`` and runs ops.

Reads a JSON job from stdin and writes one JSON result to stdout.  Modes:

* ``import``: import ``ctrldisc``, report how long that took, then run the
  job's reference probe (probe.py) ``IMPORT_PROBES`` times.
* ``loop``: closed loop, one client.  After one untimed warm-up op, runs the
  op cycle in order until the measured time is used up (always at least one
  op); each op is one ``ctrldisc.cli.main(argv)`` call with stdout captured,
  preceded by ``PROBES_PER_OP`` runs of the job's reference probe
  (probe.py).
* ``trace``: alternates an untraced and a traced run of the cycle's first op
  until the time is used up (always at least one pair).

Every op first clears the ``lagrange_basis`` memo, because every real CLI
invocation is a fresh process that builds its bases again.  Garbage left by
one op is collected before the next op's timer starts.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

PROBES_PER_OP = 6  # runs of the job's reference probe (probe.py) before each timed op
IMPORT_PROBES = 10  # runs of the probe after a timed import


def _import_ctrldisc(src: str) -> float:
    """Import the package under test from `src` and return how long that took."""
    sys.path.insert(0, src)
    start = perf_counter()
    import ctrldisc

    seconds = perf_counter() - start
    where = Path(ctrldisc.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"ctrldisc was imported from {where}, not from {src}")
    return seconds


def _run_op(cli, clear_memo, argv):
    clear_memo()
    gc.collect()
    buf = io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # an op that crashes is a failed op, not a failed run
        code = -1
        error = traceback.format_exc()
    seconds = perf_counter() - start
    return {"code": code, "stdout": buf.getvalue(), "seconds": seconds, "error": error}


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    job = json.load(sys.stdin)
    result = {"import_seconds": _import_ctrldisc(job["src"])}
    if job["mode"] == "import":
        from probe import run_probe  # the script's own directory is on sys.path

        # the machine's speed right after the import, on warm probe code
        for _ in range(2):
            run_probe(job["probe"])
        result["probe_seconds"] = [run_probe(job["probe"]) for _ in range(IMPORT_PROBES)]
        json.dump(result, sys.stdout)
        return 0

    from ctrldisc import cli, exactbasis

    clear_memo = exactbasis.lagrange_basis.cache_clear
    ops, seconds = job["ops"], job["seconds"]
    gc.collect()
    gc.freeze()  # import-time objects are never garbage; keep them out of every collection
    records, probes = [], []
    start = perf_counter()
    if job["mode"] == "loop":
        from probe import run_probe  # the script's own directory is on sys.path

        name = job["probe"]
        # one untimed op and probe first, so the timed ones run on warm code paths
        warmup = _run_op(cli, clear_memo, ops[0])
        run_probe(name)
        start = perf_counter()
        while not records or perf_counter() - start < seconds:
            index = len(records) % len(ops)
            probes.extend(run_probe(name) for _ in range(PROBES_PER_OP))
            records.append({"op": index, **_run_op(cli, clear_memo, ops[index])})
        result["warmup"] = {"op": 0, **warmup}
    elif job["mode"] == "trace":
        from tracer import Tracer, traced  # the script's own directory is on sys.path

        while not records or perf_counter() - start < seconds:
            records.append({"op": 0, "traced": False, **_run_op(cli, clear_memo, ops[0])})
            tracer = Tracer()
            with traced(tracer):
                rec = _run_op(cli, clear_memo, ops[0])
            records.append({"op": 0, "traced": True, "layers": tracer.metrics(), **rec})
    else:
        raise SystemExit(f"unknown mode {job['mode']!r}")
    result.update(
        records=records,
        probe_seconds=probes,
        elapsed=perf_counter() - start,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        environment=_environment(),
    )
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
