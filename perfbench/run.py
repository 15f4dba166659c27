"""ctrldisc benchmark: run one workload, check every output, print the metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload counterexample-qp --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up (median of fresh
imports), op latency mean, median, fastest and tail, throughput, failed
fraction and peak memory of the worker.  A reference probe (probe.py) runs
between the ops, and ``op_norm_s`` is the mean op time divided by the run's
slowdown against the reference machine, as the probe measures it; that
cancels most of what other tenants of a shared host do to the op times.
``--trace 1`` runs the cycle's first op alternately untraced and traced and
reports the per-layer metrics of the traced runs (see tracer.py).  Every
op's output is checked by an oracle (oracles.py) and ops with the same argv
must print byte-identical reports.

The program under test is the ``ctrldisc`` package in ``src/`` next to this
directory; it runs in a fresh worker process (worker.py) with BLAS/OpenMP
pinned to one thread.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``record``, holds the seed, every op's argv and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracles import check
from probe import PROBES
from worker import IMPORT_PROBES
from tracer import LAYER_METRICS
from workloads import DEFAULT_SEED, HELD_OUT_SEED, PROBE, WORKLOADS, op_sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_IMPORTS = 8
# share of the slowest ops and probes left out of their means: single ops
# stretched by a burst of interference
TRIM = 0.1
TAIL_SAMPLES_BEYOND = 10
DEADLINE_SECONDS = 170  # the whole run must end within 180 s
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("setup_raw_s", "s"),
    ("op_norm_s", "s"),
    ("op_mean_s", "s"),
    ("op_p50_s", "s"),
    ("op_min_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("slowdown", "x"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
# The metrics in the machine-readable result, which BENCHMARK.json bounds.
# On a shared machine other tenants slow every op by up to 2x, in periods
# from milliseconds to minutes, so any raw op time (median, fastest, tail or
# throughput) moved by 16-40 % between runs.  The probes slow down with the
# ops, and the mean op time divided by the slowdown they measure stays
# steady (NOTES.md).  failed_frac is 0 on a healthy run and is carried as
# `failed`/`attempted`.
REPORTED_END_TO_END = (("setup_s", "s"), ("op_norm_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = LAYER_METRICS + (("trace.overhead_s", "s"),)


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job: dict, deadline: float) -> dict:
    job = {"src": str(SRC), **job}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=worker_env(),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"worker ({job['mode']}) timed out") from err
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker ({job['mode']}) exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout)


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def check_records(workload: str, ops: list, records: list) -> list[dict]:
    """Oracle-check every op; an op whose argv repeats must repeat its report."""
    failures = []
    first_output: dict[int, str] = {}
    for n, rec in enumerate(records):
        argv = ops[rec["op"]]
        why = rec["error"] or check(workload, argv, rec["code"], rec["stdout"])
        if why is None:
            expected = first_output.setdefault(rec["op"], rec["stdout"])
            if rec["stdout"] != expected:
                why = "report differs from an earlier op with the same argv"
        if why is not None:
            failures.append({"op": n, "argv": argv, "why": why.strip().splitlines()[-1]})
    return failures


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the slowest TRIM share of them."""
    ordered = sorted(values)
    return statistics.fmean(ordered[: len(ordered) - int(TRIM * len(ordered))])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_SAMPLES_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples the
    maximum is returned and the percentile is 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_SAMPLES_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_SAMPLES_BEYOND


@dataclass
class Measurement:
    values: dict[str, float]
    notes: dict[str, str]  # how each value was obtained, for the readable report
    records: list[dict]
    environment: dict
    failures: list[dict]
    attempted: int  # ops run and checked, the warm-up op included
    consistent: bool = True  # per-layer counts repeated across traced runs
    extra: dict = field(default_factory=dict)  # goes into the `record` line


def import_times(count: int, probe: str, deadline: float) -> list[dict]:
    return [run_worker({"mode": "import", "probe": probe}, deadline) for _ in range(count)]


def end_to_end(args, ops, deadline) -> Measurement:
    # half the fresh imports run before the loop and half after it, so the
    # median samples the machine over the whole run, not one moment of it
    probe = PROBE[args.workload]
    imports = import_times(SETUP_IMPORTS // 2, probe, deadline)
    job = {"mode": "loop", "ops": ops, "seconds": args.seconds, "probe": probe}
    result = run_worker(job, deadline)
    imports += import_times(SETUP_IMPORTS - SETUP_IMPORTS // 2, probe, deadline)
    setup = [i["import_seconds"] for i in imports]
    reference = PROBES[probe][1]
    # each import at the reference machine's speed, as the probe measured it
    # in the same process right after the import
    setup_normed = [i["import_seconds"] * reference / trimmed_mean(i["probe_seconds"])
                    for i in imports]
    records = result["records"]
    failures = check_records(args.workload, ops, [result["warmup"]] + records)
    times = [r["seconds"] for r in records]
    probes = result["probe_seconds"]
    op_mean, probe_mean = trimmed_mean(times), trimmed_mean(probes)
    # how much slower than the reference machine this run's machine was
    factor = probe_mean / reference
    tail_value, tail_pct, tail_beyond = tail(times)
    n = len(records)
    return Measurement(
        values={
            "setup_s": statistics.median(setup_normed),
            "setup_raw_s": statistics.median(setup),
            "op_norm_s": op_mean / factor,
            "op_mean_s": op_mean,
            "op_p50_s": statistics.median(times),
            "op_min_s": min(times),
            "op_tail_s": tail_value,
            "ops_per_s": n / result["elapsed"],
            "slowdown": factor,
            "failed_frac": len(failures) / (n + 1),
            "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6,
        },
        notes={
            "setup_s": f"median of {SETUP_IMPORTS} fresh imports, each divided by the slowdown "
                       f"that {IMPORT_PROBES} '{probe}' probes measured right after it",
            "setup_raw_s": f"median of {SETUP_IMPORTS} fresh imports, before and after the loop",
            "op_norm_s": "op_mean_s / slowdown",
            "op_mean_s": f"mean of {n} ops, {TRIM:.0%} slowest left out",
            "op_p50_s": f"median of {n} ops",
            "op_min_s": f"fastest of {n} ops",
            "op_tail_s": f"p{tail_pct:.1f}, {tail_beyond} of {n} samples beyond",
            "ops_per_s": f"{n} ops in {result['elapsed']:.3f} s with the probes, closed loop, "
                         "1 client",
            "slowdown": f"mean of {len(probes)} '{probe}' probes, {TRIM:.0%} slowest left "
                        f"out, over their {PROBES[probe][1]:g} s on the reference machine",
            "failed_frac": f"{len(failures)} of {n + 1}, the warm-up op included",
            "peak_rss_mb": "worker process",
        },
        records=records,
        environment=result["environment"],
        failures=failures,
        attempted=n + 1,
        extra={"setup_samples_s": setup, "probe_samples_s": probes,
               "setup_probe_samples_s": [i["probe_seconds"] for i in imports],
               "warmup_op_s": result["warmup"]["seconds"], "tail_percentile": tail_pct,
               "tail_samples_beyond": tail_beyond},
    )


def per_layer(args, ops, deadline) -> Measurement:
    result = run_worker({"mode": "trace", "ops": ops, "seconds": args.seconds}, deadline)
    records = result["records"]
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    values, notes = {}, {}
    consistent = True
    for name, unit in LAYER_METRICS:
        samples = [r["layers"][name] for r in traced]
        if unit == "count":
            distinct = sorted(set(samples))
            consistent &= len(distinct) == 1
            values[name] = samples[0]
            notes[name] = "per op" if len(distinct) == 1 else f"varies: {distinct}"
        else:
            values[name] = statistics.median(samples)
            notes[name] = f"median of {len(samples)} traced ops"
    traced_s = statistics.median(r["seconds"] for r in traced)
    values["trace.overhead_s"] = traced_s - statistics.median(r["seconds"] for r in untraced)
    notes["trace.overhead_s"] = f"traced minus untraced median, {len(traced)} pairs"
    return Measurement(
        values=values,
        notes=notes,
        records=records,
        environment=result["environment"],
        failures=check_records(args.workload, ops, records),
        attempted=len(records),
        consistent=consistent,
        extra={"traced_op_s": traced_s},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; confirm claims on {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_SECONDS
    template = WORKLOADS[args.workload]
    ops = op_sequence(template, args.seed)
    if args.trace:
        measure, shown, reported = per_layer, PER_LAYER, PER_LAYER
    else:
        measure, shown, reported = end_to_end, END_TO_END, REPORTED_END_TO_END
    try:
        m = measure(args, ops, deadline)
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    op_argv = [ops[r["op"]] for r in m.records]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"ops {len(m.records)} seconds {args.seconds:g}")
    for name, unit in shown:
        print(f"  {name:<30} {m.values[name]:<24.10g} {unit:<6} ({m.notes[name]})")
    for fail in m.failures:
        print(f"  FAILED op {fail['op']} {' '.join(fail['argv'])}: {fail['why']}")
    if not m.consistent:
        print("  FAILED per-layer counts differ between traced runs of the same op")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "alphas": sorted({argv[argv.index("--alpha") + 1] for argv in op_argv}, key=float)
        if "--alpha" in template else [],
        "op_argv": op_argv,
        "op_seconds": [r["seconds"] for r in m.records],
        "failures": m.failures,
        "counts_repeat": m.consistent,
        "environment": {**m.environment, **source_identity()},
        "values": m.values,
        **m.extra,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not m.failures and m.consistent,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {name: {"value": m.values[name], "unit": unit} for name, unit in reported},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
