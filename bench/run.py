"""Run one ergmax benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload triads-heuristic --seed 1 --seconds 20 --trace 0

The jobs of the workload (see ``workloads.py`` and ``WORKLOADS.md``) run
in this process through ``ergmax.cli.main``, one after another, again and
again until ``--seconds`` have passed; each metric is a median over
those passes.  Every answer is checked outside the timed span.  The
times reported are scaled to one machine speed by a calibration kernel
timed before every job (``calibrate.py``); the measured times are
printed and recorded beside them.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` also makes one traced pass, which wraps the package's
public functions (``tracer.py``), and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record, and
for ``--trace 1`` the spans, are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

# bench/ is on sys.path as the script's directory
import workloads
from calibrate import REFERENCE_S, timed_kernel
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 7
# calibration kernels timed before each job and each set-up repeat
KERNEL_REPEATS = 4


@dataclass
class JobRun:
    """One execution of one job: its timings and what it produced."""

    wall_s: float
    cpu_s: float
    answer: workloads.Answer | None
    error: str | None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_ergmax():
    """Import the package from this checkout's ``src``, freshly."""
    for key in [k for k in sys.modules if k == "ergmax" or k.startswith("ergmax.")]:
        del sys.modules[key]
    cli = importlib.import_module("ergmax.cli")
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "ergmax":
        raise ImportError(f"ergmax was imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    """Import ergmax and build the jobs (inputs and references) several times.

    numpy is imported once beforehand and stays loaded, so every repeat
    costs the same; the calibration kernel is timed before each.
    Returns the median set-up time, the median kernel time and the last
    build.
    """
    import numpy  # noqa: F401

    times, kernel_times = [], []
    for _ in range(SETUP_REPEATS):
        kernel_times.extend(timed_kernel() for _ in range(KERNEL_REPEATS))
        start = time.perf_counter()
        cli = import_ergmax()
        jobs = workloads.build(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return median(times), median(kernel_times), cli, jobs


def run_pass(
    cli,
    jobs: list[workloads.Job],
    tracer: Tracer | None = None,
    kernel_times: list[float] | None = None,
) -> list[JobRun]:
    """Run every job once; read each answer after its timed span.

    With ``kernel_times``, the calibration kernel is timed before each
    job and its times appended there.
    """
    runs = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        if kernel_times is not None:
            kernel_times.extend(timed_kernel() for _ in range(KERNEL_REPEATS))
        out, err = io.StringIO(), io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job.argv)
        except Exception:  # a crash inside the program is a failed job
            rc, err = None, io.StringIO(traceback.format_exc())
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        answer, error = None, None
        if rc != job.expect_rc:
            error = f"exit code {rc}, expected {job.expect_rc}: {err.getvalue().strip()[-500:]}"
        else:
            try:
                answer = job.read(out.getvalue())
            except workloads.JobFailed as exc:
                error = str(exc)
        runs.append(JobRun(wall, cpu, answer, error))
    return runs


def check_passes(jobs: list[workloads.Job], passes: list[list[JobRun]]) -> None:
    """Verify the first pass in full; later passes must reproduce it."""
    for job, first in zip(jobs, passes[0]):
        if first.answer is not None:
            try:
                job.verify(first.answer)
            except workloads.JobFailed as exc:
                first.answer, first.error = None, str(exc)
    for runs in passes[1:]:
        match_first(passes[0], runs)


def match_first(first_pass: list[JobRun], runs: list[JobRun]) -> None:
    """Fail every run whose answer differs from the verified first pass."""
    for first, run in zip(first_pass, runs):
        if run.answer is not None and (first.answer is None or run.answer.key != first.answer.key):
            run.answer, run.error = None, "answer differs from the first pass"


def per_job_median(passes: list[list[JobRun]], attr: str) -> float:
    return sum(median(getattr(p[j], attr) for p in passes) for j in range(len(passes[0])))


def telemetry_rate(jobs, passes, kind: str) -> float:
    """Work per second of one solver, from the untraced reports' telemetry."""
    work, seconds = 0, 0.0
    for j, job in enumerate(jobs):
        if job.kind != kind or passes[0][j].answer is None:
            continue
        work += passes[0][j].answer.telemetry["nodes_explored"]
        seconds += median(
            p[j].answer.telemetry["wall_time_s"] for p in passes if p[j].answer is not None
        )
    return work / seconds if seconds else 0.0


def layer_metrics(tracer: Tracer, jobs, passes, traced: list[JobRun], wall_s: float) -> dict:
    values: dict[str, float] = {}
    for name, (calls, _total, self_s) in tracer.stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for name in ("exact.nodes", "local_search.evaluations", "lp.rows", "lp.variables"):
        values[name] = tracer.work.get(name, 0)
    values["exact.nodes_per_s"] = telemetry_rate(jobs, passes, "bnb")
    values["local_search.restarts"] = values["local_search.first_improve.calls"]
    values["local_search.evals_per_s"] = telemetry_rate(jobs, passes, "local_search")
    values["lp.bytes"] = sum(
        run.answer.record["lp_bytes"] + run.answer.record["ir_bytes"]
        for job, run in zip(jobs, traced)
        if job.kind == "export" and run.answer is not None
    )
    values["trace.overhead_s"] = sum(run.wall_s for run in traced) - wall_s
    return values


def metadata(args: argparse.Namespace, passes: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ergmax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload != "triads-exact",
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def write_records(args, jobs, passes, traced, tracer, measured, end_to_end, metrics) -> list[dict]:
    """Write the run record (and the spans of a traced run) to ``bench/out``."""
    job_records = [
        {
            "argv": job.argv,
            "error": first.error,
            "answer": None if first.answer is None else first.answer.record
            | {"gap": str(first.answer.gap), "ratio": str(first.answer.ratio)},
            "wall_s": [p[j].wall_s for p in passes],
            "cpu_s": [p[j].cpu_s for p in passes],
        }
        for j, (job, first) in enumerate(zip(jobs, passes[0]))
    ]
    meta = metadata(args, len(passes))
    record = {
        "meta": meta,
        "measured": measured,
        "end_to_end": end_to_end,
        "jobs": job_records,
        "failures": [run.error for p in passes + [traced] for run in p if run.error is not None],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"run-{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = {
            "meta": meta,
            "probes": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in tracer.stats.items()
            },
            "work": tracer.work,
            "spans": tracer.span_records(),
        }
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    return job_records


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    tracer = Tracer()
    traced: list[JobRun] = []
    try:
        setup_s, setup_kernel_s, cli, jobs = set_up(args.workload, args.seed, workdir)
        passes: list[list[JobRun]] = []
        kernel_times: list[float] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(cli, jobs, kernel_times=kernel_times))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_passes(jobs, passes)
        if args.trace:
            tracer.install()
            try:
                traced = run_pass(cli, jobs, tracer)
            finally:
                tracer.uninstall()
            match_first(passes[0], traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every_run = [run for p in passes + [traced] for run in p]
    attempted = len(every_run)
    failed = sum(run.error is not None for run in every_run)
    raw_wall_s = per_job_median(passes, "wall_s")
    # the machine's speed over the timed passes, 1.0 at the kernel's REFERENCE_S
    speed = REFERENCE_S / median(kernel_times)
    measured = {
        "wall_s": raw_wall_s,
        "cpu_s": per_job_median(passes, "cpu_s"),
        "setup_s": setup_s,
        "speed": speed,
        "setup_speed": REFERENCE_S / setup_kernel_s,
        "kernel_s": kernel_times,
    }
    ratios = [run.answer.ratio if run.answer else Fraction(0) for run in passes[0]]
    end_to_end = {
        "wall_s": raw_wall_s * speed,
        "cpu_s": measured["cpu_s"] * speed,
        "setup_s": setup_s * measured["setup_speed"],
        "peak_rss_mib": peak_rss_mib,
        "bound_ratio": float(sum(ratios) / len(ratios)),
        "ok_ratio": (attempted - failed) / attempted,
    }
    if args.trace:
        values, chosen = layer_metrics(tracer, jobs, passes, traced, raw_wall_s), config["per_layer"]
    else:
        values, chosen = end_to_end, config["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    records = write_records(args, jobs, passes, traced, tracer, measured, end_to_end, metrics)

    for j, job in enumerate(records):
        answer = job["answer"]
        detail = f"error: {job['error']}" if answer is None else " ".join(
            f"{k}={v}" for k, v in answer.items() if k != "edge_bitset"
        )
        print(f"job {j}: ergmax {' '.join(job['argv'])}\n    {detail}")
    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"{attempted} jobs run, {failed} failed")
    print(f"  measured wall {raw_wall_s:.6g} s, cpu {measured['cpu_s']:.6g} s, "
          f"setup {setup_s:.6g} s at speeds {speed:.4g} and {measured['setup_speed']:.4g}; "
          "times below are at speed 1")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"bench: cannot import the package: {exc}", file=sys.stderr)
        sys.exit(2)
