"""bellcert benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload seesaw --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run (untraced passes first, as the base of the tracing overhead).
Full results, and with ``--trace 1`` the spans, go to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9

if not (SRC / "bellcert" / "__init__.py").is_file():
    sys.stderr.write(f"bellcert sources not found under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bellcert  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class Clock:
    """Accumulates the time spent inside ``with clock:`` blocks of one job."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.elapsed = 0.0

    def __enter__(self) -> "Clock":
        if self.tracer is not None:
            self.tracer.active = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.elapsed += end - self._start
        if self.tracer is not None:
            self.tracer.active = False
            self.tracer.segment(self._start, end)


def run_job(job, tracer: Tracer | None) -> dict:
    """Run and check one job; a failed check or an exception fails it."""
    clock = Clock(tracer)
    start = time.perf_counter()
    try:
        answer = job.run(clock)
        errors = job.check(answer)
    except Exception:  # the run goes on and reports the job as failed
        errors = ["raised:\n" + traceback.format_exc()]
    for error in errors:
        sys.stderr.write(f"FAIL {job.label}: {error}\n")
    return {
        "job": job.label,
        "latency_s": clock.elapsed,
        "elapsed_s": time.perf_counter() - start,
        "ok": not errors,
    }


def measure(jobs, seconds: float, min_reps: int, between=lambda: None) -> list[list[dict]]:
    """Untraced passes over the job list, each job within its share of ``seconds``.

    Every job gets ``seconds / len(jobs)``.  A job stays in the next pass
    while it has had fewer than ``min_reps`` runs or its next run is expected
    to fit in its share, so short jobs are repeated many times, spread over
    the run, and a job longer than its share runs ``min_reps`` times.
    ``between`` is called after every pass.
    """
    share = seconds / len(jobs)
    spent = {job.label: 0.0 for job in jobs}
    reps = {job.label: 0 for job in jobs}
    passes = []
    while True:
        todo = [
            job for job in jobs
            if reps[job.label] < min_reps
            or spent[job.label] * (reps[job.label] + 1) / reps[job.label] <= share
        ]
        if not todo:
            return passes
        records = [run_job(job, None) for job in todo]
        for r in records:
            spent[r["job"]] += r["elapsed_s"]
            reps[r["job"]] += 1
        passes.append(records)
        between()


def measure_traced(jobs, seconds: float, tracer: Tracer) -> list[list[dict]]:
    """Whole traced passes (at least one) while the next is expected to fit."""
    passes = []
    start = time.perf_counter()
    while True:
        records = []
        for job in jobs:
            tracer.job = len(tracer.job_labels)
            tracer.job_labels[tracer.job] = job.label
            records.append(run_job(job, tracer))
        passes.append(records)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def job_latencies(records) -> dict[str, float]:
    """Each job's fastest repetition in the run.

    Other load on the host only ever adds time, and on a shared machine it
    comes and goes over seconds, so the fastest repetition is the steadiest
    estimate of what a job costs.
    """
    fastest: dict[str, float] = {}
    for r in records:
        fastest[r["job"]] = min(fastest.get(r["job"], math.inf), r["latency_s"])
    return fastest


def list_wall(passes) -> float:
    """Wall time of the job list, each job at its fastest repetition."""
    return sum(job_latencies([r for p in passes for r in p]).values())


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the job tail.

    The tail is the highest percentile with at least 10 jobs beyond it; with
    fewer than 20 jobs in the list there is none above the median, and the
    slowest job (the 100th percentile) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    pct = 100.0 * (1 - 10 / n)
    cuts = statistics.quantiles(ordered, n=1000, method="inclusive")
    return cuts[round(pct * 10) - 1], pct


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the figures reported beside them."""
    records = [r for p in passes for r in p]
    fastest = job_latencies(records)
    latencies = list(fastest.values())
    wall = sum(latencies)
    tail, pct = tail_latency(latencies)
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (len(latencies) * (1 - failed / len(records)) / wall, "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {
        "fail_frac": failed / len(records),
        "passes": len(passes),
        "jobs": len(records),
        "repetitions": {job: sum(r["job"] == job for r in records) for job in fastest},
        "job_tail_percentile": pct,
        "job_samples": len(latencies),
    }
    return metrics, extra


CONSTRUCTORS = [
    "chsh", "tilted_chsh", "chained_modular", "chained_correlator", "mermin",
    "lifted_chsh_c", "from_correlator_terms",
]


def per_layer(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer times (seconds per traced pass) and counts from the spans."""
    a = tracer.analysis()
    n = len(traced)
    optimize_s = a.group_time(["optimize_violation"]) / n
    half_steps = a.count("half_steps") / n
    restarts = a.count("restarts") / n
    find_s = a.group_time(["find_symmetries"]) / n
    candidates = a.count("candidates") / n
    local_bound_s = a.group_time(["local_bound"]) / n
    strategies = a.count("strategies") / n
    unattributed, busy = a.unattributed()
    bench_bell = sum(
        a.own(s) for s in a.spans if s.name == "bell_operator" and s.parent is None
    )
    demo_s = {f"cli.demo_s.{name}": 0.0 for name in workloads.DEMO_NAMES}
    for s in a.spans:
        if s.name == "main" and s.layer == "cli" and s.parent is None:
            demo_s[f"cli.demo_s.{tracer.job_labels[s.job]}"] += (s.end - s.start) / n

    def ratio(x, y):
        return x / y if y else 0.0

    metrics = {
        "quantum.optimize_s": (optimize_s, "s"),
        "quantum.s_per_half_step": (ratio(optimize_s, half_steps), "s"),
        "quantum.bell_operator_s": (bench_bell / n, "s"),
        "quantum.born_s": (a.group_time(["behavior_from_model"]) / n, "s"),
        "quantum.self_s": (a.layer_self("quantum") / n, "s"),
        "quantum.restarts": (restarts, "count"),
        "quantum.half_steps": (half_steps, "count"),
        "quantum.best_restart_ratio": (ratio(a.count("best_restarts") / n, restarts), "ratio"),
        "quantum.worst_dip": (max([0.0, *(s.counts.get("worst_dip", 0.0) for s in a.spans)]), "value"),
        "symmetry.find_s": (find_s, "s"),
        "symmetry.candidates": (candidates, "count"),
        "symmetry.hits": (a.count("hits") / n, "count"),
        "symmetry.hit_ratio": (ratio(a.count("hits") / n, candidates), "ratio"),
        "symmetry.candidates_per_s": (ratio(candidates, find_s), "1/s"),
        "symmetry.certify_s": (a.group_time(["certify_all", "certify_uniform"]) / n, "s"),
        "symmetry.generators_in": (a.count("generators_in") / n, "count"),
        "symmetry.generators_kept": (a.count("generators_kept") / n, "count"),
        "symmetry.orbits": (a.count("orbits") / n, "count"),
        "symmetry.orbit_check_s": (a.group_time(["orbit_equality_violation"]) / n, "s"),
        "symmetry.self_s": (a.layer_self("symmetry") / n, "s"),
        "functionals.construct_s": (a.group_time(CONSTRUCTORS) / n, "s"),
        "functionals.local_bound_s": (local_bound_s, "s"),
        "functionals.strategies": (strategies, "count"),
        "functionals.strategies_per_s": (ratio(strategies, local_bound_s), "1/s"),
        "functionals.serialize_s": (
            a.group_time(["functional_to_dict", "functional_from_dict"]) / n, "s"
        ),
        "functionals.self_s": (a.layer_self("functionals") / n, "s"),
        "randomness.report_s": (a.layer_self("randomness") / n, "s"),
        **{name: (value, "s") for name, value in demo_s.items()},
        "cli.emit_s": (a.group_time(["json.dumps"]) / n, "s"),
        "cli.output_bytes": (a.count("output_bytes") / n, "bytes"),
        "cli.self_s": (a.layer_self("cli") / n, "s"),
        "trace.overhead_frac": (list_wall(traced) / list_wall(untraced) - 1, "ratio"),
        "trace.unattributed_frac": (ratio(unattributed, busy), "ratio"),
        "trace.spans": (len(a.spans) / n, "count"),
    }
    return metrics


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "openblas_threads": openblas_threads(),
    }


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_probe(workload: str, seed: int) -> float:
    """Time from spawning a fresh interpreter to its job list being ready."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    jobs = workloads.make_jobs(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if not Path(bellcert.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"bellcert was imported from {bellcert.__file__}, not {SRC}\n")
        return 2

    min_reps = 2 if args.workload == "demos" else 1  # demos compare two calls
    if args.trace:
        untraced = measure(jobs, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure_traced(jobs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        setup = []
        _, extra = end_to_end(passes, float("nan"))
    else:
        # set-ups run between passes, so they sample the host at different times
        setup = []

        def probe_if_due():
            if len(setup) < SETUP_PROBES:
                setup.append(setup_probe(args.workload, args.seed))

        passes = measure(jobs, args.seconds, min_reps, probe_if_due)
        while len(setup) < SETUP_PROBES:
            probe_if_due()
        metrics, extra = end_to_end(passes, statistics.median(setup))

    records = [r for p in passes for r in p]
    failed = sum(not r["ok"] for r in records)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"spans-{stem}.json")
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(), "setup_s_samples": setup, **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": passes,
    }, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {extra['passes']}  jobs {extra['jobs']}  fail_frac {extra['fail_frac']} "
          f"(ratio)  p50 and tail (p{extra['job_tail_percentile']:g}) over "
          f"{extra['job_samples']} jobs, each at its fastest repetition")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
