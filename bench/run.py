"""Benchmark of graphfields: one workload per process, from the repository root.

    python3 bench/run.py --workload bouquet-exact --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Every run also
writes its raw samples to ``bench/results/``; a traced run writes the
per-layer numbers and the tracing overhead there too.

A run does a fixed number of rounds, round(seconds / nominal round time),
each calling every operation once in the same order, so a slow phase of the
machine hits every metric alike. ``setup_s`` is the median over fresh
processes, each importing the package and building the workload's inputs,
started between rounds.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

BLAS_THREADS = "1"
SETUP_PROCESSES = 4
MIN_ROUNDS = 3
# a run stops after the round that passes this multiple of its planned
# measuring time, so a much slower machine cannot stretch it far beyond it
MEASURE_CAP = 1.4
WORKLOAD_NAMES = ("bouquet-exact", "fig8-spectral", "small-batch")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_program():
    """Import graphfields from this checkout's src/, nowhere else."""
    if not (SRC / "graphfields" / "__init__.py").is_file():
        sys.exit(f"error: no graphfields sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphfields

    if Path(graphfields.__file__).resolve().parent != SRC / "graphfields":
        sys.exit(f"error: imported graphfields from {graphfields.__file__}")


def setup_once(args) -> None:
    """Child process: import, build the workload, report the elapsed time."""
    import_program()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))


def setup_process(args) -> float:
    """Set-up time of one fresh process; the call waits for it to end."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"error: set-up process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(workload, rounds: int, cap_s: float, tracer, before_round):
    """Round-robin over the operations; tracer (if any) on odd rounds.

    ``before_round(r)`` runs untimed ahead of round r.
    """
    ops = workload.ops()
    samples = {metric: [] for metric, _ in ops}
    traced = {metric: [] for metric, _ in ops}
    attempted = failed = 0
    began = time.perf_counter()
    done = 0
    for r in range(rounds):
        before_round(r)
        on = tracer is not None and r % 2 == 1
        if on:
            tracer.install()
        try:
            for metric, op in ops:
                attempted += 1
                start = time.perf_counter()
                try:
                    result = op(r)
                except Exception:  # an operation that fails is counted, not fatal
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                (traced if on else samples)[metric].append(time.perf_counter() - start)
                workload.keep(metric, result)
        finally:
            if on:
                tracer.remove()
        done += 1
        if done < rounds and time.perf_counter() - began > cap_s:
            print(f"warning: stopped after {done} of {rounds} rounds", file=sys.stderr)
            break
    return samples, traced, attempted, failed, done


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.setup_only:
        setup_once(args)
        return 0
    import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    rounds = max(MIN_ROUNDS, round(args.seconds / cls.nominal_round_s))
    # set-up processes are spread over the run like the operations, so a
    # slow phase of the machine does not land on set-up alone
    setup_samples = []
    setup_before = [] if args.trace else [i * rounds // SETUP_PROCESSES
                                          for i in range(SETUP_PROCESSES)]

    def before_round(r):
        setup_samples.extend(setup_process(args) for _ in range(setup_before.count(r)))

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload = cls(args.seed)
    finally:
        if tracer:
            tracer.remove()
    samples, traced, attempted, failed, done = run_rounds(
        workload, rounds, MEASURE_CAP * rounds * cls.nominal_round_s, tracer, before_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    checks = workload.check()
    check_s = time.perf_counter() - check_start
    for msg in checks.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not checks.failures

    if any(not v for v in samples.values()):
        sys.exit("error: an operation never completed")
    medians = {m: statistics.median(v) for m, v in samples.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": done, "blas_threads": BLAS_THREADS, "cpus": os.cpu_count(),
        "setup_samples_s": setup_samples, "samples_s": samples,
        "checks_passed": checks.passed, "check_failures": checks.failures,
        "check_s": check_s, "wall_s": time.perf_counter() - STARTED,
    }
    RESULTS.mkdir(exist_ok=True)
    if tracer:
        layers = tracer.per_layer()
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        overhead = {
            m: statistics.median(traced[m]) - medians[m] for m in medians if traced[m]
        }
        record.update(traced_samples_s=traced, traced_rounds=done // 2,
                      tracing_overhead_s=overhead, per_layer=metrics)
        out = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"}}
        metrics.update({m: {"value": v, "unit": "s"} for m, v in medians.items()})
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
        out = RESULTS / f"{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
