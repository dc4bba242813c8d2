"""Paired A/B runs of the benchmark: a base revision against the working tree.

    python tools/ab.py --seeds 401-410 [--workloads fig8-spectral,...] [--base HEAD]
                       [--seconds 30] > ab.json

The base revision's committed files are extracted with ``git archive`` into
a temporary directory, which is removed when the tool ends, however it
ends; nothing is written into the repository's ``.git``. For each seed one
``bench/run.py --trace 0`` run is made on each side, each side running its
own ``bench/run.py``, one process at a time: the base first on odd pairs
(the 1st, 3rd, ...), the working tree first on even ones.

Per workload and end-to-end metric of ``BENCHMARK.json`` the report gives
both medians, the relative change of the medians, the pairs the working
tree won (ties count for neither side), the base's quartiles
(``statistics.quantiles``, n=4) and their distance, and a verdict:

- ``gain``: the working tree won at least nine tenths of the pairs, and
  its median beats the base's by more than the base's quartile distance;
- ``worse``: its median is worse than the base's by more than the metric's
  bound;
- ``unresolved``: neither, and the base's quartile distance, as a share of
  its median, exceeds the bound, and not every working-tree run beats
  every base run;
- ``within bound``: otherwise.

The JSON report goes to standard output, one line per finished run and a
table per workload to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from spread import seed_list  # noqa: E402  (seeds as "1-10", "3,5" or "1-4,9")

#: seconds one ``bench/run.py`` may take before the tool gives up on it
RUN_TIMEOUT = 900


def base_first(pair: int) -> bool:
    """Whether the base runs first in the 1-based ``pair``: on odd pairs."""
    return pair % 2 == 1


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Paired statistics of one metric: ``base[i]`` and ``change[i]`` are the
    two sides of pair i, ``better`` is "lower" or "higher" and ``bound`` the
    largest relative worsening that is not a regression."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need two or more pairs, with both sides of each")
    # signed so that lower is better on both kinds of metric
    sign = 1.0 if better == "lower" else -1.0
    base_med, change_med = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    gaps = [sign * (c - b) for b, c in zip(base, change)]
    wins, losses = sum(g < 0 for g in gaps), sum(g > 0 for g in gaps)
    relative = change_med / base_med - 1.0
    every_run_better = max(sign * c for c in change) < min(sign * b for b in base)
    if 10 * wins >= 9 * len(gaps) and sign * (base_med - change_med) > spread:
        verdict = "gain"
    elif sign * relative > bound:
        verdict = "worse"
    elif spread > bound * abs(base_med) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base_median": base_med, "change_median": change_med, "relative_change": relative,
            "pairs": len(gaps), "change_wins": wins, "base_wins": losses,
            "base_quartiles": [q1, q3], "base_quartile_spread": spread, "bound": bound,
            "verdict": verdict}


@contextlib.contextmanager
def base_tree(rev: str):
    """A temporary directory holding the committed files of ``rev``; it is
    removed on leaving the block, however the block ends."""
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield Path(tmp)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one ``bench/run.py`` run in ``tree``; the call waits
    for the run to end."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric of ``spec`` (``BENCHMARK.json``), ``compare`` over
    ``runs``, each {"base": result line, "change": result line}."""
    out = {}
    for m in spec["end_to_end"]:
        base = [r["base"]["metrics"][m["name"]]["value"] for r in runs]
        change = [r["change"]["metrics"][m["name"]]["value"] for r in runs]
        out[m["name"]] = compare(base, change, m["better"], m["bound"])
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--base", default="HEAD")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("--seeds must name two or more seeds")
    rev = subprocess.run(["git", "rev-parse", "--verify", args.base + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    report = {"base": rev, "command": spec["command"], "seconds": args.seconds,
              "cpus": os.cpu_count(), "python": sys.version.split()[0], "workloads": {}}
    with base_tree(rev) as base:
        for workload in args.workloads.split(","):
            runs = []
            for pair, seed in enumerate(args.seeds, 1):
                sides = [("base", base), ("change", ROOT)]
                if not base_first(pair):
                    sides.reverse()
                run = {"seed": seed, "first": sides[0][0]}
                for name, tree in sides:
                    run[name] = run_once(tree, workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {name}: correct {run[name]['correct']}",
                          file=sys.stderr)
                runs.append(run)
            summary = summarize(runs, spec)
            report["workloads"][workload] = {
                "all_correct": all(r[s]["correct"] for r in runs for s in ("base", "change")),
                "failed": {s: sum(r[s]["failed"] for r in runs) for s in ("base", "change")},
                "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in ("base", "change")},
                "summary": summary,
                "runs": runs,
            }
            for name, s in summary.items():
                print(f"{workload:14s} {name:13s} base {s['base_median']:10.4g}  change "
                      f"{s['change_median']:10.4g}  {s['relative_change']:+7.1%}  wins "
                      f"{s['change_wins']}/{s['pairs']}  spread {s['base_quartile_spread']:.3g}  "
                      f"{s['verdict']}", file=sys.stderr)
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
