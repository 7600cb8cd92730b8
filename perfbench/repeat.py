"""Run a workload under seeds 1..N and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--trace 0] [--record]

Each run is `run.py --workload NAME --seed S --seconds T --trace 0|1`, with T
BENCHMARK.json's run_seconds.  For each metric it prints the median and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound in BENCHMARK.json.  --record appends the set (summary and the
machine it ran on) to perfbench/baseline.json; once a workload has two sets
there, it also records how far the second set's medians moved from the
first's, against each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def machine() -> dict:
    import numpy

    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev,
            "loadavg_at_start": list(os.getloadavg())}


def agreement(first: dict, second: dict, metrics: dict) -> dict:
    """Relative change of each bounded metric's median from first to second."""
    out = {}
    for name, m in metrics.items():
        if name not in first or "bound" not in m:
            continue
        a, b = first[name]["median"], second[name]["median"]
        change = (b - a) / a
        worse = change if m["better"] == "lower" else -change
        out[name] = {"first": a, "second": b, "change": change, "bound": m["bound"],
                     "within": abs(change) <= m["bound"]}
        print(f"{name:36s} first {a:>12.6g} second {b:>12.6g} change {change:+.4f} "
              f"(worse by {max(worse, 0):.4f}) bound {m['bound']} "
              f"{'ok' if out[name]['within'] else 'OUTSIDE'}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    host = machine()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"median": statistics.median(values),
                         "unit": runs[0]["metrics"][name]["unit"]}
        if len(values) >= 2:
            summary[name]["spread"] = spread(values)
        bound = metrics[name].get("bound")
        line = f"{name:36s} median {summary[name]['median']:>14.6g} {summary[name]['unit']:6s}"
        if "spread" in summary[name]:
            line += f" spread {summary[name]['spread']:.4f}"
        if bound is not None:
            line += f" bound {bound} ({'ok' if summary[name].get('spread', 0) < bound / 3 else 'WIDE'})"
        print(line)
    all_correct = all(r["correct"] for r in runs)
    print(f"all correct: {all_correct}")
    if args.record:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        entry = baseline.setdefault(f"{args.workload} trace={args.trace}", {
            "workload": args.workload, "trace": args.trace, "seconds": seconds,
            "seeds": list(range(1, args.runs + 1)), "sets": []})
        entry["sets"].append({"machine": host, "all_correct": all_correct,
                              "summary": summary})
        if len(entry["sets"]) >= 2:
            entry["agreement"] = agreement(entry["sets"][0]["summary"],
                                           entry["sets"][1]["summary"], metrics)
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
