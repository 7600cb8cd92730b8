"""robertson-kit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds.

Run from the root of a checkout.  The program is imported from ./src, never
from an installed copy.  With --trace 0 the run repeats passes of the
workload until S seconds of passes are measured and reports the end-to-end
metrics; with --trace 1 it makes the workload's fixed number of passes, each
once untraced and once traced on the same inputs, and reports the per-layer
metrics.  Every output goes through the workload's correctness gate.  The
last line of standard output is the JSON result; the summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
WARMUP_S = 2.0

# workload and metric names, units and the run length come from BENCHMARK.json
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in BENCH["workloads"])
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def load_workloads():
    """Import the benchmark's workloads against the checkout's own source."""
    if not (SRC / "robertson_kit" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'robertson_kit'}")
    # single-threaded, which is the program's default
    os.environ.pop("ROBERTSON_KIT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import robertson_kit
    import workloads

    if Path(robertson_kit.__file__).resolve().parent != SRC / "robertson_kit":
        raise SystemExit(f"error: robertson_kit imported from {robertson_kit.__file__}")
    return workloads


def setup_probe(name: str, seed: int) -> None:
    """Child process: time import plus input generation, print the seconds."""
    t0 = time.perf_counter()
    wl = load_workloads().WORKLOADS[name]()
    wl.make_inputs(seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


def warm_up(seconds: float = WARMUP_S) -> None:
    """Keep the core busy before timing.

    On the 2-core machine the benchmark was built on, the first second or
    two of work after idling ran up to 40% slower, whatever the work was.
    """
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sum(i * i for i in range(10_000))


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, wl, items) -> None:
        for item, why in zip(items, wl.gate(items)):
            self.attempted += 1
            if why:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{item.name}: {'; '.join(why)}")


def run_untraced(wl, inputs, seconds: float, tally: Tally) -> dict:
    walls, cpus, item_s = [], [], []
    warm_up()
    for pass_input in wl.passes(inputs):
        if sum(walls) >= seconds:
            break
        w0, c0 = time.perf_counter(), time.process_time()
        items = wl.run_pass(pass_input)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        item_s.extend(wl.item_seconds(items, walls[-1]))
        tally.add(wl, items)
    if not walls:
        raise SystemExit("error: the workload has no inputs")
    ms = [1e3 * s for s in item_s]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "item_ms.p50": statistics.median(ms),
        "item_ms.p90": _p90(ms),
        "items_per_s": len(item_s) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "_passes": len(walls),
        "_items": len(item_s),
    }


def run_traced(wl, seed: int, tally: Tally, warmup_s: float = WARMUP_S) -> dict:
    import tracing

    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.span("bench.setup"):
        inputs = wl.make_inputs(seed)
    untraced = traced = 0.0
    warm_up(warmup_s)
    for _, pass_input in zip(range(wl.trace_passes), wl.passes(inputs)):
        t0 = time.perf_counter()
        items = wl.run_pass(pass_input)
        untraced += time.perf_counter() - t0
        tally.add(wl, items)
        with tracing.instrument(tracer):
            t0 = time.perf_counter()
            with tracer.span("bench.pass"):
                items = wl.run_pass(pass_input)
            traced += time.perf_counter() - t0
        tally.add(wl, items)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.json")
    return metrics


def run_one(args) -> int:
    workloads = load_workloads()
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    wl = workloads.WORKLOADS[args.workload]()
    tally = Tally()
    if args.trace:
        units = LAYER_UNITS
        values = run_traced(wl, args.seed, tally)
    else:
        units = E2E_UNITS
        inputs = wl.make_inputs(args.seed)
        values = run_untraced(wl, inputs, args.seconds, tally)
        values["setup_s"] = setup_s
        print(f"{wl.name}: {values['_passes']} passes, {values['_items']} timed items",
              file=sys.stderr)
    measured = {k for k in values if not k.startswith("_")}
    if measured != units.keys():
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: missing "
                         f"{sorted(units.keys() - measured)}, extra {sorted(measured - units.keys())}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"  attempted {tally.attempted}, failed {tally.failed}", file=sys.stderr)
    for why in tally.reasons:
        print(f"  FAILED {why}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':20s} {'metric':40s} {'value':>16s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:20s} {metric:40s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:20s} {'fail_frac':40s} {res['failed'] / res['attempted']:>16.6g} -")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
