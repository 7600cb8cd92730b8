"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Every gate, fed a deliberately wrong output, counts it as failed.
2. A short traced run of each workload, made twice with one seed, gives the
   same per-layer counts (calls, points, distinct keys, macs, refinement
   evaluations, probe evaluations).
3. Without the program's source the benchmark exits non-zero and prints no
   result.
Exits 0 when all pass.  Takes about a minute on 2 cores.
"""

from __future__ import annotations

import copy
import math
import shutil
import subprocess
import sys

import run

workloads = run.load_workloads()
from robertson_kit import radii, robertson  # noqa: E402
from workloads import Item  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def failed_count(wl, items) -> int:
    tally = run.Tally()
    tally.add(wl, items)
    return tally.failed


# -- 1. gates -------------------------------------------------------------------

SHORT_VERIFY = dict(argv=("verify", "--theorem", "2.1ii", "--samples", "2"),
                    expected_status={"2.1ii": ["holds"]}, expected_exit=0)


def test_gates() -> None:
    wl = workloads.VerifyAll(**SHORT_VERIFY)
    items = wl.run_pass(wl.make_inputs(0))
    expect(failed_count(wl, items) == 0, "verify: the real report passes")
    report, code = items[0].output
    bad = copy.deepcopy(report)
    bad["checks"][0]["worst"]["margin"] += 1e-9
    expect(failed_count(wl, [Item("2.1ii", 0.0, (bad, code))]) == 1,
           "verify: a witness with a perturbed margin fails")
    expect(failed_count(wl, [Item("2.1ii", 0.0, (report, 3))]) == 1,
           "verify: a wrong exit code fails")
    bad = copy.deepcopy(report)
    bad["checks"][0]["status"] = "violated"
    expect(failed_count(wl, [Item("2.1ii", 0.0, (bad, code))]) == 1,
           "verify: a wrong status fails")

    wl = workloads.NormSoundness()
    params = robertson.make_params(*workloads.NORM_POINTS[1])
    k = params.k
    cases = {
        "the recorded values pass": ((0.9, 1.5), 0),
        "||P|| above 2k + 1e-6 fails": ((2 * k + 2e-6, 1.5), 1),
        "||P|| below its recorded value fails": ((0.9 - 1e-9, 1.5), 1),
        "||S|| below its recorded value fails": ((0.9, 1.5 - 1e-9), 1),
    }
    for what, (out, n) in cases.items():
        item = Item("m", 0.0, out, args=(params, None, (0.9, 1.5)))
        expect(failed_count(wl, [item]) == n, f"norm-soundness: {what}")

    wl = workloads.HighOrderProfile()
    cases = {
        "a sound profile passes": ((0.9, 1.5, 1e-16, 1e-13), 0),
        "weighted |P| above 2k + 1e-6 fails": ((2 * k + 2e-6, 1.5, 1e-16, 1e-13), 1),
        "a NaN tail fails": ((0.9, 1.5, math.nan, 1e-13), 1),
        "an infinite tail fails": ((0.9, 1.5, 1e-16, math.inf), 1),
        "a tail above 1e-6 fails": ((0.9, 1.5, 1e-16, 1e-3), 1),
    }
    for what, (out, n) in cases.items():
        item = Item("m", 0.0, out, args=(params, None))
        expect(failed_count(wl, [item]) == n, f"high-order-profile: {what}")

    wl = workloads.RadiiSweep()
    setting = radii.ConcavitySetting(2.0)
    for alpha in (0.0, math.pi / 4):
        params = robertson.make_params(alpha, 0.25)
        corrected = radii.radius_concavity(params, setting, "corrected").value
        printed = radii.radius_concavity(params, setting, "paper").value
        cases = {
            "the corrected radius passes": (corrected, 0),
            "a radius above the printed radius fails": (printed + 1e-3, 1),
            "a radius below corrected - r_tol fails": (corrected - 1e-5, 1),
        }
        if alpha == 0:
            cases["a radius 1e-5 above corrected fails at alpha = 0"] = (corrected + 1e-5, 1)
        for what, (r, n) in cases.items():
            item = Item("p", 0.0, r, args=(params, setting, 0))
            expect(failed_count(wl, [item]) == n, f"radii-sweep (alpha={alpha:.4f}): {what}")

    expect(failed_count(wl, [Item("p", 0.0, None, "boom")]) == 1,
           "an item that raised counts as failed")


# -- 2. counts repeat -----------------------------------------------------------

def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if not k.endswith(".s") and not k.startswith("trace.")}


def short_workloads():
    verify = workloads.VerifyAll(argv=("verify", "--theorem", "2.3", "--samples", "2"),
                                 expected_status={"2.3": ["holds"]}, expected_exit=0)
    norm = workloads.NormSoundness()
    norm.pass_items = norm.trace_passes = 1
    high = workloads.HighOrderProfile()
    high.pass_items = high.trace_passes = 1
    sweep = workloads.RadiiSweep()
    return verify, norm, high, sweep


def test_counts_repeat() -> None:
    for wl in short_workloads():
        first, second = (counts(run.run_traced(wl, 0, run.Tally(), warmup_s=0.0))
                         for _ in range(2))
        expect(first == second, f"{wl.name}: per-layer counts repeat exactly")
        nonzero = sorted(k for k, v in first.items() if v)
        expect(bool(nonzero), f"{wl.name}: the trace counted work ({len(nonzero)} counts)")


# -- 3. no program, no result ---------------------------------------------------

def test_bare_checkout() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "radii-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    test_gates()
    test_counts_repeat()
    test_bare_checkout()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
