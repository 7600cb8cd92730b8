"""The four workloads: inputs made from a seed, passes of items, and gates.

A pass is a fixed batch of items whose verdicts the run waits for; its wall
time is what `wall_s` reports.  An item is one member, one probe or one
`verify` check; `item_ms` times items, except on verify-all, where it times
the whole command.  Why each workload exists, and which layer metric should
move which end-to-end metric on it, is in README.md.

Import this module only after `src/` is on sys.path (run.py does that).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Iterator, Optional

import numpy as np

from robertson_kit import cli, radii, robertson, sampling, schwarzian, series

import gates

HERE = Path(__file__).resolve().parent


@dataclass
class Item:
    name: str
    seconds: float
    output: Any = None
    error: Optional[str] = None
    args: tuple = ()


class Workload:
    """A workload: inputs from a seed, passes of timed items, and a gate.

    make_inputs(seed) is the set-up `setup_s` times.  passes(inputs) yields
    pass inputs in a fixed order, each a list of (item name, item args).
    run_pass times item(*args) for each entry; an item that raises is a
    failed operation, not a crash.  gate returns the reasons each item is
    wrong, from check(output, *args), and runs after the timing.  Every item
    is one operation that `attempted` and `failed` count.
    trace_passes is how many passes a traced run makes, fixed so that its
    counts repeat exactly.
    """

    name: str
    trace_passes: int

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def passes(self, inputs) -> Iterator[list[tuple[str, tuple]]]:
        raise NotImplementedError

    def item(self, *args):
        raise NotImplementedError

    def check(self, output, *args) -> list[str]:
        raise NotImplementedError

    def run_pass(self, batch) -> list[Item]:
        items = []
        for name, args in batch:
            t0 = time.perf_counter()
            try:
                items.append(Item(name, 0.0, self.item(*args), args=args))
            except Exception:
                items.append(Item(name, 0.0, error=traceback.format_exc(limit=3)))
            items[-1].seconds = time.perf_counter() - t0
        return items

    def gate(self, items: list[Item]) -> list[list[str]]:
        return [[it.error] if it.error else self.check(it.output, *it.args)
                for it in items]

    def item_seconds(self, items: list[Item], pass_seconds: float) -> list[float]:
        """The latencies `item_ms` reports for one pass."""
        return [it.seconds for it in items]


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

VERIFY_ARGV = ("verify", "--theorem", "all")  # order 512, 50 samples, seed 7
VERIFY_EXIT = 3
VERIFY_STATUS = {
    "2.1ii": ["holds"],
    "2.1iii": ["violated", "holds"],
    "2.2": ["holds"],
    "2.3": ["holds"],
    "2.4": ["holds"],
    "2.5": ["holds"],
    "22.3": ["holds"],
    "22.4": ["holds"],
    "AB": ["holds"],
    "concavity": ["violated", "holds"],
    "convexity": ["degenerate"],
}


class VerifyAll(Workload):
    """`robkit verify --theorem all` at its defaults, through cli.main.

    The inputs are the command's own defaults, so --seed does not change
    them; the verdicts it must reproduce are this commit's.
    """

    name = "verify-all"
    trace_passes = 1

    def __init__(self, argv=VERIFY_ARGV, expected_status=VERIFY_STATUS,
                 expected_exit=VERIFY_EXIT):
        self.argv = list(argv)
        self.expected_status = expected_status
        self.expected_exit = expected_exit

    def make_inputs(self, seed):
        return self.argv

    def passes(self, inputs):
        while True:
            yield inputs

    def run_pass(self, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            result, error = (json.loads(out.getvalue()), code), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        # one operation per check; each carries the whole report, since the
        # exit code gates them all
        return [Item(cid, 0.0, result, error) for cid in self.expected_status]

    def item_seconds(self, items, pass_seconds):
        # the item users wait for is the whole command; a single check's
        # time is a per-layer metric (cli.check.<id>.s)
        return [pass_seconds]

    def gate(self, items):
        if items[0].error:
            return [[it.error] for it in items]
        report, code = items[0].output
        reasons = gates.verify_report(report, code, self.expected_exit,
                                      self.expected_status, cli.replay_witness)
        return [reasons[it.name] for it in items]


# ---------------------------------------------------------------------------
# norm-soundness
# ---------------------------------------------------------------------------

REFERENCE = HERE / "reference" / "norm_soundness.json"
NORM_POINTS = ((0.0, 0.0), (math.pi / 4, 0.25))
NORM_SPEC_SEED = 20250810
NORM_SPECS = 100
NORM_ORDER = 512
NORM_R_MAX = 0.95


def norm_pair(params, spec):
    """One criterion-3 member, scanned with weights 1 and 2."""
    m = robertson.generate_member(params, spec, order=NORM_ORDER, validate=False)
    opts = schwarzian.ScanOpts(r_max=NORM_R_MAX)
    return (schwarzian.norm_estimate(m, 1, opts).value,
            schwarzian.norm_estimate(m, 2, opts).value)


class NormSoundness(Workload):
    """Acceptance criterion 3's members: 100 seeded SP0 specs at two points.

    --seed shuffles the 200 (point, spec) members; a pass takes the next
    four, alternating the two points, so every pass includes the
    (pi/4, 0.25) members whose Schwarzian norms break 2k(2-k).
    """

    name = "norm-soundness"
    trace_passes = 2
    pass_items = 4

    def make_inputs(self, seed):
        specs = sampling.sample_schwarz_specs(NORM_SPEC_SEED, NORM_SPECS, sp0=True)
        params = [robertson.make_params(a, b) for a, b in NORM_POINTS]
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)["values"]
        rng = np.random.default_rng(seed)
        orders = [rng.permutation(NORM_SPECS) for _ in NORM_POINTS]
        return [(f"point{p}/spec{i}", (params[p], specs[i], reference[p][i]))
                for row in zip(*orders) for p, i in enumerate(row)]

    def passes(self, queue):
        for at in range(0, len(queue), self.pass_items):
            yield queue[at: at + self.pass_items]

    def item(self, params, spec, reference):
        return norm_pair(params, spec)

    def check(self, output, params, spec, reference):
        return gates.norm_soundness(*output, params.k, *reference)


# ---------------------------------------------------------------------------
# high-order-profile
# ---------------------------------------------------------------------------

HIGH_POINT = (math.pi / 4, 0.25)
HIGH_R = 0.99
HIGH_RADII = 64
HIGH_ANGLES = 1024
HIGH_POOL = 1024


class HighOrderProfile(Workload):
    """Seeded SP0 members at order 4096, profiled out to r = 0.99; no eval_at."""

    name = "high-order-profile"
    trace_passes = 2
    pass_items = 4

    def make_inputs(self, seed):
        params = robertson.make_params(*HIGH_POINT)
        specs = sampling.sample_schwarz_specs(seed, HIGH_POOL, sp0=True)
        return [(f"spec{i}", (params, s)) for i, s in enumerate(specs)]

    def passes(self, queue):
        for at in range(0, len(queue), self.pass_items):
            yield queue[at: at + self.pass_items]

    def item(self, params, spec):
        """Generate at MAX_ORDER, build S, bound both tails, profile both norms."""
        m = robertson.generate_member(params, spec, order=series.MAX_ORDER, validate=False)
        s = schwarzian.schwarzian(m)
        p_tail = m.p_series().tail_bound(HIGH_R)
        s_tail = s.tail_bound(HIGH_R)
        rs = np.append(series.chebyshev_radii(HIGH_RADII - 1, HIGH_R), HIGH_R)
        p_max = max((1 - r * r) * float(np.max(np.abs(m.p_on_circle(r, HIGH_ANGLES))))
                    for r in rs)
        s_max = max((1 - r * r) ** 2 * float(np.max(np.abs(
            schwarzian.s_on_circle(m, r, HIGH_ANGLES)))) for r in rs)
        return p_max, s_max, p_tail, s_tail

    def check(self, output, params, spec):
        p_max, _s_max, p_tail, s_tail = output
        return gates.high_order_profile(p_max, params.k, p_tail, s_tail)


# ---------------------------------------------------------------------------
# radii-sweep
# ---------------------------------------------------------------------------

RADII_ALPHAS = (0.0, math.pi / 8, math.pi / 4)
RADII_BETAS = (0.0, 0.25, 0.5)
RADII_ACOS = (1.5, 2.0)
RADII_BUDGET = 6000


class RadiiSweep(Workload):
    """Sharpness probes over an (alpha, beta, A_co) grid; a pass is the grid.

    --seed draws each probe's search seed, which picks its sampled specs.
    """

    name = "radii-sweep"
    trace_passes = 1

    def make_inputs(self, seed):
        grid = [(robertson.make_params(a, b), radii.ConcavitySetting(c))
                for a, b, c in product(RADII_ALPHAS, RADII_BETAS, RADII_ACOS)]
        return grid, np.random.default_rng(seed)

    def passes(self, inputs):
        grid, rng = inputs
        while True:
            seeds = rng.integers(0, 2**31, len(grid))
            yield [(f"alpha={p.alpha:.4f},beta={p.beta},A_co={st.a_co}", (p, st, int(s)))
                   for (p, st), s in zip(grid, seeds)]

    def item(self, params, setting, seed):
        """`robkit radii probe --seed S --budget 6000` at one grid point."""
        res = radii.sharpness_probe(params, setting,
                                    radii.SearchOpts(seed=seed, budget=RADII_BUDGET))
        return res.empirical_radius

    def check(self, empirical, params, setting, seed):
        return gates.radii_probe(
            empirical,
            radii.radius_concavity(params, setting, "corrected").value,
            radii.radius_concavity(params, setting, "paper").value,
            params.alpha,
            radii.SearchOpts().r_tol,
        )


WORKLOADS = {w.name: w for w in (VerifyAll, NormSoundness, HighOrderProfile, RadiiSweep)}
