"""Command-line front end: verification suites, emitters, radius queries.

Exit-code contract: 0 when every asserted check holds, 1 when an asserted
check fails, 2 on usage or I/O errors and on the package's typed errors, 3
when only reported-not-asserted findings occur.  Checks that test formulas
whose derivations are only valid at alpha = 0 (the Schwarzian norm bound,
the envelopes, the pointwise Schwarzian bound, the printed concavity
radius) are asserted at alpha = 0 and demoted to findings elsewhere, so
violations there flag the formula rather than the toolkit.

Every check is one row of `CHECKS`, whose residual both the scan and
`replay_witness` evaluate, so every violated record carries a witness that
replays to the recorded margin.  One `cmd_verify` run builds each member
batch and each norm estimate once, in a `RunCache` that ends with the run.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import bounds, radii, robertson, sampling, schwarzian
from .robertson import (
    ClassParams,
    MemberBatch,
    NaNMargin,
    SchwarzSpec,
    extremal_member,
    generate_member,
    make_params,
)
from .schwarzian import NormEstimate, ScanOpts, norm_estimate, norm_estimates
from .series import DEFAULT_ORDER, SeriesError, chebyshev_radii

ASSERT_TOL = 1e-9
NORM_TOL = 1e-6
MAX_EMIT_ROWS = 100_000  # the most rows an emit table may have; the default step gives 19
EMIT_BLOCK = 256  # radii per batch circles call in emit distortion, bounding its memory
VERIFY_ORDER = 512  # the series order of a verify run, in process and on the command line


# ---------------------------------------------------------------------------
# run configuration and report structure
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    alpha: float = 0.0
    beta: float = 0.0
    a_co: float = 2.0
    order: int = VERIFY_ORDER
    samples: int = 50
    seed: int = 7
    mode: str = "both"  # paper | corrected | both
    theorem: str = "all"
    r_max: Optional[float] = None
    out: Optional[str] = None

    def to_json(self) -> dict:
        """The run's inputs as the report records them, without r_max and out."""
        return {k: v for k, v in vars(self).items() if k not in ("r_max", "out")}


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    asserted: bool
    samples: int
    min_margin: float
    status: str  # holds | violated | degenerate
    worst: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "asserted": self.asserted,
            "samples": self.samples,
            "min_margin": self.min_margin if math.isfinite(self.min_margin) else None,
            "status": self.status,
            "worst": self.worst,
        }


@dataclass
class VerificationReport:
    config: RunConfig
    records: list[CheckRecord] = field(default_factory=list)

    def summary(self) -> dict:
        statuses = [r.status for r in self.records]
        return {k: statuses.count(k) for k in ("holds", "violated", "degenerate")}

    def exit_code(self) -> int:
        if any(r.status == "violated" and r.asserted for r in self.records):
            return 1
        if any(r.status == "violated" for r in self.records):
            return 3
        return 0

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "checks": [r.to_json() for r in self.records],
            "summary": self.summary(),
            "exit_code": self.exit_code(),
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }


# ---------------------------------------------------------------------------
# member batches and witness plumbing
# ---------------------------------------------------------------------------


class RunCache:
    """Member batches and norm estimates computed once within one verify run.

    Batches are keyed by what generates them, not by batch name, so
    "convex" at alpha = beta = 0 reuses "general".  Norm estimates are
    keyed by (members, weight, r_max), so AB reuses the scans of 2.4; the
    members by identity, stable as the cache holds every member it hands
    out, so a new list of them hits too.  The first request at an r_max
    estimates the members at the run's norm `weights` plus the one asked.
    P on GRID, which 2.1ii, 2.1iii, 22.3 and 22.4 all read, is kept per
    member.  A cache lives for one `cmd_verify` call.
    """

    def __init__(self, weights=()):
        self._weights = frozenset(weights)
        self._members: dict = {}
        self._norms: dict = {}
        self._p_grid: dict = {}  # id(member) -> (member, its P row on GRID)

    def members(self, cfg: RunConfig, batch: str):
        """(cfg, params, members): seeded members plus the canonical witness
        generators, each member's provenance its witness spec.

        The canonical extras, omega = +-z, and z^2 for SP0, make the standard
        counterexamples deterministic parts of every run; -z^2 is z^2 turned
        by i, which no SP0 check can tell apart.  "convex" is the general
        batch at alpha = beta = 0.
        """
        if batch == "convex":
            cfg = replace(cfg, alpha=0.0, beta=0.0)
        sp0 = batch == "sp0"
        params = make_params(cfg.alpha, cfg.beta)
        key = (cfg.alpha, cfg.beta, sp0, cfg.seed, cfg.samples, cfg.order)
        if key not in self._members:
            specs = [SchwarzSpec(kind="unit_constant_times_z", rotation=rot, power=1 + sp0)
                     for rot in ((1.0,) if sp0 else (1.0, -1.0))]
            specs += sampling.sample_schwarz_specs(cfg.seed, cfg.samples, sp0=sp0)
            self._members[key] = [generate_member(params, s, order=cfg.order, validate=False)
                                  for s in specs]
        return cfg, params, self._members[key]

    def norms(self, members, weight: int, r_max: float) -> list[NormEstimate]:
        ids = tuple(map(id, members))
        if (ids, weight, r_max) not in self._norms:
            weights = sorted(self._weights | {weight})
            rows = norm_estimates(members, weights, ScanOpts(r_max=r_max))
            self._norms.update(((ids, w, r_max), [row[k] for row in rows])
                               for k, w in enumerate(weights))
        return self._norms[ids, weight, r_max]

    def values(self, members, q: str, zs) -> np.ndarray:
        """MemberBatch(members).values(q, zs), with P rows on GRID kept for
        the run, keyed by member identity as `norms` keys its entries."""
        if q != "P" or zs is not GRID:
            return MemberBatch(members).values(q, zs)
        todo = [m for m in members if id(m) not in self._p_grid]
        for m, row in zip(todo, MemberBatch(todo).values(q, zs)):
            self._p_grid[id(m)] = (m, row)  # holding m keeps its id unique
        return np.array([self._p_grid[id(m)][1] for m in members])


def replay_witness(w: dict) -> float:
    """Recompute a stored witness's margin through its check's residual, its
    member generated from its Schwarz spec."""
    if w["check"] not in CHECKS:
        raise ValueError(f"unknown check id {w['check']!r}")
    m = generate_member(make_params(w["alpha"], w["beta"]), SchwarzSpec.from_json(w["spec"]),
                        w["order"], validate=False)
    check, zs = CHECKS[w["check"]], np.array([complex(*w["z"])])
    values = None if check.q is None else m.values(check.q, zs)
    return check.residual([m], zs, values, w).item(0)


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    residual(members, z, values, w) is the checked inequality's margin at
    the points of the 1-d array z, nonnegative where it holds, one row per
    member of the list members, which share one params; values is their q
    ("P" or "S") there, one row each, None for q None (1-d in replay_witness:
    numpy rounds complex products of shapes (1,) and (1, 1) otherwise).  w is the
    witness: the check id, the mode of a per-mode check, and extras(cfg,
    params, mode), the run's inputs that the residual reads.  scan(members,
    w, cache), _grid_min if None, gives each member's (margin, z, samples,
    witness extras); a "margin" among the extras is the witness's own
    residual at z.  record_id None gives one record under the table key; a
    template over {mode} gives one record per mode.  A record holds when
    its worst margin is at least -slack.  weight is a sup-norm check's norm
    weight.
    """

    anchor: Callable[[dict], str]
    batch: str  # general | sp0 | convex; see RunCache.members
    residual: Callable[[list, np.ndarray, Any, dict], np.ndarray]
    asserted: Callable[[RunConfig, Optional[str]], bool]
    q: Optional[str] = None
    scan: Optional[Callable[[list, dict, RunCache], list]] = None
    slack: float = ASSERT_TOL
    record_id: Optional[str] = None
    extras: Callable[[RunConfig, ClassParams, Optional[str]], dict] = lambda c, p, m: {}
    weight: Optional[int] = None


RADII = chebyshev_radii(24, 0.9)  # the default scan's radii, and 2.2's circles
GRID = robertson.polar_grid(RADII, 48).ravel()
# complex values per block of member rows in _grid_min, at most (one row at
# least): 3 rows of GRID, 42 of a soundness circle.  64 KB and 128 KB timed
# alike; the blocks bound a scan's traced peak, whatever the batch size.
ROW_BYTES = 64 * 1024


def _grid_min(members, w: dict, cache: RunCache, zs=GRID) -> list[tuple]:
    """The default scan: each member's residual minimum over the points zs.

    The members go in blocks of as many rows of zs as fit ROW_BYTES, each
    block with one cache.values call and one residual call on its (rows,
    points) array, as replay_witness calls it on one row.  The witness is
    robertson.first_tied's point, with its own margin.
    """
    check, step = CHECKS[w["check"]], max(1, ROW_BYTES // (16 * zs.size))
    out = []
    for at in range(0, len(members), step):
        block = members[at : at + step]
        margins = np.broadcast_to(check.residual(block, zs, cache.values(block, check.q, zs), w),
                                  (len(block), zs.size))
        lows, js = robertson.first_tied(margins)
        out += [(float(low), complex(zs[j]), zs.size, {"margin": float(row[j])})
                for low, j, row in zip(lows, js, margins)]
    return out


def _pointwise_s_residual(members, zs, s, w: dict):
    """The pointwise Schwarzian bound's margin, each member's xi once; the
    bound is +inf, so trivially satisfied, on rows with xi = 1."""
    xi = np.array([[bounds.xi_of_member(m)] for m in members])
    finite = xi < 1 - 1e-12
    r = np.abs(zs)
    b = bounds.schwarzian_pointwise_bound(members[0].params, np.where(finite, xi, 0.0), r)
    return np.where(finite, b - (1 - r**2) ** 2 * np.abs(s), np.inf)


def _envelope_residual(members, zs, values, w: dict):
    """How far |f'| or |f| lies inside its envelope at the points zs, in Python
    floats (numpy's complex abs rounds differently)."""
    (m,) = members  # 2.2 scans by FFT circles: the residual replays one member
    if w["kind"] == "distortion":
        envelope, vals = bounds.distortion_envelope, m.values("fprime", zs)
    else:
        envelope, vals = bounds.growth_envelope, m.f.eval_at(zs, 0.95)
    envs = [envelope(m.params, abs(z)) for z in zs.tolist()]
    vs = [abs(v) for v in vals.tolist()]
    return np.array([[min(e.upper - v, v - e.lower) for e, v in zip(envs, vs)]])


def _envelope_scan(members, w: dict, cache: RunCache):
    """The envelope margins of the whole batch by FFT circles (one
    bounds.envelope_checks call); the witness's margin by its replay, run for
    the member that _run_check picks (robertson.first_tied).
    TailToleranceUnmet: a series it read has a tail at RADII's largest above
    the check's slack, which the truncation could then move a margin across
    (robertson.require_tails)."""
    reps = bounds.envelope_checks(members, RADII, tail_tol=CHECKS[w["check"]].slack)
    out = []
    for rep in reps:
        if rep.growth_min_margin < rep.distortion_min_margin:
            out.append((rep.growth_min_margin, rep.worst_z_growth, 1, {"kind": "growth"}))
        else:
            out.append((rep.distortion_min_margin, rep.worst_z_distortion, 1, {"kind": "distortion"}))
    i = int(robertson.first_tied(np.array([row[0] for row in out]))[1])
    _, z, _, extra = out[i]
    extra["margin"] = _envelope_residual([members[i]], np.array([z]), None, extra).item(0)
    return out


def _norm_check(weight: int, bound, anchor: str, asserted) -> Check:
    """A sup-norm check over the SP0 batch: margin = bound - ||f||_weight.

    The residual is bound minus the weighted modulus at z.  The norm
    estimate is that modulus at its argmax, so the scan's margin is the
    residual at the z it records, exactly.
    """

    def scan(members, w: dict, cache: RunCache):
        return [(w["bound"] - est.value, est.argmax, 1, {})
                for est in cache.norms(members, weight, w["r_max"])]

    def extras(cfg: RunConfig, params: ClassParams, mode: Optional[str]) -> dict:
        r_max = cfg.r_max if cfg.r_max is not None else 0.95
        return {"bound": bound(params), "r_max": r_max}

    return Check(
        anchor=lambda w: anchor,
        batch="sp0",
        residual=lambda ms, z, values, w: w["bound"] - schwarzian.weighted(z, weight, values),
        asserted=asserted,
        q=schwarzian.QUANTITY[weight],
        scan=scan,
        slack=0.0,
        extras=extras,
        weight=weight,
    )


def _concavity_extras(cfg: RunConfig, params: ClassParams, mode: str) -> dict:
    setting = radii.ConcavitySetting(cfg.a_co)
    radius = radii.radius_concavity(params, setting, mode).value
    return {"a_co": cfg.a_co, "radius": radius}


CHECKS: dict[str, Check] = {
    "2.1ii": Check(
        anchor=lambda w: "Re(1 + conj(G1) z P_f) >= 1 - k^2 + (1-|z|^2)/4 |z P_f|^2",
        batch="general",
        residual=lambda ms, z, p, w: robertson.check_ii(ms[0].params, z, p),
        asserted=lambda cfg, mode: True,
        q="P",
    ),
    "2.1iii": Check(
        anchor=lambda w: {
            "paper": "|(1-|z|^2) P_f - 2 k conj(z)| <= k (printed)",
            "corrected": "|(1-|z|^2) P_f - 2 G1 conj(z)| <= 2k (corrected)",
        }[w["mode"]],
        batch="general",
        residual=lambda ms, z, p, w: robertson.check_iii(ms[0].params, z, p, w["mode"]),
        asserted=lambda cfg, mode: mode == "corrected",
        q="P",
        record_id="2.1iii",
    ),
    "2.2": Check(
        anchor=lambda w: (
            "(1+r^2)^{-k} <= |f'| <= (1-r^2)^{-k} and the integrated growth bounds (SP0)"
        ),
        batch="sp0",
        residual=_envelope_residual,
        asserted=lambda cfg, mode: cfg.alpha == 0,
        scan=_envelope_scan,
    ),
    "2.3": _norm_check(
        1,
        lambda params: bounds.pre_norm_bound(params) + NORM_TOL,
        "sup (1-|z|^2) |P_f| <= 2k (SP0)",
        lambda cfg, mode: True,
    ),
    "2.4": _norm_check(
        2,
        lambda params: bounds.schwarzian_norm_bound(params) + NORM_TOL,
        "sup (1-|z|^2)^2 |S_f| <= 2k(2-k) (SP0)",
        lambda cfg, mode: cfg.alpha == 0,
    ),
    "2.5": Check(
        anchor=lambda w: (
            "(1-|z|^2)^2 |S_f| <= 2k(2 + k (xi+|z|)^2/(1-xi^2)), xi = |f''(0)|/(2k)"
        ),
        batch="general",
        residual=_pointwise_s_residual,
        asserted=lambda cfg, mode: cfg.alpha == 0,
        q="S",
    ),
    "22.3": Check(
        anchor=lambda w: "Re(1 + z P_f) >= (1/4)(1-|z|^2)|P_f|^2 (convex members)",
        batch="convex",
        residual=lambda ms, z, p, w: robertson.classical_convexity_check(z, p, "eq22_3"),
        asserted=lambda cfg, mode: True,
        q="P",
    ),
    "22.4": Check(
        anchor=lambda w: "|(1-|z|^2) P_f - 2 conj(z)| <= 2 (convex members)",
        batch="convex",
        residual=lambda ms, z, p, w: robertson.classical_convexity_check(z, p, "eq22_4"),
        asserted=lambda cfg, mode: True,
        q="P",
    ),
    "AB": _norm_check(
        2,
        lambda params: 6.0,
        "|S_f| <= 6/(1-|z|^2)^2 necessary for univalence; <= 2/(1-|z|^2)^2 sufficient",
        lambda cfg, mode: False,
    ),
    "concavity": Check(
        anchor=lambda w: (
            f"Re T_f > 0 for |z| < R_{w['mode']} = {w['radius']:.12f} (A_co = {w['a_co']})"
        ),
        batch="general",
        residual=lambda ms, z, p, w: radii.t_from_p(radii.ConcavitySetting(w["a_co"]), z, p).real,
        asserted=lambda cfg, mode: mode == "corrected",
        q="P",
        scan=lambda ms, w, cache: _grid_min(ms, w, cache, radii.soundness_grid(w["radius"])[1]),
        record_id="concavity:{mode}",
        extras=_concavity_extras,
    ),
}


def _run_check(cid: str, cfg: RunConfig, cache: RunCache) -> list[CheckRecord]:
    """Scan a table check's member batch; the worst margin decides the record.

    min_margin is the exact minimum over the members.  The witness is
    robertson.first_tied's member, recorded with its own margin.
    """
    check = CHECKS[cid]
    if check.record_id is None:
        modes: list = [None]
    else:
        modes = ["paper", "corrected"] if cfg.mode == "both" else [cfg.mode]
    run, params, members = cache.members(cfg, check.batch)
    records = []
    for mode in modes:
        w = {"check": cid} if mode is None else {"check": cid, "mode": mode}
        w.update(check.extras(run, params, mode))
        scanned = (check.scan or _grid_min)(members, w, cache)
        for i in (i for i, row in enumerate(scanned) if math.isnan(row[0])):
            raise NaNMargin(f"check {cid}: member {i}, {members[i].provenance!r}, has margin NaN")
        best, i = robertson.first_tied(np.array([*(row[0] for row in scanned), math.inf]))
        worst = None
        if best < math.inf:
            margin, z, _, extra = scanned[i]
            worst = {
                "alpha": run.alpha,
                "beta": run.beta,
                "order": run.order,
                "spec": members[i].provenance.to_json(),
                "z": [z.real, z.imag],
                "margin": margin,
                **w,
                **extra,
            }
        records.append(
            CheckRecord(
                check_id=cid if mode is None else check.record_id.format(mode=mode),
                anchor=check.anchor(w),
                asserted=check.asserted(cfg, mode),
                samples=sum(n for _, _, n, _ in scanned),
                min_margin=float(best),
                status="holds" if best >= -check.slack else "violated",
                worst=worst,
            )
        )
    return records


def check_convexity(cfg: RunConfig, cache: RunCache) -> list[CheckRecord]:
    res = radii.radius_convexity(make_params(cfg.alpha, cfg.beta), "paper_literal")
    return [
        CheckRecord(
            check_id="convexity:paper_literal",
            anchor="printed convexity radius 1/(k-1); non-positive for every admissible k <= 1",
            asserted=False,
            samples=0,
            min_margin=math.nan,
            status="degenerate" if res.degenerate else "holds",
        )
    ]


CHECK_BUILDERS: dict[str, Callable[[RunConfig, RunCache], list[CheckRecord]]] = {
    **{cid: functools.partial(_run_check, cid) for cid in CHECKS},
    "convexity": check_convexity,
}


def cmd_verify(cfg: RunConfig) -> int:
    report = VerificationReport(config=cfg)
    ids = list(CHECK_BUILDERS) if cfg.theorem == "all" else [cfg.theorem]
    cache = RunCache(CHECKS[cid].weight for cid in ids if cid in CHECKS and CHECKS[cid].weight)
    for cid in ids:
        report.records.extend(CHECK_BUILDERS[cid](cfg, cache))
    if _write_json(report.to_json(), cfg.out, "report"):
        return 2
    for rec in report.records:
        tag = "PASS" if rec.status == "holds" else rec.status.upper()
        print(
            f"[{tag}] {rec.check_id}: min margin {rec.min_margin:.3e} "
            f"({'asserted' if rec.asserted else 'reported'})",
            file=sys.stderr,
        )
    return report.exit_code()


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _write(path: Optional[str], text: str, what: str) -> int:
    """text to the file at path, or to stdout without one; 2, with a message
    naming `what`, when the file cannot be written."""
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {what}: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_json(obj, path: Optional[str] = None, what: str = "output") -> int:
    return _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n", what)


def _write_csv(header: list[str], rows, path: Optional[str]) -> int:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    return _write(path, text.getvalue(), "table")


def _emit_radii(step: float, rmax: float) -> np.ndarray:
    """An emit table's r column: i step for each i >= 0 with i step <= rmax, clamped to rmax."""
    if not 0 < step < math.inf:
        raise robertson.ParamOutOfRange(f"step={step} must be positive and finite")
    steps = rmax / step * (1 + 2**-50)  # the i > 0 with i step <= rmax, to rounding
    if not steps <= MAX_EMIT_ROWS:
        raise robertson.ParamOutOfRange(f"step={step} gives over {MAX_EMIT_ROWS} rows")
    return np.minimum(np.arange(math.floor(steps) + 1) * step, rmax)


def cmd_emit(args: argparse.Namespace) -> int:
    params = make_params(args.alpha, args.beta)
    if args.what in ("growth", "distortion"):
        if not 0 <= args.rmax < 1:
            raise robertson.ParamOutOfRange(f"rmax={args.rmax} outside [0, 1)")
        rs = _emit_radii(args.step, args.rmax)
    if args.what == "growth":
        header = ["r", "lower", "upper"]
        oracle = bounds.growth_oracle(params, 0.0) is not None
        if oracle:
            header += ["oracle_lower", "oracle_upper"]
        rows = []
        for r in rs:
            env = bounds.growth_envelope(params, float(r))
            row = [f"{r:.10g}", f"{env.lower:.12g}", f"{env.upper:.12g}"]
            if oracle:
                o = bounds.growth_oracle(params, float(r))
                row += [f"{o.lower:.12g}", f"{o.upper:.12g}"]
            rows.append(row)
        return _write_csv(header, rows, args.out)
    if args.what == "distortion":
        members = sampling.sample_members(params, args.samples, args.seed, True, args.order)
        header = ["r", "lower", "upper", "sampled_min", "sampled_max"]
        lo, hi = np.full(rs.size, math.inf), np.full(rs.size, -math.inf)  # |f'| over members
        batch = MemberBatch(members)
        for at in range(0, rs.size, EMIT_BLOCK):
            block = slice(at, at + EMIT_BLOCK)
            for _, values in batch.circles("fprime", rs[block], 64):
                v = np.abs(values)
                lo[block] = np.minimum(lo[block], v.min(axis=(0, 2)))
                hi[block] = np.maximum(hi[block], v.max(axis=(0, 2)))
        robertson.require_tails(members, ("fprime",), float(rs[-1]))
        rows = []
        for r, smin, smax in zip(rs, lo, hi):
            env = bounds.distortion_envelope(params, float(r))
            sampled = [f"{smin:.12g}", f"{smax:.12g}"] if members and r > 0 else ["", ""]
            rows.append([f"{r:.10g}", f"{env.lower:.12g}", f"{env.upper:.12g}", *sampled])
        return _write_csv(header, rows, args.out)
    if args.what == "phi":
        setting = radii.ConcavitySetting(args.Aco)
        modes = ["paper", "corrected"] if args.mode == "both" else [args.mode]
        quads = {m: radii.phi_quadratic(params, setting, m) for m in modes}
        rows = [
            [f"{r:.10g}"]
            + [f"{float(radii.phi_value(quads[m], r)):.12g}" for m in modes]
            for r in _emit_radii(args.step, 1.0)
        ]
        return _write_csv(["r"] + [f"phi_{m}" for m in modes], rows, args.out)
    if args.what == "member":
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec = SchwarzSpec.from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, robertson.ParamOutOfRange) as exc:
            print(f"cannot read spec: {exc}", file=sys.stderr)
            return 2
        member = generate_member(params, spec, order=args.order)
        return _write_json(robertson.member_to_json(member), args.out, "member")
    # norm, the one target left
    opts = ScanOpts(radial=args.radial, angular=args.angular, r_max=args.rmax_scan,
                    refine_tol=args.refine_tol)
    est = norm_estimate(extremal_member(params, args.variant, 1.0), args.weight, opts)
    return _write_json(est.to_json(), args.out, "estimate")


# ---------------------------------------------------------------------------
# radii subcommands
# ---------------------------------------------------------------------------


def cmd_radii(args: argparse.Namespace) -> int:
    params = make_params(args.alpha, args.beta)
    if args.radii_cmd == "concavity":
        setting = radii.ConcavitySetting(args.Aco)
        modes = ["paper", "corrected"] if args.mode == "both" else [args.mode]
        out = {m: radii.radius_concavity(params, setting, m).to_json() for m in modes}
        return _write_json(out)
    if args.radii_cmd == "convexity":
        res = radii.radius_convexity(params, args.mode)
        if res.degenerate:
            print(
                "warning: printed convexity-radius formula 1/(k-1) is degenerate "
                f"for k = {params.k:.6f} <= 1",
                file=sys.stderr,
            )
        return _write_json(res.to_json())
    # probe, the one command left
    setting = radii.ConcavitySetting(args.Aco)
    search = radii.SearchOpts(seed=args.seed, budget=args.budget)
    res = radii.sharpness_probe(params, setting, search)
    payload = res.to_json()
    for mode in ("paper", "corrected"):
        radius = radii.radius_concavity(params, setting, mode).value
        payload[f"radius_{mode}"], payload[f"gap_to_{mode}"] = radius, res.empirical_radius - radius
    return _write_json(payload)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, subparsers included, that takes no prefix for an option and reads
    "-1e-05", "-inf" and "-nan" as values: Python 3.11's negative-number pattern has no exponent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d*\.?\d+(e[+-]?\d+)?|inf|nan)$", re.I)


# options that more than one command reads, with their types and defaults (verify's: RunConfig's)
SHARED_OPTIONS: dict[str, dict] = {
    "--order": {"type": int, "default": DEFAULT_ORDER},
    "--seed": {"type": int, "default": 7},
    "--samples": {"type": int, "default": 0},
    "--Aco": {"type": float, "default": 2.0},
    "--mode": {"choices": ["paper", "corrected", "both"], "default": "both"},
    "--rmax": {"type": float, "default": 0.9},
    "--step": {"type": float, "default": 0.05},
    "--out": {},
}


def _add_common(p: argparse.ArgumentParser, *options: str) -> None:
    """--alpha and --beta, which every command reads, then the named SHARED_OPTIONS."""
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    for name in options:
        p.add_argument(name, **SHARED_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    """The robkit parser, each command with exactly the options its handler reads."""
    ap = _Parser(
        prog="robkit",
        description="Verification toolkit for the generalized Robertson class SP_alpha(beta)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite over seeded members")
    _add_common(v, "--order", "--seed", "--samples", "--mode", "--out")
    v.add_argument("--theorem", choices=[*CHECK_BUILDERS, "all"])
    v.add_argument("--Aco", type=float, dest="a_co")
    v.add_argument("--rmax", type=float, dest="r_max")
    v.set_defaults(**vars(RunConfig()))  # verify's defaults are declared in RunConfig alone

    e = sub.add_parser("emit", help="emit CSV/JSON tables and members")
    esub = e.add_subparsers(dest="what", required=True)
    _add_common(esub.add_parser("growth"), "--rmax", "--step", "--out")
    _add_common(esub.add_parser("distortion"),
                "--rmax", "--step", "--samples", "--seed", "--order", "--out")
    _add_common(esub.add_parser("phi"), "--step", "--Aco", "--mode", "--out")
    em = esub.add_parser("member")
    _add_common(em, "--order", "--out")
    em.add_argument("--spec", required=True)
    en = esub.add_parser("norm")
    _add_common(en, "--out")
    en.add_argument("--variant", choices=["disk_symmetric", "plane"], default="disk_symmetric")
    en.add_argument("--weight", type=int, choices=[1, 2], default=2)
    en.add_argument("--radial", type=int, default=128)
    en.add_argument("--angular", type=int, default=256)
    en.add_argument("--rmax-scan", type=float, default=None, dest="rmax_scan")
    en.add_argument("--refine-tol", type=float, default=1e-10, dest="refine_tol")

    r = sub.add_parser("radii", help="radius-of-concavity and convexity queries")
    rsub = r.add_subparsers(dest="radii_cmd", required=True)
    _add_common(rsub.add_parser("concavity"), "--Aco", "--mode")
    rv = rsub.add_parser("convexity")
    _add_common(rv)
    rv.add_argument("--mode", choices=["paper_literal", "sharp"], default="paper_literal")
    rp = rsub.add_parser("probe")
    _add_common(rp, "--seed", "--Aco")
    rp.add_argument("--budget", type=int, default=2000)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(RunConfig(**{f.name: getattr(args, f.name)
                                           for f in fields(RunConfig)}))
        if args.command == "emit":
            return cmd_emit(args)
        return cmd_radii(args)
    except (
        robertson.ParamOutOfRange,
        robertson.NotASchwarzFunction,
        robertson.TailToleranceUnmet,
        bounds.XiOutOfRange,
        radii.RootNotBracketed,
        SeriesError,
        NaNMargin,
    ) as exc:  # the package's typed errors
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
