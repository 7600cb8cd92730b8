"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every tolerance is pinned here, straight from the criteria.  Criterion 3
is implemented exactly as stated; its Schwarzian half is expected to fail
at (pi/4, 0.25) because the printed norm bound 2k(2-k) is genuinely false
for alpha != 0 (the sup of the weighted Schwarzian of the member generated
by omega = lam z^2 is 2k|1+(1-G1)r^2| -> 2k|2-G1| > 2k(2-k)); the failure
is reported with a reproducible witness rather than papered over.
"""

import json
import math
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robertson_kit.bounds import (
    distortion_envelope,
    envelope_check,
    growth_envelope,
    pre_norm_bound,
    schwarzian_norm_bound,
    schwarzian_pointwise_bound,
    xi_of_member,
)
from robertson_kit.radii import (
    ConcavitySetting,
    concavity_soundness_scan,
    phi_quadratic,
    phi_value,
    radius_concavity,
)
from robertson_kit.robertson import (
    SchwarzSpec,
    check_iii,
    classical_convexity_check,
    extremal_member,
    generate_member,
    make_params,
)
from robertson_kit.sampling import sample_members, sample_schwarz_specs
from robertson_kit.schwarzian import ScanOpts, norm_estimate, schwarzian, schwarzian_via_phi
from robertson_kit.series import TruncatedSeries, chebyshev_radii

ALPHAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
BETAS = (0.0, 0.25, 0.5, 0.75)


def _report(cid: str, ok: bool, detail: str, elapsed: float, budget: float):
    line = (
        f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s] {detail}"
    )
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, f"{cid} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_pre_schwarzian_sharpness():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in ALPHAS:
        for beta in BETAS:
            p = make_params(alpha, beta)
            m = extremal_member(p, "disk_symmetric", 1.0, order=64)
            est = norm_estimate(m, 1, ScanOpts(r_max=0.9995))
            worst = max(worst, abs(est.value - 2 * p.k))
    _report(
        "1 (pre-Schwarzian norm sharpness)",
        worst <= 5e-3,
        f"max |estimate - 2k| = {worst:.2e} over 16 parameter pairs (tol 5e-3)",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_2_schwarzian_sharpness():
    t0 = time.perf_counter()
    worst = 0.0
    at_origin = None
    for alpha in ALPHAS:
        for beta in BETAS:
            p = make_params(alpha, beta)
            m = extremal_member(p, "disk_symmetric", 1.0, order=64)
            est = norm_estimate(m, 2, ScanOpts(r_max=0.9995))
            worst = max(worst, abs(est.value - 2 * p.k * (2 - p.k)))
            if alpha == 0 and beta == 0:
                at_origin = est.value
    ok = worst <= 5e-3 and abs(at_origin - 2.0) <= 5e-3
    _report(
        "2 (Schwarzian norm sharpness)",
        ok,
        f"max |estimate - 2k(2-k)| = {worst:.2e}; value at (0,0) = {at_origin:.6f}",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_3_norm_soundness_on_random_members():
    t0 = time.perf_counter()
    failures = []
    worst_p = -math.inf
    worst_s = -math.inf
    for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
        p = make_params(alpha, beta)
        bp = pre_norm_bound(p) + 1e-6
        bs = schwarzian_norm_bound(p) + 1e-6
        specs = sample_schwarz_specs(20250810, 100, sp0=True)
        for spec in specs:
            m = generate_member(p, spec, order=512, validate=False)
            e1 = norm_estimate(m, 1, ScanOpts(r_max=0.95))
            e2 = norm_estimate(m, 2, ScanOpts(r_max=0.95))
            worst_p = max(worst_p, e1.value - bp)
            worst_s = max(worst_s, e2.value - bs)
            if e1.value > bp:
                failures.append((alpha, beta, "P", e1.value - bp, spec))
            if e2.value > bs:
                failures.append((alpha, beta, "S", e2.value - bs, spec))
    detail = (
        f"worst ||P||-(2k+1e-6) = {worst_p:.3e}, "
        f"worst ||S||-(2k(2-k)+1e-6) = {worst_s:.3e}"
    )
    if failures:
        a, b, kind, excess, spec = max(failures, key=lambda f: f[3])
        detail += (
            f"; {len(failures)} violations, worst: {kind}-bound at "
            f"(alpha={a:.4f}, beta={b}) exceeded by {excess:.3e}, "
            f"witness spec {json.dumps(spec.to_json())}"
        )
    _report(
        "3 (norm soundness on seeded SP0 members)",
        not failures,
        detail,
        time.perf_counter() - t0,
        120.0,
    )


def test_criterion_4_pointwise_schwarzian_bound():
    t0 = time.perf_counter()
    worst = -math.inf
    radii_grid = chebyshev_radii(32, 0.9)
    for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
        p = make_params(alpha, beta)
        for m in sample_members(p, 100, seed=777, sp0=False, order=256):
            xi = xi_of_member(m)
            s = schwarzian(m)
            for r in radii_grid:
                vals = np.abs(s.eval_on_circle(float(r), 32)) * (1 - r * r) ** 2
                bound = schwarzian_pointwise_bound(p, xi, float(r))
                worst = max(worst, float(np.max(vals)) - bound - 1e-9)
    _report(
        "4 (pointwise Schwarzian bound, general members)",
        worst <= 0,
        f"worst excess over 2k(2 + k(xi+r)^2/(1-xi^2)) + 1e-9: {worst:.3e} "
        "(200 members x 1024 grid points)",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_5_growth_distortion():
    t0 = time.perf_counter()
    # quadrature against the closed-form antiderivatives
    quad_err = 0.0
    for r in (0.1, 0.35, 0.6, 0.85):
        e1 = growth_envelope(make_params(0, 0), r)
        quad_err = max(
            quad_err, abs(e1.lower - math.atan(r)), abs(e1.upper - math.atanh(r))
        )
        e2 = growth_envelope(make_params(0, 0.5), r)
        quad_err = max(quad_err, abs(e2.upper - math.asin(r)))
    # extremal attainment on the axes
    attain_err = 0.0
    for beta in BETAS:
        p = make_params(0, beta)
        m = extremal_member(p, "disk_symmetric", 1.0, order=64)
        for r in (0.3, 0.6, 0.9):
            env = distortion_envelope(p, r)
            attain_err = max(
                attain_err,
                abs(abs(m.closed_form.fprime(r)) - env.upper),
                abs(abs(m.closed_form.fprime(1j * r)) - env.lower),
            )
    # seeded members respect both envelopes at (0, 0.25)
    p = make_params(0, 0.25)
    min_margin = math.inf
    for m in sample_members(p, 100, seed=5150, sp0=True, order=256):
        rep = envelope_check(m)
        min_margin = min(min_margin, rep.distortion_min_margin, rep.growth_min_margin)
    ok = quad_err <= 1e-10 and attain_err <= 1e-6 and min_margin >= -1e-9
    _report(
        "5 (growth/distortion at alpha = 0)",
        ok,
        f"quadrature err {quad_err:.1e} (tol 1e-10), attainment err {attain_err:.1e} "
        f"(tol 1e-6), min member margin {min_margin:.2e} (tol -1e-9)",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_6_radius_of_concavity():
    t0 = time.perf_counter()
    # closed form vs an explicit independent bisection
    rng = np.random.default_rng(606)
    agree = 0.0
    for _ in range(50):
        p = make_params(rng.uniform(-1.5, 1.5), rng.uniform(0, 0.99))
        setting = ConcavitySetting(rng.uniform(1.01, 2.0))
        for mode in ("paper", "corrected"):
            res = radius_concavity(p, setting, mode)
            coeffs = phi_quadratic(p, setting, mode)
            lo, hi = 0.0, 1.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if phi_value(coeffs, mid) > 0:
                    lo = mid
                else:
                    hi = mid
            agree = max(agree, abs(res.value - 0.5 * (lo + hi)))
    p00 = make_params(0, 0)
    s2 = ConcavitySetting(2.0)
    paper_err = abs(radius_concavity(p00, s2, "paper").value - (4 - math.sqrt(15)))
    r_corr = radius_concavity(p00, s2, "corrected").value
    members = sample_members(p00, 100, seed=66, sp0=False, order=256)
    scan = concavity_soundness_scan(members, s2, r_corr)
    ok = agree <= 1e-12 and paper_err <= 1e-12 and scan.min_re_t >= -1e-9
    _report(
        "6 (radius of concavity)",
        ok,
        f"closed-form/bisection gap {agree:.1e} (tol 1e-12), "
        f"|R_paper - (4-sqrt(15))| = {paper_err:.1e}, "
        f"corrected-mode min Re T = {scan.min_re_t:.3e} at R_corr - 1e-3",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_7_errata_reproduction():
    t0 = time.perf_counter()
    p = make_params(0, 0)
    pe = extremal_member(p, "plane", 1.0, order=64)
    pv = pe.values("P", -0.5)
    paper_margin = check_iii(p, -0.5, pv, "paper")
    corr_margin = check_iii(p, -0.5, pv, "corrected")
    hp = generate_member(p, SchwarzSpec(kind="unit_constant_times_z"), order=256)

    worst_classical = 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-0.9, max_value=0.9))
    def classical_margin_property(r):
        nonlocal worst_classical
        m = classical_convexity_check(r, hp.values("P", r), "eq22_4")
        worst_classical = max(worst_classical, abs(m))
        assert abs(m) <= 1e-9

    classical_margin_property()
    ok = abs(paper_margin - (-0.5)) <= 1e-12 and abs(corr_margin - 0.5) <= 1e-12
    _report(
        "7 (errata reproduction)",
        ok,
        f"printed two-sided bound margin at z=-1/2: {paper_margin:+.15f} (want -0.5), "
        f"corrected: {corr_margin:+.15f} (want +0.5), "
        f"classical eq22_4 |margin| <= {worst_classical:.1e} on real z",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_8_schwarzian_algebra_cross_check():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
        p = make_params(alpha, beta)
        for spec in sample_schwarz_specs(88, 100):
            direct = schwarzian(generate_member(p, spec, order=160, validate=False))
            via = schwarzian_via_phi(p, spec, 160)
            worst = max(worst, via.max_abs_diff(direct))
    _report(
        "8 (Schwarzian algebra cross-check)",
        worst <= 1e-9,
        f"max coefficient gap via-phi vs operator route: {worst:.2e} "
        "(200 seeded specs, tol 1e-9)",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_9_series_kernel_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(200):
        coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
        coeffs *= 0.5 / max(1.0, np.max(np.abs(coeffs)))
        a = TruncatedSeries(coeffs).pad(24) + 1.2
        worst = max(worst, a.exp().log().max_abs_diff(a))
        b = TruncatedSeries(rng.normal(size=10) + 1j * rng.normal(size=10)).pad(20)
        c = TruncatedSeries(rng.normal(size=10) + 1j * rng.normal(size=10)).pad(20)
        worst = max(
            worst, (b * c).deriv().max_abs_diff(b.deriv() * c + b * c.deriv())
        )
        k = rng.uniform(0.05, 1.0)
        p = TruncatedSeries([1, -1]).pad(24).pow(-k)
        expected = np.empty(25, dtype=complex)
        expected[0] = 1.0
        for n in range(24):
            expected[n + 1] = expected[n] * (k + n) / (n + 1)
        worst = max(worst, float(np.max(np.abs(p.coeffs - expected))))
    _report(
        "9 (series kernel oracles)",
        worst <= 1e-12,
        f"max deviation across exp/log, Leibniz, power-recurrence: {worst:.2e} "
        "(200 randomized cases, tol 1e-12)",
        time.perf_counter() - t0,
        5.0,
    )
