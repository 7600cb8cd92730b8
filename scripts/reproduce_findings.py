#!/usr/bin/env python3
"""Reproduce every discrepancy the toolkit finds in the printed constants.

Runs in a few seconds and prints self-contained witnesses:
  1. the printed two-sided pre-Schwarzian bound fails on its own extremal;
  2. the printed Schwarzian norm bound 2k(2-k) fails off the real axis
     (alpha != 0) on certified class members;
  3. the printed radius of concavity is larger than the class radius
     (unsound); the corrected radius is sharp;
  4. the printed radius-of-convexity formula is degenerate for every
     admissible parameter; the sharp radius 1/(k + |1 - G1|) is below 1
     off the real axis;
  5. the printed lower distortion envelope fails for alpha != 0;
  6. the pointwise Schwarzian bound of check 2.5 fails at alpha = 0 for
     small k.
"""

import json
import math

import numpy as np

from robertson_kit.bounds import (
    envelope_checks,
    schwarzian_norm_bound,
    schwarzian_pointwise_bound,
    xi_of_member,
)
from robertson_kit.cli import CHECK_BUILDERS, RunCache, RunConfig, replay_witness
from robertson_kit.radii import (
    ConcavitySetting,
    SearchOpts,
    radius_concavity,
    radius_convexity,
    sharpness_probe,
    t_values,
)
from robertson_kit.robertson import (
    SchwarzSpec,
    check_iii,
    circle,
    extremal_member,
    generate_member,
    make_params,
    polar_grid,
    subordination_membership_check,
)
from robertson_kit.sampling import sample_members
from robertson_kit.schwarzian import ScanOpts, norm_estimate


def finding_1_pointwise_bound():
    print("[1] printed two-sided bound |(1-|z|^2)P - 2k conj(z)| <= k")
    p = make_params(0, 0)
    pe = extremal_member(p, "plane", 1.0, order=64)
    z = -0.5
    pv = pe.values("P", z)
    print(f"    plane extremal f' = (1-z)^-1 at z = {z}:")
    print(f"      printed-form margin   = {check_iii(p, z, pv, 'paper'):+.12f}  (< 0: violated)")
    print(f"      corrected-form margin = {check_iii(p, z, pv, 'corrected'):+.12f}  (>= 0: holds)")


def finding_2_schwarzian_norm():
    alpha, beta = math.pi / 4, 0.25
    p = make_params(alpha, beta)
    bound = schwarzian_norm_bound(p)
    spec = SchwarzSpec(kind="unit_constant_times_z", power=2)
    m = generate_member(p, spec, order=512)
    est = norm_estimate(m, 2, ScanOpts(r_max=0.95))
    margin = subordination_membership_check(m).min_margin
    print(f"[2] printed Schwarzian norm bound 2k(2-k) = {bound:.6f} at "
          f"(alpha, beta) = (pi/4, 0.25)")
    print(f"    member generated by omega = z^2 (membership margin {margin:+.4f}):")
    print(f"      scanned ||S_f|| (r <= 0.95) = {est.value:.6f}  "
          f"(exceeds the bound by {est.value - bound:+.6f})")
    print(f"      limit along the attaining ray: 2k|2-G1| = "
          f"{2 * p.k * abs(2 - p.g1):.6f}")


def finding_3_concavity_radius():
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    rp = radius_concavity(p, st, "paper").value
    rc = radius_concavity(p, st, "corrected").value
    rot = generate_member(p, SchwarzSpec(kind="unit_constant_times_z", rotation=-1.0), order=128)
    r_mid = 0.5 * (rc + rp)
    t_mid = t_values(rot, st, -r_mid).real
    probe = sharpness_probe(p, st, SearchOpts(seed=11, budget=6000))
    print(f"[3] radius of concavity at (0, 0), A_co = 2")
    print(f"      printed radius   = {rp:.12f}  (= 4 - sqrt(15))")
    print(f"      corrected radius = {rc:.12f}  (= 5 - sqrt(24))")
    print(f"      member omega = -z at z = -{r_mid:.6f} (inside the printed radius): "
          f"Re T_f = {t_mid:+.6f}  (< 0: printed radius unsound)")
    print(f"      empirical class radius from the probe = {probe.empirical_radius:.9f} "
          f"(matches the corrected radius; witness {json.dumps(probe.witness_spec)})")


def finding_4_convexity_radius():
    print("[4] printed radius-of-convexity formula 1/(k-1)")
    for beta in (0.0, 0.5):
        res = radius_convexity(make_params(0, beta), "paper_literal")
        val = "1/0 (undefined)" if res.value == math.inf else f"{res.value:.6f}"
        print(f"      k = {1 - beta:.2f}: formula value {val}  (degenerate: {res.degenerate})")
    p = make_params(math.pi / 4, 0.25)
    r = radius_convexity(p, "sharp").value
    m = generate_member(p, SchwarzSpec(kind="unit_constant_times_z"), order=16)
    print(f"      sharp radius 1/(k + |1 - G1|) at (pi/4, 0.25) = {r:.6f} (1 at alpha = 0)")
    for t in (0.99, 1.01):
        zs = circle(t * r, 4096)
        least = np.min((1 + zs * m.values("P", zs)).real)
        print(f"      omega = lambda z on |z| = {t:.2f} R: min Re(1 + z P_f) = {least:+.6f}")


def finding_5_envelopes_off_axis():
    alpha = math.pi / 4
    p = make_params(alpha, 0.0)
    worst = math.inf
    worst_z = None
    for rep in envelope_checks(sample_members(p, 40, seed=321, sp0=True, order=256)):
        if rep.distortion_min_margin < worst:
            worst, worst_z = rep.distortion_min_margin, rep.worst_z_distortion
    print(f"[5] printed distortion envelope at alpha = pi/4 (SP0 members)")
    print(f"      worst margin over 40 seeded members: {worst:+.6f} at z = {worst_z:.4f}")
    print(f"      (< 0: the printed lower envelope fails off the real axis; "
          f"at alpha = 0 the suite asserts it)")


def finding_6_pointwise_schwarzian_small_k():
    print("[6] check 2.5: (1-|z|^2)^2 |S_f| <= 2k(2 + k (xi+|z|)^2/(1-xi^2)) at alpha = 0")
    for beta in (0.8, 0.85, 0.9, 0.99, 0.999):
        (rec,) = CHECK_BUILDERS["2.5"](RunConfig(beta=beta), RunCache())
        print(f"      verify --theorem 2.5 --beta {beta}: min margin {rec.min_margin:+.4e} "
              f"({rec.status})")
        if beta == 0.9:
            w = rec.worst
    p, spec = make_params(0, 0.9), SchwarzSpec.from_json(w["spec"])
    m = generate_member(p, spec, order=w["order"])
    print(f"      beta = 0.9 witness {json.dumps(w['spec'])}")
    print(f"      at z = {complex(*w['z']):.6f}: margin {w['margin']:+.6f}, "
          f"replayed {replay_witness(w):+.6f}")
    zs = polar_grid(np.linspace(0.9, 0.9995, 200), 2048).ravel()
    xi = xi_of_member(m)
    margins = schwarzian_pointwise_bound(p, xi, np.abs(zs)) - (
        (1 - np.abs(zs) ** 2) ** 2 * np.abs(m.values("S", zs)))
    print(f"      scanned to |z| = 0.9995: least margin {margins.min():+.6f}")
    # radially toward zeta with omega(zeta) = 1, (1-|z|^2)^2 |S_f| tends to
    # 8k|u - G1|/u^2, u = zeta omega'(zeta) = 1 + (1-|a|^2)/|zeta-a|^2 for
    # omega = rotation z (a - z)/(1 - conj(a) z); about 8k/u as k -> 0,
    # above the bound's 4k + O(k^2) when u < 2.  Of the two roots of
    # omega = 1, the one farther from a has the smaller u
    lam, _, ((a, _),) = spec.product
    zeta = max(np.roots([-lam, lam * a + np.conj(a), -1]), key=lambda t: abs(t - a))
    u = 1 + (1 - abs(a) ** 2) / abs(zeta - a) ** 2
    limit = 8 * p.k * abs(u - p.g1) / u**2
    bound = 2 * p.k * (2 + p.k * (xi + 1) ** 2 / (1 - xi**2))
    print(f"      rim limit toward arg zeta = {np.angle(zeta):.6f} (u = {u:.6f}): "
          f"{limit:.6f} against the bound {bound:.6f} at |z| = 1 ({bound - limit:+.6f})")


if __name__ == "__main__":
    for fn in (
        finding_1_pointwise_bound,
        finding_2_schwarzian_norm,
        finding_3_concavity_radius,
        finding_4_convexity_radius,
        finding_5_envelopes_off_axis,
        finding_6_pointwise_schwarzian_small_k,
    ):
        fn()
        print()
