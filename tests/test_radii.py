"""Concavity/convexity radii: roots, soundness scans, sharpness probes."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from robertson_kit.radii import (
    PROBE_ANGLES,
    PROBE_R_HI,
    PROBE_ROTATIONS,
    PROBE_SPECS,
    ConcavitySetting,
    ProbeResult,
    SearchOpts,
    concavity_soundness_scan,
    extremal_rotation,
    itp_point,
    itp_steps,
    phi_quadratic,
    phi_value,
    radius_concavity,
    radius_convexity,
    sharpness_probe,
    soundness_grid,
    t_from_p,
    t_values,
)
from robertson_kit import robertson
from robertson_kit.robertson import (
    ParamOutOfRange,
    SchwarzSpec,
    circle,
    extremal_member,
    generate_member,
    make_params,
    member_from_json,
    member_to_json,
    plane_extremal_schwarz_spec,
    schwarz_values,
)
from robertson_kit.sampling import sample_members, sample_schwarz_specs

R_PAPER_00_2 = 4 - math.sqrt(15)  # 0.1270166537925831
R_CORR_00_2 = 5 - math.sqrt(24)  # 0.1010205144336438


def test_setting_range():
    ConcavitySetting(2.0)
    ConcavitySetting(1.0001)
    with pytest.raises(ParamOutOfRange):
        ConcavitySetting(1.0)
    with pytest.raises(ParamOutOfRange):
        ConcavitySetting(2.5)


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------


def test_t_at_origin_is_one():
    st = ConcavitySetting(2.0)
    p = make_params(0, 0)
    ident = generate_member(p, SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=16)
    assert abs(t_values(ident, st, 0.0) - 1.0) < 1e-14
    for a_co in (1.2, 1.7, 2.0):
        for m in sample_members(make_params(0.4, 0.3), 5, seed=3, order=64):
            assert abs(t_values(m, ConcavitySetting(a_co), 0.0) - 1.0) < 1e-12


@pytest.mark.parametrize("a_co", [1.1, 1.3, 1.5, 1.7, 2.0])
def test_t_at_origin_is_one_for_the_probe_family(a_co):
    # the probe's search takes Re T_f(0) = 1 without reading a circle: every
    # member of the default family gives 1 within 4 ulp at z = 0.  Its P_f(0)
    # drops out (0 * P_f(0) = 0), so what remains is the formula's rounding of
    # (A+1)/2 - 1, which grows as A_co tends to 1 (5 ulp at 1.2, 1e4 at 1.0001)
    p, st = make_params(math.pi / 8, 0.25), ConcavitySetting(a_co)
    members = [generate_member(p, s, validate=False) for s in _probe_family(p, st, 1)]
    zs = np.zeros(1, dtype=np.complex128)
    t0 = t_from_p(st, zs, robertson.MemberBatch(members).values("P", zs))
    assert t0.shape == (PROBE_ROTATIONS + PROBE_SPECS, 1) == (40, 1)
    assert np.all(np.abs(t0 - 1) <= 4 * np.spacing(1.0)), t0.ravel()
    assert np.all(t0 == t_from_p(st, zs, 0.0))


def test_t_identity_member_closed_form():
    # f = z, A = 2: T(z) = 2(1.5 (1+z)/(1-z) - 1); T(0) = 1
    st = ConcavitySetting(2.0)
    ident = generate_member(
        make_params(0, 0), SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=16
    )
    for r in (0.1, 0.15, 0.3):
        want = 2 * (1.5 * (1 - r) / (1 + r) - 1)
        assert abs(t_values(ident, st, -r) - want) < 1e-13


def test_plane_extremal_personal_radius_is_one_third():
    # T(-r) = 2 (0.5 - 1.5 r)/(1 + r) for f' = (1-z)^{-1} at A = 2
    st = ConcavitySetting(2.0)
    pe = extremal_member(make_params(0, 0), "plane", 1.0, order=64)
    for r in (0.1, 0.25, 0.333, 0.34):
        want = 2 * (0.5 - 1.5 * r) / (1 + r)
        assert abs(t_values(pe, st, -r).real - want) < 1e-12
    assert t_values(pe, st, -(1 / 3)).real == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the quadratic
# ---------------------------------------------------------------------------


def test_phi_quadratic_printed_example():
    p = make_params(0, 0)
    assert phi_quadratic(p, ConcavitySetting(2.0), "paper") == (1.0, -8.0, 1.0)
    assert phi_quadratic(p, ConcavitySetting(2.0), "corrected") == (1.0, -10.0, 1.0)


def test_phi_sign_conditions():
    rng = np.random.default_rng(2)
    for _ in range(40):
        p = make_params(rng.uniform(-1.5, 1.5), rng.uniform(0, 0.99))
        st = ConcavitySetting(rng.uniform(1.001, 2.0))
        for mode in ("paper", "corrected"):
            c = phi_quadratic(p, st, mode)
            assert phi_value(c, 0.0) == st.a_co - 1 > 0
            assert phi_value(c, 1.0) < 0
        a, b, cc = phi_quadratic(p, st, "paper")
        assert abs(phi_value((a, b, cc), 1.0) - (-2 - 4 * p.k)) < 1e-12


def test_corrected_quadratic_rederivation():
    # (A+1)/2 (1-r)^2 - (1-r^2) - 2 k (r + cos(alpha) r^2) must equal
    # ((A+3-4k cos(alpha)) r^2 - 2(A+1+2k) r + (A-1)) / 2 identically, and
    # phi_quadratic's "corrected" must be that quadratic
    rng = np.random.default_rng(9)
    for _ in range(200):
        a_co = rng.uniform(1.001, 2.0)
        alpha, beta = rng.uniform(-1.5, 1.5), rng.uniform(0, 0.99)
        p = make_params(alpha, beta)
        k, c = p.k, math.cos(alpha)
        r = rng.uniform(0, 1)
        lhs = (a_co + 1) / 2 * (1 - r) ** 2 - (1 - r**2) - 2 * k * (r + c * r**2)
        rhs = ((a_co + 3 - 4 * k * c) * r**2 - 2 * (a_co + 1 + 2 * k) * r + (a_co - 1)) / 2
        assert abs(lhs - rhs) < 1e-12
        quad = phi_quadratic(p, ConcavitySetting(a_co), "corrected")
        assert abs(phi_value(quad, r) / 2 - rhs) < 1e-12


@pytest.mark.parametrize("alpha, beta, a_co, radius", [
    (math.pi / 4, 0.25, 2.0, 0.1304685860),
    (1.2, 0.0, 2.0, 0.1472656797),
    (-0.9, 0.5, 1.5, 0.0843327505),
])
def test_corrected_concavity_radius_is_sharp_off_the_axis(alpha, beta, a_co, radius):
    # the extremal omega = lambda* z, lambda* = -w*/R with w* = m/(2+m) and
    # m = (2R^2 + 2R e^{i alpha})/(1-R^2), is a rotation: Re T_f changes sign at z = -R
    p, st = make_params(alpha, beta), ConcavitySetting(a_co)
    big_r = radius_concavity(p, st, "corrected").value
    assert abs(big_r - radius) < 1e-10
    m = (2 * big_r**2 + 2 * big_r * np.exp(1j * alpha)) / (1 - big_r**2)
    lam = -m / (2 + m) / big_r
    assert abs(abs(lam) - 1) < 1e-15 and abs(extremal_rotation(p, st) - lam) < 1e-15
    member = generate_member(p, SchwarzSpec(kind="unit_constant_times_z", rotation=lam), order=64,
                             validate=False)
    assert t_values(member, st, -big_r * (1 - 1e-6)).real > 5e-7
    assert t_values(member, st, -big_r * (1 + 1e-6)).real < -5e-7


def test_radius_concavity_frozen_values():
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    rp = radius_concavity(p, st, "paper")
    rc = radius_concavity(p, st, "corrected")
    assert abs(rp.value - R_PAPER_00_2) < 1e-12
    assert abs(rc.value - R_CORR_00_2) < 1e-12
    assert rp.residual <= 1e-12 and rc.residual <= 1e-12
    assert rp.method == "closed_form"


def test_radius_concavity_small_aco_limit():
    p = make_params(0.2, 0.6)
    for mode in ("paper", "corrected"):
        assert radius_concavity(p, ConcavitySetting(1.0001), mode).value < 5e-5


def test_radius_concavity_as_k_tends_to_zero():
    # corrected Phi(1) = -4k(1 + cos(alpha)) exactly, but the rounded a + b + c
    # reaches 0 once k is below about 1e-16; the corrected radius tends to (A-1)/(A+3)
    for a_co in (1.5, 2.0):
        st = ConcavitySetting(a_co)
        for p in (make_params(0.0, 1 - 2**-53), make_params(math.nextafter(math.pi / 2, 0), 0.0)):
            assert abs(radius_concavity(p, st, "corrected").value - (a_co - 1) / (a_co + 3)) < 1e-12
            assert 0 < radius_concavity(p, st, "paper").value < 1
    # the guard moves no radius away from k = 0 (the corrected radius at
    # alpha = 0.2 has k cos(alpha) in its r^2 coefficient)
    st = ConcavitySetting(2.0)
    for (alpha, beta), want in (((0.0, 0.0), (0.12701665379258312, 0.10102051443364381)),
                                ((0.2, 0.6), (0.15528046715501212, 0.14126521023870237))):
        p = make_params(alpha, beta)
        assert tuple(radius_concavity(p, st, m).value for m in ("paper", "corrected")) == want


def test_radius_concavity_random_cross_check():
    # the q-formula root against a 60-step bisection of Phi on [0, 1], and Phi
    # positive left of it, over 50 random parameter pairs in both modes
    rng = np.random.default_rng(50)
    for _ in range(50):
        p = make_params(rng.uniform(-1.5, 1.5), rng.uniform(0, 0.99))
        st = ConcavitySetting(rng.uniform(1.01, 2.0))
        for mode in ("paper", "corrected"):
            res = radius_concavity(p, st, mode)
            quad = phi_quadratic(p, st, mode)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if phi_value(quad, mid) > 0 else (lo, mid)
            assert abs(res.value - 0.5 * (lo + hi)) <= 1e-12
            assert np.all(phi_value(quad, np.linspace(0.0, res.value, 1000, endpoint=False)) > 0)
            assert 0 < res.value < 1
            assert res.residual <= 1e-12


def test_radius_concavity_monotonicity():
    ks = np.linspace(0.05, 1.0, 20)
    acos = np.linspace(1.05, 2.0, 20)
    for a_co in acos:
        st = ConcavitySetting(float(a_co))
        vals = [
            radius_concavity(make_params(0, 1 - k), st, "paper").value for k in ks
        ]
        assert all(x > y for x, y in zip(vals, vals[1:]))  # decreasing in k
    for k in ks:
        p = make_params(0, 1 - float(k))
        vals = [
            radius_concavity(p, ConcavitySetting(float(a)), "paper").value
            for a in acos
        ]
        assert all(x < y for x, y in zip(vals, vals[1:]))  # increasing in A_co


# ---------------------------------------------------------------------------
# convexity radius
# ---------------------------------------------------------------------------


def test_convexity_paper_literal_degenerate():
    # k = 1 divides by zero; every k < 1 gives a negative value
    res = radius_convexity(make_params(0, 0), "paper_literal")
    assert res.degenerate and res.method == "formula_degenerate"
    assert (res.value, res.note) == (math.inf, "division by zero at k = 1")
    res2 = radius_convexity(make_params(0, 0.5), "paper_literal")
    assert res2.degenerate and res2.value < 0
    assert res2.note == "non-positive for every admissible k <= 1"


def _least_re_one_plus_zp(params, r) -> float:
    # min Re(1 + z P_f) on |z| = r over omega = lambda z, |lambda| = 1: the
    # member omega = z on 4096 angles, since a rotation turns the circle
    m = generate_member(params, SchwarzSpec(kind="unit_constant_times_z"), order=16)
    zs = circle(r, 4096)
    return float(np.min((1 + zs * m.values("P", zs)).real))


def test_convexity_sharp_radius_against_rotation_scan():
    # R = 1/(k + |1 - G1|); omega = lambda z keeps Re(1 + z P_f) > 0 at
    # 0.99 R and loses it at 1.01 R, by the least real parts measured there
    for alpha, beta, want, scan in ((math.pi / 4, 0.25, 0.794156, (3.028e-2, -3.250e-2)),
                                    (1.2, 0.0, 0.772561, (3.459e-2, -3.693e-2)),
                                    (-0.9, 0.5, 0.866897, (5.529e-2, -6.280e-2))):
        params = make_params(alpha, beta)
        res = radius_convexity(params, "sharp")
        assert (res.mode, res.method, res.degenerate) == ("sharp", "closed_form", False)
        assert abs(res.value - want) < 5e-7 and res.residual < 1e-15, (alpha, beta, res)
        inside, outside = (_least_re_one_plus_zp(params, t * res.value) for t in (0.99, 1.01))
        assert inside > 0 > outside and np.allclose((inside, outside), scan, atol=1e-5), (
            alpha, beta, inside, outside)
    # at alpha = 0, |1 - G1| = 1 - k: the whole disk, kept to 0.99
    for beta in (0.0, 0.25, 0.9):
        params = make_params(0.0, beta)
        assert abs(radius_convexity(params).value - 1.0) < 1e-15
        assert _least_re_one_plus_zp(params, 0.99) > 0
    with pytest.raises(ParamOutOfRange):
        radius_convexity(make_params(0, 0), "derived_bound")


def test_convexity_consequence_on_members():
    # the sharp radius is 1 at alpha = 0: members keep Re(1 + z P) > 0 on
    # the whole disk; spot-check deep radii
    p = make_params(0, 0.25)
    zs = 0.995 * np.exp(2j * np.pi * np.arange(64) / 64)
    for m in sample_members(p, 10, seed=8, sp0=True, order=2048):
        vals = (1 + zs * m.p_series().eval_at(zs, 0.996)).real
        assert np.min(vals) > 0


# ---------------------------------------------------------------------------
# soundness scan and probe
# ---------------------------------------------------------------------------


def test_soundness_scan_identity_only():
    st = ConcavitySetting(2.0)
    ident = generate_member(
        make_params(0, 0), SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=16
    )
    rep = concavity_soundness_scan([ident], st, 0.2)
    # closed form: the minimum over the disk |z| <= r_cap = 0.199 sits at z = -r_cap
    r = 0.2 - 1e-3
    want = 2 * (1.5 * (1 - r) / (1 + r) - 1)
    assert abs(rep.min_re_t - want) < 1e-12
    assert abs(rep.witness_z - (-r)) < 1e-12


def test_soundness_scan_rejects_radii_off_the_disk():
    # radius 1.5 scanned omega = -z out to 1.499, outside the disk (min Re T_f
    # -245.8 at A_co = 2), and radius -0.2 a grid reflected through 0 (0.0106)
    st = ConcavitySetting(2.0)
    rot = generate_member(
        make_params(0, 0), SchwarzSpec(kind="unit_constant_times_z", rotation=-1.0), order=64
    )
    for radius in (1.5, 1.0, 0.0, -0.2, math.nan):
        with pytest.raises(ParamOutOfRange):
            soundness_grid(radius)
        with pytest.raises(ParamOutOfRange):
            concavity_soundness_scan([rot], st, radius)
    assert soundness_grid(0.999)[0] == 0.998


def _probe_family(params, setting, seed):
    """sharpness_probe's default specs: 16 rotations, the extremal rotation
    turned by e^{2 pi i j/16} (j = 0 the extremal rotation itself), and 24
    sampled specs."""
    lam = extremal_rotation(params, setting)
    return [
        SchwarzSpec(kind="unit_constant_times_z", rotation=lam * cmath.exp(2j * math.pi * j / 16))
        for j in range(PROBE_ROTATIONS)
    ] + sample_schwarz_specs(seed, PROBE_SPECS)


def _first_tied(margins):
    """The index of the first of the margins within WITNESS_TIE of their least."""
    least = min(margins)
    return next(i for i, m in enumerate(margins) if m <= least + robertson.WITNESS_TIE)


# (alpha, beta, A_co) points for the extremum-principle tests
PRINCIPLE_POINTS = [(0, 0, 2.0), (math.pi / 4, 0.25, 2.0), (1.2, 0, 2.0), (-0.9, 0.5, 1.5)]


@pytest.mark.parametrize("alpha, beta, a_co", PRINCIPLE_POINTS)
def test_harmonic_residuals_are_least_on_the_circle(alpha, beta, a_co):
    # the soundness scan, the probe and the membership check read one circle:
    # Re T_f and Re(e^{i alpha}(1 + z P_f)) are harmonic on the closed disk,
    # so their least value over |z| <= r is on |z| = r.  Random interior
    # points of each member stay above its circle minimum (measured margins
    # at least 5.5e-5 and 1.6e-6)
    p, st = make_params(alpha, beta), ConcavitySetting(a_co)
    members = [generate_member(p, s, order=64, validate=False) for s in _probe_family(p, st, 3)]
    batch, rng = robertson.MemberBatch(members), np.random.default_rng(5)

    def lows(zs):
        # each member's least Re T_f and least Re(e^{i alpha}(1 + z P_f)) on zs
        pv = batch.values("P", zs)
        return np.stack([t_from_p(st, zs, pv).real.min(axis=1),
                         (np.exp(1j * alpha) * (1 + zs * pv)).real.min(axis=1)])

    for r in (0.1, 0.5, 0.9):
        inner = r * np.sqrt(rng.uniform(size=4000)) * np.exp(2j * np.pi * rng.uniform(size=4000))
        assert np.all(lows(inner) >= lows(circle(r, 4096))), r
    # so the family's least Re T_f on circle(r, 96), which the probe's
    # bisection reads, strictly decreases over 300 radii in [0.02, 0.9]
    least = [lows(circle(r, PROBE_ANGLES))[0].min() for r in np.linspace(0.02, PROBE_R_HI, 300)]
    assert np.all(np.diff(least) < 0)


def test_corrected_radius_sound_on_seeded_members():
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    members = sample_members(p, 40, seed=42, order=256)
    rep = concavity_soundness_scan(members, st, R_CORR_00_2)
    assert rep.min_re_t >= -1e-9


def test_paper_radius_unsound_finding():
    # the rotation omega = -z yields Re T(-r) = (r^2 - 10 r + 1)/(1 - r^2),
    # negative between the corrected radius and the printed one: the
    # printed radius is not sound for the class
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    rot = generate_member(
        p, SchwarzSpec(kind="unit_constant_times_z", rotation=-1.0), order=128
    )
    rep = concavity_soundness_scan([rot], st, R_PAPER_00_2)
    assert rep.min_re_t < -0.1
    r = abs(rep.witness_z)
    assert abs(rep.min_re_t - (r * r - 10 * r + 1) / (1 - r * r)) < 1e-9


def _reference_soundness(members, setting, radius):
    """concavity_soundness_scan one t_values call per member, as before the batch;
    the witness is the first member tied with the least, at its first tied point."""
    r_cap = radius - 1e-3 if radius > 2e-3 else radius / 2
    zs = circle(r_cap, 96)
    rows = [t_values(m, setting, zs, r_cap).real.tolist() for m in members]
    lows = [min(row) for row in rows]
    if min(lows, default=math.inf) == math.inf:
        return math.inf, -1, 0j, len(members) * zs.size
    i = _first_tied(lows)
    return min(lows), i, complex(zs[_first_tied(rows[i])]), len(members) * zs.size


def test_soundness_scan_matches_per_member_reference():
    # sampled members at two points, two forms of omega = -z (they tie), a
    # closed form, a member read from JSON and a repeated member
    p, q = make_params(0, 0), make_params(math.pi / 8, 0.25)
    members = sample_members(p, 8, seed=3, order=64) + sample_members(q, 6, seed=4, order=64)
    members += [
        generate_member(p, SchwarzSpec(kind="unit_constant_times_z", rotation=-1.0), order=64),
        generate_member(p, SchwarzSpec(kind="blaschke_product", zeros=(0j,), rotation=-1.0), order=64),
        extremal_member(p, "plane", 1.0, order=64),
        member_from_json(member_to_json(members[2])),
        members[5],
    ]
    st = ConcavitySetting(2.0)
    for family, radius in ((members, R_PAPER_00_2), (members[:14], 0.5), ([], 0.3), (members, 1e-3)):
        rep = concavity_soundness_scan(family, st, radius)
        got = (rep.min_re_t, rep.witness_index, rep.witness_z, rep.samples)
        assert got == _reference_soundness(family, st, radius)


def test_probe_restricted_to_identity_map():
    # f = z alone: empirical radius solves (A+1)/2 (1-r)/(1+r) = 1,
    # i.e. r = (A-1)/(A+3); for A = 2 that is 0.2
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    res = sharpness_probe(
        p,
        st,
        SearchOpts(seed=1, budget=5000, r_tol=1e-9),
        specs=[SchwarzSpec(kind="polynomial", coeffs=(0, 0))],
    )
    assert res.violation_found
    assert abs(res.empirical_radius - 0.2) < 1e-6


def test_probe_restricted_to_plane_extremal_data():
    # the plane member alone first loses Re T > 0 at its personal radius
    # 1/3, well past the class radius: it does not witness sharpness
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    res = sharpness_probe(
        p,
        st,
        SearchOpts(seed=1, budget=5000, r_tol=1e-8),
        specs=[plane_extremal_schwarz_spec(order=256)],
    )
    assert res.violation_found
    assert abs(res.empirical_radius - 1 / 3) < 1e-6
    assert res.empirical_radius > R_CORR_00_2 + 0.2


def test_probe_full_family_recovers_corrected_radius():
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    res = sharpness_probe(p, st, SearchOpts(seed=11, budget=6000))
    assert res.violation_found
    assert res.empirical_radius >= R_CORR_00_2 - 1e-6
    assert abs(res.empirical_radius - R_CORR_00_2) < 5e-6
    assert res.witness_spec["kind"] == "unit_constant_times_z"


@pytest.mark.parametrize("alpha, beta", [(math.pi / 4, 0.25), (1.2, 0), (-0.9, 0.5)])
def test_probe_meets_corrected_radius_off_the_axis(alpha, beta):
    # the extremal rotation fails first at the corrected radius, where the
    # evenly spaced rotations alone overshot it by up to 4.4e-4
    p, st = make_params(alpha, beta), ConcavitySetting(2.0)
    res = sharpness_probe(p, st, SearchOpts(seed=11, budget=6000))
    assert abs(res.empirical_radius - radius_concavity(p, st, "corrected").value) <= 1e-6
    lam = extremal_rotation(p, st)
    assert res.witness_spec == SchwarzSpec("unit_constant_times_z", rotation=lam).to_json()


def test_probe_empirical_at_least_corrected_across_settings():
    rng = np.random.default_rng(14)
    for _ in range(4):
        p = make_params(rng.uniform(-1.0, 1.0), rng.uniform(0, 0.9))
        st = ConcavitySetting(rng.uniform(1.1, 2.0))
        corr = radius_concavity(p, st, "corrected").value
        res = sharpness_probe(p, st, SearchOpts(seed=5, budget=6000))
        assert res.empirical_radius >= corr - 1e-6


def test_probe_budget_exhaustion_flag():
    # 30 evaluations do not pay for one circle of the 40 default members:
    # no radius was shown to pass, so the probe reports 0
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    res = sharpness_probe(p, st, SearchOpts(seed=1, budget=30))
    assert res.budget_exhausted and not res.violation_found
    assert (res.empirical_radius, res.evaluations) == (0.0, 0)
    # 5 circles: the first at PROBE_R_HI, then 4 ITP steps; the last failing
    # circle lies outside the class radius, and the midpoint is within 1e-3
    # of it (bisection's 4 steps ended 1.7e-2 short, at 0.084375)
    res = sharpness_probe(p, st, SearchOpts(seed=1, budget=205))
    assert res.budget_exhausted and res.violation_found and res.evaluations == 200
    assert R_CORR_00_2 < abs(res.witness_z) < PROBE_R_HI
    assert abs(res.empirical_radius - R_CORR_00_2) < 1e-3


def test_probe_default_family_makes_two_stacked_calls_per_circle(monkeypatch):
    # 16 rotations and the sampled products (all s = 1, 1-4 free zeros) make
    # one stack, the sampled polynomials the other
    calls = []

    def counting(params, spec, q, z, phi=None):
        calls.append(q)
        return schwarz_values(params, spec, q, z, phi)

    monkeypatch.setattr(robertson, "schwarz_values", counting)
    res = sharpness_probe(make_params(math.pi / 8, 0.25), ConcavitySetting(1.5),
                          SearchOpts(seed=3, budget=6000))
    circles = res.evaluations // (PROBE_ROTATIONS + PROBE_SPECS)
    assert circles >= 7 and set(calls) == {"P"}  # 7 measured: the first circle and 6 ITP steps
    assert len(calls) <= 2 * circles


def _reference_probe(params, setting, search, specs=None):
    """sharpness_probe with one t_values call per member and circle, its
    members at the default order, as the probe's, and the same ITP steps."""
    if specs is None:
        specs = _probe_family(params, setting, search.seed)
    members = [generate_member(params, s, validate=False) for s in specs]
    evals, witnesses = 0, []

    def least(r):
        # the least Re T on circle(r), and the witness, the first member tied
        # with it at its first tied angle, if <= 0
        nonlocal evals
        zs, rows = circle(r, PROBE_ANGLES), []
        for m in members:
            rows.append(t_values(m, setting, zs, r).real.tolist())
            evals += 1
        lows = [min(row) for row in rows]
        if min(lows) <= 0:
            i = _first_tied(lows)
            witnesses.append((specs[i].to_json(), complex(zs[_first_tied(rows[i])])))
        return min(lows)

    if len(members) > search.budget:
        return ProbeResult(0.0, None, 0j, 0, True, False).to_json()
    f_hi = least(PROBE_R_HI)
    if f_hi > 0:
        return ProbeResult(PROBE_R_HI, None, 0j, evals, False, False).to_json()
    lo, f_lo, hi, exhausted = 0.0, 1.0, PROBE_R_HI, False
    left = itp_steps(hi - lo, search.r_tol)
    while hi - lo > search.r_tol:
        if evals + len(members) > search.budget:
            exhausted = True
            break
        r = itp_point(lo, f_lo, hi, f_hi, search.r_tol, left)
        left -= 1
        value = least(r)
        if value <= 0:
            hi, f_hi = r, value
        else:
            lo, f_lo = r, value
    spec, z = witnesses[-1]
    return ProbeResult(0.5 * (lo + hi), spec, z, evals, exhausted, True).to_json()


@pytest.mark.parametrize(
    "alpha, beta, a_co, search, specs",
    [
        (alpha, beta, a_co, SearchOpts(seed=seed, budget=6000), None)
        for alpha, beta, a_co in ((0, 0, 2.0), (math.pi / 8, 0.25, 1.5), (math.pi / 4, 0.5, 2.0))
        for seed in (1, 7)
    ]
    + [
        (0, 0, 2.0, SearchOpts(seed=1, budget=30), None),
        (0, 0, 2.0, SearchOpts(seed=1, budget=5000, r_tol=1e-9),
         [SchwarzSpec(kind="polynomial", coeffs=(0, 0))]),
        (0, 0, 2.0, SearchOpts(seed=1, budget=5000, r_tol=1e-8),
         [plane_extremal_schwarz_spec(order=256)]),
        # two forms of omega = -z tie on every circle: the first one witnesses
        (0, 0, 2.0, SearchOpts(seed=1, budget=5000),
         [SchwarzSpec(kind="blaschke_product", zeros=(0j,), rotation=-1 + 0j),
          SchwarzSpec(kind="unit_constant_times_z", rotation=-1 + 0j)]),
    ],
)
def test_probe_matches_per_member_reference(alpha, beta, a_co, search, specs):
    p, st = make_params(alpha, beta), ConcavitySetting(a_co)
    want = _reference_probe(p, st, search, specs)
    assert sharpness_probe(p, st, search, specs).to_json() == want


# (alpha, beta, A_co) of the benchmark's radii sweep
SWEEP_POINTS = [(alpha, beta, a_co) for alpha in (0.0, math.pi / 8, math.pi / 4)
                for beta in (0.0, 0.25, 0.5) for a_co in (1.5, 2.0)]


def _bisection_probe(params, setting, seed, r_tol):
    """(radius, witness spec) of the default family by bisection on the sign of
    the least Re T_f per circle, from [0, PROBE_R_HI] to a bracket of r_tol; the
    witness is the first member tied with the least."""
    specs = _probe_family(params, setting, seed)
    batch = robertson.MemberBatch([generate_member(params, s, validate=False) for s in specs])

    def least(r):
        zs = circle(r, PROBE_ANGLES)
        lows = t_from_p(setting, zs, batch.values("P", zs)).real.min(axis=1).tolist()
        return min(lows), specs[_first_tied(lows)].to_json()

    lo, hi = 0.0, PROBE_R_HI
    value, witness = least(hi)
    assert value <= 0
    while hi - lo > r_tol:
        mid = 0.5 * (lo + hi)
        value, spec = least(mid)
        lo, hi, witness = (lo, mid, spec) if value <= 0 else (mid, hi, witness)
    return 0.5 * (lo + hi), witness


@pytest.mark.parametrize("alpha, beta, a_co", SWEEP_POINTS)
def test_probe_matches_fine_bisection_on_the_sweep(alpha, beta, a_co):
    # the ITP search lands within its r_tol of a bisection run to 1e-10, and its
    # last failing circle names the same member: the extremal rotation, which
    # the family holds once, at alpha = 0 too
    p, st = make_params(alpha, beta), ConcavitySetting(a_co)
    lam = SchwarzSpec("unit_constant_times_z", rotation=extremal_rotation(p, st)).to_json()
    for seed in (1, 7):
        res = sharpness_probe(p, st, SearchOpts(seed=seed, budget=6000))
        radius, witness = _bisection_probe(p, st, seed, 1e-10)
        assert abs(res.empirical_radius - radius) <= SearchOpts().r_tol, (seed, res, radius)
        assert res.witness_spec == witness == lam, (seed, res.witness_spec, witness)


def _circle_bound(r_tol):
    # the first circle, bisection's ceil(log2(PROBE_R_HI / r_tol)) steps and ITP's n0 = 1
    return math.ceil(math.log2(PROBE_R_HI / r_tol)) + 2


def test_probe_reads_at_most_one_circle_more_than_bisection():
    assert _circle_bound(SearchOpts().r_tol) == 22  # bisection reads 21
    p, st = make_params(0, 0), ConcavitySetting(2.0)
    res = sharpness_probe(p, st, SearchOpts(seed=1, budget=6000))
    assert res.evaluations // (PROBE_ROTATIONS + PROBE_SPECS) <= _circle_bound(1e-6)
    for spec in (SchwarzSpec(kind="polynomial", coeffs=(0, 0)), plane_extremal_schwarz_spec(order=256)):
        for r_tol in (1e-9, 1e-8):
            res = sharpness_probe(p, st, SearchOpts(seed=1, budget=5000, r_tol=r_tol), specs=[spec])
            assert res.violation_found and res.evaluations <= _circle_bound(r_tol), (spec, r_tol)


@settings(max_examples=15, deadline=None)
@given(alpha=hst.floats(-1.5, 1.5), beta=hst.floats(0, 0.95), a_co=hst.floats(1.01, 2.0),
       r_tol=hst.floats(1e-10, 1e-3))
def test_probe_circle_count_bound_on_drawn_settings(alpha, beta, a_co, r_tol):
    p, st = make_params(alpha, beta), ConcavitySetting(a_co)
    res = sharpness_probe(p, st, SearchOpts(seed=2, budget=10**5, r_tol=r_tol))
    assert res.violation_found and not res.budget_exhausted
    assert res.evaluations // (PROBE_ROTATIONS + PROBE_SPECS) <= _circle_bound(r_tol)


@settings(max_examples=200, deadline=None)
@given(root=hst.floats(1e-6, PROBE_R_HI - 1e-6), power=hst.sampled_from([1, 3, 9]),
       drop=hst.floats(1e-300, 1e300), r_tol=hst.floats(1e-12, 1e-2))
def test_itp_point_keeps_the_bisection_bound(root, power, drop, r_tol):
    # decreasing functions that vanish at root, from odd powers to a step of
    # any depth (where regula falsi alone crawls from one side): the search
    # brackets the root and stops within itp_steps points
    def f(x):
        return (root - x) ** power if x < root else -drop * (x - root) ** power

    lo, f_lo, hi, f_hi = 0.0, f(0.0), PROBE_R_HI, f(PROBE_R_HI)
    left = itp_steps(hi - lo, r_tol)
    for used in range(left + 1):
        if hi - lo <= r_tol:
            break
        x = itp_point(lo, f_lo, hi, f_hi, r_tol, left - used)
        assert lo <= x <= hi
        if f(x) <= 0:
            hi, f_hi = x, f(x)
        else:
            lo, f_lo = x, f(x)
    assert hi - lo <= r_tol and used <= left
    assert lo <= root <= hi
