"""Concavity/convexity radii: roots, soundness scans, sharpness probes."""

import math

import numpy as np
import pytest

from robertson_kit.radii import (
    PROBE_ANGLES,
    PROBE_R_HI,
    PROBE_R_LO,
    PROBE_ROTATIONS,
    PROBE_SPECS,
    ConcavitySetting,
    ProbeResult,
    SearchOpts,
    concavity_soundness_scan,
    phi_quadratic,
    phi_value,
    radius_concavity,
    radius_convexity,
    sharpness_probe,
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
    polar_grid,
    schwarz_values,
)
from robertson_kit.sampling import sample_members, sample_schwarz_specs
from robertson_kit.series import chebyshev_radii

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
    assert abs(abs(lam) - 1) < 1e-15
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
    # the closed form is cross-checked against bisection internally; this
    # drives 50 random parameter pairs through both modes
    rng = np.random.default_rng(50)
    for _ in range(50):
        p = make_params(rng.uniform(-1.5, 1.5), rng.uniform(0, 0.99))
        st = ConcavitySetting(rng.uniform(1.01, 2.0))
        for mode in ("paper", "corrected"):
            res = radius_concavity(p, st, mode)
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
    res = radius_convexity(make_params(0, 0), "paper_literal")
    assert res.degenerate and res.method == "formula_degenerate"
    res2 = radius_convexity(make_params(0, 0.5), "paper_literal")
    assert res2.degenerate and res2.value < 0


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
    # closed form: the minimum over each circle sits at z = -r
    r = abs(rep.witness_z)
    want = 2 * (1.5 * (1 - r) / (1 + r) - 1)
    assert abs(rep.min_re_t - want) < 1e-12
    assert abs(rep.witness_z - (-r)) < 1e-12
    assert 0.2 - 1e-3 - 0.01 < r < 0.2 - 1e-3


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
    """concavity_soundness_scan one t_values call per member, as before the batch."""
    r_cap = radius - 1e-3 if radius > 2e-3 else radius / 2
    zs = polar_grid(chebyshev_radii(24, r_cap), 96).ravel()
    best, w_i, w_z = math.inf, -1, 0j
    for i, m in enumerate(members):
        re_t = t_values(m, setting, zs, r_cap).real
        j = int(np.argmin(re_t))
        if re_t[j] < best:
            best, w_i, w_z = float(re_t[j]), i, complex(zs[j])
    return best, w_i, w_z, len(members) * zs.size


def test_soundness_scan_matches_per_member_reference():
    # sampled members at two points, rotations (omega = +-z tie), a closed
    # form, a member read from JSON and a repeated member
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


def test_probe_empirical_at_least_corrected_across_settings():
    rng = np.random.default_rng(14)
    for _ in range(4):
        p = make_params(rng.uniform(-1.0, 1.0), rng.uniform(0, 0.9))
        st = ConcavitySetting(rng.uniform(1.1, 2.0))
        corr = radius_concavity(p, st, "corrected").value
        res = sharpness_probe(p, st, SearchOpts(seed=5, budget=6000))
        assert res.empirical_radius >= corr - 1e-6


def test_probe_budget_exhaustion_flag():
    p = make_params(0, 0)
    st = ConcavitySetting(2.0)
    res = sharpness_probe(p, st, SearchOpts(seed=1, budget=30))
    assert res.budget_exhausted


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
    assert circles > 10 and set(calls) == {"P"}
    assert len(calls) <= 2 * circles


def _reference_probe(params, setting, search, specs=None):
    """sharpness_probe with one t_values call per member and circle."""
    if specs is None:
        specs = [
            SchwarzSpec(kind="unit_constant_times_z",
                        rotation=complex(np.exp(2j * np.pi * j / PROBE_ROTATIONS)))
            for j in range(PROBE_ROTATIONS)
        ] + sample_schwarz_specs(search.seed, PROBE_SPECS)
    members = [generate_member(params, s, order=search.order, validate=False) for s in specs]
    evals, witnesses = 0, []

    def fails(r):
        # Re T <= 0 somewhere on circle(r); the witness is the first member
        # with the strictly least minimum, at its first minimizing angle
        nonlocal evals
        best, witness, zs = math.inf, None, circle(r, PROBE_ANGLES)
        for spec, m in zip(specs, members):
            re_t = t_values(m, setting, zs, r).real
            evals += 1
            j = int(np.argmin(re_t))
            if re_t[j] < best:
                best, witness = float(re_t[j]), (spec.to_json(), complex(zs[j]))
        if best <= 0:
            witnesses.append(witness)
        return best <= 0

    lo, hi, exhausted = None, None, False
    for r in np.linspace(PROBE_R_LO, PROBE_R_HI, 48):
        if evals + len(members) > search.budget:
            exhausted = True
            break
        if fails(float(r)):
            hi = float(r)
            break
        lo = float(r)
    if hi is None:
        radius = PROBE_R_HI if not exhausted else (lo or PROBE_R_LO)
        return ProbeResult(radius, None, 0j, evals, exhausted, False).to_json()
    lo = 0.0 if lo is None else lo
    while hi - lo > search.r_tol:
        if evals + len(members) > search.budget:
            exhausted = True
            break
        mid = 0.5 * (lo + hi)
        if fails(mid):
            hi = mid
        else:
            lo = mid
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
