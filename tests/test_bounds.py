"""Sharp-bound formulas, quadrature oracles, and envelope checks."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robertson_kit.bounds import (
    Envelope,
    XiOutOfRange,
    distortion_envelope,
    envelope_check,
    envelope_checks,
    gauss_legendre,
    growth_envelope,
    growth_oracle,
    pre_norm_bound,
    schwarzian_norm_bound,
    schwarzian_pointwise_bound,
    xi_of_member,
)
from robertson_kit.robertson import (
    MemberBatch,
    NaNMargin,
    ParamOutOfRange,
    member_from_json,
    member_to_json,
    SchwarzSpec,
    extremal_member,
    generate_member,
    make_params,
    omega_series,
    plane_extremal_schwarz_spec,
)
from robertson_kit.sampling import sample_members, sample_schwarz_specs
from robertson_kit.schwarzian import TailToleranceUnmet, norm_estimate
from robertson_kit.series import chebyshev_radii


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------


def test_pre_norm_bound_values():
    assert pre_norm_bound(make_params(0, 0)) == 2.0
    assert abs(pre_norm_bound(make_params(math.pi / 3, 0.5)) - 0.5) < 1e-15
    assert pre_norm_bound(make_params(0, 0.999)) < 3e-3


def test_schwarzian_norm_bound_values():
    assert schwarzian_norm_bound(make_params(0, 0)) == 2.0
    assert abs(schwarzian_norm_bound(make_params(0, 0.5)) - 1.5) < 1e-15
    assert schwarzian_norm_bound(make_params(0, 0.9999)) < 1e-3


def test_scanned_extremal_norms_respect_bounds():
    for alpha, beta in ((0.0, 0.0), (0.6, 0.3)):
        p = make_params(alpha, beta)
        m = extremal_member(p, "disk_symmetric", 1.0, order=64)
        assert norm_estimate(m, 1).value <= pre_norm_bound(p) + 1e-6
        assert norm_estimate(m, 2).value <= schwarzian_norm_bound(p) + 1e-6


# ---------------------------------------------------------------------------
# xi and the pointwise bound
# ---------------------------------------------------------------------------


def test_xi_of_sp0_member_is_zero():
    p = make_params(0, 0)
    m = generate_member(p, SchwarzSpec(kind="unit_constant_times_z", power=2), order=32)
    assert xi_of_member(m) == 0.0


def test_xi_of_full_rotation_member():
    p = make_params(0, 0)
    m = generate_member(p, SchwarzSpec(kind="unit_constant_times_z"), order=32)
    assert abs(xi_of_member(m) - 1.0) < 1e-12


def test_xi_of_plane_extremal_data():
    # omega = z/(2-z) has phi(0) = 1/2
    p = make_params(0, 0)
    m = generate_member(p, plane_extremal_schwarz_spec(order=64), order=64)
    assert abs(xi_of_member(m) - 0.5) < 1e-12


def test_xi_out_of_range():
    p = make_params(0, 0)
    m = generate_member(p, SchwarzSpec(kind="unit_constant_times_z"), order=16)
    fake = type(m)(
        f=m.f,
        f_prime=m.f_prime * 3,
        params=p,
        provenance="forged",
    )
    with pytest.raises(XiOutOfRange):
        xi_of_member(fake)


def test_pointwise_bound_values():
    p1 = make_params(0, 0)
    assert abs(schwarzian_pointwise_bound(p1, 0.0, 0.0) - 4.0) < 1e-15
    assert abs(schwarzian_pointwise_bound(p1, 0.5, 0.5) - 20 / 3) < 1e-12
    # xi = 0, r -> 1 tends to 2k(2+k); at k = 1 that is 6
    assert abs(schwarzian_pointwise_bound(p1, 0.0, 1 - 1e-12) - 6.0) < 1e-9
    with pytest.raises(XiOutOfRange):
        schwarzian_pointwise_bound(p1, 1.0, 0.5)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_polynomial_exact():
    # 16 nodes integrate degree 31 exactly on each panel; [0, 2.5] takes three
    assert abs(gauss_legendre(lambda t: t**8, 0.0, 1.0) - 1 / 9) < 1e-14
    assert math.isclose(gauss_legendre(lambda t: t**31, 0.0, 2.5), 2.5**32 / 32, rel_tol=1e-13)


GROWTH_KS = [1e-9, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0]
GROWTH_RS = [1e-8, 0.1, 0.5, 0.9, 0.99, 0.999, 0.999999, 1 - 1e-12, 1 - 2**-53]


@pytest.mark.parametrize("k", GROWTH_KS)
def test_growth_envelope_matches_40_digits(k):
    # int_0^r (1 -+ t^2)^{-k} dt = r 2F1(1/2, k; 3/2; -+r^2) at 40 digits, a
    # closed form independent of the quadrature in u: both ends within 1e-15
    # relative, up to the largest float below 1
    p = make_params(0.0, 1 - k)
    for r in GROWTH_RS:
        env = growth_envelope(p, r)
        with mp.workdps(40):
            kk, rr = mp.mpf(p.k), mp.mpf(r)
            for got, sign in ((env.lower, -1), (env.upper, 1)):
                exact = rr * mp.hyp2f1(0.5, kk, 1.5, sign * rr**2)
                assert abs(mp.mpf(got) - exact) <= 1e-15 * exact, (p.k, r, sign)


def test_growth_envelope_oracles():
    p1 = make_params(0, 0)
    env = growth_envelope(p1, 0.5)
    assert abs(env.lower - math.atan(0.5)) < 1e-10
    assert abs(env.upper - math.atanh(0.5)) < 1e-10
    assert abs(env.lower - 0.4636476090) < 1e-9
    assert abs(env.upper - 0.5493061443) < 1e-9

    ph = make_params(0, 0.5)
    env2 = growth_envelope(ph, 0.5)
    assert abs(env2.upper - math.asin(0.5)) < 1e-10
    assert abs(env2.upper - 0.5235987756) < 1e-9
    assert abs(env2.lower - math.asinh(0.5)) < 1e-10

    oracle = growth_oracle(ph, 0.5)
    assert oracle is not None and abs(oracle.upper - env2.upper) < 1e-10
    assert growth_oracle(make_params(0, 0.25), 0.5) is None


def test_growth_envelope_at_zero():
    env = growth_envelope(make_params(0.4, 0.2), 0.0)
    assert env.lower == 0.0 and env.upper == 0.0


@settings(max_examples=60, deadline=None)
@given(
    beta=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(min_value=0.0, max_value=1.0,
                                                          exclude_max=True)),
    rs=st.lists(st.floats(min_value=0.0, max_value=1 - 1e-9), min_size=2, max_size=2),
)
@example(beta=0.9999999999999998, rs=[0.5, 0.75])  # k -> 0: the bounds need the clamp at r
def test_growth_envelope_converges_up_to_the_circle(beta, rs):
    # k = 1 - beta in (0, 1], r up to 1 - 1e-9: the quadrature in u gives
    # lower <= upper, both grow with r, and at k = 1 and k = 1/2 they are the
    # closed forms within 1e-14
    r1, r2 = sorted(rs)
    assume(r2 - r1 >= 1e-9)
    p = make_params(0.0, beta)
    e1, e2 = growth_envelope(p, r1), growth_envelope(p, r2)
    for e in (e1, e2):
        assert 0 <= e.lower <= e.upper
        oracle = growth_oracle(p, e.r)
        if oracle is not None:
            # abs_tol only for subnormal r, where no relative tolerance holds
            assert math.isclose(e.lower, oracle.lower, rel_tol=1e-14, abs_tol=1e-300)
            assert math.isclose(e.upper, oracle.upper, rel_tol=1e-14, abs_tol=1e-300)
    assert e2.lower > e1.lower and e2.upper > e1.upper


def test_envelopes_monotone_in_radius():
    p = make_params(0.3, 0.4)
    rs = np.linspace(0.005, 0.97, 100)
    genv = [growth_envelope(p, float(r)) for r in rs]
    denv = [distortion_envelope(p, float(r)) for r in rs]
    for a, b in zip(genv, genv[1:]):
        assert b.lower > a.lower and b.upper > a.upper
    for a, b in zip(denv, denv[1:]):
        assert b.upper > a.upper and b.lower < a.lower


# ---------------------------------------------------------------------------
# distortion / growth envelopes
# ---------------------------------------------------------------------------


def test_distortion_values():
    env = distortion_envelope(make_params(0, 0), 0.5)
    assert abs(env.lower - 0.8) < 1e-15
    assert abs(env.upper - 4 / 3) < 1e-15
    env0 = distortion_envelope(make_params(0.7, 0.3), 0.0)
    assert env0.lower == 1.0 and env0.upper == 1.0


def test_disk_extremal_attains_distortion_envelope():
    p = make_params(0, 0.25)
    m = extremal_member(p, "disk_symmetric", 1.0, order=64)
    for r in (0.3, 0.6, 0.9):
        env = distortion_envelope(p, r)
        assert abs(abs(m.closed_form.fprime(r)) - env.upper) < 1e-12
        assert abs(abs(m.closed_form.fprime(1j * r)) - env.lower) < 1e-12


def test_envelope_check_disk_extremal():
    p = make_params(0, 0)
    m = extremal_member(p, "disk_symmetric", 1.0, order=256)
    rep = envelope_check(m)
    assert rep.distortion_min_margin >= -1e-9
    assert rep.growth_min_margin >= -1e-9
    # attainment: the distortion margin is essentially zero on the axes
    assert rep.distortion_min_margin < 1e-6


def test_envelope_check_identity_member():
    p = make_params(0, 0.5)
    m = generate_member(p, SchwarzSpec(kind="polynomial", coeffs=(0, 0, 0)), order=64)
    rep = envelope_check(m)
    assert rep.distortion_min_margin > 0
    assert rep.growth_min_margin > -1e-9


def test_envelope_check_requires_sp0():
    p = make_params(0, 0)
    m = generate_member(p, SchwarzSpec(kind="unit_constant_times_z"), order=32)
    with pytest.raises(ParamOutOfRange):
        envelope_check(m)


def test_envelope_check_seeded_members_alpha_zero():
    p = make_params(0, 0.25)
    for rep in envelope_checks(sample_members(p, 20, seed=5150, sp0=True, order=256)):
        assert rep.distortion_min_margin >= -1e-9
        assert rep.growth_min_margin >= -1e-9


def test_envelope_check_alpha_nonzero_reports_finding():
    # the printed envelopes are derived with the phase of G1 dropped; for
    # alpha != 0 members can cross them, which the report must surface as
    # a negative margin rather than hide
    p = make_params(math.pi / 4, 0.0)
    worst = math.inf
    for rep in envelope_checks(sample_members(p, 40, seed=321, sp0=True, order=256)):
        worst = min(worst, rep.distortion_min_margin, rep.growth_min_margin)
    assert worst < 0


def test_envelope_witness_is_the_first_tied_point():
    # omega = z^2 at alpha = 0 meets the distortion and growth envelopes along
    # whole rays, so points there tie with the least margin to rounding: the
    # witness is the first in (radius, angle) order, on the real axis at the
    # smallest radius, not the point a last bit picks (0.8880i for distortion)
    radii = chebyshev_radii(24, 0.9)
    m = generate_member(make_params(0, 0.9), SchwarzSpec(kind="unit_constant_times_z", power=2),
                        order=512, validate=False)
    rep = envelope_check(m, radii)
    assert rep.worst_z_distortion == rep.worst_z_growth == radii[0]
    assert radii[0] == pytest.approx(0.0294, abs=1e-4)
    assert -1e-12 < min(rep.distortion_min_margin, rep.growth_min_margin) < 0


def test_envelope_checks_match_one_member_checks():
    # one batch: sampled members at two params (their f' by the batched
    # recurrence), a closed form, a member read from JSON and a second order;
    # each report equals that of the member checked alone, f' by a one-row run
    p, q = make_params(math.pi / 4, 0.25), make_params(0.0, 0.5)
    specs = sample_schwarz_specs(9, 8, sp0=True)

    def batch():
        ms = [generate_member(p, s, order=128, validate=False) for s in specs]
        ms += [generate_member(q, s, order=128, validate=False) for s in specs[:5]]
        ms += [extremal_member(p, "disk_symmetric", -1.0, order=128),
               member_from_json(member_to_json(ms[0])),
               generate_member(p, specs[1], order=96, validate=False)]
        return ms

    reps = envelope_checks(batch())
    assert len(reps) == 8 + 5 + 3
    for m, rep in zip(batch(), reps):
        assert envelope_check(m) == rep
    with pytest.raises(ParamOutOfRange):
        envelope_checks([*batch(), generate_member(p, SchwarzSpec(kind="unit_constant_times_z"))])
    assert envelope_checks([]) == []


def test_envelope_checks_raise_on_a_nan_value(monkeypatch):
    # a NaN |f'| or |f| raises rather than losing to every margin, which
    # would leave the member's least margin at inf
    circles = MemberBatch.circles
    monkeypatch.setattr(MemberBatch, "circles", lambda self, *args: (
        (rows, np.multiply(values, np.nan)) for rows, values in circles(self, *args)))
    with pytest.raises(NaNMargin, match="member 0: fprime margin NaN"):
        envelope_checks([extremal_member(make_params(0, 0), "disk_symmetric", order=64)])


def test_envelope_checks_refuse_a_series_tail_above_tolerance():
    # order 8: f' and f at r = 0.9 are far from their values (TAIL_TOL); a
    # given tail_tol applies in its place, as check 2.2 gives its 1e-9 slack
    p = make_params(0.0, 0.25)
    with pytest.raises(TailToleranceUnmet, match="order-8 series tail"):
        envelope_checks(sample_members(p, 3, seed=7, sp0=True, order=8))
    members = sample_members(p, 3, seed=7, sp0=True, order=128)
    tail = max(m.f_prime.tail_bound(0.9) for m in members)
    assert 1e-9 < tail < 1e-6
    envelope_checks(members, np.array([0.5, 0.9]))
    with pytest.raises(TailToleranceUnmet):
        envelope_checks(members, np.array([0.5, 0.9]), tail_tol=1e-9)
