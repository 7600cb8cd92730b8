"""Class parameters, Schwarz specs, member generation, pointwise checks."""

import cmath
import json
import math
from collections import deque
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robertson_kit import robertson, series
from robertson_kit.robertson import (
    VALIDATION_ANGLES,
    ClosedForm,
    MemberBatch,
    MemberSeries,
    NaNMargin,
    NotASchwarzFunction,
    ParamOutOfRange,
    SchwarzSpec,
    SpecStack,
    TailToleranceUnmet,
    check_ii,
    check_iii,
    classical_convexity_check,
    extremal_member,
    generate_member,
    make_params,
    member_from_json,
    member_to_json,
    omega_series,
    p_fraction,
    phi_series,
    plane_extremal_schwarz_spec,
    schwarz_values,
    subordination_membership_check,
    validate_schwarz,
)
from robertson_kit.radii import ConcavitySetting, concavity_soundness_scan, sharpness_probe
from robertson_kit.sampling import sample_members, sample_schwarz_specs
from robertson_kit.schwarzian import ScanOpts, norm_estimate, norm_estimates, s_on_circle
from robertson_kit.series import TruncatedSeries, chebyshev_radii

GOLDEN = Path(__file__).resolve().parent / "golden"  # scripts/golden_outputs.py's snapshot


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_at_origin():
    p = make_params(0.0, 0.0)
    assert p.k == 1.0
    assert p.a_sub == 1.0 + 0j
    assert p.g1 == 1.0 + 0j


def test_params_half_order():
    p = make_params(0.0, 0.5)
    assert abs(p.k - 0.5) < 1e-15
    assert abs(p.a_sub) < 1e-15
    assert abs(p.g1 - 0.5) < 1e-15


def test_params_tilted():
    p = make_params(math.pi / 4, 0.0)
    assert abs(p.k - math.sqrt(2) / 2) < 1e-12
    assert abs(p.g1 - (0.5 - 0.5j)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.0, max_value=0.999),
)
def test_params_invariants(alpha, beta):
    p = make_params(alpha, beta)
    assert 0 < p.k <= 1
    assert abs(abs(p.g1) - p.k) < 1e-15
    assert abs(p.g1 - p.k * cmath.exp(-1j * alpha)) < 1e-15
    if p.k == 1:
        # k = 1 iff alpha = 0 and beta = 0, up to double-precision rounding
        # (cos alpha rounds to 1 for |alpha| below ~1.5e-8)
        assert abs(alpha) < 1e-7 and beta < 1e-15


def test_params_out_of_range():
    with pytest.raises(ParamOutOfRange):
        make_params(math.pi / 2, 0.0)
    with pytest.raises(ParamOutOfRange):
        make_params(0.0, 1.0)
    with pytest.raises(ParamOutOfRange):
        make_params(0.0, -0.1)


# ---------------------------------------------------------------------------
# Schwarz specs
# ---------------------------------------------------------------------------


def test_validate_identity_map():
    rep = validate_schwarz(SchwarzSpec(kind="polynomial", coeffs=(0, 1)))
    assert rep.vanishing_order == 1
    # omega = z has |omega| = 1 on the unit circle, which the validator reads
    assert abs(rep.grid_max - 1) < 1e-15
    # the maximum is |omega|'s at the VALIDATION_ANGLES roots of unity (Horner
    # there agrees with the FFT to rounding), and by the maximum modulus
    # principle at least that of any inner circle: here 256 Chebyshev radii
    # out to 0.999 at 256 angles
    zs = np.exp(2j * np.pi * np.arange(VALIDATION_ANGLES) / VALIDATION_ANGLES)
    for spec in (
        SchwarzSpec(kind="polynomial", coeffs=(0, 1)),
        SchwarzSpec(kind="polynomial", coeffs=(0, 0.3, -0.2j, 0.1, 0.05 + 0.1j)),
        plane_extremal_schwarz_spec(256),
    ):
        grid_max = validate_schwarz(spec).grid_max
        on_circle = np.polynomial.polynomial.polyval(zs, spec.coeffs)
        assert grid_max == pytest.approx(float(np.max(np.abs(on_circle))), rel=1e-14)
        om = omega_series(spec, max(len(spec.coeffs) - 1, 1))
        inner = om.eval_on_circles(chebyshev_radii(256, 0.999), 256)
        assert grid_max >= float(np.max(np.abs(inner)))


def test_validate_square_map_is_sp0_generator():
    rep = validate_schwarz(SchwarzSpec(kind="polynomial", coeffs=(0, 0, 1)))
    assert rep.vanishing_order == 2


def test_validate_rejects_expanding_map():
    with pytest.raises(NotASchwarzFunction):
        validate_schwarz(SchwarzSpec(kind="polynomial", coeffs=(0, 2)))
    # |omega| = scale on the unit circle, although on |z| = 0.999 these read
    # 0.989991 and 0.551543, inside the disk
    for degree, scale in ((20, 1.01), (1000, 1.5)):
        with pytest.raises(NotASchwarzFunction, match="on the unit circle exceeds 1"):
            validate_schwarz(SchwarzSpec(kind="polynomial", coeffs=(0,) * degree + (scale,)))


def test_validate_refuses_a_peak_between_samples():
    # a degree-4096 Dirichlet kernel s/4096 sum_j (z e^{-i h})^j peaks at
    # |omega| = s at z = e^{i h}, halfway between two of the validator's
    # samples, where they read 0.9984 s: s = 1.0015 reads 0.99989, and only
    # Bernstein's margin, sqrt(1 - (pi n/M)^2/2) = 0.99031 at n = 4097, refuses
    # it; s = 1 is a Schwarz function, which sum |c_i| = 1 shows on its own
    def dirichlet(s):
        h = math.pi / VALIDATION_ANGLES
        return SchwarzSpec("polynomial", (0j, *(s / 4096 * np.exp(-1j * h * np.arange(4096)))))

    with pytest.raises(NotASchwarzFunction, match=r"sampled max 0\.99989\d* > 0\.990310"):
        validate_schwarz(dirichlet(1.0015))
    assert validate_schwarz(dirichlet(1.0)).grid_max < 0.9984
    emitted = [json.loads((GOLDEN / f"{name}.out").read_text())["provenance"]
               for name in ("emit_member", "emit_member_polynomial")]
    for spec in (SchwarzSpec("polynomial", (0, 1)), SchwarzSpec("polynomial", (0, 0, 1)),
                 plane_extremal_schwarz_spec(4096), *map(SchwarzSpec.from_json, emitted)):
        validate_schwarz(spec)


# omega = 1e308 (z + z^2), unvalidated: P_f overflows to NaN on every circle
NAN_SPEC = SchwarzSpec(kind="polynomial", coeffs=(0, 1e308, 1e308))


@pytest.mark.parametrize("scan", [
    # without the raise, each would end in a value: -inf, the other member's
    # minimum 0.668, a NaN margin, and the radius 0.9 with no violation found
    pytest.param(lambda m: norm_estimate(m, 1, ScanOpts(r_max=0.95)), id="norm_estimate"),
    pytest.param(lambda m: concavity_soundness_scan(
        [m, generate_member(m.params, SchwarzSpec("polynomial", (0, 1)))], ConcavitySetting(2.0),
        0.2), id="concavity_soundness_scan"),
    pytest.param(subordination_membership_check, id="subordination_membership_check"),
    pytest.param(lambda m: sharpness_probe(m.params, ConcavitySetting(2.0), specs=[NAN_SPEC]),
                 id="sharpness_probe"),
])
def test_a_scan_that_reads_nan_raises(scan):
    member = generate_member(make_params(0, 0), NAN_SPEC, validate=False)
    with np.errstate(all="ignore"), pytest.raises(NaNMargin):
        scan(member)


def test_validate_rejects_nonvanishing():
    with pytest.raises(NotASchwarzFunction):
        validate_schwarz(SchwarzSpec(kind="polynomial", coeffs=(0.5, 0.1)))
    with pytest.raises(NotASchwarzFunction):
        validate_schwarz(SchwarzSpec(kind="blaschke_product", zeros=(0.3,)))


def test_blaschke_series_modulus_inside_disk():
    spec = SchwarzSpec(
        kind="blaschke_product", zeros=(0j, 0.5 + 0.2j), rotation=cmath.exp(0.7j)
    )
    validate_schwarz(spec)
    om = omega_series(spec, 128)
    vals = om.eval_on_circle(0.8, 64)
    assert np.max(np.abs(vals)) < 1.0
    assert abs(om.coeffs[0]) == 0.0


def test_spec_json_roundtrip():
    specs = [
        SchwarzSpec(kind="polynomial", coeffs=(0, 0.25 + 0.1j, -0.3)),
        SchwarzSpec(kind="blaschke_product", zeros=(0j, 0.4 - 0.2j), rotation=1j),
        SchwarzSpec(kind="unit_constant_times_z", rotation=-1.0, power=2),
    ]
    for s in specs:
        assert SchwarzSpec.from_json(s.to_json()) == s


# ---------------------------------------------------------------------------
# member generation
# ---------------------------------------------------------------------------


def test_generate_half_plane_member():
    p = make_params(0, 0)
    m = generate_member(p, SchwarzSpec(kind="unit_constant_times_z"), order=48)
    assert np.allclose(m.f_prime.coeffs.real, np.arange(1, 50), atol=1e-12)
    assert np.allclose(m.f.coeffs.real[1:], 1.0, atol=1e-12)
    assert m.f.coeffs[0] == 0 and m.f.coeffs[1] == 1


def test_generate_from_half_plane_schwarz_data():
    # omega = z/(2-z) produces f' = (1-z)^{-1} at (0, 0)
    p = make_params(0, 0)
    m = generate_member(p, plane_extremal_schwarz_spec(order=96), order=96)
    assert np.max(np.abs(m.f_prime.coeffs - 1.0)) < 1e-12


def test_generate_zero_schwarz_gives_identity():
    p = make_params(0.4, 0.2)
    m = generate_member(p, SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=32)
    assert np.allclose(m.f.coeffs, np.eye(33)[1], atol=0)


def test_plane_extremal_regeneration_across_beta():
    for beta in (0.0, 0.3, 0.7):
        p = make_params(0.0, beta)
        m = generate_member(p, plane_extremal_schwarz_spec(order=128), order=128)
        target = extremal_member(p, "plane", 1.0, order=128)
        assert m.f_prime.max_abs_diff(target.f_prime) < 1e-10


def test_second_derivative_matches_generator():
    # f''(0) = 2 G1 phi(0) for generated members
    for seed in range(5):
        specs = sample_schwarz_specs(seed, 4)
        p = make_params(0.5, 0.25)
        for spec in specs:
            m = generate_member(p, spec, order=64, validate=False)
            phi0 = phi_series(spec, 4).coeffs[0]
            assert abs(m.f_prime.coeffs[1] - 2 * p.g1 * phi0) < 1e-10


def test_sp0_iff_vanishing_order_two():
    p = make_params(0.3, 0.1)
    m1 = generate_member(p, SchwarzSpec(kind="unit_constant_times_z"), order=32)
    m2 = generate_member(
        p, SchwarzSpec(kind="unit_constant_times_z", power=2), order=32
    )
    assert abs(m1.f_prime.coeffs[1]) > 1e-6
    assert abs(m2.f_prime.coeffs[1]) == 0.0


def test_membership_of_seeded_members_on_grid():
    for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
        p = make_params(alpha, beta)
        for m in sample_members(p, 12, seed=99, order=256):
            rep = subordination_membership_check(m, 0.9)
            assert rep.min_margin > -1e-9
            assert rep.samples == 64  # the circle |z| = 0.9 at MEMBERSHIP_ANGLES points


def test_membership_margin_identity_member():
    # P_f = 0, so the margin is Re(e^{i alpha}) - beta cos(alpha) = k
    for alpha, beta in ((0.0, 0.0), (0.6, 0.4)):
        p = make_params(alpha, beta)
        m = generate_member(p, SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=16)
        rep = subordination_membership_check(m)
        assert abs(rep.min_margin - p.k) < 1e-12


def test_membership_margin_plane_extremal():
    # 1 + z P = 1/(1-z) maps onto Re > 1/2; the circle's minimum sits at z = -0.9
    p = make_params(0, 0)
    m = extremal_member(p, "plane", 1.0, order=64)
    rep = subordination_membership_check(m)
    assert abs(rep.min_margin - (1 / 1.9)) < 1e-3
    assert rep.min_margin > 0.5


def test_membership_rejects_radii_off_the_disk():
    # r_max = 1.5 put half the grid outside the disk, where this class member
    # read as outside the class (margin -9.48)
    p = make_params(math.pi / 4, 0.25)
    spec = SchwarzSpec(kind="blaschke_product", zeros=(0j, 0.7 + 0.1j), rotation=1j)
    m = generate_member(p, spec, order=64)
    for r_max in (1.5, 1.0, 0.0, -0.2, math.nan):
        with pytest.raises(ParamOutOfRange):
            subordination_membership_check(m, r_max)
    assert subordination_membership_check(m, 0.999).min_margin >= -1e-9


def test_require_tails_reads_only_the_series_a_read_rests_on():
    # f always; f' only where exact() does not serve it; P and S never, as
    # every member reads them exactly, a member read from JSON included
    p = make_params(0.3, 0.2)
    m = generate_member(p, SchwarzSpec(kind="blaschke_product", zeros=(0j, 0.4 + 0.1j)), order=128)
    plane, read = extremal_member(p, "plane", order=128), member_from_json(member_to_json(m))
    qs = ("f", "fprime", "P", "S")
    rows = robertson.require_tails([m, plane, read], qs, 0.5)
    assert rows[0] == [m.f.tail_bound(0.5), m.f_prime.tail_bound(0.5), 0.0, 0.0]
    assert rows[1] == [plane.f.tail_bound(0.5), 0.0, 0.0, 0.0]
    assert rows[2] == rows[0]
    assert robertson.require_tails([], qs, 0.5) == []
    assert robertson.require_tails([m, read], ("P", "S"), 0.99) == [[0.0, 0.0]] * 2
    with pytest.raises(TailToleranceUnmet, match="order-128 series tail .* at r=0.9900 > 1.0e-06"):
        robertson.require_tails([m, read], ("fprime",), 0.99)


# ---------------------------------------------------------------------------
# extremal members
# ---------------------------------------------------------------------------


def test_disk_symmetric_extremal_log_series():
    p = make_params(0, 0)
    m = extremal_member(p, "disk_symmetric", 1.0, order=21)
    want = np.zeros(22)
    for n in range(0, 11):
        if 2 * n + 1 <= 21:
            want[2 * n + 1] = 1.0 / (2 * n + 1)
    assert np.max(np.abs(m.f.coeffs - want)) < 1e-13


def test_plane_extremal_at_origin_params():
    p = make_params(0, 0)
    m = extremal_member(p, "plane", 1.0, order=16)
    assert np.allclose(m.f_prime.coeffs, 1.0, atol=1e-13)


def test_extremal_normalization_everywhere():
    for variant in ("plane", "disk_symmetric"):
        for alpha, beta in ((0.0, 0.0), (0.9, 0.6), (-0.5, 0.25)):
            m = extremal_member(make_params(alpha, beta), variant, 1j, order=16)
            assert m.f.coeffs[0] == 0 and m.f.coeffs[1] == 1
            assert m.f_prime.coeffs[0] == 1


def test_extremal_rejects_non_unimodular_lambda():
    with pytest.raises(ParamOutOfRange):
        extremal_member(make_params(0, 0), "plane", 0.5)
    with pytest.raises(ParamOutOfRange):
        extremal_member(make_params(0, 0), "ball", 1.0)


@pytest.mark.parametrize("variant", ["plane", "disk_symmetric"])
@pytest.mark.parametrize("lam", [1.0, 1j, cmath.exp(0.3j)], ids=["1", "i", "exp0.3i"])
def test_closed_form_against_series(variant, lam):
    # an extremal builds no series until asked; then f' from the closed form's
    # P_f = U/V is the binomial series of (1 - lam z^p)^{-k}, and the P and S
    # series agree with the closed form
    p, order = make_params(0.4, 0.3), 256
    m = extremal_member(p, variant, lam, order=order)
    assert "f_prime" not in vars(m)
    step = 1 if variant == "plane" else 2
    want = np.zeros(order + 1, dtype=complex)
    c = 1 + 0j
    for n in range(order // step + 1):  # c_n = c_{n-1} lam (k + n - 1)/n
        want[n * step] = c
        c = c * lam * (p.k + n) / (n + 1)
    got = m.f_prime.coeffs
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    zs = 0.6 * np.exp(2j * np.pi * np.arange(7) / 7)
    assert np.max(np.abs(m.f_prime.eval_at(zs, 0.7) - m.closed_form.fprime(zs))) < 1e-12
    zs = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    for series, closed in ((m.p_series(), m.closed_form.p), (m.s_series(), m.closed_form.s)):
        want = closed(zs)
        assert np.max(np.abs(series.eval_at(zs, 0.5) - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# pointwise checks
# ---------------------------------------------------------------------------


def test_check_ii_identity_member():
    for alpha, beta in ((0.0, 0.0), (0.7, 0.4)):
        p = make_params(alpha, beta)
        m = generate_member(p, SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=16)
        z = 0.3 + 0.4j
        assert abs(check_ii(p, z, m.values("P", z)) - p.k**2) < 1e-12


def test_check_ii_plane_extremal_values():
    p = make_params(0, 0)
    m = extremal_member(p, "plane", 1.0, order=64)
    assert abs(check_ii(p, 0.5, m.values("P", 0.5)) - 1.8125) < 1e-12
    assert check_ii(p, -0.9, m.values("P", -0.9)) > 0


def test_check_ii_nonnegative_for_generated_members():
    zs = np.array([0.5, -0.5, 0.3 + 0.6j, -0.2 - 0.7j, 0.85j])
    for alpha, beta in ((0.0, 0.0), (math.pi / 3, 0.5)):
        p = make_params(alpha, beta)
        for m in sample_members(p, 10, seed=13, order=256):
            assert np.min(check_ii(p, zs, m.values("P", zs))) > -1e-9


def test_check_iii_falsification_witness():
    p = make_params(0, 0)
    m = extremal_member(p, "plane", 1.0, order=64)
    pv = m.values("P", -0.5)
    assert abs(check_iii(p, -0.5, pv, "paper") - (-0.5)) < 1e-12
    assert abs(check_iii(p, -0.5, pv, "corrected") - 0.5) < 1e-12


def test_check_iii_identity_member():
    p = make_params(0.3, 0.2)
    m = generate_member(p, SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=16)
    for z in (0.2, 0.5j, -0.8):
        pv = m.values("P", z)
        assert abs(check_iii(p, z, pv, "corrected") - (2 * p.k - 2 * p.k * abs(z))) < 1e-12


def test_check_iii_corrected_nonnegative_for_generated_members():
    zs = np.array([0.6, -0.6, 0.5 + 0.5j, -0.3 - 0.8j])
    for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25), (-1.0, 0.6)):
        p = make_params(alpha, beta)
        for m in sample_members(p, 10, seed=31, order=256):
            assert np.min(check_iii(p, zs, m.values("P", zs), "corrected")) > -1e-9


def test_classical_checks():
    p = make_params(0, 0)
    m = generate_member(p, SchwarzSpec(kind="unit_constant_times_z"), order=256)
    # half-plane map attains the classical two-sided bound along the reals
    for r in (0.2, 0.5, 0.8):
        assert abs(classical_convexity_check(r, m.values("P", r), "eq22_4")) < 1e-12
    ident = generate_member(p, SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=16)
    assert abs(classical_convexity_check(0.4j, ident.values("P", 0.4j), "eq22_3") - 1.0) < 1e-12
    pe = extremal_member(p, "plane", 1.0, order=64)
    assert abs(classical_convexity_check(-0.5, pe.values("P", -0.5), "eq22_4") - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# exact evaluation from the Schwarz data
# ---------------------------------------------------------------------------

EVAL_POINTS = ((0.0, 0.0), (math.pi / 4, 0.25), (1.2, 0.0), (-0.6, 0.5))
# criterion 3's worst member at (pi/4, 0.25)
BLASCHKE_WITNESS = SchwarzSpec.from_json(
    {
        "kind": "blaschke_product",
        "zeros": [[0.0, 0.0], [0.0, 0.0], [-0.614740267643904, -0.47328112583812965]],
        "rotation": [0.48556850565508625, -0.8741986194886643],
    }
)


def test_generate_unvalidated_rejects_nonzero_omega_at_origin():
    # the member's series are built lazily; omega(0) != 0 still fails at once
    p = make_params(0, 0)
    for spec in (
        SchwarzSpec(kind="polynomial", coeffs=(0.1, 0.5)),
        SchwarzSpec(kind="blaschke_product", zeros=(0.5, 0.3j), rotation=1.0),
        # omega(0) = 6e-15 only rounds to 0: the validator's rule, no origin zero
        SchwarzSpec(kind="blaschke_product", zeros=(2e-14, 0.3 + 0.4j), rotation=0.6),
    ):
        with pytest.raises(NotASchwarzFunction):
            generate_member(p, spec, order=16, validate=False)


def test_rotated_monomial_is_the_product_with_origin_zeros():
    # rotation * z^p and the Blaschke product with p zeros at 0 give the same bits
    zs = 0.9 * np.exp(2j * np.pi * np.arange(32) / 32) * np.linspace(0.1, 1, 32)
    for alpha, beta in EVAL_POINTS:
        params = make_params(alpha, beta)
        for power, rotation in ((1, 1.0), (2, -1.0), (3, 0.6 - 0.8j)):
            mono = SchwarzSpec(kind="unit_constant_times_z", rotation=rotation, power=power)
            prod = SchwarzSpec(kind="blaschke_product", zeros=(0j,) * power, rotation=rotation)
            assert mono.product == prod.product
            m1, m2 = (generate_member(params, s, order=64) for s in (mono, prod))
            for q in "PS":
                assert np.array_equal(m1.values(q, zs), m2.values(q, zs))
            assert np.array_equal(m1.p_series().coeffs, m2.p_series().coeffs)
            assert np.array_equal(m1.s_series().coeffs, m2.s_series().coeffs)


def test_omega_series_with_more_origin_zeros_than_its_order():
    spec = SchwarzSpec(kind="blaschke_product", zeros=(0j,) * 5 + (0.5,), rotation=1j)
    for order in (3, 4):
        assert np.array_equal(omega_series(spec, order).coeffs, np.zeros(order + 1))
    assert np.array_equal(omega_series(spec, 5).coeffs, [0, 0, 0, 0, 0, 0.5j])


def test_exact_values_match_order_512_series():
    rng = np.random.default_rng(5)
    specs = sample_schwarz_specs(3, 6) + sample_schwarz_specs(4, 4, sp0=True)
    for alpha, beta in EVAL_POINTS:
        params = make_params(alpha, beta)
        for spec in specs:
            m = generate_member(params, spec, order=512, validate=False)
            r = 0.9 * np.sqrt(rng.uniform(size=64))
            zs = r * np.exp(2j * np.pi * rng.uniform(size=64))
            p_err = np.abs(m.values("P", zs) - m.p_series().eval_at(zs, 0.9))
            s_err = np.abs(m.values("S", zs) - m.s_series().eval_at(zs, 0.9))
            assert np.max(p_err) < 5e-13 and np.max(s_err) < 1e-11, spec


def _mp_p_and_s(p_of, z):
    """P(z) and S(z) = P'(z) - P(z)^2/2 for an mpmath function P."""
    p = p_of(z)
    return p, mp.diff(p_of, z) - p * p / 2


def _mp_g1(params):
    e = mp.exp(-1j * mp.mpf(params.alpha))
    return (e * (e - 2 * mp.mpf(params.beta) * mp.cos(mp.mpf(params.alpha))) + 1) / 2


def test_exact_values_match_extended_precision_oracle():
    with mp.workdps(50):
        # the plane extremal at 2.1iii's witness z = -1/2, from f' alone
        for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
            params = make_params(alpha, beta)
            m = extremal_member(params, "plane", 1.0, order=64)
            fp = lambda t: (1 - t) ** (-mp.mpf(params.k))
            want = _mp_p_and_s(lambda t: mp.diff(fp, t) / fp(t), mp.mpf(-0.5))
            for q, w in zip("PS", want):
                assert abs(m.values(q, -0.5) - complex(w)) < 1e-14 * max(1.0, abs(w))
        # omega = z^2 and criterion 3's Blaschke witness at (pi/4, 0.25), each
        # at its Schwarzian-norm argmax, from omega alone
        params = make_params(math.pi / 4, 0.25)
        g1 = _mp_g1(params)
        for spec in (SchwarzSpec(kind="unit_constant_times_z", power=2), BLASCHKE_WITNESS):
            m = generate_member(params, spec, order=64, validate=False)
            z = norm_estimate(m, 2, ScanOpts(r_max=0.95)).argmax

            def omega(t):
                v = mp.mpc(spec.rotation) * t ** spec.vanishing_order()
                for a in spec.zeros:
                    if a != 0:
                        a = mp.mpc(a)
                        v *= (a - t) / (1 - mp.conj(a) * t)
                return v

            p_of = lambda t: 2 * g1 * (omega(t) / t) / (1 - omega(t))
            want = _mp_p_and_s(p_of, mp.mpc(z))
            for q, w in zip("PS", want):
                assert abs(m.values(q, z) - complex(w)) < 1e-13 * max(1.0, abs(w)), (spec, q)


def _mp_product_p_s_omega(params, spec, z):
    """P, S and omega at z in 50 digits, from the product form itself: phi =
    rotation z^(s-1) prod b_a, b_a = (a - z)/(1 - conj(a) z), and phi' by the
    product rule with b_a' = (|a|^2 - 1)/(1 - conj(a) z)^2, each term's product of
    the other factors a prefix times a suffix product."""
    rotation, s, zeros = spec.product
    with mp.workdps(50):
        z, g1 = mp.mpc(z), _mp_g1(params)
        b = [(mp.mpc(a) - z) / (1 - mp.conj(mp.mpc(a)) * z) for a, _ in zeros]
        db = [(abs(mp.mpc(a)) ** 2 - 1) / (1 - mp.conj(mp.mpc(a)) * z) ** 2 for a, _ in zeros]
        prefix, suffix = [mp.mpc(1)], [mp.mpc(1)]
        for x, y in zip(b, reversed(b)):
            prefix.append(prefix[-1] * x)
            suffix.append(suffix[-1] * y)
        prod, power = prefix[-1], mp.mpc(rotation) * z ** (s - 1)
        dprod = mp.fsum(db[j] * prefix[j] * suffix[len(b) - 1 - j] for j in range(len(b)))
        phi = power * prod
        dphi = (s - 1) * mp.mpc(rotation) * z ** (s - 2) * prod + power * dprod  # z != 0
        w = 1 - z * phi
        return [complex(x) for x in (2 * g1 * phi / w, 2 * g1 * (dphi + (1 - g1) * phi**2) / w**2, z * phi)]


# the largest error of P and S relative to |P| and |S|, each divided by the
# point's condition 1 + 1/|1 - omega| + sum 1/|1 - conj(a) z|, that the
# earlier evaluator (one complex reciprocal per Blaschke factor) gave on
# _oracle_cases(): 5.88e-16 for P and 1.499e-14 for S, with a quarter more
# allowed for rounding.  The fraction stream gives 3.50e-16 and 1.501e-14.
# Undivided, the worst relative errors are 4.9e-11 and 1.3e-10 for both,
# beside the zeros at 1 - |a| = 1e-6
ORACLE_TOL = {"P": 7.5e-16, "S": 1.9e-14}


def _oracle_cases():
    """Blaschke products with 1-4 free zeros at 1 - |a| = 1e-1 .. 1e-6 (s = 1 or 2),
    each at 32 points of |z| = 0.99 and at points within (1 - |a|)/2 of each zero."""
    rng = np.random.default_rng(18)
    for free in (1, 2, 3, 4):
        for e in range(1, 7):
            eps = 10.0**-e
            zeros = tuple((1 - eps) * np.exp(2j * np.pi * rng.uniform(size=free)))
            spec = SchwarzSpec(kind="blaschke_product", zeros=(0j,) * (1 + e % 2) + zeros,
                               rotation=cmath.exp(2j * math.pi * rng.uniform()))
            near = [a + c * eps * cmath.exp(2j * math.pi * rng.uniform())
                    for a in zeros for c in (0.01, 0.1, 0.5) for _ in range(3)]
            yield spec, np.array([*(0.99 * np.exp(2j * np.pi * np.arange(32) / 32)), *near])


def test_exact_values_match_product_rule_oracle_near_the_circle():
    params = make_params(math.pi / 4, 0.25)
    worst = {"P": 0.0, "S": 0.0}
    for spec, zs in _oracle_cases():
        want = np.array([_mp_product_p_s_omega(params, spec, z) for z in zs]).T
        cond = 1 + 1 / np.abs(1 - want[2])
        cond += sum(1 / np.abs(1 - np.conj(a) * zs) for a, _ in spec.product[2])
        for q, w in zip("PS", want):
            err = np.abs(schwarz_values(params, spec, q, zs) - w) / np.abs(w) / cond
            worst[q] = max(worst[q], float(np.max(err)))
    assert worst["P"] <= ORACLE_TOL["P"] and worst["S"] <= ORACLE_TOL["S"], worst


def test_exact_values_of_long_products_neither_over_nor_underflow():
    # before phi_values rescaled n, m and d, 100 zeros at 0.999 read at 0.9989
    # gave P = S = 0 by underflow, 120 gave NaN, and 1,000 read at -0.9 gave
    # NaN for S; each is finite and within the oracle test's bound now, and a
    # MemberBatch row of a long product is its member's values, bit for bit
    params = make_params(math.pi / 4, 0.25)
    members = []
    for count, z in ((100, 0.9989), (120, 0.9989), (1000, -0.9)):
        spec = SchwarzSpec(kind="blaschke_product", zeros=(0j,) + (0.999 + 0j,) * count)
        members.append(generate_member(params, spec, order=16, validate=False))
        want = _mp_product_p_s_omega(params, spec, z)
        cond = 1 + 1 / abs(1 - want[2]) + count / abs(1 - 0.999 * z)
        for q, w in zip("PS", want):
            got = schwarz_values(params, spec, q, np.array([z + 0j]))[0]
            assert np.isfinite(got) and w != 0, (count, q, got)
            assert abs(got - w) / abs(w) / cond <= ORACLE_TOL[q], (count, q, got, w)
    zs = np.array([0.9989, -0.9, 0.5j])
    members.append(generate_member(params, BLASCHKE_WITNESS, order=16, validate=False))
    for q in ("P", "S"):
        rows = MemberBatch(members).values(q, zs)
        assert np.array_equal(rows, [m.values(q, zs) for m in members]), q


def test_exact_values_finite_at_origin_and_blaschke_zeros():
    specs = [s for s in sample_schwarz_specs(9, 12) if s.kind == "blaschke_product"]
    specs += [BLASCHKE_WITNESS, SchwarzSpec(kind="polynomial", coeffs=(0, 0.5, 0.25))]
    for alpha, beta in EVAL_POINTS:
        params = make_params(alpha, beta)
        for spec in specs:
            m = generate_member(params, spec, order=16, validate=False)
            zs = np.array([0j, *spec.zeros])
            for q in ("P", "S"):
                assert np.all(np.isfinite(m.values(q, zs))), (spec, q)


def test_exact_values_scalar_matches_array_bit_for_bit(monkeypatch):
    params = make_params(math.pi / 4, 0.25)
    members = [
        generate_member(params, BLASCHKE_WITNESS, order=16, validate=False),
        generate_member(params, next(s for s in sample_schwarz_specs(2, 8) if s.kind == "polynomial"),
                        order=16),
        extremal_member(params, "disk_symmetric", 1j, order=16),
    ]
    offsets = np.linspace(-1.0, 1.0, 17)
    patch = (0.7 + 0.05 * offsets)[:, None] * np.exp(1j * (0.4 + 0.1 * offsets))[None, :]
    for m in members:
        for q in ("P", "S"):
            grid = m.values(q, patch)
            assert grid.shape == (17, 17)
            points = np.array([[m.values(q, z) for z in row] for row in patch])
            assert np.array_equal(grid, points), (m.provenance, q)

    # a MemberBatch row is its member's values, bit for bit: 16 rotations,
    # products with 1-4 free zeros and 1 or 2 at the origin (a rotated
    # monomial, and a zero at 1e-15, stack with these), polynomials of
    # lengths 1-257 padded to one; then a closed form, a member read from
    # JSON (rebuilt from its spec, it stacks with the products of s = 2), a
    # repeated member and members at a second (alpha, beta)
    rng = np.random.default_rng(5)
    specs = [
        SchwarzSpec(kind="unit_constant_times_z", rotation=cmath.exp(2j * math.pi * j / 16))
        for j in range(16)
    ]
    for origin in (1, 2):
        for free in (1, 2, 3, 4):
            zeros = (0j,) * origin + tuple(0.8 * rng.uniform(size=free) * np.exp(2j * rng.uniform(size=free)))
            specs.append(SchwarzSpec(kind="blaschke_product", zeros=zeros, rotation=cmath.exp(1j * free)))
    specs += [
        SchwarzSpec(kind="unit_constant_times_z", rotation=-1j, power=2),
        SchwarzSpec(kind="blaschke_product", zeros=(0j, 1e-15, 0.5j), rotation=0.9),
        SchwarzSpec(kind="polynomial", coeffs=(0,)),
        SchwarzSpec(kind="polynomial", coeffs=(0, 1)),
        *(s for s in sample_schwarz_specs(3, 16) if s.kind == "polynomial"),
        plane_extremal_schwarz_spec(256),
        BLASCHKE_WITNESS,
    ]
    batch = [generate_member(params, spec, order=16, validate=False) for spec in specs]
    other = make_params(0.3, 0.5)
    batch += [
        extremal_member(params, "plane", -1.0, order=16),
        member_from_json(member_to_json(batch[-1])),
        batch[3],
        # four polynomials, and the two products with s = 2 and a zero at 1e-15
        *(generate_member(other, spec, order=16, validate=False)
          for spec in (*specs[-6:-2], BLASCHKE_WITNESS, specs[-11])),
    ]
    stack_calls = []

    def counting(params, spec, q, z, phi=None):
        if isinstance(spec, SpecStack):
            stack_calls.append(len(spec.coeffs[0]) if spec.coeffs else len(spec.product[0]))
        return schwarz_values(params, spec, q, z, phi)

    monkeypatch.setattr(robertson, "schwarz_values", counting)
    zs = np.append(patch.ravel(), [0j, -0.95, 0.9j])
    per_row = zs * np.exp(0.1j * np.arange(len(batch)))[:, None]
    values = MemberBatch(batch).values
    for q in ("P", "S"):
        for rows, points in ((values(q, zs), [zs] * len(batch)), (values(q, per_row), per_row)):
            assert rows.shape == (len(batch), zs.size)
            for i, (m, row) in enumerate(zip(batch, rows)):
                assert np.array_equal(row, m.values(q, points[i])), (i, q)
    # per call, one stack per group of two or more members, whatever their
    # free zeros: at the first point the 21 products with s = 1 (17 rotations
    # and 4 with free zeros), the 8 with s = 2 and the 9 polynomials; at the
    # second the 4 polynomials and the 2 products with s = 2
    assert sorted(stack_calls) == sorted([21, 8, 9, 4, 2] * 4)
    with pytest.raises(ParamOutOfRange):
        MemberBatch(batch).values("fprime", zs)


def test_batch_stacks_products_of_one_order_whatever_their_zeros(monkeypatch):
    # products with s = 1 and 0-4 free zeros, out of zero-count order: one
    # stack, its rows sorted by zero count, each mapped back to its member.
    # One row has 4 zeros, so at one point its last factor multiplies a
    # one-element prefix (numpy rounds that product otherwise in place)
    params = make_params(math.pi / 4, 0.25)
    rng = np.random.default_rng(8)
    free = [0, 3, 1, 4, 0, 2, 3, 1, 0, 3]

    def zeros(n):  # s = 1 and n free zeros
        return (0j, *(0.8 * rng.uniform(size=n) * np.exp(6j * rng.uniform(size=n))))

    specs = [SchwarzSpec(kind="blaschke_product", zeros=zeros(n), rotation=cmath.exp(1j * i))
             for i, n in enumerate(free)]
    specs[4] = SchwarzSpec(kind="unit_constant_times_z", rotation=-1j)
    batch = [generate_member(params, spec, order=16, validate=False) for spec in specs]
    stacks = []

    def counting(params, spec, q, z, phi=None):
        if isinstance(spec, SpecStack):
            stacks.append(spec)
        return schwarz_values(params, spec, q, z, phi)

    monkeypatch.setattr(robertson, "schwarz_values", counting)
    zs = 0.9 * np.exp(2j * np.pi * np.arange(40) / 40) * np.linspace(0.05, 1, 40)
    per_row = zs * np.exp(0.3j * np.arange(len(batch)))[:, None]
    values = MemberBatch(batch).values
    for q in ("P", "S"):
        for rows, points in ((values(q, zs), [zs] * len(batch)), (values(q, per_row), per_row)):
            for i, (m, row) in enumerate(zip(batch, rows)):
                assert np.array_equal(row, m.values(q, points[i])), (i, q)
    assert len(stacks) == 4
    _, s, factors = stacks[0].product
    assert s == 1 and [n for _, _, n in factors] == [7, 5, 4, 1]
    for z in zs:
        for q in ("P", "S"):
            want = [m.values(q, z) for m in batch]
            assert np.array_equal(values(q, [z]), np.array(want)[:, None]), (z, q)


def test_p_alone_matches_p_beside_s_bit_for_bit():
    # P skips phi' when S is not asked for: on circles and as a batch
    params = make_params(0.3, 0.5)
    specs = [BLASCHKE_WITNESS, SchwarzSpec(kind="unit_constant_times_z", rotation=1j, power=3),
             *sample_schwarz_specs(6, 6)]
    members = [generate_member(params, spec, order=16, validate=False) for spec in specs]
    radii = chebyshev_radii(8, 0.95)
    for m in members:
        both = m.on_circles(("P", "S"), radii, 32)
        assert np.array_equal(m.on_circles(("P",), radii, 32)[0], both[0]), m.provenance
        assert np.array_equal(m.on_circles(("S",), radii, 32)[0], both[1]), m.provenance
    zs = robertson.polar_grid(radii, 32).ravel()
    phi = [robertson.phi_values(m.schwarz, zs) for m in members]
    want = [schwarz_values(params, m.schwarz, "P", zs, p) for m, p in zip(members, phi)]
    assert np.array_equal(MemberBatch(members).values("P", zs), np.array(want))


def test_p_and_s_on_circle_are_on_circles_one_row():
    # p_on_circle and schwarzian.s_on_circle read on_circles' one row, bit for
    # bit, n = 1 included (numpy rounds some one-element complex products
    # apart from its array loop)
    params = make_params(0.3, 0.5)
    product = generate_member(params, BLASCHKE_WITNESS, order=64, validate=False)
    poly = generate_member(params, POLY_SP0, order=64, validate=False)
    plane = extremal_member(params, "plane", order=64)
    read = member_from_json(member_to_json(product))
    for m in (product, poly, plane, read):
        for n in (1024, 7, 1):
            for r in (0.0, 0.45, 0.9):
                for q, got in (("P", m.p_on_circle(r, n)), ("S", s_on_circle(m, r, n))):
                    want = m.on_circles((q,), [r], n)[0][0]
                    assert got.shape == (n,), (q, n)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (q, n, r)


# ---------------------------------------------------------------------------
# series from the Schwarz data
# ---------------------------------------------------------------------------

POLY_SP0 = SchwarzSpec(kind="polynomial", coeffs=(0, 0, 0.4, 0.3j, -0.2))


def _mp_series(params, spec, order):
    """P, S and f' coefficients of a spec with omega(0) = 0 at 40 digits.

    omega = num/den, so P = 2 G1 (num/z)/(den - num) = U/V and
    S = P' - P^2/2 = (U'V - UV' - U^2/2)/V^2, each by the recurrence of a
    division by a polynomial; a = f' by the recurrence of f'' V = U f',
    (n+1) a_{n+1} = sum_j U_j a_{n-j} - sum_{j>=1} V_j (n+1-j) a_{n+1-j}.
    """

    def mul(a, b):
        out = [mp.mpc(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def div(a, b, n):
        q = []
        for m in range(n + 1):
            s = sum((b[j] * q[m - j] for j in range(1, min(m, len(b) - 1) + 1)), mp.mpc(0))
            q.append(((a[m] if m < len(a) else 0) - s) / b[0])
        return np.array([complex(c) for c in q])

    def sub(a, b):
        return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                for i in range(max(len(a), len(b)))]

    with mp.workdps(40):
        num, den = [mp.mpc(c) for c in spec.coeffs], [mp.mpc(1)]
        if spec.kind == "blaschke_product":
            num = [mp.mpc(spec.rotation)]
            for a in map(mp.mpc, spec.zeros):
                num = [mp.mpc(0)] + num if a == 0 else mul(num, [a, -1])
                den = den if a == 0 else mul(den, [1, -mp.conj(a)])
        u, v = [2 * _mp_g1(params) * c for c in num[1:]], sub(den, num)
        du, dv = [i * c for i, c in enumerate(u)][1:], [i * c for i, c in enumerate(v)][1:]
        w = sub(sub(mul(du, v), mul(u, dv)), [c / 2 for c in mul(u, u)])
        a = [mp.mpc(1)]
        for n in range(order):
            s = sum((u[j] * a[n - j] for j in range(min(len(u), n + 1))), mp.mpc(0))
            s -= sum((v[j] * (n + 1 - j) * a[n + 1 - j] for j in range(1, min(len(v), n + 2))),
                     mp.mpc(0))
            a.append(s / (n + 1))
        fp = np.array([complex(c) for c in a])
        return div(u, v, order - 1), div(w, mul(v, v), order - 2), fp


def test_series_match_extended_precision_recurrence():
    params = make_params(math.pi / 4, 0.25)
    for spec, order in ((POLY_SP0, 512), (BLASCHKE_WITNESS, 512), (BLASCHKE_WITNESS, 2048)):
        m = generate_member(params, spec, order=order, validate=False)
        wants = _mp_series(params, spec, order)
        # measured for the Blaschke witness: P and S 1.5e-14 at order 512 and 5.9e-14
        # at 2048, where 31 of the 32 blocks of 1/V are solved from carried
        # coefficients alone; f' 1.6e-16 and 2.6e-16
        for got, want in zip((m.p_series(), m.s_series(), m.f_prime), wants):
            assert got.order == want.size - 1
            err = np.max(np.abs(got.coeffs - want)) / np.max(np.abs(want))
            assert err < 1e-13, (spec.kind, got.order, err)


def test_p_and_s_series_build_only_what_is_asked():
    # perfbench's tracer times p_series and schwarzian only while their cache
    # is None: P never builds S, S never builds P, both read the one cached
    # 1/V, and f' of a long V (the recurrence) builds neither
    params = make_params(math.pi / 4, 0.25)
    m = generate_member(params, BLASCHKE_WITNESS, order=256, validate=False)
    p = m.p_series()
    assert m._s_series is None and m._p_series is p
    inv = m._fraction[2]
    other = generate_member(params, BLASCHKE_WITNESS, order=256, validate=False)
    s = other.s_series()
    assert other._p_series is None and other._s_series is s
    m.s_series()
    assert m._fraction[2] is inv and inv.order == 255
    want = TruncatedSeries.constant(1.0, 255) / TruncatedSeries(m._fraction[1]).pad(255)
    assert np.array_equal(inv.coeffs, want.coeffs)
    assert np.array_equal(m.s_series().coeffs, s.coeffs)
    params, spec = make_params(0.0, 0.25), plane_extremal_schwarz_spec(128)
    assert p_fraction(params, spec)[1].size - 1 >= 64
    long_v = generate_member(params, spec, order=256, validate=False)
    assert long_v.f_prime.order == 256
    assert long_v._p_series is None and long_v._s_series is None


@pytest.mark.parametrize("order", [512, 4096])
def test_s_series_division_reuses_the_inverse_block(order, monkeypatch):
    # the final division of S by V takes 1/V's first SHORT_BLOCK coefficients
    # from _fraction, which holds them bit for bit, instead of rebuilding them
    # by the O(SHORT_BLOCK^2) recurrence: the same bytes as the rebuilt path,
    # and no _quotient call once 1/V is built
    params = make_params(math.pi / 4, 0.25)
    members = [generate_member(params, spec, order=order, validate=False)
               for sp0 in (False, True) for spec in sample_schwarz_specs(4, 6, sp0=sp0)]
    quotients = []
    quotient = series._quotient
    monkeypatch.setattr(series, "_quotient", lambda a, b: quotients.append(b) or quotient(a, b))
    got = []
    for m in members:
        m._fraction
        quotients.clear()
        got.append(m.s_series().coeffs.tobytes())
        assert quotients == []
    monkeypatch.undo()
    divide = TruncatedSeries._divide
    monkeypatch.setattr(TruncatedSeries, "_divide", lambda self, other, inv=None: divide(self, other))
    for m, bits in zip(members, got):
        m._s_series = None
        assert m.s_series().coeffs.tobytes() == bits


def test_f_prime_of_long_v_matches_closed_form():
    # omega = z/(2 - z) truncated at order 128 has deg V = 128, and f' runs
    # the recurrence on that window; at alpha = 0 it is (1 - z)^{-k}.
    # Measured: 8.6e-15
    params, spec = make_params(0.0, 0.25), plane_extremal_schwarz_spec(128)
    assert p_fraction(params, spec)[1].size - 1 == 128
    m = generate_member(params, spec, order=256, validate=False)
    n = np.arange(1, 257)
    want = np.concatenate(([1.0], np.cumprod((n - 1 + params.k) / n)))
    err = np.max(np.abs(m.f_prime.coeffs - want) / want)
    assert err < 1e-12, err


def test_series_from_spec_match_f_prime_route():
    # f' from the recurrence of f'' V = U f' and the series P = U/V; P
    # recovered from f' by f''/f' must agree, and the orders are N - 1 for P
    # and N - 2 for S
    specs = [
        POLY_SP0,
        BLASCHKE_WITNESS,
        SchwarzSpec(kind="unit_constant_times_z", rotation=0.6 - 0.3j),
    ]
    for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
        params = make_params(alpha, beta)
        for spec in specs:
            m = generate_member(params, spec, order=256, validate=False)
            fp = m.f_prime
            assert (fp.order, m.p_series().order, m.s_series().order) == (256, 255, 254)
            assert (fp.deriv() / fp).max_abs_diff(m.p_series()) < 1e-12, spec
            via = (phi_series(spec, 255) * (2 * params.g1)) / (1 - omega_series(spec, 255))
            assert via.max_abs_diff(m.p_series()) < 1e-12, spec


def _scalar_f_prime(params, spec, order) -> np.ndarray:
    """The bit reference of f': the O(N d) recurrence of f'' V = U f' over
    Python complex scalars (recent holds a_n, recent_n n a_n, newest first)."""
    u, v = p_fraction(params, spec)
    d = int(np.flatnonzero(v)[-1])
    u, v = u[:d].tolist(), v[1 : d + 1].tolist()
    a = [1 + 0j]
    recent, recent_n = deque(a, maxlen=len(u)), deque([0j], maxlen=len(v))
    for n in range(1, order + 1):
        na = sum(map(complex.__mul__, u, recent)) - sum(map(complex.__mul__, v, recent_n))
        recent_n.appendleft(na)
        a.append(na / n)
        recent.appendleft(a[-1])
    return np.array(a)


def test_batch_f_prime_matches_scalar_loop_bits(monkeypatch):
    # every f' of a generated member, alone or inside a MemberBatch (one
    # vectorized _f_prime_rows call per order), must be the scalar loop's raw
    # bit for raw bit (uint64 views, so the sign of zero counts): sampled SP0
    # and general specs at two (alpha, beta), polynomials with deg V = 11 and
    # 24, and one with 81 coefficients, more than orders 8 and 64 have;
    # omega = 0 and -z^2 have exact zero coefficients, and the small omegas'
    # coefficients underflow to zero
    deg11 = SchwarzSpec(kind="polynomial",
                        coeffs=(0, *(0.08 * cmath.exp(1j * j) for j in range(1, 12))))
    zeros = [SchwarzSpec(kind="polynomial", coeffs=(0, 0, 0)),
             SchwarzSpec(kind="unit_constant_times_z", rotation=-1.0, power=2),
             SchwarzSpec(kind="polynomial", coeffs=(0, 0, 0.01, -0.003j)),
             SchwarzSpec(kind="blaschke_product", zeros=(0j, 0j, 0.05), rotation=-1j)]
    long_v, longer = plane_extremal_schwarz_spec(24), plane_extremal_schwarz_spec(80)
    assert [p_fraction(make_params(0, 0), s)[1].size - 1 for s in (deg11, long_v, longer)] == [
        11, 24, 80]
    looped = []

    def rows(uvs, order):
        looped.append((len(uvs), order))
        return real(uvs, order)

    real = robertson._f_prime_rows
    monkeypatch.setattr(robertson, "_f_prime_rows", rows)
    for order, count in ((8, 12), (64, 12), (512, 12), (4096, 3)):
        specs = [*sample_schwarz_specs(order, count, sp0=True),
                 *sample_schwarz_specs(order + 1, count), *zeros, deg11, long_v, longer]
        for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
            params = make_params(alpha, beta)
            batch = [generate_member(params, spec, order=order, validate=False) for spec in specs]
            del looped[:]
            list(MemberBatch(batch).circles("fprime", [0.5], 8))
            assert looped == [(len(specs), order)]
            for spec, m in zip(specs, batch):
                want = _scalar_f_prime(params, spec, order).view(np.uint64)
                alone = generate_member(params, spec, order=order, validate=False).f_prime
                assert np.array_equal(m.f_prime.coeffs.view(np.uint64), want), (order, spec)
                assert np.array_equal(alone.coeffs.view(np.uint64), want), (order, spec)
    # a lone member makes one call of one row, and a batch of omega = 0
    # alone one call with every row
    del looped[:]
    assert np.array_equal(generate_member(params, zeros[0], order=64).f_prime.coeffs,
                          np.eye(1, 65)[0])
    identity = [generate_member(params, zeros[0], order=64) for _ in range(3)]
    list(MemberBatch(identity).circles("f", [0.5], 8))
    assert looped == [(1, 64), (3, 64)]
    assert all(np.array_equal(m.f_prime.coeffs, np.eye(1, 65)[0]) for m in identity)


def test_batch_circles_match_member_circles():
    # one block per closed form; series of one length fold together, a member
    # read from JSON (rebuilt from its spec) among them, and members at a
    # second order join their own length
    params = make_params(0.4, 0.1)
    batch = sample_members(params, 9, seed=2, sp0=True, order=64)
    batch += [extremal_member(params, "disk_symmetric", 1j, order=64),
              member_from_json(member_to_json(batch[0])),
              *sample_members(params, 5, seed=3, order=32)]
    radii = np.array([0.0, 0.3, 0.85])
    for q in ("fprime", "f"):
        seen = []
        for rows, values in MemberBatch(batch).circles(q, radii, 16):
            assert len(rows) == len(values)
            for i, got in zip(rows, values):
                m = batch[i]
                want = (m.on_circles((q,), radii, 16)[0] if q == "fprime"
                        else m.f.eval_on_circles(radii, 16))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (q, i)
            seen += rows
        assert sorted(seen) == list(range(len(batch)))
    with pytest.raises(ParamOutOfRange):
        next(MemberBatch(batch).circles("P", radii, 16))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_member_json_roundtrip():
    p = make_params(0.25, 0.4)
    spec = SchwarzSpec(kind="blaschke_product", zeros=(0j, 0.5), rotation=1j)
    m = generate_member(p, spec, order=32)
    back = member_from_json(member_to_json(m))
    assert np.array_equal(back.f.coeffs, m.f.coeffs)
    assert np.array_equal(back.f_prime.coeffs, m.f_prime.coeffs)
    assert back.provenance == spec

    ext = extremal_member(p, "disk_symmetric", 1.0, order=24)
    back2 = member_from_json(member_to_json(ext))
    assert back2.closed_form is not None
    assert back2.closed_form.variant == "disk_symmetric"
    assert np.array_equal(back2.f.coeffs, ext.f.coeffs)


def test_member_from_json_rebuilds_the_member_it_names():
    # a member read back is the member written, rebuilt from its Schwarz spec
    # or closed form at the order of its f_prime: the same bits of P and S on
    # circle(0.95, 256) and the same norm rows
    params = make_params(math.pi / 4, 0.25)
    members = [generate_member(params, BLASCHKE_WITNESS, order=n) for n in (64, 256, 512)]
    members += [extremal_member(params, v, lam, order=64)
                for v in ("plane", "disk_symmetric") for lam in (1.0, 1j)]
    zs = robertson.circle(0.95, 256)
    for m in members:
        back = member_from_json(member_to_json(m))
        assert (back.order, back.provenance, back.closed_form) == (m.order, m.provenance,
                                                                   m.closed_form)
        for q in ("P", "S"):
            assert np.array_equal(back.values(q, zs).view(np.uint64),
                                  m.values(q, zs).view(np.uint64)), (m.provenance, q)
        assert norm_estimates([back], (1, 2)) == norm_estimates([m], (1, 2))
    # a provenance that names neither a spec nor a closed form, and a spec
    # that is not a Schwarz function, are refused
    d = member_to_json(members[-1])
    del d["closed_form"]
    with pytest.raises(ParamOutOfRange, match="neither a Schwarz spec nor a closed form"):
        member_from_json(d)
    d = member_to_json(members[0])
    d["provenance"]["rotation"] = [1.5, 0.0]
    with pytest.raises(NotASchwarzFunction, match="rotation"):
        member_from_json(d)
    with pytest.raises(ParamOutOfRange, match="needs Schwarz data or a closed form"):
        MemberSeries(params, "bare", 64)
