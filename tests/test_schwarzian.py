"""Operator and norm-estimation tests for the schwarzian module."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robertson_kit import cli
from robertson_kit.robertson import (
    ClosedForm,
    MemberBatch,
    MemberSeries,
    ParamOutOfRange,
    SchwarzSpec,
    circle,
    extremal_member,
    generate_member,
    make_params,
    member_from_json,
    member_to_json,
    polar_grid,
)
from robertson_kit.sampling import sample_schwarz_specs
from robertson_kit.schwarzian import (
    SCAN_ANGLES,
    SCAN_RADII,
    ZOOM_TOL,
    NormEstimate,
    ScanOpts,
    golden_max,
    norm_estimate,
    norm_estimates,
    schwarzian,
    schwarzian_via_phi,
    weighted_value,
    _coarse_scan,
    _zoom,
)
from robertson_kit.series import TruncatedSeries, chebyshev_radii

NORM_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "norm_soundness.json"


def identity_member(params, order=16):
    return generate_member(
        params, SchwarzSpec(kind="polynomial", coeffs=(0, 0)), order=order
    )


def half_plane_member(order=256):
    """f = z/(1-z) with exact evaluators (P = 2/(1-z), Mobius so S = 0)."""
    return MemberSeries(make_params(0, 0), "mobius_half_plane", order,
                        closed_form=ClosedForm(variant="plane", lam=1.0 + 0j, k=2.0))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_pre_schwarzian_of_identity_is_zero():
    m = identity_member(make_params(0.3, 0.5))
    assert np.max(np.abs(m.p_series().coeffs)) < 1e-14


def test_pre_schwarzian_disk_extremal_value():
    m = extremal_member(make_params(0, 0), "disk_symmetric", 1.0, order=64)
    # P(z) = 2kz/(1-z^2); at z = 1/2 and k = 1 this is 4/3
    assert abs(m.closed_form.p(0.5) - 4 / 3) < 1e-15
    assert abs(m.p_series().eval_at(0.5, 0.6) - 4 / 3) < 1e-12


def test_pre_schwarzian_half_plane_series():
    m = half_plane_member(order=32)
    assert np.max(np.abs(m.p_series().coeffs - 2.0)) < 1e-11


@settings(max_examples=25, deadline=None)
@given(st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False))
def test_mobius_annihilation(c):
    # f = z/(1 - c z) is Mobius; its Schwarzian vanishes identically
    p = make_params(0, 0)
    spec = SchwarzSpec(kind="unit_constant_times_z", rotation=c)
    m = generate_member(p, spec, order=96, validate=False)
    assert np.max(np.abs(schwarzian(m).coeffs)) < 1e-9


def test_schwarzian_disk_extremal_closed_form():
    # independent series oracle: S = 2k(1+(1-k)z^2)/(1-z^2)^2 built directly
    for alpha, beta in ((0.0, 0.0), (0.5, 0.25)):
        params = make_params(alpha, beta)
        k = params.k
        m = extremal_member(params, "disk_symmetric", 1.0, order=96)
        s = schwarzian(m)
        num = TruncatedSeries([2 * k, 0, 2 * k * (1 - k)]).pad(96)
        den = TruncatedSeries([1, 0, -1]).pad(96)
        oracle = num / (den * den)
        assert s.max_abs_diff(oracle) < 1e-10
        assert abs(m.values("S", 0.0) - 2 * k) < 1e-14


def test_schwarzian_of_identity():
    m = identity_member(make_params(0, 0))
    assert np.max(np.abs(schwarzian(m).coeffs)) < 1e-14


def test_via_phi_zero_schwarz_data():
    s = schwarzian_via_phi(
        make_params(0.2, 0.3), SchwarzSpec(kind="polynomial", coeffs=(0, 0)), 32
    )
    assert np.max(np.abs(s.coeffs)) < 1e-14


def test_via_phi_matches_operator_route_disk_data():
    params = make_params(0, 0)
    spec = SchwarzSpec(kind="unit_constant_times_z", power=2)
    direct = schwarzian(generate_member(params, spec, order=128))
    via = schwarzian_via_phi(params, spec, 128)
    assert via.max_abs_diff(direct) < 1e-9


def test_via_phi_plane_data_value_at_origin():
    # phi = 1/(2-z) generates f' = (1-z)^{-1}, whose S = 1/(2(1-z)^2)
    from robertson_kit.robertson import plane_extremal_schwarz_spec

    params = make_params(0, 0)
    s = schwarzian_via_phi(params, plane_extremal_schwarz_spec(order=96), 96)
    assert abs(s.coeffs[0] - 0.5) < 1e-12
    oracle = TruncatedSeries([0.5]).pad(96) / (
        TruncatedSeries([1, -1]).pad(96) * TruncatedSeries([1, -1]).pad(96)
    )
    assert s.max_abs_diff(oracle) < 1e-10


def test_via_phi_agreement_on_seeded_specs():
    for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
        params = make_params(alpha, beta)
        for spec in sample_schwarz_specs(17, 30):
            direct = schwarzian(generate_member(params, spec, order=128, validate=False))
            via = schwarzian_via_phi(params, spec, 128)
            assert via.max_abs_diff(direct) < 1e-9


def test_finite_difference_derivative_of_p():
    rng = np.random.default_rng(8)
    params = make_params(0.3, 0.2)
    spec = sample_schwarz_specs(23, 1)[0]
    m = generate_member(params, spec, order=256, validate=False)
    p = m.p_series()
    dp = p.deriv()
    h = 1e-5
    for _ in range(20):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        fd = (p.eval_at(z + h, 0.6) - p.eval_at(z - h, 0.6)) / (2 * h)
        exact = dp.eval_at(z, 0.6)
        assert abs(fd - exact) / max(abs(exact), 1e-3) < 1e-6


def test_disk_automorphism_composition_invariance():
    # For T(z) = (z+a)/(1+conj(a) z): S_{f o T}(0) = S_f(a) T'(0)^2 with
    # S_T = 0, so (1-|a|^2)^2 |S_f(a)| equals |S_{f o T}(0)|.  The left side
    # uses closed forms; the right side is recovered from pointwise values
    # of f o T by Cauchy-integral Taylor coefficients, an independent route.
    params = make_params(0, 0.25)
    member = extremal_member(params, "disk_symmetric", 1.0, order=256)
    rng = np.random.default_rng(4)
    for _ in range(6):
        a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        rho, mpts = 0.2, 256
        w = rho * np.exp(2j * np.pi * np.arange(mpts) / mpts)
        t = (w + a) / (1 + np.conj(a) * w)
        g = member.f.eval_at(t, 0.95)
        coeffs = np.fft.fft(g) / mpts  # c_n rho^n with the fft sign convention
        c1 = coeffs[1] / rho
        c2 = coeffs[2] / rho**2
        c3 = coeffs[3] / rho**3
        s_at_0 = 6 * c3 / c1 - 1.5 * (2 * c2 / c1) ** 2
        lhs = (1 - abs(a) ** 2) ** 2 * abs(member.closed_form.s(a))
        assert abs(abs(s_at_0) - lhs) < 1e-8


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------


def test_golden_max_quadratic():
    x, v, _ = golden_max(lambda t: -(t - 0.3) ** 2 + 2.0, 0.0, 1.0, 1e-12)
    assert abs(x - 0.3) < 1e-6 and abs(v - 2.0) < 1e-12


def test_norm_of_identity_map():
    for alpha, beta in ((0.5, 0.5), (0.0, 0.0)):
        m = identity_member(make_params(alpha, beta))
        assert norm_estimate(m, 1).value < 1e-12
        assert norm_estimate(m, 2).value < 1e-12


def test_norm_disk_extremal_weights():
    # (1-|z|^2)|P| -> 2k and (1-|z|^2)^2 |S| -> 2k(2-k): 2 and 2 at (0, 0),
    # 1 and 1.5 at (0, 0.5)
    for beta in (0.0, 0.5):
        p = make_params(0, beta)
        m = extremal_member(p, "disk_symmetric", 1.0, order=64)
        e2 = norm_estimate(m, 2)
        assert abs(e2.value - 2 * p.k * (2 - p.k)) < 5e-3
        e1 = norm_estimate(m, 1)
        assert abs(e1.value - 2 * p.k) < 5e-3
        assert e2.weight_exponent == 2 and e1.weight_exponent == 1
        assert abs(e1.argmax) <= e1.r_max * (1 + 1e-12)


def test_norm_half_plane_map():
    m = half_plane_member()
    e = norm_estimate(m, 1)
    assert abs(e.value - 4.0) < 5e-3


def test_norm_rotated_argmax():
    # lam = -1 moves the maximizing ray to the imaginary axis pair
    p = make_params(0, 0.5)
    m = extremal_member(p, "disk_symmetric", -1.0 + 0j, order=64)
    e = norm_estimate(m, 2)
    assert abs(e.value - 2 * p.k * (2 - p.k)) < 5e-3


def test_norm_scan_monotone_in_radius():
    p = make_params(0, 0.25)
    m = extremal_member(p, "disk_symmetric", 1.0, order=64)
    spec = sample_schwarz_specs(41, 1, sp0=True)[0]
    g = generate_member(p, spec, order=512, validate=False)
    for member in (m, g):
        vals = [
            norm_estimate(member, 2, ScanOpts(r_max=r)).value
            for r in (0.8, 0.9, 0.95)
        ]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_norm_estimate_does_not_depend_on_series_order():
    # generated members are scanned through their Schwarz data, not a series
    params = make_params(math.pi / 4, 0.25)
    spec = sample_schwarz_specs(20250810, 3, sp0=True)[2]
    low, high = (generate_member(params, spec, order=n, validate=False) for n in (64, 512))
    for w in (1, 2):
        est = norm_estimate(low, w, ScanOpts(r_max=0.95))
        assert est == norm_estimate(high, w, ScanOpts(r_max=0.95))
        assert est.tail_error == 0.0


def test_norm_estimate_json():
    m = extremal_member(make_params(0, 0), "disk_symmetric", 1.0, order=32)
    d = norm_estimate(m, 2).to_json()
    assert set(d) == {
        "value",
        "argmax",
        "weight_exponent",
        "r_max",
        "tail_error",
        "refinement_steps",
    }


def test_norm_value_is_attained_at_argmax():
    # value is the weighted modulus at argmax itself, bit for bit, so a
    # point residual there replays a norm check's margin exactly
    params = make_params(math.pi / 4, 0.25)
    spec = sample_schwarz_specs(20250810, 3, sp0=True)[2]
    series_member = generate_member(params, spec, order=512, validate=False)
    extremal = extremal_member(params, "disk_symmetric", 1.0, order=64)
    for m in (series_member, extremal):
        for w in (1, 2):
            est = norm_estimate(m, w, ScanOpts(r_max=0.95))
            assert weighted_value(m, est.argmax, w) == est.value
            assert abs(est.argmax) <= est.r_max * (1 + 1e-12)


def test_norm_zoom_follows_anisotropic_ridge():
    # a zoom that recentres within one patch cell stops 6.5e-5 short here
    spec = sample_schwarz_specs(20250810, 100, sp0=True)[4]
    m = generate_member(make_params(0, 0), spec, order=512, validate=False)
    est = norm_estimate(m, 2, ScanOpts(r_max=0.95))
    assert est.value >= 1.7610670013067666 - 1e-12
    # 14 levels of 17 x 17 points take the default window down to 1e-10
    assert est.refinement_steps == 14 * 17 * 17


def test_norm_coarse_refine_tol_refines_once():
    # a zoom tolerance wider than the scan cell still evaluates one patch
    m = extremal_member(make_params(0, 0.5), "disk_symmetric", 1.0, order=64)
    r_max = ScanOpts().r_max
    radii = np.append(chebyshev_radii(SCAN_RADII, r_max), r_max)
    r, theta = _coarse_scan([m], (2,), radii, SCAN_ANGLES)
    best, _, steps = _zoom(MemberBatch([m]), 2, r_max, r[:, 0], theta[:, 0],
                           r_max / (SCAN_RADII + 1), 2 * math.pi / SCAN_ANGLES, 1.0)
    assert steps == 17 * 17
    assert 0 < best[0] <= norm_estimate(m, 2).value


def test_norm_estimate_default_radius_serves_every_member():
    # every member's P_f and S_f are exact, so a generated member scans to
    # the extremals' r_max, 0.9995, by default
    params = make_params(math.pi / 4, 0.25)
    g = generate_member(params, sample_schwarz_specs(20250810, 3, sp0=True)[2], order=64)
    ext = extremal_member(params, "disk_symmetric", 1.0, order=64)
    for w in (1, 2):
        est = norm_estimate(g, w)
        assert est.r_max == norm_estimate(ext, w).r_max == 0.9995
        assert est == norm_estimate(g, w, ScanOpts(r_max=0.9995))


@pytest.mark.parametrize("weights", [(0,), (1, 3), (2.5,)])
def test_norm_weight_must_be_one_or_two(weights):
    m = extremal_member(make_params(0, 0), "disk_symmetric", 1.0, order=32)
    with pytest.raises(ParamOutOfRange, match="weight_exponent"):
        norm_estimates([m], weights)


def _one_member_estimate(member, w, opts):
    """norm_estimate one member and one weight at a time: the coarse loop
    and the scalar zoom as they were before the batch."""
    r_max = opts.r_max
    radii = np.append(chebyshev_radii(SCAN_RADII, r_max), r_max)
    vals = np.empty((radii.size, SCAN_ANGLES))
    for at in range(0, radii.size, 16):
        zs = polar_grid(radii[at : at + 16], SCAN_ANGLES)
        vals[at : at + 16] = weighted_value(member, zs, w)
    j, i = np.unravel_index(int(np.argmax(vals)), vals.shape)
    r, theta = float(radii[j]), 2 * math.pi * i / SCAN_ANGLES
    dr, dth = r_max / (SCAN_RADII + 1), 2 * math.pi / SCAN_ANGLES
    offsets = np.linspace(-1.0, 1.0, 17)
    best, best_z, evals = -math.inf, None, 0
    while True:
        rs = np.clip(r + dr * offsets, 0.0, r_max)
        ths = theta + dth * offsets
        zs = rs[:, None] * np.exp(1j * ths)[None, :]
        v = weighted_value(member, zs, w)
        evals += zs.size
        a, b = np.unravel_index(int(np.argmax(v)), v.shape)
        if v[a, b] > best:
            best, best_z, r, theta = float(v[a, b]), complex(zs[a, b]), rs[a], ths[b]
        dr, dth = dr / 4, dth / 4
        if dr <= ZOOM_TOL and dth <= ZOOM_TOL:
            break
    return NormEstimate(value=best, argmax=best_z, weight_exponent=w, r_max=float(r_max),
                        tail_error=0.0, refinement_steps=evals)


def _mixed_family():
    """verify's SP0 batch (--samples 6) at two points, and one member of each other kind."""
    members = []
    for alpha, beta in ((0.0, 0.0), (math.pi / 4, 0.25)):
        cfg = cli.RunConfig(alpha=alpha, beta=beta, order=512, samples=6)
        members += cli.RunCache().members(cfg, "sp0")[2]
    p = make_params(math.pi / 4, 0.25)
    rng = np.random.default_rng(3)
    members.append(generate_member(p, SchwarzSpec("polynomial", (0, 0.3, 0.2j, -0.1)), order=256))
    for n in range(1, 5):
        zeros = tuple(complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(n))
        spec = SchwarzSpec("blaschke_product", zeros=(0j,) + zeros, rotation=0.6 + 0.8j)
        members.append(generate_member(p, spec, order=256))
    members.append(extremal_member(make_params(0.3, 0.1), "disk_symmetric", 1j, order=256))
    poly = generate_member(p, SchwarzSpec("polynomial", (0, 0, 0.5, 0.1j)), order=512)
    members.append(member_from_json(member_to_json(poly)))
    return members


@pytest.mark.parametrize("r_max", [0.95, 0.9995])
def test_norm_estimates_match_one_member_reference(r_max):
    members = _mixed_family()
    opts = ScanOpts(r_max=r_max)
    ref = {(id(m), w): _one_member_estimate(m, w, opts) for m in members for w in (1, 2)}
    for weights in ((1,), (2,), (1, 2)):
        rows = norm_estimates(members, weights, opts)
        assert len(rows) == len(members)
        for m, row in zip(members, rows):
            assert row == [ref[id(m), w] for w in weights]
    assert norm_estimate(members[-1], 2, opts) == ref[id(members[-1]), 2]


def test_closed_form_serves_before_schwarz_data():
    # a member with a closed form and Schwarz data is scanned by its closed
    # form, as exact() evaluates it, even batched with generated members
    params = make_params(math.pi / 4, 0.25)
    ext = extremal_member(params, "disk_symmetric", 1.0, order=64)
    both = MemberSeries(params, ext.provenance, 64, closed_form=ext.closed_form,
                        schwarz=SchwarzSpec("polynomial", (0, 0, 0.5)))
    assert both.exact_schwarz is None
    specs = sample_schwarz_specs(20250810, 3, sp0=True)
    batch = [both] + [generate_member(params, s, order=64, validate=False) for s in specs]
    opts = ScanOpts(r_max=0.95)
    rows = norm_estimates(batch, (1, 2), opts)
    assert rows[0] == [_one_member_estimate(ext, w, opts) for w in (1, 2)]
    for m in (both, ext):
        assert np.array_equal(m.on_circles(("S",), (0.5,), 8)[0][0],
                              ext.closed_form.s(circle(0.5, 8)))


def test_norms_not_below_benchmark_reference():
    # the benchmark's recorded criterion-3 norms, read and never rewritten:
    # a faster scan or kernel may only find larger (or equal) maxima
    with open(NORM_REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    assert (ref["spec_seed"], ref["order"], ref["r_max"]) == (20250810, 512, 0.95)
    specs = sample_schwarz_specs(ref["spec_seed"], 100, sp0=True)[:10]
    for (alpha, beta), recorded in zip(ref["points"], ref["values"]):
        params = make_params(alpha, beta)
        for spec, values in zip(specs, recorded):
            m = generate_member(params, spec, order=ref["order"], validate=False)
            for weight, value in zip((1, 2), values):
                est = norm_estimate(m, weight, ScanOpts(r_max=ref["r_max"]))
                assert est.value >= value - 1e-12


# ---------------------------------------------------------------------------
# Nehari thresholds: ||S_f|| <= 6 for univalent f; ||S_f|| <= 2 certifies
# univalence, and ||S_f||/2 is then the quasiconformal-extension constant
# ---------------------------------------------------------------------------


def test_nehari_identity_map():
    s_norm = norm_estimate(identity_member(make_params(0, 0)), 2).value
    assert abs((6 - s_norm) - 6) < 1e-9
    assert abs((2 - s_norm) - 2) < 1e-9
    assert s_norm / 2 < 1e-9


def test_nehari_disk_extremal_boundary_case():
    m = extremal_member(make_params(0, 0), "disk_symmetric", 1.0, order=64)
    s_norm = norm_estimate(m, 2).value
    assert abs(2 - s_norm) < 5e-3
    assert s_norm / 2 <= 1 and abs(s_norm / 2 - 1.0) < 3e-3


def test_nehari_half_order_extremal():
    m = extremal_member(make_params(0, 0.5), "disk_symmetric", 1.0, order=64)
    s_norm = norm_estimate(m, 2).value
    assert abs(s_norm - 1.5) < 5e-3
    assert abs((2 - s_norm) - 0.5) < 5e-3
    assert abs(s_norm / 2 - 0.75) < 3e-3
