"""Series-kernel tests: frozen oracles plus hypothesis property checks."""

import json
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robertson_kit.series import (
    DEFAULT_ORDER,
    CoefficientOverflow,
    DivisionByZeroConstantTerm,
    RadiusExceeded,
    TruncatedSeries,
    _quotient,
    circle_blocks,
    chebyshev_radii,
)
from robertson_kit.robertson import make_params, p_fraction
from robertson_kit.sampling import sample_schwarz_specs


def geometric(order, ratio=1.0):
    return TruncatedSeries(ratio ** np.arange(order + 1))


bounded_coeffs = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_polynomial_product_identity():
    a = TruncatedSeries([1, 1]).pad(8)
    b = TruncatedSeries([1, -1]).pad(8)
    prod = a * b
    want = np.zeros(9, dtype=complex)
    want[0], want[2] = 1, -1
    assert np.allclose(prod.coeffs, want, atol=0)


def test_geometric_series_division():
    one = TruncatedSeries.constant(1.0, 20)
    inv = one / TruncatedSeries([1, -1]).pad(20)
    assert np.allclose(inv.coeffs, 1.0, atol=0)


def test_factorization_division():
    num = TruncatedSeries([1, 0, -1]).pad(12)
    den = TruncatedSeries([1, -1]).pad(12)
    q = num / den
    want = np.zeros(13, dtype=complex)
    want[0] = want[1] = 1
    assert np.allclose(q.coeffs, want, atol=1e-15)


def test_division_by_zero_constant_term():
    with pytest.raises(DivisionByZeroConstantTerm):
        TruncatedSeries([1, 1]) / TruncatedSeries([0, 1])


@pytest.mark.parametrize("degree", [0, 1, 9, 63])
def test_short_divisor_division_matches_recurrence(degree):
    # a divisor of degree < 64 is divided in blocks of 64 coefficients; the
    # O(N^2) recurrence that every longer divisor takes is the reference
    rng = np.random.default_rng(degree)
    order = 300  # not a multiple of the block
    a = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
    # b's zeros 1/c lie outside |z| = 1/0.7, so the coefficients of 1/b decay
    cs = 0.7 * np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
    b = np.array([1.2 + 0.1j])
    for c in cs:
        b = np.convolve(b, [1, -c])
    divisor = TruncatedSeries(np.pad(b, (0, order - degree)))
    want = _quotient(a, divisor.coeffs)
    got = (TruncatedSeries(a) / divisor).coeffs
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _sp0_blaschke_divisors(count):
    # V of sampled SP0 Blaschke products: den - z num, with roots on |z| = 1
    specs = [s for s in sample_schwarz_specs(5, 40, sp0=True) if s.kind == "blaschke_product"]
    return [p_fraction(make_params(0.3, 0.2), s)[1] for s in specs[:count]]


@pytest.mark.parametrize("case", ["short_numerator", "zero_numerator", "full_numerator"])
def test_short_divisor_division_at_high_order(case):
    # at order 4096, by the V of sampled SP0 Blaschke products, whose roots lie
    # on |z| = 1 so that 1/V does not decay: a numerator zero past its third
    # coefficient has every block after the first solved from the carried
    # coefficients alone, as 1/V does; the recurrence is the reference
    order = 4096
    rng = np.random.default_rng(7)
    a = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
    if case != "full_numerator":
        a[3 if case == "short_numerator" else 0 :] = 0
    divisors = _sp0_blaschke_divisors(3)
    assert len(divisors) == 3 and all(v.size - 1 < 64 for v in divisors)
    assert all(np.allclose(np.abs(np.roots(v[::-1])), 1.0) for v in divisors)
    for v in divisors:
        divisor = TruncatedSeries(v).pad(order)
        want = _quotient(a, divisor.coeffs)
        got = (TruncatedSeries(a) / divisor).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), case
        assert (np.max(np.abs(want)) > 0) == (case != "zero_numerator")


def test_division_roundtrip_exactness():
    rng = np.random.default_rng(3)
    a = TruncatedSeries(rng.normal(size=16) + 1j * rng.normal(size=16))
    b = TruncatedSeries(
        np.concatenate(([1.5], 0.3 * (rng.normal(size=15) + 1j * rng.normal(size=15))))
    )
    assert ((a / b) * b).max_abs_diff(a) < 1e-12


def test_coefficient_overflow_guard():
    big = TruncatedSeries([1e101, 1])
    with pytest.raises(CoefficientOverflow):
        big * big
    with pytest.raises(CoefficientOverflow):
        TruncatedSeries([1, np.nan])


@settings(max_examples=40, deadline=None)
@given(bounded_coeffs, bounded_coeffs, bounded_coeffs)
def test_ring_axioms(ca, cb, cc):
    a, b, c = (TruncatedSeries(x).pad(14) for x in (ca, cb, cc))
    assert ((a * b) * c).max_abs_diff(a * (b * c)) < 1e-12
    assert (a * (b + c)).max_abs_diff(a * b + a * c) < 1e-12


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def test_deriv_of_geometric():
    d = geometric(10).deriv()
    assert np.allclose(d.coeffs, np.arange(1, 11), atol=0)


def test_integ_of_one_is_z():
    z = TruncatedSeries.constant(1.0, 4).integ()
    assert np.allclose(z.coeffs, [0, 1, 0, 0, 0, 0], atol=0)


@settings(max_examples=40, deadline=None)
@given(bounded_coeffs)
def test_deriv_integ_roundtrip(coeffs):
    a = TruncatedSeries(coeffs).pad(10)
    assert a.integ().deriv().max_abs_diff(a) < 1e-15


@settings(max_examples=40, deadline=None)
@given(bounded_coeffs, bounded_coeffs)
def test_leibniz_rule(ca, cb):
    a, b = TruncatedSeries(ca).pad(12), TruncatedSeries(cb).pad(12)
    lhs = (a * b).deriv()
    rhs = a.deriv() * b + a * b.deriv()
    assert lhs.max_abs_diff(rhs) < 1e-12


# ---------------------------------------------------------------------------
# exp / log / pow
# ---------------------------------------------------------------------------


def test_exp_log_identity_on_one_plus_z():
    a = TruncatedSeries([1, 1]).pad(24)
    assert a.log().exp().max_abs_diff(a) < 1e-12


nice_coeffs = st.lists(
    st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=10,
)


@settings(max_examples=40, deadline=None)
@given(nice_coeffs)
def test_log_exp_and_exp_log_inverses(coeffs):
    a = TruncatedSeries(coeffs).pad(12) + 1.5  # keep the constant term away from 0
    assert a.exp().log().max_abs_diff(a) < 1e-12
    assert a.log().exp().max_abs_diff(a) < 1e-12


def test_pow_minus_one_is_geometric():
    p = TruncatedSeries([1, -1]).pad(20).pow(-1)
    assert np.allclose(p.coeffs, 1.0, atol=1e-13)


def test_pow_half_rising_factorial_oracle():
    # oracle: (1-z)^{-c} has coefficients given by c_{n+1} = c_n (c+n)/(n+1)
    def oracle(c, order):
        out = np.empty(order + 1, dtype=complex)
        out[0] = 1.0
        for n in range(order):
            out[n + 1] = out[n] * (c + n) / (n + 1)
        return out

    p = TruncatedSeries([1, -1]).pad(30).pow(-0.5)
    want = oracle(0.5, 30)
    assert np.max(np.abs(p.coeffs - want)) < 1e-13
    assert abs(p.coeffs[1] - 0.5) < 1e-15 and abs(p.coeffs[2] - 0.375) < 1e-15


@settings(max_examples=30, deadline=None)
@given(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_pow_additivity(c1, c2):
    a = TruncatedSeries([1.0, -0.4, 0.2j]).pad(16)
    lhs = a.pow(c1 + c2)
    rhs = a.pow(c1) * a.pow(c2)
    assert lhs.max_abs_diff(rhs) < 1e-10


# ---------------------------------------------------------------------------
# evaluation and tails
# ---------------------------------------------------------------------------


def test_eval_geometric_at_half():
    s = geometric(60)
    assert abs(s.eval_at(0.5, 0.6) - 2.0) < 1e-15


def test_eval_at_zero_returns_constant_term():
    s = TruncatedSeries([2.5 + 1j, 3, 4])
    assert s.eval_at(0.0, 0.5) == 2.5 + 1j


def test_eval_radius_guard():
    s = geometric(10)
    with pytest.raises(RadiusExceeded):
        s.eval_at(0.7, 0.5)
    with pytest.raises(RadiusExceeded):
        s.eval_at(0.5, 1.0)
    # NaN is never inside the radius: no NaN comes back as a value
    with pytest.raises(RadiusExceeded):
        s.eval_at(complex(np.nan, 0.0), 0.9)
    with pytest.raises(RadiusExceeded):
        s.eval_at(np.array([0.1, np.nan, 0.2j]), 0.9)


def _oracle(coeffs, z) -> complex:
    """Horner in 40-digit arithmetic."""
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        acc = mpmath.mpc(0)
        for c in coeffs[::-1]:
            acc = acc * zm + mpmath.mpc(c.real, c.imag)
        return complex(acc)


@pytest.mark.parametrize("size", [1, 2, 15, 16, 17, 33, 512, 4096])
def test_eval_at_matches_extended_precision_oracle(size):
    # short series and the production orders
    rng = np.random.default_rng(size)
    c = rng.normal(size=size) + 1j * rng.normal(size=size)
    s = TruncatedSeries(c)
    r_trunc = 0.95
    grid = np.linspace(0.0, r_trunc, 17)[:, None] * np.exp(1j * np.linspace(0, 6, 17))[None, :]
    inputs = [
        complex(0.6, -0.7),
        r_trunc * np.exp(1j * rng.uniform(0, 2 * np.pi, 5)) * rng.uniform(0, 1, 5),
        grid,
    ]
    for z in inputs:
        got = s.eval_at(z, r_trunc)
        if np.ndim(z) == 0:
            assert type(got) is complex
        else:
            assert got.shape == z.shape and got.dtype == np.complex128
        zs, vals = np.ravel(z), np.ravel(got)
        # the 289-point grid at the two largest sizes: its diagonal, which
        # runs from 0 to r_trunc, keeps the 40-digit oracle cheap
        at = range(0, zs.size, 18) if z is grid and size > 33 else range(zs.size)
        for i in at:
            scale = np.polynomial.polynomial.polyval(abs(zs[i]), np.abs(c))
            assert abs(vals[i] - _oracle(c, zs[i])) <= 1e-14 * scale


def test_eval_at_point_alone_matches_its_array_bits():
    # a point gets the same bits alone as inside an array: 200 random series
    # of 1-599 coefficients, 37 points each (numpy rounds some in-place
    # products of one-element arrays apart from its array loop)
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 600))
        s = TruncatedSeries((rng.normal(size=n) + 1j * rng.normal(size=n)) / np.arange(1, n + 1))
        zs = 0.9 * np.sqrt(rng.uniform(size=37)) * np.exp(2j * np.pi * rng.uniform(size=37))
        alone = np.array([s.eval_at(complex(z), 0.9) for z in zs])
        assert np.array_equal(s.eval_at(zs, 0.9).view(np.uint64), alone.view(np.uint64)), n


def test_eval_on_circle_matches_pointwise():
    # a size that n does not divide, a multiple of n, and n > size
    rng = np.random.default_rng(5)
    for size, n in ((40, 16), (48, 16), (40, 64)):
        s = TruncatedSeries(rng.normal(size=size) + 1j * rng.normal(size=size))
        r = 0.7
        zs = r * np.exp(2j * np.pi * np.arange(n) / n)
        direct = s.eval_at(zs, 0.8)
        fft = s.eval_on_circle(r, n)
        assert fft.shape == (n,)
        assert np.max(np.abs(direct - fft)) < 1e-12


def _one_circle_fold(c, r, n):
    """One radius folded modulo n and transformed, as eval_on_circle did alone."""
    rows = -(-c.size // n)
    buf = np.zeros(rows * n, dtype=np.complex128)
    np.multiply(c, r ** np.arange(c.size), out=buf[: c.size])
    return np.fft.ifft(buf.reshape(rows, n).sum(axis=0)) * n


def test_eval_on_circles_rows_match_one_circle_fold():
    rng = np.random.default_rng(11)
    radii = np.concatenate(([0.0], np.sort(rng.uniform(0, 0.999, 12)), [0.95]))
    for size, n in ((513, 64), (4097, 1024), (40, 64), (48, 16)):
        s = TruncatedSeries(rng.normal(size=size) + 1j * rng.normal(size=size))
        rows = s.eval_on_circles(radii, n)
        assert rows.shape == (radii.size, n)
        for r, row in zip(radii, rows):
            ref = _one_circle_fold(s.coeffs, float(r), n)
            assert np.array_equal(row.view(np.float64), ref.view(np.float64)), (size, n, r)
        assert np.array_equal(s.eval_on_circle(0.95, n), rows[-1])
    with pytest.raises(RadiusExceeded):
        s.eval_on_circles([0.5, 1.0], 16)


def test_eval_on_circles_peak_memory():
    # check 2.2's call: 24 radii at order 512, 64 angles.  The powers go into
    # the padded buffer itself, so the call holds that buffer and numpy's
    # ufunc buffers, about 361 KB, where a separate array of powers took 690 KB
    rng = np.random.default_rng(5)
    s = TruncatedSeries(rng.normal(size=513) + 1j * rng.normal(size=513))
    radii = chebyshev_radii(24, 0.9)
    s.eval_on_circles(radii, 64)
    tracemalloc.start()
    try:
        rows = s.eval_on_circles(radii, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400_000, peak
    for r, row in zip(radii, rows):
        assert np.array_equal(row.view(np.float64), s.eval_on_circle(r, 64).view(np.float64))


def test_circle_blocks_rows_match_eval_on_circles():
    # rows of one length in blocks of CIRCLE_BYTES: 2 rows per block at order
    # 512 on 24 radii, 10 at order 64; each circle is the row's own, bit for bit
    rng = np.random.default_rng(7)
    radii = np.concatenate(([0.0], chebyshev_radii(23, 0.9)))
    for size, count, per_block in ((513, 5, 2), (65, 30, 10)):
        rows = rng.normal(size=(count, size)) + 1j * rng.normal(size=(count, size))
        blocks = list(circle_blocks(list(rows), radii, 64))
        assert [at for at, _ in blocks] == list(range(0, count, per_block))
        got = np.concatenate([values for _, values in blocks])
        assert got.shape == (count, radii.size, 64)
        for row, values in zip(rows, got):
            want = TruncatedSeries(row).eval_on_circles(radii, 64)
            assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
    with pytest.raises(RadiusExceeded):
        next(circle_blocks(rows, [0.5, 1.0], 16))


def test_circle_blocks_match_extended_precision_point_sums():
    # orders 512 and 4096 out to r = 0.99: each circle value, at 2 of its
    # 64 angles, is the 40-digit point sum of the same coefficients within
    # 1e-13 of sum |c_n| r^n; a row of normal coefficients, and one whose
    # coefficients decay as 0.999^n
    rng = np.random.default_rng(12)
    radii, n = [0.3, 0.9, 0.99], 64
    for size in (513, 4097):
        rows = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))
        rows[1] *= 0.999 ** np.arange(size)
        got = np.concatenate([values for _, values in circle_blocks(list(rows), radii, n)])
        for row, circles in zip(rows, got):
            for r, values in zip(radii, circles):
                scale = np.polynomial.polynomial.polyval(r, np.abs(row))
                for j in (5, 37):
                    z = r * np.exp(2j * np.pi * j / n)
                    assert abs(values[j] - _oracle(row, z)) <= 1e-13 * scale, (size, r, j)


def test_circle_blocks_peak_memory():
    # check 2.2's batch: 52 rows at order 512 on 24 radii of 64 angles.  A
    # block's padded buffer holds 2 rows (442 KB of the 512 KB CIRCLE_BYTES);
    # with the powers kept for later blocks (110 KB), numpy's 130 KB ufunc
    # buffer and the values of two blocks the walk peaks at about 801 KB
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(52, 513)) + 1j * rng.normal(size=(52, 513))
    radii = chebyshev_radii(24, 0.9)
    list(circle_blocks(rows, radii, 64))
    tracemalloc.start()
    try:
        for _, values in circle_blocks(rows, radii, 64):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 850_000, peak


def test_tail_bound_geometric_example():
    s = geometric(60)
    tb = s.tail_bound(0.5)
    true_tail = 0.5**61 / 0.5
    assert tb >= true_tail
    assert tb <= 1e-17


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.05, max_value=1.2),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_tail_bound_upper_bounds_geometric_series(scale, q, r):
    # genuine upper bound for series with exactly geometric coefficients
    if q * r >= 0.995:
        return
    order = 48
    s = TruncatedSeries(scale * q ** np.arange(order + 1))
    true_tail = scale * (q * r) ** (order + 1) / (1 - q * r)
    assert s.tail_bound(r) >= true_tail


def test_serialization_roundtrip():
    # to_pairs, through JSON text, keeps every coefficient's bits
    rng = np.random.default_rng(11)
    s = TruncatedSeries(rng.normal(size=9) + 1j * rng.normal(size=9))
    back = TruncatedSeries([complex(*p) for p in json.loads(json.dumps(s.to_pairs()))])
    assert np.array_equal(back.coeffs, s.coeffs)


def test_chebyshev_radii_shape():
    r = chebyshev_radii(32, 0.9)
    assert r.shape == (32,)
    assert np.all((0 < r) & (r < 0.9))
    assert np.all(np.diff(r) > 0)
    # clustering: the last gap is the smallest
    assert np.diff(r)[-1] < np.diff(r)[0]


def test_default_order_constant():
    assert DEFAULT_ORDER == 256
