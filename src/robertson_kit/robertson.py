"""Class parameters, member generation, and pointwise characterization checks.

The generalized Robertson class SP_alpha(beta) consists of normalized
analytic functions f on the unit disk with

    Re(e^{i*alpha} (1 + z f''(z)/f'(z))) > beta * cos(alpha).

Every member arises from a Schwarz function omega (analytic self-map of
the disk fixing 0) through the half-plane subordination

    1 + z f''/f' = (1 + A omega)/(1 - omega),

which gives f''/f' = 2 G1 phi / (1 - z phi) with omega = z phi and
G1 = (A + 1)/2 = k e^{-i*alpha}, k = (1 - beta) cos(alpha).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .series import (
    DEFAULT_ORDER,
    MAX_ORDER,
    TAIL_TOL,
    TruncatedSeries,
    circle_blocks,
)


class ParamOutOfRange(ValueError):
    """A class or operation parameter lies outside its admissible range."""


class NotASchwarzFunction(ValueError):
    """The supplied data does not describe a Schwarz function."""


class TailToleranceUnmet(ValueError):
    """The series tail at the requested radius cannot be certified."""


class NaNMargin(ArithmeticError):
    """A scan read a NaN, which no verdict, extremum or radius can rest on."""


# ---------------------------------------------------------------------------
# class parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassParams:
    """Parameters (alpha, beta) of SP_alpha(beta) plus derived constants.

    k is the order constant (1 - beta) cos(alpha); a_sub is the
    subordination constant A = e^{-i*alpha}(e^{-i*alpha} - 2 beta cos(alpha));
    g1 = (A + 1)/2 satisfies g1 = k e^{-i*alpha}.
    """

    alpha: float
    beta: float
    k: float
    a_sub: complex
    g1: complex


def make_params(alpha: float, beta: float) -> ClassParams:
    if not -math.pi / 2 < alpha < math.pi / 2:
        raise ParamOutOfRange(f"alpha={alpha} outside (-pi/2, pi/2)")
    if not 0 <= beta < 1:
        raise ParamOutOfRange(f"beta={beta} outside [0, 1)")
    e = cmath.exp(-1j * alpha)
    a_sub = e * (e - 2 * beta * math.cos(alpha))
    g1 = (a_sub + 1) / 2
    k = (1 - beta) * math.cos(alpha)
    return ClassParams(alpha=alpha, beta=beta, k=k, a_sub=a_sub, g1=g1)


# ---------------------------------------------------------------------------
# Schwarz-function specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchwarzSpec:
    """Description of a Schwarz function omega: D -> D with omega(0) = 0.

    kind "polynomial": omega(z) = sum coeffs[i] z^i (coeffs[0] must be 0);
    validated numerically on a dense circle (validate_schwarz).
    kind "blaschke_product": omega(z) = rotation * prod (a - z)/(1 - conj(a) z)
    over `zeros`; zeros at the origin contribute plain factors of z, and the
    spec is a Schwarz function by construction when all |a| < 1 and
    |rotation| <= 1.
    kind "unit_constant_times_z": omega(z) = rotation * z**power, the
    product with `power` zeros at the origin.
    """

    kind: str
    coeffs: tuple = ()
    zeros: tuple = ()
    rotation: complex = 1.0 + 0.0j
    power: int = 1

    @functools.cached_property
    def product(self) -> tuple[complex, int, tuple]:
        """(rotation, s, zeros) with omega = rotation * z^s * prod (a - z)/(1 - conj(a) z).

        The product form of every kind but "polynomial", built once per spec; a
        zero with |a| <= 1e-14 counts in s, and `zeros` holds the others, each a
        as the pair (a, |a|^2 - 1).
        """
        if self.kind == "unit_constant_times_z":
            return complex(self.rotation), self.power, ()
        if self.kind == "blaschke_product":
            far = [complex(a) for a in self.zeros if abs(a) > 1e-14]
            pairs = tuple((a, abs(a) ** 2 - 1) for a in far)
            return complex(self.rotation), len(self.zeros) - len(far), pairs
        raise ParamOutOfRange(f"unknown Schwarz kind {self.kind!r}")

    def vanishing_order(self) -> int:
        """Order of the zero of omega at 0 (0 when omega(0) != 0)."""
        if self.kind == "polynomial":
            for i, c in enumerate(self.coeffs):
                if abs(c) > 0:
                    return i
            return len(self.coeffs)
        return self.product[1]

    # -- JSON wire format --------------------------------------------------

    def to_json(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "polynomial":
            d["coeffs"] = [[c.real, c.imag] for c in map(complex, self.coeffs)]
        elif self.kind == "blaschke_product":
            d["zeros"] = [[a.real, a.imag] for a in map(complex, self.zeros)]
            d["rotation"] = [self.rotation.real, self.rotation.imag]
        else:
            d["rotation"] = [self.rotation.real, self.rotation.imag]
            d["power"] = self.power
        return d

    @classmethod
    def from_json(cls, d) -> "SchwarzSpec":
        """The spec a to_json dict describes; ParamOutOfRange if malformed."""

        def number(p) -> complex:  # an [re, im] pair of JSON numbers that are finite floats
            if not (isinstance(p, list) and len(p) == 2 and all(
                    type(x) in (int, float) and abs(x) <= sys.float_info.max for x in p)):
                raise ParamOutOfRange(f"{p!r} is not an [re, im] pair of finite numbers")
            return complex(*p)

        def numbers(key: str) -> tuple:  # at most MAX_ORDER + 1 of them
            pairs = d.get(key)
            pairs = pairs if isinstance(pairs, list) else [pairs]
            if len(pairs) > MAX_ORDER + 1:
                raise ParamOutOfRange(f"{len(pairs)} {key} exceed {MAX_ORDER + 1}")
            return tuple(map(number, pairs))

        if not isinstance(d, dict):
            raise ParamOutOfRange(f"a Schwarz spec is a JSON object, not {d!r}")
        kind, power = d.get("kind"), d.get("power", 1)
        if kind == "polynomial":
            return cls(kind, coeffs=numbers("coeffs"))
        rot = number(d.get("rotation", [1.0, 0.0]))
        if kind == "blaschke_product":
            return cls(kind, zeros=numbers("zeros"), rotation=rot)
        if kind != "unit_constant_times_z":
            raise ParamOutOfRange(f"unknown Schwarz kind {kind!r}")
        if type(power) is not int or power > MAX_ORDER:
            raise ParamOutOfRange(f"power={power!r} is not an integer <= {MAX_ORDER}")
        return cls(kind, rotation=rot, power=power)


def omega_fraction(spec: SchwarzSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of num and den with omega = num/den and den(0) = 1: a
    polynomial over 1, or rotation * z^s * prod (a - z) over prod (1 - conj(a) z)."""
    num, den = np.array(spec.coeffs, dtype=np.complex128), np.array([1 + 0j])
    if spec.kind != "polynomial":
        rotation, s, zeros = spec.product
        num = np.array([rotation])
        for a, _ in zeros:
            num, den = np.convolve(num, [a, -1]), np.convolve(den, [1, -a.conjugate()])
        num = np.concatenate((np.zeros(s, dtype=np.complex128), num))
    return num, den


def omega_series(spec: SchwarzSpec, order: int) -> TruncatedSeries:
    """Taylor expansion of omega to the given order: num/den (omega_fraction)."""
    num, den = omega_fraction(spec)
    c = np.zeros((2, order + 1), dtype=np.complex128)  # num and den to the order
    c[0, : num.size], c[1, : den.size] = num[: order + 1], den[: order + 1]
    return TruncatedSeries(c[0]) / TruncatedSeries(c[1])


def phi_series(spec: SchwarzSpec, order: int) -> TruncatedSeries:
    """Series of phi = omega / z; omega must vanish at 0 (require_vanishing)."""
    require_vanishing(spec)
    return TruncatedSeries(omega_series(spec, order + 1).coeffs[1:])


def p_fraction(params: ClassParams, spec: SchwarzSpec):
    """Coefficients of U and V, one longer, with P_f = U/V and V(0) = 1.

    omega = num/den (omega_fraction) must vanish at 0, so phi = omega/z =
    N/den with N = num[1:], U = 2 G1 N and V = den - z N.
    """
    num, den = omega_fraction(spec)
    size = max(num.size, den.size, 2)
    num, den = (np.pad(c, (0, size - c.size)) for c in (num, den))
    n = num[1:]
    return 2 * params.g1 * n, den - np.concatenate(([0j], n))


RESCALE_FACTORS = 32  # Blaschke factors between rescalings in phi_values; |u| <= 2 on each


def phi_values(spec: Union[SchwarzSpec, "SpecStack"], z: np.ndarray, deriv: bool = True):
    """(n, m, inv) at the points of z: phi = omega/z = n/d, phi' = m/d^2 (m None if not
    deriv) and inv = 1/(d - z n) = 1/(d (1 - omega)), the one complex division per point.

    A polynomial runs Horner for n = phi and m = phi' together, with d = 1.  A product
    (SchwarzSpec.product) is rotation * z^(s-1) * prod (a - z)/(1 - conj(a) z) over its
    s >= 1 zeros at the origin and its other zeros a: n and m start as rotation z^(s-1) and
    its derivative, d as 1, and each factor, with t = a - z, u = 1 - conj(a) z and
    scale = |a|^2 - 1, sets m <- m t u + n d scale, n <- n t and d <- d u.  After every
    RESCALE_FACTORS factors, n, d and m are scaled by 2^-e, 2^-e and 2^-2e with
    e = frexp(|d|)'s exponent per point, so that long products neither over- nor
    underflow; powers of two are exact, so phi, phi' and inv keep their bits.
    A SpecStack's (G, 1) columns broadcast against a 2-d z, (1, n) or (G, n), into (G, n)
    rows, factor j on rows [:n_j] (numpy rounds a one-element (1, 1) by (1,) product otherwise).
    """
    if spec.kind == "polynomial":
        c, factors = spec.coeffs[1:], ()
        n, steps = (c[-1], reversed(c[:-1])) if c else (0j, ())
    else:
        n, s, factors = spec.product
        steps = [None] * (s - 1)  # z^(s-1): Horner steps that add no coefficient
    m, d = 0, 1  # the ints 0 and 1 until a step or a factor sets them: nothing multiplies them
    for cj in steps:
        m = (n if isinstance(m, int) else m * z + n) if deriv else m
        n = n * z if cj is None else n * z + cj
    if len(factors[0]) > 2 if factors else np.ndim(n) == 0:  # a SpecStack's rows, or a constant
        n, m, d = (np.full(np.broadcast(z, n).shape, x, complex) for x in (n, m, d))
    for j, (a, scale, *top) in enumerate(factors, 1):  # a SpecStack's factor j also holds n_j
        rows, rescale = slice(None, *top), j % RESCALE_FACTORS == 0
        if top:  # not n[rows] *= t: numpy's in-place product rounds one element otherwise
            m[rows], n[rows], d[rows] = _factor(m[rows], n[rows], d[rows], a, scale, z[rows], deriv,
                                                rescale)
        else:
            m, n, d = _factor(m, n, d, a, scale, z, deriv, rescale)
    return n, m if deriv else None, 1 / (d - z * n)


def _factor(m, n, d, a, scale, z, deriv: bool, rescale: bool):
    """phi_values' (m, n, d) after the factor (a - z)/(1 - conj(a) z), then, if rescale,
    times 2^-2e, 2^-e and 2^-e with |d| in [2^(e-1), 2^e); t and u die here."""
    t, u = a - z, 1 - a.conjugate() * z
    if deriv:
        nd = n * scale if isinstance(d, int) else n * d * scale
        m = nd if isinstance(m, int) else m * t * u + nd
    n, d = n * t, u if isinstance(d, int) else d * u
    if rescale:
        c = np.ldexp(1.0, -np.frexp(np.abs(d))[1])
        m, n, d = m if isinstance(m, int) else m * c * c, n * c, d * c
    return m, n, d


@dataclass(frozen=True)
class SpecStack:
    """Specs of one structure as (G, 1) columns, which phi_values takes for a spec."""

    kind: str
    coeffs: tuple = ()
    product: tuple = ()  # (rotations, s, factors), each factor (a, scale, n_j)


def _stack(specs) -> Optional[SpecStack]:
    """Specs of one structure as a SpecStack, None for one spec alone; polynomials are padded
    with trailing zeros to a common length >= 2 (Horner over leading zeros is exact).  Products
    of one s, most zeros first, give factor j as (a, scale, n_j) of the n_j rows that have it."""
    if len(specs) == 1:
        return None
    if specs[0].kind == "polynomial":
        n = max(2, *(len(spec.coeffs) for spec in specs))
        rows = [tuple(spec.coeffs) + (0j,) * (n - len(spec.coeffs)) for spec in specs]
        return SpecStack("polynomial", coeffs=tuple(np.array(rows, dtype=complex).T[..., None]))
    rotations, powers, free = zip(*(spec.product for spec in specs))
    cols = (np.array([f[j] for f in free if len(f) > j]).T[..., None] for j in range(len(free[0])))
    factors = tuple((*c, c.shape[1]) for c in cols)
    return SpecStack("blaschke_product", product=(np.array(rotations)[:, None], powers[0], factors))


def schwarz_values(params: ClassParams, spec: Union[SchwarzSpec, SpecStack], q: str,
                   z: np.ndarray, phi=None):
    """P_f (q "P") or S_f (q "S") at the points of an array, from the spec;
    phi, if given, is phi_values(spec, z), so that one call serves P and S (P alone skips m).

    With omega = z phi, P = 2 G1 phi/(1 - omega) and
    P' = 2 G1 (phi'(1 - omega) + phi omega')/(1 - omega)^2
       = 2 G1 (phi' + phi^2)/(1 - omega)^2,
    so S = P' - P^2/2 = 2 G1 (phi' + (1 - G1) phi^2)/(1 - omega)^2.  With phi = n/d,
    phi' = m/d^2 and inv = 1/(d - z n) (phi_values): P = 2 G1 n inv and
    S = 2 G1 (m + (1 - G1) n^2) inv^2.
    """
    n, m, inv = phi_values(spec, z, q != "P") if phi is None else phi
    if q == "P":
        return 2 * params.g1 * n * inv
    return 2 * params.g1 * (m + (1 - params.g1) * n * n) * inv * inv


@dataclass(frozen=True)
class SchwarzValidation:
    grid_max: float
    vanishing_order: int


# points on the unit circle that validate a polynomial spec, at least
# MAX_ORDER + 1, so that its FFT never truncates the coefficients
VALIDATION_ANGLES = 65536


def require_vanishing(spec: SchwarzSpec) -> int:
    """The vanishing order of omega at 0; NotASchwarzFunction if below 1."""
    vo = spec.vanishing_order()
    if vo < 1:
        raise NotASchwarzFunction("omega must vanish at 0")
    return vo


def validate_schwarz(spec: SchwarzSpec) -> SchwarzValidation:
    """Check that the spec describes a Schwarz function; raise otherwise.

    A polynomial's |omega| is largest on the unit circle (maximum modulus).
    sum |c_i| <= 1 (math.fsum, up to 1e-12) bounds it by 1 on its own.  Else
    one FFT reads it at the M = VALIDATION_ANGLES roots of unity, whose maximum
    S must be <= sqrt(1 - (pi n/M)^2/2), n = len(coeffs): |omega|^2 there is a
    trigonometric polynomial T of degree < n, so |T''| <= n^2 max T (Bernstein);
    T' = 0 at T's maximum, within pi/M of a sample, so S^2 >= max T (1 - (pi n/M)^2/2)
    and max T <= 1 (up to the FFT's rounding).  Products are exact by
    construction; their zeros and rotation are range-checked.
    """
    vo = require_vanishing(spec)
    if spec.kind == "polynomial":
        grid_max = float(np.max(np.abs(np.fft.fft(spec.coeffs, VALIDATION_ANGLES))))
        mags = np.abs(np.array(spec.coeffs, dtype=np.complex128))  # fsum of each <= 1 is finite
        if not (np.all(mags <= 1) and math.fsum(mags) <= 1 + 1e-12):
            bound = math.sqrt(1 - (math.pi * mags.size / VALIDATION_ANGLES) ** 2 / 2)
            if not grid_max <= bound:
                raise NotASchwarzFunction(
                    f"max |omega| on the unit circle exceeds 1, or its samples cannot show it "
                    f"does not: sampled max {grid_max:.12f} > {bound:.12f} (Bernstein)")
        return SchwarzValidation(grid_max=grid_max, vanishing_order=vo)
    rotation, _, zeros = spec.product
    for a, _ in zeros:
        if not abs(a) < 1:
            raise NotASchwarzFunction(f"Blaschke zero {a!r} outside the disk")
    if not abs(rotation) <= 1 + 1e-12:
        raise NotASchwarzFunction("rotation factor exceeds the unit circle")
    return SchwarzValidation(grid_max=min(abs(rotation), 1.0), vanishing_order=vo)


# ---------------------------------------------------------------------------
# members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Exact evaluators for the two extremal families.

    variant "plane": f'(z) = (1 - lam z)^{-k};
    variant "disk_symmetric": f'(z) = (1 - lam z^2)^{-k}, which has
    f''(0) = 0 and hence lies in the SP0 subclass.
    """

    variant: str
    lam: complex
    k: float

    def fprime(self, z):
        w = 1 - self.lam * self._inner(z)
        return w ** (-self.k)

    def p(self, z):
        w = 1 - self.lam * self._inner(z)
        if self.variant == "plane":
            return self.k * self.lam / w
        return 2 * self.k * self.lam * np.asarray(z) / w

    def s(self, z):
        w = 1 - self.lam * self._inner(z)
        if self.variant == "plane":
            return self.k * self.lam**2 * (2 - self.k) / (2 * w**2)
        return 2 * self.k * self.lam * (1 + (1 - self.k) * self.lam * np.asarray(z) ** 2) / w**2

    def _inner(self, z):
        zs = np.asarray(z)
        return zs if self.variant == "plane" else zs * zs


Provenance = Union[SchwarzSpec, str]


QUANTITIES = ("fprime", "P", "S")


@functools.lru_cache(maxsize=16)
def _unit_circle(n_angles: int) -> np.ndarray:
    unit = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    unit.flags.writeable = False
    return unit


def circle(r: float, n_angles: int) -> np.ndarray:
    """The points r e^{2 pi i j/n}, j = 0..n-1; the unit circle is built once per n."""
    return r * _unit_circle(n_angles)


def polar_grid(radii, n_angles: int) -> np.ndarray:
    """circle(r, n_angles) for each r in radii, as the rows of an array."""
    return np.asarray(radii)[:, None] * _unit_circle(n_angles)


class MemberSeries:
    """A generated or extremal member f of SP_alpha(beta); treat as immutable.

    values(q, z) and on_circles(qs, radii, n) evaluate f' ("fprime"), P_f
    ("P") and S_f ("S"); exact(q) picks, in one place, the closed form
    (extremals) or the Schwarz data (generated members; exact_schwarz), one of
    which every member has.  The order-`order` series of f and f', which a
    generated member's f' reads, are built from `fraction` on first access.
    """

    def __init__(self, params: ClassParams, provenance: Provenance, order: int,
                 closed_form: Optional[ClosedForm] = None, schwarz: Optional[SchwarzSpec] = None):
        if closed_form is None and schwarz is None:
            raise ParamOutOfRange("a member needs Schwarz data or a closed form")
        self.params, self.provenance, self.order = params, provenance, order
        self.closed_form, self.schwarz = closed_form, schwarz
        self._p_series: Optional[TruncatedSeries] = None
        self._s_series: Optional[TruncatedSeries] = None

    @functools.cached_property
    def fraction(self) -> tuple:
        """(U, V) with P_f = U/V and V(0) = 1: p_fraction of the Schwarz data, else
        ([k lam], [1, -lam]) for the plane extremal and ([0, 2 k lam], [1, 0, -lam])
        for the disk-symmetric one."""
        if self.schwarz is not None:
            return p_fraction(self.params, self.schwarz)
        cf = self.closed_form
        if cf.variant == "plane":
            return np.array([cf.k * cf.lam]), np.array([1, -cf.lam])
        return np.array([0, 2 * cf.k * cf.lam]), np.array([1, 0, -cf.lam])

    @functools.cached_property
    def f_prime(self) -> TruncatedSeries:
        """f' at order N from P_f = U/V (fraction), V(0) = 1 and f'(0) = 1:
        _f_prime_rows' one row of the O(N deg V) recurrence of f'' V = U f', the
        same bits as inside a MemberBatch."""
        return TruncatedSeries(_f_prime_rows([self.fraction], self.order)[0])

    @functools.cached_property
    def f(self) -> TruncatedSeries:
        """The integral of f', with c0, c1 pinned to (0, 1) exactly."""
        cf = self.f_prime.integ(max_order=self.order).coeffs.copy()
        cf[0], cf[1] = 0.0, 1.0
        return TruncatedSeries(cf)

    @functools.cached_property
    def _fraction(self) -> tuple:
        """(U, V, 1/V) of fraction, 1/V at order N - 1: P and S share its division."""
        u, v = self.fraction
        return u, v, 1 / TruncatedSeries(v[: self.order]).pad(self.order - 1)

    def p_series(self) -> TruncatedSeries:
        """Series of P_f at order N - 1: U (1/V) (_fraction)."""
        if self._p_series is None:
            u, _, inv = self._fraction
            self._p_series = TruncatedSeries(np.convolve(u, inv.coeffs)[: self.order])
        return self._p_series

    def s_series(self) -> TruncatedSeries:
        """Series of S_f = P' - P^2/2 at order N - 2: (W (1/V))/V with W = U'V - UV' - U^2/2,
        the short W times _fraction's 1/V and one division by V, which takes its leading
        block of 1/V from that 1/V.  Once by V^2 loses digits: at order 1024 and
        (pi/4, 0.25), W/V^2 was 2.6e-12 to 5.4e-10 off the 40-digit series, (W/V)/V
        1.3e-14 to 4.6e-14 (relative)."""
        if self._s_series is None:
            u, v, inv = self._fraction
            zw = np.convolve(np.arange(u.size) * u, v) - np.convolve(u, np.arange(v.size) * v)
            zw[1:] -= np.convolve(u, u) / 2  # z W = (z U') V - U (z V') - z U^2/2
            n = self.order - 2
            w = TruncatedSeries(np.convolve(zw[1:], inv.coeffs[: n + 1])[: n + 1])
            self._s_series = w._divide(TruncatedSeries(v[: n + 1]).pad(n), inv.coeffs)
        return self._s_series

    @property
    def exact_schwarz(self) -> Optional[SchwarzSpec]:
        """The Schwarz data exact() evaluates P and S from: None if a closed form serves."""
        return self.schwarz if self.closed_form is None else None

    def exact(self, q: str):
        """The exact evaluator of q on an array; None for a generated member's f' (a series)."""
        if q not in QUANTITIES:
            raise ParamOutOfRange(f"unknown quantity {q!r}; known: {QUANTITIES}")
        if self.closed_form is not None:
            return getattr(self.closed_form, {"fprime": "fprime", "P": "p", "S": "s"}[q])
        if q != "fprime":
            return functools.partial(schwarz_values, self.params, self.schwarz, q)
        return None

    def _series(self, q: str) -> TruncatedSeries:  # f or f', the quantities a series serves
        return self.f if q == "f" else self.f_prime

    def values(self, q: str, z, r_trunc: float = 0.95):
        """q in QUANTITIES at a point or array; a series only inside r_trunc.

        One flat array call, so a point gives the same bits alone as inside
        an array (numpy's scalar complex division rounds differently).
        """
        zs = np.asarray(z, dtype=np.complex128)
        flat = zs.reshape(-1)
        exact = self.exact(q)
        out = exact(flat) if exact is not None else self._series(q).eval_at(flat, r_trunc)
        return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)

    def on_circles(self, qs, radii, n_angles: int, zs=None) -> list:
        """Each q of qs at zs = polar_grid(radii, n_angles), built here if None,
        one row per radius: a series by one FFT, else exact(q), with one
        phi_values call serving every q evaluated from the Schwarz data."""
        out, phi = [], None
        for q in qs:
            exact = self.exact(q)
            if exact is None:
                out.append(self._series(q).eval_on_circles(radii, n_angles))
                continue
            zs = polar_grid(radii, n_angles) if zs is None else zs
            if self.exact_schwarz is not None and phi is None:
                phi = phi_values(self.exact_schwarz, zs, "S" in qs)
            out.append(exact(zs) if phi is None else exact(zs, phi=phi))
        return out

    def p_on_circle(self, r: float, n_angles: int) -> np.ndarray:
        """P_f at circle(r, n_angles): on_circles' one row."""
        return self.on_circles(("P",), (r,), n_angles)[0][0]


def require_tails(members, qs, r: float, tol: float = TAIL_TOL) -> list:
    """The tail bound at r of the series each read of q in qs rests on, one row per member:
    f's for q "f", else q's series where exact(q) does not serve q and 0.0 where it does.
    The one gate on series tails: TailToleranceUnmet if one is above tol."""
    rows = []
    for m in members:
        rows.append([])
        for q in qs:
            s = m._series(q) if q == "f" or m.exact(q) is None else None
            tail = 0.0 if s is None else s.tail_bound(r)
            if tail > tol:
                raise TailToleranceUnmet(
                    f"order-{s.order} series tail {tail:.3e} at r={r:.4f} > {tol:.1e}")
            rows[-1].append(tail)
    return rows


def _f_prime_rows(uvs, order: int) -> np.ndarray:
    """The f' coefficients to `order` of each (U, V) of MemberSeries.fraction, one row each:
    the O(N d) recurrence of f'' V = U f',
    (n+1) a_{n+1} = sum_j U_j a_{n-j} - sum_{j>=1} V_j (n+1-j) a_{n+1-j},
    run once for all rows.

    Every step works on a (d, G) window, d the largest deg V, with real
    arithmetic that repeats a loop over Python complex scalars: a product
    from real and imaginary parts, each sum an outer-axis reduction seeded
    with +0.0 as Python's sum is, and n a_n divided by n part by part
    (Python's complex division by n gives the same bits, as n a_n is never
    -0.0).  Zero-padded coefficients add signed zeros only, so each row is bit
    for bit that loop's, whichever rows share the call.  One history array
    holds a_n and n a_n from n = -d on, the d rows before a_0 zero, so the
    window of a_{n-1} back to a_{n-d} is one reversed slice.
    """
    degs = [int(np.flatnonzero(v)[-1]) for _, v in uvs]  # deg V; deg U = deg V - 1
    d, g = max(1, *degs), len(uvs)  # deg V = 0 (omega = 0) gives a_n = 0
    # coef[j, 0] gives the real parts of U_j a and V_{j+1} na, coef[j, 1] the imaginary
    coef = np.zeros((d, 2, 4, g))
    for i, ((u, v), k) in enumerate(zip(uvs, degs)):
        for part, c in ((0, u[:k]), (2, v[1 : k + 1])):
            coef[: c.size, 0, part, i], coef[: c.size, 0, part + 1, i] = c.real, -c.imag
            coef[: c.size, 1, part, i], coef[: c.size, 1, part + 1, i] = c.imag, c.real
    hist = np.zeros((d + order + 1, 4, g))  # row d + n: (Re a_n, Im a_n, Re n a_n, Im n a_n)
    hist[d, 0] = 1.0  # a_0 = 1
    prods = np.empty((d, 2, 4, g))
    terms = np.zeros((d + 1, 2, 2, g))  # the seed row 0 stays +0.0
    sums = np.empty((2, 2, g))
    re_im, im_re, seeded, su, sv = prods[:, :, 0::2], prods[:, :, 1::2], terms[1:], sums[:, 0], sums[:, 1]
    for n in range(1, order + 1):
        np.multiply(coef, hist[d + n - 1 : n - 1 : -1, None], out=prods)
        np.add(re_im, im_re, out=seeded)
        np.add.reduce(terms, axis=0, out=sums)
        a, na = hist[d + n, :2], hist[d + n, 2:]
        np.subtract(su, sv, out=na)
        np.divide(na, n, out=a)
    rows = np.empty((g, order + 1), dtype=np.complex128)
    rows.real, rows.imag = hist[d:, 0].T, hist[d:, 1].T
    return rows


class MemberBatch:
    """Members evaluated together: values(q, z) has one row per member, and
    circles(q, radii, n) yields f' or f on circles in blocks of members.

    The one place that groups members.  Members with Schwarz data (MemberSeries.exact_schwarz)
    and equal params make one schwarz_values call per SpecStack (_stack): their polynomials,
    and each product order s, its rows most zeros first; P skips m (phi').  A member alone in its
    group, or with a closed form, goes through MemberSeries.values(q, z).  Each row is that
    member's values, bit for bit.
    """

    def __init__(self, members):
        self.members = list(members)
        groups: dict = {}  # every polynomial stacks, and products by s, most zeros first
        for i, m in enumerate(self.members):
            spec, rank = m.exact_schwarz, 0
            if spec is None:
                key = i  # a group of its own
            elif spec.kind == "polynomial":
                key = (m.params, "polynomial")
            else:
                _, s, zeros = spec.product
                key, rank = (m.params, s), -len(zeros)
            groups.setdefault(key, []).append((rank, i))
        # (rows, their SpecStack, or None for one member's values)
        self._parts = [(rows, _stack([self.members[i].exact_schwarz for i in rows]))
                       for rows in ([i for _, i in sorted(g)] for g in groups.values())]

    def values(self, q: str, z) -> np.ndarray:
        """P_f (q "P") or S_f (q "S") of every member, one row each, at z:
        one row of points shared by every member, or one row per member."""
        if q not in ("P", "S"):
            raise ParamOutOfRange(f"a batch evaluates 'P' or 'S', not {q!r}")
        zs = np.asarray(z, dtype=np.complex128)
        out = np.empty((len(self.members), zs.shape[-1]), dtype=np.complex128)
        for rows, stack in self._parts:
            points = zs if zs.ndim == 1 else zs[rows]
            m = self.members[rows[0]]
            out[rows] = (m.values(q, points) if stack is None
                         else schwarz_values(m.params, stack, q, np.atleast_2d(points)))
        return out

    def circles(self, q: str, radii, n_angles: int):
        """Yield (rows, values): f' (q "fprime") or f (q "f") of the members
        listed in rows at polar_grid(radii, n_angles), values[j] the one of
        members[rows[j]], each bit for bit the member's own.

        A closed form gives its member's f' in a block of its own; every other
        f' or f is a series, and the series of one length share
        series.circle_blocks calls.  First, the members that read a series
        and have no f' yet get it by one _f_prime_rows call per order.
        """
        if q not in ("fprime", "f"):
            raise ParamOutOfRange(f"batch circles evaluate 'fprime' or 'f', not {q!r}")
        todo: dict = {}  # order -> members whose f' is built here
        for m in self.members:
            if "f_prime" not in vars(m) and (q == "f" or m.exact(q) is None):
                todo.setdefault(m.order, []).append(m)
        for order, ms in todo.items():
            for m, row in zip(ms, _f_prime_rows([m.fraction for m in ms], order)):
                m.f_prime = TruncatedSeries(row)
        lengths: dict = {}  # series length -> (member indices, coefficient rows)
        for i, m in enumerate(self.members):
            if q == "fprime" and m.exact(q) is not None:
                yield [i], m.on_circles((q,), radii, n_angles)
                continue
            c = (m.f_prime if q == "fprime" else m.f).coeffs
            rows, coeffs = lengths.setdefault(c.size, ([], []))
            rows.append(i)
            coeffs.append(c)
        for rows, coeffs in lengths.values():
            for at, values in circle_blocks(coeffs, radii, n_angles):
                yield rows[at : at + len(values)], values


def generate_member(
    params: ClassParams,
    spec: SchwarzSpec,
    order: int = DEFAULT_ORDER,
    validate: bool = True,
) -> MemberSeries:
    """The member generated by a Schwarz function.

    P_f and S_f are evaluated exactly from the spec (schwarz_values); their
    series and the order-`order` series of f and f' are built from
    p_fraction on first access.  Unvalidated too, omega must vanish at 0
    (require_vanishing).  A vanishing order >= 2 yields f''(0) = 0, i.e. an
    SP0 member.
    """
    if not 8 <= order <= MAX_ORDER:
        raise ParamOutOfRange(f"series order {order} outside [8, {MAX_ORDER}]")
    if validate:
        validate_schwarz(spec)
    else:
        require_vanishing(spec)
    return MemberSeries(params, spec, schwarz=spec, order=order)


def extremal_member(
    params: ClassParams,
    variant: str,
    lam: complex = 1.0 + 0.0j,
    order: int = DEFAULT_ORDER,
) -> MemberSeries:
    """The extremal families f'(z) = (1 - lam z)^{-k} / (1 - lam z^2)^{-k}.

    f', P_f and S_f are evaluated by the closed form.  The order-`order` series
    of f, f', P_f and S_f are built on first access from MemberSeries.fraction,
    the closed form's P_f = U/V, as a generated member's are.
    """
    if variant not in ("plane", "disk_symmetric"):
        raise ParamOutOfRange(f"unknown extremal variant {variant!r}")
    if abs(abs(lam) - 1) > 1e-12:
        raise ParamOutOfRange("lambda must be unimodular")
    if not 8 <= order <= MAX_ORDER:
        raise ParamOutOfRange(f"series order {order} outside [8, {MAX_ORDER}]")
    return MemberSeries(params, f"extremal_{variant}", order=order,
                        closed_form=ClosedForm(variant=variant, lam=complex(lam), k=params.k))


def plane_extremal_schwarz_spec(order: int = DEFAULT_ORDER) -> SchwarzSpec:
    """Schwarz data regenerating the plane extremal at alpha = 0.

    omega(z) = z/(2 - z); as a truncated polynomial the coefficients are
    2^{-n}.  Only at alpha = 0 does this spec reproduce f' = (1 - z)^{-k}:
    for alpha != 0 the plane extremal is not generated by any Schwarz
    function (its half-plane image is not contained in the rotated target).
    """
    n = np.arange(order + 1, dtype=np.float64)
    coeffs = 0.5**n
    coeffs[0] = 0.0
    return SchwarzSpec(kind="polynomial", coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# grids and membership / characterization checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Membership circle: n_angles uniform angles on |z| = r_max."""

    n_angles: int = 64
    r_max: float = 0.9


WITNESS_TIE = 1e-12  # margins this close to the least count as tied for the witness


def first_tied(margins: np.ndarray):
    """(least, i) along the last axis: the least margin, and the index of the first margin
    within WITNESS_TIE of it, the witness of every scan, so that margins which tie in exact
    arithmetic (rotations, points along a ray) do not trade it on last-bit rounding.  A NaN
    makes its least NaN, which the caller checks."""
    least = margins.min(axis=-1, keepdims=True)
    return least[..., 0], (margins <= least + WITNESS_TIE).argmax(axis=-1)


@dataclass(frozen=True)
class MarginReport:
    min_margin: float
    argmin: complex
    samples: int


def subordination_membership_check(
    member: MemberSeries, grid: GridSpec = GridSpec()
) -> MarginReport:
    """Minimum of Re(e^{i*alpha}(1 + z P_f(z))) - beta cos(alpha) on |z| <= r_max.

    The margin is harmonic on the closed disk (P_f is analytic there, as f'
    never vanishes), so by the minimum principle its least value lies on
    |z| = r_max, scanned at grid.n_angles points; argmin is the witness
    (first_tied).  A nonnegative minimum (up to -1e-9) certifies the defining
    inequality at the sampled points.  ParamOutOfRange for an r_max outside
    (0, 1) or no angles; NaNMargin for a NaN margin.
    """
    if not 0 < grid.r_max < 1:
        raise ParamOutOfRange(f"r_max={grid.r_max} outside (0, 1)")
    if grid.n_angles < 1:
        raise ParamOutOfRange(f"n_angles={grid.n_angles} leaves the circle empty")
    pr = member.params
    zs = circle(grid.r_max, grid.n_angles)
    pv = member.values("P", zs)
    margins = (cmath.exp(1j * pr.alpha) * (1 + zs * pv)).real - pr.beta * math.cos(pr.alpha)
    least, i = first_tied(margins)
    if math.isnan(least):
        raise NaNMargin(f"margin NaN at z = {complex(zs[np.isnan(margins).argmax()])}")
    return MarginReport(min_margin=float(least), argmin=complex(zs[i]), samples=zs.size)


def check_ii(params: ClassParams, z, p):
    """Residual of the half-plane characterization in its real-part form.

    residual = Re(1 + conj(G1) z P) - [1 - k^2 + (1-|z|^2)/4 |z P|^2] at the
    points z, where p holds P_f; nonnegative for every class member.
    """
    zp = z * p
    rhs = 1 - params.k**2 + (1 - np.abs(z) ** 2) / 4 * np.abs(zp) ** 2
    return (1 + np.conj(params.g1) * zp).real - rhs


def check_iii(params: ClassParams, z, p, mode: str = "corrected"):
    """Residual of the two-sided pointwise bound on (1-|z|^2) P_f; p holds P_f at z.

    mode "paper" evaluates the printed form k - |(1-|z|^2) P - 2 k conj(z)|,
    which the extremal functions themselves violate; mode "corrected" uses
    the re-derived form 2k - |(1-|z|^2) P - 2 G1 conj(z)|, obtained by
    completing the square with X = (1-|z|^2) P and Y = 2 G1 conj(z).
    """
    v = (1 - np.abs(z) ** 2) * p
    if mode == "paper":
        return params.k - np.abs(v - 2 * params.k * np.conj(z))
    if mode == "corrected":
        return 2 * params.k - np.abs(v - 2 * params.g1 * np.conj(z))
    raise ParamOutOfRange(f"unknown mode {mode!r}")


def classical_convexity_check(z, p, which: str):
    """Residuals of the two classical convexity characterizations; p holds P_f at z.

    "eq22_3": Re(1 + z P) - (1/4)(1-|z|^2)|P|^2;
    "eq22_4": 2 - |(1-|z|^2) P - 2 conj(z)|.
    Both are meaningful for convex members (alpha = beta = 0).
    """
    if which == "eq22_3":
        return (1 + z * p).real - 0.25 * (1 - np.abs(z) ** 2) * np.abs(p) ** 2
    if which == "eq22_4":
        return 2 - np.abs((1 - np.abs(z) ** 2) * p - 2 * np.conj(z))
    raise ParamOutOfRange(f"unknown check {which!r}")


def member_to_json(member: MemberSeries) -> dict:
    """JSON export: parameters, provenance, any closed form, and the f and f' series."""
    prov = member.provenance
    d = {
        "alpha": member.params.alpha,
        "beta": member.params.beta,
        "provenance": prov.to_json() if isinstance(prov, SchwarzSpec) else prov,
        "f": member.f.to_pairs(),
        "f_prime": member.f_prime.to_pairs(),
    }
    if member.closed_form is not None:
        d["closed_form"] = {
            "variant": member.closed_form.variant,
            "lambda": [member.closed_form.lam.real, member.closed_form.lam.imag],
        }
    return d


def member_from_json(d: dict) -> MemberSeries:
    """The member a member_to_json dict names, rebuilt at its f_prime's order by extremal_member
    or generate_member (validated); ParamOutOfRange for a provenance that names neither."""
    params, prov, cf = make_params(d["alpha"], d["beta"]), d["provenance"], d.get("closed_form")
    order = len(d["f_prime"]) - 1
    if cf is not None:
        return extremal_member(params, cf["variant"], complex(*cf["lambda"]), order)
    if not isinstance(prov, dict):
        raise ParamOutOfRange(f"provenance {prov!r} is neither a Schwarz spec nor a closed form")
    return generate_member(params, SchwarzSpec.from_json(prov), order)
