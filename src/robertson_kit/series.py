"""Truncated complex power-series kernel.

Every analytic object in the toolkit (class members, their derivatives,
pre-Schwarzians, Schwarzians) is represented as a finite Taylor expansion
about 0.  Operations on series of mixed order truncate to the smallest
common order; all values are immutable and every operation is pure.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ORDER = 256
MAX_ORDER = 4096
TOL_DIV = 1e-14
COEFF_LIMIT = 1e100
TAIL_TOL = 1e-6  # the largest tail bound a series may carry where it is evaluated
SHORT_BLOCK = 64  # quotient coefficients per block when the divisor is short
CIRCLE_BYTES = 512 * 1024  # the padded buffer of one circle_blocks FFT call, at most


class SeriesError(Exception):
    """Base class for series-kernel failures."""


class DivisionByZeroConstantTerm(SeriesError):
    """Division, log or pow needs a constant term bounded away from 0."""


class RadiusExceeded(SeriesError):
    """Evaluation point lies outside the certified truncation radius."""


class CoefficientOverflow(SeriesError):
    """Coefficient magnitudes signal a divergent intermediate."""


def _as_coeff_array(coeffs: Iterable[complex]) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(c)):
        raise CoefficientOverflow("non-finite coefficient")
    return c


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a/b to the order of a by the O(N^2) recurrence; b is at least as long."""
    q = np.zeros(a.size, dtype=np.complex128)
    q[0] = a[0] / b[0]
    for m in range(1, a.size):
        q[m] = (a[m] - np.dot(b[1 : m + 1], q[m - 1 :: -1])) / b[0]
    return q


def _short_quotient(a: np.ndarray, b: np.ndarray, inv=None) -> np.ndarray:
    """a/b in O(N d) for a divisor of degree d = b.size - 1 in [1, SHORT_BLOCK).

    Per block of SHORT_BLOCK coefficients, one np.convolve subtracts what the d
    coefficients before the block contribute, and one with the leading coefficients
    of 1/b solves the block (from those d alone past a's last nonzero coefficient,
    as in every block of 1/b after the first); no FFT and no matrix product.  Those
    leading coefficients come from the O(SHORT_BLOCK^2) recurrence, or from inv, 1/b
    as this function computed it: its first block is the recurrence's bit for bit.
    """
    d = b.size - 1
    if inv is None:
        unit = np.eye(1, SHORT_BLOCK, dtype=np.complex128)[0]
        inv = _quotient(unit, np.concatenate((b, np.zeros(SHORT_BLOCK - b.size))))
    inv = inv[:SHORT_BLOCK]
    end = int(np.flatnonzero(a).max(initial=-1)) + 1
    q = np.empty(a.size, dtype=np.complex128)
    for k in range(0, a.size, SHORT_BLOCK):
        r = a[k : k + SHORT_BLOCK].copy()
        if k:
            r[:d] -= np.convolve(b[1:], q[k - d : k])[d - 1 : d - 1 + r.size]
        q[k : k + r.size] = np.convolve(inv[: r.size], r if k < end else r[:d])[: r.size]
    return q


class TruncatedSeries:
    """Power series c0 + c1 z + ... + cN z^N of fixed order N >= 0.

    Supports ring arithmetic (+, -, *, /), calculus (deriv/integ),
    exp/log/pow (kernel oracles: no production code calls them), point
    evaluation with a tail estimate, and JSON round-tripping.  Complex
    scalars mix freely with series.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[complex]):
        c = _as_coeff_array(coeffs).copy()
        c.flags.writeable = False
        self._c = c

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = np.array2string(self._c[:4], precision=6)
        return f"TruncatedSeries(order={self.order}, coeffs={head}...)"

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(np.zeros(order + 1, dtype=np.complex128))

    @classmethod
    def constant(cls, value: complex, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = value
        return cls(c)

    def pad(self, order: int) -> "TruncatedSeries":
        if order <= self.order:
            return self
        return TruncatedSeries(np.concatenate((self._c, np.zeros(order - self.order))))

    def max_abs_diff(self, other: "TruncatedSeries") -> float:
        """Largest coefficient difference up to the common order."""
        n = min(self.order, other.order)
        return float(np.max(np.abs(self._c[: n + 1] - other._c[: n + 1])))

    # -- guards ----------------------------------------------------------

    def _guard(self) -> None:
        if np.max(np.abs(self._c)) > COEFF_LIMIT:
            raise CoefficientOverflow(
                "coefficient magnitude exceeds %.0e" % COEFF_LIMIT
            )

    def _common(self, other: "TruncatedSeries"):
        n = min(self.order, other.order)
        return self._c[: n + 1], other._c[: n + 1], n

    # -- ring arithmetic --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._guard()
            other._guard()
            a, b, _ = self._common(other)
            return TruncatedSeries(a + b)
        if isinstance(other, (int, float, complex, np.number)):
            c = self._c.copy()
            c[0] += other
            return TruncatedSeries(c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self._c)

    def __sub__(self, other):
        if isinstance(other, (TruncatedSeries, int, float, complex, np.number)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._guard()
            other._guard()
            a, b, n = self._common(other)
            return TruncatedSeries(np.convolve(a, b)[: n + 1])
        if isinstance(other, (int, float, complex, np.number)):
            return TruncatedSeries(self._c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return self * (1.0 / other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._divide(other)

    def _divide(self, other: "TruncatedSeries", inv=None) -> "TruncatedSeries":
        """self/other; inv, if given, is 1/other as a division computed it, to order
        SHORT_BLOCK - 1 or more, and spares a short division rebuilding its first block."""
        self._guard()
        other._guard()
        a, b, n = self._common(other)
        if abs(b[0]) <= TOL_DIV:
            raise DivisionByZeroConstantTerm(
                "divisor constant term %r below tolerance" % b[0]
            )
        d = int(np.flatnonzero(b)[-1])  # the divisor's degree
        if d < SHORT_BLOCK < n:
            return TruncatedSeries(_short_quotient(a, b[: d + 1], inv) if d else a / b[0])
        return TruncatedSeries(_quotient(a, b))

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return TruncatedSeries.constant(other, self.order) / self
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def deriv(self) -> "TruncatedSeries":
        """Term-by-term derivative; the order drops by one."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        n = np.arange(1, self.order + 1)
        return TruncatedSeries(self._c[1:] * n)

    def integ(self, max_order: int = MAX_ORDER) -> "TruncatedSeries":
        """Antiderivative with constant term 0; order rises by one, capped."""
        n = np.arange(1, self.order + 2)
        return TruncatedSeries(np.concatenate(([0.0 + 0.0j], self._c / n))[: max_order + 1])

    # -- transcendental ------------------------------------------------------

    def exp(self) -> "TruncatedSeries":
        """exp of the series via the recurrence (exp a)' = a' * exp a."""
        self._guard()
        c = self._c
        n = self.order
        e = np.zeros(n + 1, dtype=np.complex128)
        e[0] = cmath.exp(c[0])
        ja = np.arange(1, n + 1) * c[1:]
        for m in range(1, n + 1):
            e[m] = np.dot(ja[:m], e[m - 1 :: -1]) / m
        return TruncatedSeries(e)

    def log(self) -> "TruncatedSeries":
        """Principal-branch log; inverse of exp when defined."""
        self._guard()
        if abs(self._c[0]) <= TOL_DIV:
            raise DivisionByZeroConstantTerm("log needs a nonzero constant term")
        body = (self.deriv() / self).integ(max_order=self.order)
        return body + cmath.log(self._c[0])

    def pow(self, exponent: complex) -> "TruncatedSeries":
        """Principal-branch power a(z)**exponent = exp(exponent * log a)."""
        return (self.log() * exponent).exp()

    # -- evaluation --------------------------------------------------------------

    def eval_at(self, z: complex, r_trunc: float):
        """Value at one point (or array) inside |z| <= r_trunc < 1.

        Horner over the flat points by numpy.polynomial.polynomial.polyval,
        whose steps are elementwise and out of place: no matrix product, so no
        BLAS worker thread, and a point gets the same bits alone as inside an
        array.  numpy.polynomial is imported here, on first use, so that
        importing the package does not load it.  Points that are NaN or lie
        outside r_trunc raise RadiusExceeded; a scalar input returns a complex.
        """
        from numpy.polynomial.polynomial import polyval

        if not 0 <= r_trunc < 1:
            raise RadiusExceeded("truncation radius must lie in [0, 1)")
        zs = np.asarray(z, dtype=np.complex128)
        if not np.all(np.abs(zs) <= r_trunc * (1 + 1e-12)):
            raise RadiusExceeded("evaluation point outside radius %g" % r_trunc)
        out = polyval(zs.reshape(-1), self._c)
        if zs.ndim == 0:
            return complex(out[0])
        return out.reshape(zs.shape)

    def eval_on_circle(self, r: float, n_angles: int) -> np.ndarray:
        """Values at z = r e^{2*pi*i*j/n} for j = 0..n-1: eval_on_circles' one row."""
        return self.eval_on_circles([r], n_angles)[0]

    def eval_on_circles(self, radii, n_angles: int) -> np.ndarray:
        """Values at z = r e^{2*pi*i*j/n}, one row of j = 0..n-1 per radius r:
        circle_blocks' one-row case."""
        return next(circle_blocks([self._c], radii, n_angles))[1][0]

    def tail_bound(self, r: float) -> float:
        """Geometric-ratio estimate of the dropped tail at radius r.

        Models |c_n| beyond the truncation as rho * q**(n - N).  The growth
        ratio q comes from the last max(8, N/4) coefficients, comparing the
        magnitude envelopes of the two halves of that window (robust to the
        phase oscillation of complex-coefficient series), clamped to
        [0, 1/r).  Exact for geometric coefficients.
        """
        if not 0 <= r < 1:
            raise RadiusExceeded("tail radius must lie in [0, 1)")
        if r == 0:
            return 0.0
        n = self.order
        w = min(max(8, (n + 1) // 4), n + 1)
        window = np.abs(self._c[n + 1 - w :])
        if window.max() == 0.0:
            return 0.0
        half = w // 2
        m1 = float(np.max(window[:half])) if half else 0.0
        m2 = float(np.max(window[half:]))
        # with no usable envelope (m1 = 0), q = 1/r, which the clamp makes conservative
        q = (m2 / m1) ** (1.0 / (w - half)) if m1 > 0.0 else 1.0 / r
        q = min(max(q, 0.0), (1.0 / r) * (1 - 1e-9)) * (1 + 1e-12)
        # back-extrapolated magnitude scale for the first dropped coefficient
        powers = q ** np.arange(w, 0, -1)
        rho = float(np.max(window * powers)) * (1 + 1e-12)
        return rho * r ** (n + 1) / (1.0 - q * r)

    # -- serialization ----------------------------------------------------------

    def to_pairs(self) -> list[list[float]]:
        """JSON form: list of [re, im] pairs, index = power."""
        return [[float(c.real), float(c.imag)] for c in self._c]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "TruncatedSeries":
        return cls([complex(p[0], p[1]) for p in pairs])


def circle_blocks(rows, radii, n_angles: int):
    """Values of coefficient rows of one length at z = r e^{2*pi*i*j/n}, j = 0..n-1,
    for each r in radii: yields (start, values), values[g, i] the circle of radii[i]
    for row start + g.

    The powers r^m are built once, in the first block's padded buffer.  Each
    block of rows, as many as keep that buffer within CIRCLE_BYTES (one at
    least), is scaled there, folded modulo n and transformed in one FFT call;
    every circle is bit for bit the fold of its row and radius alone.
    """
    rs = np.asarray(radii, dtype=np.float64)
    if not np.all((0 <= rs) & (rs < 1)):
        raise RadiusExceeded("circle radius must lie in [0, 1)")
    size = len(rows[0])
    folds = -(-size // n_angles)
    width = folds * n_angles
    step = max(1, CIRCLE_BYTES // (16 * max(rs.size, 1) * width))
    powers = None
    for at in range(0, len(rows), step):
        block = rows[at : at + step]
        coeffs = np.zeros((len(block), 1, width), dtype=np.complex128)
        coeffs[:, 0, :size] = block
        buf = np.zeros((len(block), rs.size, width), dtype=np.complex128)
        if powers is None:  # built in the first buffer, kept apart only for later blocks
            powers = np.power(rs[:, None], np.arange(width, dtype=np.float64), out=buf.real[0])
            buf.real[1:] = powers
            if at + step < len(rows):
                powers = powers.copy()
        else:
            buf.real[...] = powers
        buf *= coeffs
        folded = buf.reshape(len(block), rs.size, folds, n_angles).sum(axis=2)
        del buf  # freed before the FFT allocates
        yield at, np.fft.ifft(folded, axis=-1) * n_angles


def chebyshev_radii(n: int, r_max: float) -> np.ndarray:
    """n radii in (0, r_max), ascending, clustered toward r_max."""
    j = np.arange(1, n + 1)
    return np.sort(r_max * np.cos((2 * j - 1) * np.pi / (4 * n)))
