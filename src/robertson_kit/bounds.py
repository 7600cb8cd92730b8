"""Closed-form sharp bounds: norms, pointwise Schwarzian, growth/distortion.

All bound formulas are driven by the order constant k = (1-beta)cos(alpha).
The growth envelopes need the integrals of (1 -+ t^2)^{-k}, evaluated by
adaptive Gauss-Legendre quadrature in u, t = tanh u or sinh u, where the
integrands are smooth and bounded up to r = 1, with closed-form oracles at
k = 1 (arctan / artanh) and k = 1/2 (arcsin) available for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .robertson import ClassParams, MemberBatch, MemberSeries, ParamOutOfRange, SchwarzSpec
from .robertson import phi_values, polar_grid, require_tails
from .series import TAIL_TOL, chebyshev_radii


class XiOutOfRange(ValueError):
    """|f''(0)|/(2k) exceeded 1; the input cannot be a class member."""


class QuadratureNotConverged(RuntimeError):
    """Adaptive quadrature hit the depth limit before the tolerance."""


# ---------------------------------------------------------------------------
# norm bounds and the pointwise Schwarzian bound
# ---------------------------------------------------------------------------


def pre_norm_bound(params: ClassParams) -> float:
    """Sharp bound 2k on the pre-Schwarzian norm of SP0 members."""
    return 2 * params.k


def schwarzian_norm_bound(params: ClassParams) -> float:
    """The bound 2k(2-k) on the Schwarzian norm of SP0 members.

    Its derivation replaces |1 - G1| by 1 - |G1|, which is only valid at
    alpha = 0; for alpha != 0 the toolkit treats violations as findings.
    """
    return 2 * params.k * (2 - params.k)


def xi_of_member(member: MemberSeries) -> float:
    """xi = |phi(0)| = |f''(0)| / (2k), the normalized initial coefficient; phi(0) is
    phi_values' n(0), as d(0) = 1."""
    if member.schwarz is not None:
        xi = abs(complex(phi_values(member.schwarz, np.zeros(1, dtype=complex), False)[0][0]))
    else:
        xi = abs(complex(member.f_prime.coeffs[1])) / (2 * member.params.k)
    if xi > 1 + 1e-9:
        raise XiOutOfRange(f"xi = {xi} exceeds 1; not a class member")
    return min(xi, 1.0)


def schwarzian_pointwise_bound(params: ClassParams, xi, r):
    """Bound 2k(2 + k (xi+r)^2/(1-xi^2)) on (1-|z|^2)^2 |S_f(z)|; xi and r = |z|
    may be arrays.  xi^2 by libm's pow, as float **, so arrays keep its bits."""
    if not np.all((0 <= xi) & (xi < 1)):
        raise XiOutOfRange(f"xi={xi} outside [0, 1)")
    if not np.all((0 <= r) & (r < 1)):
        raise ParamOutOfRange(f"r={r} outside [0, 1)")
    k = params.k
    return 2 * k * (2 + k * (xi + r) ** 2 / (1 - np.float_power(xi, 2)))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadOpts:
    abs_tol: float = 1e-10
    max_depth: int = 40
    nodes: int = 16


@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    opts: QuadOpts = QuadOpts(),
) -> float:
    """Integral of f on [a, b] by bisection-adaptive Gauss-Legendre panels."""
    x, w = _gl_nodes(opts.nodes)

    def panel(lo: float, hi: float) -> float:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * float(np.dot(w, f(mid + half * x)))

    def refine(lo: float, hi: float, whole: float, tol: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        if abs(left + right - whole) <= tol:
            return left + right
        if depth >= opts.max_depth:
            raise QuadratureNotConverged(
                f"panel [{lo}, {hi}] not converged at depth {depth}"
            )
        return refine(lo, mid, left, tol / 2, depth + 1) + refine(
            mid, hi, right, tol / 2, depth + 1
        )

    if a == b:
        return 0.0
    return refine(a, b, panel(a, b), opts.abs_tol, 0)


# ---------------------------------------------------------------------------
# growth / distortion envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    r: float
    lower: float
    upper: float
    kind: str  # "distortion" | "growth"


def distortion_envelope(params: ClassParams, r: float) -> Envelope:
    """(1+r^2)^{-k} <= |f'| <= (1-r^2)^{-k} for SP0 members."""
    if not 0 <= r < 1:
        raise ParamOutOfRange(f"r={r} outside [0, 1)")
    k = params.k
    return Envelope(
        r=r, lower=(1 + r * r) ** (-k), upper=(1 - r * r) ** (-k), kind="distortion"
    )


def growth_envelope(
    params: ClassParams, r: float, quad: QuadOpts = QuadOpts()
) -> Envelope:
    """int_0^r (1+t^2)^{-k} dt <= |f| <= int_0^r (1-t^2)^{-k} dt, integrated in u
    without the cancellation of 1 - t^2 near 1: t = sinh u gives the lower bound
    int_0^{arsinh r} cosh(u)^{1-2k} du, t = tanh u the upper int_0^{artanh r} cosh(u)^{2k-2} du."""
    if not 0 <= r < 1:
        raise ParamOutOfRange(f"r={r} outside [0, 1)")
    k = params.k
    lower = adaptive_gauss_legendre(lambda u: np.cosh(u) ** (1 - 2 * k), 0.0, math.asinh(r), quad)
    upper = adaptive_gauss_legendre(lambda u: np.cosh(u) ** (2 * k - 2), 0.0, math.atanh(r), quad)
    return Envelope(r=r, lower=lower, upper=upper, kind="growth")


def growth_oracle(params: ClassParams, r: float) -> Optional[Envelope]:
    """Closed-form growth envelope where it exists (k = 1 and k = 1/2)."""
    k = params.k
    if abs(k - 1) < 1e-15:
        return Envelope(r=r, lower=math.atan(r), upper=math.atanh(r), kind="growth")
    if abs(k - 0.5) < 1e-15:
        lower = math.asinh(r)  # int (1+t^2)^{-1/2}
        return Envelope(r=r, lower=lower, upper=math.asin(r), kind="growth")
    return None


@dataclass(frozen=True)
class EnvelopeReport:
    distortion_min_margin: float
    growth_min_margin: float
    worst_z_distortion: complex
    worst_z_growth: complex
    samples: int


def _is_sp0(member: MemberSeries) -> bool:
    if isinstance(member.provenance, SchwarzSpec):
        return member.provenance.vanishing_order() >= 2
    return member.closed_form is not None and member.closed_form.variant == "disk_symmetric"


ENVELOPE_ANGLES = 64  # points per circle in envelope_check


def _band(envs: Sequence[Envelope]) -> tuple:
    """The lower and upper bounds of one envelope per radius, as (radii, 1) columns."""
    return (np.array([e.lower for e in envs])[:, None], np.array([e.upper for e in envs])[:, None])


def envelope_checks(
    members, radii: Optional[np.ndarray] = None, tail_tol: float = TAIL_TOL
) -> list[EnvelopeReport]:
    """Margins of SP0 members (f''(0) = 0) against both envelopes over a polar
    grid, one EnvelopeReport per member.

    Margins are min(upper - value, value - lower); the least one over the
    grid is reported per envelope with where it occurred, the first in
    (radius, angle) order, and a NaN never wins.  Each params' envelopes are
    computed once.  Every f' and f comes from one MemberBatch, in blocks of
    members (MemberBatch.circles).  TailToleranceUnmet: a series it read has
    a tail above tail_tol at the largest radius (robertson.require_tails).
    """
    members = list(members)
    if not all(map(_is_sp0, members)):
        raise ParamOutOfRange("envelope check requires an SP0 member (f''(0)=0)")
    if radii is None:
        radii = chebyshev_radii(24, 0.9)
    bands = {}  # (params, "fprime" or "f") -> the envelope's bounds
    for p in {m.params for m in members}:
        bands[p, "fprime"] = _band([distortion_envelope(p, float(r)) for r in radii])
        bands[p, "f"] = _band([growth_envelope(p, float(r)) for r in radii])
    zs = polar_grid(radii, ENVELOPE_ANGLES).ravel()
    batch, least = MemberBatch(members), {}
    for q in ("fprime", "f"):
        for rows, values in batch.circles(q, radii, ENVELOPE_ANGLES):
            vals = np.abs(values)
            band = [bands[members[i].params, q] for i in rows]
            lower, upper = np.stack([b[0] for b in band]), np.stack([b[1] for b in band])
            marg = np.minimum(upper - vals, vals - lower).reshape(len(rows), -1)
            js = np.argmin(np.where(np.isnan(marg), math.inf, marg), axis=1)
            for i, j, row in zip(rows, js, marg):
                least[q, i] = float(row[j]), complex(zs[j])
    require_tails(members, ("fprime", "f"), float(np.max(radii, initial=0.0)), tail_tol)
    return [
        EnvelopeReport(
            distortion_min_margin=least["fprime", i][0],
            growth_min_margin=least["f", i][0],
            worst_z_distortion=least["fprime", i][1],
            worst_z_growth=least["f", i][1],
            samples=len(radii) * ENVELOPE_ANGLES,
        )
        for i in range(len(members))
    ]


def envelope_check(member: MemberSeries, radii: Optional[np.ndarray] = None) -> EnvelopeReport:
    """envelope_checks of one member."""
    return envelope_checks([member], radii)[0]
