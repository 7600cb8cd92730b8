"""Closed-form sharp bounds: norms, pointwise Schwarzian, growth/distortion.

All bound formulas are driven by the order constant k = (1-beta)cos(alpha).
The growth envelopes need the integrals of (1 -+ t^2)^{-k}, evaluated by a
fixed Gauss-Legendre rule with a stated error bound in u, t = tanh u or sinh u,
where the integrands are analytic and bounded up to r = 1, with closed-form
oracles at k = 1 (arctan / artanh) and k = 1/2 (arcsin) for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .robertson import ClassParams, MemberBatch, MemberSeries, NaNMargin, ParamOutOfRange
from .robertson import SchwarzSpec, first_tied, phi_values, polar_grid, require_tails
from .series import TAIL_TOL, chebyshev_radii


class XiOutOfRange(ValueError):
    """|f''(0)|/(2k) exceeded 1; the input cannot be a class member."""


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


@lru_cache(maxsize=1)
def _gl_nodes():
    """The 16 Gauss-Legendre nodes and weights, built on first use, so that
    importing the package does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(16)


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integral of f on [a, b]: 16-node Gauss-Legendre on ceil(b - a) equal panels (one
    at least), f read at every node in one array call.  A panel's error is at most
    (32/15)(M/m) rho^-32/(rho^2 - 1) of its integral, M = max |f| on its Bernstein
    ellipse E_rho, m = min f on it (Trefethen, ATAP, Thm 19.3).  For growth_envelope's
    cosh(u)^(1-2k) and cosh(u)^(2k-2), 0 < k <= 1, rho = 2 + sqrt(5) keeps E_rho of a
    half-width <= 1/2 in |Im u| <= 1 < pi/2, where they are analytic, and M/m < 25.44
    (e^(1+sqrt(5)) is their k -> 0 limit): below 3e-20 relative.  Other f need their own test."""
    x, w = _gl_nodes()
    panels = max(1, math.ceil(b - a))
    half = 0.5 * (b - a) / panels
    mids = a + half * (2 * np.arange(panels) + 1)
    return half * float(np.dot(np.tile(w, panels), f((mids[:, None] + half * x).ravel())))


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


def growth_envelope(params: ClassParams, r: float) -> Envelope:
    """int_0^r (1+t^2)^{-k} dt <= |f| <= int_0^r (1-t^2)^{-k} dt, integrated in u
    without the cancellation of 1 - t^2 near 1: t = sinh u gives the lower bound
    int_0^{arsinh r} cosh(u)^{1-2k} du, t = tanh u the upper int_0^{artanh r} cosh(u)^{2k-2} du;
    each is kept on its side of r, onto which both round as k -> 0."""
    if not 0 <= r < 1:
        raise ParamOutOfRange(f"r={r} outside [0, 1)")
    k = params.k
    lower = gauss_legendre(lambda u: np.cosh(u) ** (1 - 2 * k), 0.0, math.asinh(r))
    upper = gauss_legendre(lambda u: np.cosh(u) ** (2 * k - 2), 0.0, math.atanh(r))
    return Envelope(r=r, lower=min(lower, r), upper=max(upper, r), kind="growth")


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
    grid is reported per envelope with its witness, the first point in
    (radius, angle) order tied with it (first_tied), and a NaN margin raises
    NaNMargin.  Each params' envelopes are computed once.  Every f' and f
    comes from one MemberBatch, in blocks of members (MemberBatch.circles).
    TailToleranceUnmet: a series it read has a tail above tail_tol at the
    largest radius (require_tails).
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
            for i, low, j, row in zip(rows, *first_tied(marg), marg):
                if math.isnan(low):
                    z = complex(zs[np.isnan(row).argmax()])
                    raise NaNMargin(f"member {i}: {q} margin NaN at z = {z}")
                least[q, i] = float(low), complex(zs[j])
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
