"""Pre-Schwarzian/Schwarzian operators and hyperbolic sup-norm estimation.

The weighted quantities are (1-|z|^2)|P_f(z)| and (1-|z|^2)^2 |S_f(z)|,
the powers of the reciprocal unit-disk Poincare density.  Norms are
estimated by a dense polar scan clustered toward the scan radius followed
by a vectorized polar zoom around the scan's maximum; the result is a
lower estimate of the supremum on the scanned region, attained at the
point it reports, with scan-gap metadata.  Values come from
MemberSeries.values; only members that have nothing but series carry a tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .series import TAIL_TOL, TruncatedSeries, chebyshev_radii
from .robertson import ClassParams, MemberSeries, ParamOutOfRange, SchwarzSpec
from .robertson import phi_series, polar_grid


class TailToleranceUnmet(ValueError):
    """The series tail at the requested scan radius cannot be certified."""


@dataclass(frozen=True)
class ScanOpts:
    """Polar-scan configuration for norm estimation.

    r_max defaults to 0.9995 for members with closed-form evaluators and
    0.95 for series-only members.  refine_tol is the half-width, in r and
    in theta, below which the refinement zoom stops; it must be positive.
    radial and angular, the scan's radii and angles, must be at least 1.
    """

    radial: int = 128
    angular: int = 256
    r_max: Optional[float] = None
    refine_tol: float = 1e-10


@dataclass(frozen=True)
class NormEstimate:
    """Result of a weighted sup-norm scan.

    value is a lower estimate of the true supremum, and it is exactly
    weighted_value(member, argmax, weight_exponent, r_max); value +
    scan_gap is an upper estimate on the scanned region.  weight_exponent
    is 1 for the pre-Schwarzian norm and 2 for the Schwarzian norm.
    tail_error is the series tail bound at r_max, 0.0 for members with an
    exact evaluator.  refinement_steps is the number of points the
    refinement evaluated.
    """

    value: float
    argmax: complex
    weight_exponent: int
    r_max: float
    tail_error: float
    refinement_steps: int
    scan_gap: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "argmax": [self.argmax.real, self.argmax.imag],
            "weight_exponent": self.weight_exponent,
            "r_max": self.r_max,
            "tail_error": self.tail_error,
            "refinement_steps": self.refinement_steps,
            "scan_gap": self.scan_gap,
        }


def schwarzian(member: MemberSeries) -> TruncatedSeries:
    """Series of S_f = P' - P^2/2, cached on the member."""
    return member.s_series()


def schwarzian_via_phi(
    params: ClassParams, spec: SchwarzSpec, order: int
) -> TruncatedSeries:
    """S_f straight from the Schwarz data phi.

    S_f = 2 G1 (2 phi' + (2 - 2 G1) phi^2) / (2 (1 - z phi)^2), the form
    used in the norm-bound derivations; cross-checks the operator route.
    """
    phi = phi_series(spec, order)
    omega = TruncatedSeries(np.concatenate(([0.0 + 0.0j], phi.coeffs[:order])))
    num = phi.deriv() * 2 + phi * phi * (2 - 2 * params.g1)
    den = (1 - omega) * (1 - omega) * 2
    return (num * (2 * params.g1)) / den


def s_on_circle(member: MemberSeries, r: float, n_angles: int):
    return member.on_circle("S", r, n_angles)


def weighted_value(member: MemberSeries, z, weight_exponent: int, r_trunc: float):
    """(1-|z|^2)^w |P_f| or |S_f| at a point or array."""
    zs = np.asarray(z, dtype=np.complex128)
    w = (1 - np.abs(zs) ** 2) ** weight_exponent
    return w * np.abs(member.values("P" if weight_exponent == 1 else "S", zs, r_trunc))


_INV_PHI = (math.sqrt(5) - 1) / 2


def golden_max(f: Callable[[float], float], a: float, b: float, tol: float):
    """Golden-section maximizer on [a, b]; returns (x, f(x), evals)."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        evals += 1
    x = c if fc > fd else d
    return x, max(fc, fd), evals


ZOOM_POINTS = 17  # patch nodes per axis; odd, so the centre is a node
# radii per coarse-scan array call: one call for all 129 radii was slower
# and used more memory than blocks of 16
SCAN_BLOCK = 16


def _zoom(member, weight_exponent, r_max, r, theta, dr, dth, tol):
    """Polar zoom toward a local maximum of the weighted modulus.

    Each level evaluates a ZOOM_POINTS x ZOOM_POINTS patch of (r, theta)
    nodes spanning r +- dr (clipped to [0, r_max]) and theta +- dth in one
    array call, moves the centre to the patch maximum when it strictly
    beats the best value so far, and shrinks both half-widths to two node
    spacings (4x per level).  It stops once both are <= tol, after at
    least one level.  Returns the best value, the exact point where it was
    evaluated, and the point count.
    """
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    best, best_z, evals = -math.inf, None, 0
    while True:
        rs = np.clip(r + dr * offsets, 0.0, r_max)
        ths = theta + dth * offsets
        zs = rs[:, None] * np.exp(1j * ths)[None, :]
        vals = weighted_value(member, zs, weight_exponent, r_max)
        evals += zs.size
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, j] > best:
            best, best_z, r, theta = float(vals[i, j]), complex(zs[i, j]), rs[i], ths[j]
        dr, dth = dr * 4 / (ZOOM_POINTS - 1), dth * 4 / (ZOOM_POINTS - 1)
        if dr <= tol and dth <= tol:
            return best, best_z, evals


def norm_estimate(
    member: MemberSeries, weight_exponent: int, opts: ScanOpts = ScanOpts()
) -> NormEstimate:
    """Estimate sup over |z| <= r_max of the weighted derivative modulus.

    Coarse scan on radial x angular polar nodes (radii clustered toward
    r_max), SCAN_BLOCK radii per array call, then a polar zoom (`_zoom`)
    from the coarse argmax over the window r +- r_max/(radial+1),
    theta +- 2 pi/angular, down to refine_tol.  The returned value is the
    zoom's value at the returned argmax.  Raises TailToleranceUnmet when a
    member that has only series cannot certify the scan radius.
    """
    if weight_exponent not in (1, 2):
        raise ValueError("weight_exponent must be 1 or 2")
    r_max = opts.r_max
    if r_max is None:
        r_max = 0.9995 if member.closed_form is not None else 0.95
    if not 0 < r_max < 1:
        raise ParamOutOfRange(f"r_max={r_max} outside (0, 1)")
    if not opts.refine_tol > 0:
        raise ParamOutOfRange(f"refine_tol={opts.refine_tol} must be positive")
    if opts.radial < 1 or opts.angular < 1:
        raise ParamOutOfRange(f"radial={opts.radial}, angular={opts.angular}: each must be >= 1")

    tail_error = 0.0
    if member.exact("P") is None:
        series = member.p_series() if weight_exponent == 1 else member.s_series()
        tail_error = series.tail_bound(r_max)
        if tail_error > TAIL_TOL:
            raise TailToleranceUnmet(
                f"series tail {tail_error:.3e} at r={r_max} above {TAIL_TOL:.1e}"
            )

    radii = np.append(chebyshev_radii(opts.radial, r_max), r_max)
    n_ang = opts.angular
    vals = np.empty((radii.size, n_ang))
    for at in range(0, radii.size, SCAN_BLOCK):
        zs = polar_grid(radii[at : at + SCAN_BLOCK], n_ang)
        vals[at : at + SCAN_BLOCK] = weighted_value(member, zs, weight_exponent, r_max)
    # the first maximum in (radius, angle) order
    j_best, best_i_ang = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best_r = float(radii[j_best])
    per_radius_best = vals.max(axis=1)

    # local variation around the winning cell, as an upper-bound gap hint
    neighbors = per_radius_best[max(0, j_best - 1) : j_best + 2]
    scan_gap = float(np.max(np.abs(neighbors - per_radius_best[j_best])))

    theta = 2 * math.pi * best_i_ang / n_ang
    dr = r_max / (opts.radial + 1)
    dth = 2 * math.pi / n_ang
    value, argmax, steps = _zoom(
        member, weight_exponent, r_max, best_r, theta, dr, dth, opts.refine_tol
    )

    return NormEstimate(
        value=value,
        argmax=argmax,
        weight_exponent=weight_exponent,
        r_max=float(r_max),
        tail_error=float(tail_error),
        refinement_steps=steps,
        scan_gap=scan_gap,
    )
