"""Pre-Schwarzian/Schwarzian operators and hyperbolic sup-norm estimation.

The weighted quantities are (1-|z|^2)|P_f(z)| and (1-|z|^2)^2 |S_f(z)|,
the powers of the reciprocal unit-disk Poincare density.  Norms are
estimated by a dense polar scan clustered toward the scan radius followed
by a vectorized polar zoom around the scan's maximum; the result is a
lower estimate of the supremum on the scanned region, attained at the
point it reports.  Values come from MemberSeries and MemberBatch; only
members that have nothing but series carry a tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .series import TruncatedSeries, chebyshev_radii
from .robertson import ClassParams, MemberBatch, MemberSeries, NaNMargin, ParamOutOfRange
from .robertson import SchwarzSpec, TailToleranceUnmet, phi_series, polar_grid, require_tails


@dataclass(frozen=True)
class ScanOpts:
    """Polar-scan configuration for norm estimation.

    r_max defaults to 0.9995 for members with a closed form (the extremals)
    and 0.95 for every other member, generated ones included.  refine_tol is
    the half-width, in r and in theta, below which the refinement zoom stops;
    it must be positive.  radial and angular, the scan's radii and angles,
    must be at least 1.
    """

    radial: int = 128
    angular: int = 256
    r_max: Optional[float] = None
    refine_tol: float = 1e-10


@dataclass(frozen=True)
class NormEstimate:
    """Result of a weighted sup-norm scan.

    value is a lower estimate of the true supremum, and it is exactly
    weighted_value(member, argmax, weight_exponent, r_max).  weight_exponent
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

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "argmax": [self.argmax.real, self.argmax.imag],
            "weight_exponent": self.weight_exponent,
            "r_max": self.r_max,
            "tail_error": self.tail_error,
            "refinement_steps": self.refinement_steps,
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
    """S_f at circle(r, n_angles): member.on_circles' one row."""
    return member.on_circles(("S",), (r,), n_angles)[0][0]


QUANTITY = {1: "P", 2: "S"}  # the quantity each weight exponent weighs


def weighted(zs: np.ndarray, weight_exponent: int, vals) -> np.ndarray:
    return (1 - np.abs(zs) ** 2) ** weight_exponent * np.abs(vals)


def weighted_value(member: MemberSeries, z, weight_exponent: int, r_trunc: float):
    """(1-|z|^2)^w |P_f| or |S_f| at a point or array."""
    zs = np.asarray(z, dtype=np.complex128)
    return weighted(zs, weight_exponent, member.values(QUANTITY[weight_exponent], zs, r_trunc))


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


def _coarse_scan(members, weights, radii: np.ndarray, n_ang: int):
    """Arrays r, theta of (member, weight) where the zoom starts: the first
    maximum in (radius, angle) order of the weighted modulus on polar_grid(radii,
    n_ang); NaNMargin if one is NaN.  Per SCAN_BLOCK radii, the grid and (1-|z|^2)^w
    are built once for every member, one member.on_circles call serves every weight."""
    qs = [QUANTITY[w] for w in weights]
    shape = (len(members), len(weights), radii.size)
    peak, angle = np.empty(shape), np.empty(shape, dtype=int)  # per circle: maximum, its index
    for at in range(0, radii.size, SCAN_BLOCK):
        rs = radii[at : at + SCAN_BLOCK]
        zs, rows = polar_grid(rs, n_ang), np.arange(rs.size)
        scales = [(1 - np.abs(zs) ** 2) ** w for w in weights]
        for i, m in enumerate(members):
            for k, (scale, v) in enumerate(zip(scales, m.on_circles(qs, rs, n_ang, zs))):
                vals = scale * np.abs(v)
                j = vals.argmax(axis=1)  # a NaN's index where a circle holds one
                peak[i, k, at : at + rs.size], angle[i, k, at : at + rs.size] = vals[rows, j], j
    if np.isnan(peak).any():
        raise NaNMargin(f"member {int(np.isnan(peak).any(axis=(1, 2)).argmax())} reads NaN")
    js = peak.argmax(axis=2)
    return radii[js], 2 * math.pi * np.take_along_axis(angle, js[..., None], 2)[..., 0] / n_ang


def _zoom(batch: MemberBatch, weight_exponent, r, theta, dr, dth, tol):
    """Polar zoom toward local maxima of the weighted modulus, one start per member.

    Each level evaluates every row's ZOOM_POINTS x ZOOM_POINTS patch of
    nodes r +- dr (clipped to [0, batch.r_trunc]) by theta +- dth in one
    batch.values call on a (G, ZOOM_POINTS**2) array, moves a row's centre
    to its first patch maximum when that strictly beats the row's best (a
    NaN raises NaNMargin), and shrinks both half-widths 4x until both are <= tol.
    Returns each row's best value, its exact point, and the point count per row.
    """
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    g, centre = np.arange(r.size), ZOOM_POINTS**2 // 2
    best, evals = np.full(r.size, -math.inf), 0
    while True:
        rs = np.minimum(np.maximum(r[:, None] + dr * offsets, 0.0), batch.r_trunc)
        ths = theta[:, None] + dth * offsets
        zs = (rs[:, :, None] * np.exp(1j * ths)[:, None, :]).reshape(r.size, -1)
        vals = weighted(zs, weight_exponent, batch.values(QUANTITY[weight_exponent], zs))
        evals += ZOOM_POINTS**2
        k = vals.argmax(axis=1)  # a NaN's index where a patch holds one
        v = vals[g, k]
        if np.isnan(v).any():
            raise NaNMargin(f"member {int(np.isnan(v).argmax())} reads NaN")
        up = v > best
        # a row that does not improve keeps its centre, the patch's centre node
        best, k = np.where(up, v, best), np.where(up, k, centre)
        r, theta, best_z = rs[g, k // ZOOM_POINTS], ths[g, k % ZOOM_POINTS], zs[g, k]
        dr, dth = dr * 4 / (ZOOM_POINTS - 1), dth * 4 / (ZOOM_POINTS - 1)
        if dr <= tol and dth <= tol:
            return best, best_z, evals


def norm_estimate(
    member: MemberSeries, weight_exponent: int, opts: ScanOpts = ScanOpts()
) -> NormEstimate:
    """sup over |z| <= r_max of the weighted modulus: norm_estimates' one case."""
    return norm_estimates([member], (weight_exponent,), opts)[0][0]


def norm_estimates(members, weights, opts: ScanOpts = ScanOpts()) -> list[list[NormEstimate]]:
    """The NormEstimate of members[i] at weights[k] in row i, column k.

    One coarse scan of radial x angular polar nodes (radii clustered toward
    r_max) per member serves every weight; from each coarse argmax a zoom
    refines over r +- r_max/(radial+1), theta +- 2 pi/angular.  The members
    that share an r_max zoom in lockstep as one MemberBatch, one zoom per
    weight.  No value depends on the batch.  TailToleranceUnmet: a
    series-only member's tail at r_max (require_tails).
    """
    if any(w not in QUANTITY for w in weights):
        raise ValueError("weight_exponent must be 1 or 2")
    if not opts.refine_tol > 0:
        raise ParamOutOfRange(f"refine_tol={opts.refine_tol} must be positive")
    if opts.radial < 1 or opts.angular < 1:
        raise ParamOutOfRange(f"radial={opts.radial}, angular={opts.angular}: each must be >= 1")
    r_maxes = [opts.r_max if opts.r_max is not None else 0.9995 if m.closed_form else 0.95
               for m in members]
    for r_max in r_maxes:
        if not 0 < r_max < 1:
            raise ParamOutOfRange(f"r_max={r_max} outside (0, 1)")
    qs = [QUANTITY[w] for w in weights]
    tails = [require_tails([m], qs, r_max)[0] for m, r_max in zip(members, r_maxes)]
    out = [[None] * len(weights) for _ in members]
    for r_max in dict.fromkeys(r_maxes):
        rows = [i for i, r in enumerate(r_maxes) if r == r_max]
        batch = MemberBatch([members[i] for i in rows], r_max)
        radii = np.append(chebyshev_radii(opts.radial, r_max), r_max)
        r, theta = _coarse_scan(batch.members, weights, radii, opts.angular)
        for k, w in enumerate(weights):
            best, best_z, steps = _zoom(batch, w, r[:, k], theta[:, k], r_max / (opts.radial + 1),
                                        2 * math.pi / opts.angular, opts.refine_tol)
            for g, i in enumerate(rows):
                out[i][k] = NormEstimate(value=float(best[g]), argmax=complex(best_z[g]),
                                         weight_exponent=w, r_max=float(r_max),
                                         tail_error=float(tails[i][k]), refinement_steps=steps)
    return out
