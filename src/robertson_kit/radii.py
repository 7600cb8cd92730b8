"""Radius of concavity and radius of convexity, with sharpness probes.

The concavity test operator for the parameter A_co in (1, 2] is

    T_f(z) = (2/(A_co - 1)) ((A_co + 1)/2 (1+z)/(1-z) - 1 - z f''(z)/f'(z)),

normalized so T_f(0) = 1.  The class radius is the largest R with
Re T_f > 0 on |z| < R for every member.  Two candidate radii are exposed:

* mode "paper": the printed quadratic (A+1-2k, -2(A+1+k), A-1), which
  rests on the falsified one-sided bound Re(z P_f) <= k r/(1-r);
* mode "corrected": the sharp radius, the smaller root of
  (A+3-4k cos(alpha), -2(A+1+2k), A-1).  With omega = z phi,
  z P_f = G1 2 omega/(1 - omega), and for |omega| <= r the values of
  2 omega/(1 - omega) fill the disk with centre 2r^2/(1-r^2) and radius
  2r/(1-r^2), so the largest Re(z P_f) on |z| = r is
  2k (r + cos(alpha) r^2)/(1-r^2), which a rotation omega = lambda z puts
  at z = -r, where Re (1+z)/(1-z) is least.  Clearing denominators,
  (A+1)/2 (1-r)^2 - (1-r^2) - 2k (r + cos(alpha) r^2) expands to
  ((A+3-4k cos(alpha)) r^2 - 2 (A+1+2k) r + (A-1)) / 2.  At alpha = 0
  this is the bound Re(z P_f) <= 2 k r/(1-r).

Re T_f and Re(1 + z P_f) are real parts of functions analytic on the closed
disk |z| <= r < 1 (P_f is, since f' never vanishes there for a member built
from a Schwarz function or a closed form), so by the minimum principle each
takes its least value on |z| <= r on the circle |z| = r.  The soundness scan
therefore reads one circle, and the probe searches members and circles for
the empirical radius at which some member first loses Re T_f > 0: an ITP
search (itp_point) on the least Re T_f per circle, which reads 7 or 8
circles at the default r_tol and never more than one past bisection's count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .robertson import (
    ClassParams,
    MemberBatch,
    MemberSeries,
    NaNMargin,
    ParamOutOfRange,
    SchwarzSpec,
    circle,
    first_tied,
    generate_member,
)
from .sampling import sample_schwarz_specs


class RootNotBracketed(RuntimeError):
    """The quadratic failed its guaranteed sign change on [0, 1]."""


@dataclass(frozen=True)
class ConcavitySetting:
    """The Co(A) family parameter; distinct from the subordination constant."""

    a_co: float

    def __post_init__(self):
        if not 1 < self.a_co <= 2:
            raise ParamOutOfRange(f"A_co={self.a_co} outside (1, 2]")


@dataclass(frozen=True)
class RadiusResult:
    value: float
    method: str  # "closed_form" | "formula_degenerate"
    residual: float
    mode: str
    degenerate: bool = False
    note: str = ""

    def to_json(self) -> dict:
        def clean(x: float):
            return x if math.isfinite(x) else None

        d = {
            "value": clean(self.value),
            "method": self.method,
            "residual": clean(self.residual),
            "mode": self.mode,
            "degenerate": self.degenerate,
        }
        if self.note:
            d["note"] = self.note
        return d


# ---------------------------------------------------------------------------
# the concavity operator
# ---------------------------------------------------------------------------


def t_values(member: MemberSeries, setting: ConcavitySetting, z):
    """T_f at a point or array of points."""
    zs = np.asarray(z, dtype=np.complex128)
    return t_from_p(setting, zs, member.values("P", zs))


def t_from_p(setting: ConcavitySetting, zs: np.ndarray, p):
    """T_f at zs from P_f there; p may stack rows over zs."""
    a = setting.a_co
    return (2 / (a - 1)) * ((a + 1) / 2 * (1 + zs) / (1 - zs) - 1 - zs * p)


# ---------------------------------------------------------------------------
# radius of concavity
# ---------------------------------------------------------------------------


def phi_quadratic(
    params: ClassParams, setting: ConcavitySetting, mode: str = "paper"
) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the radius quadratic Phi(r) = a r^2 + b r + c."""
    a_co, k = setting.a_co, params.k
    if mode == "paper":
        return (a_co + 1 - 2 * k, -2 * (a_co + 1 + k), a_co - 1)
    if mode == "corrected":
        return (a_co + 3 - 4 * k * math.cos(params.alpha), -2 * (a_co + 1 + 2 * k), a_co - 1)
    raise ParamOutOfRange(f"unknown mode {mode!r}")


def phi_value(coeffs: tuple[float, float, float], r) -> np.ndarray:
    a, b, c = coeffs
    return (a * r + b) * r + c


def radius_concavity(
    params: ClassParams, setting: ConcavitySetting, mode: str = "paper"
) -> RadiusResult:
    """Smaller root of the radius quadratic, by the cancellation-free q-formula.

    Phi opens upward (a = A+1-2k or A+3-4k cos(alpha), both > 0 as A > 1 and
    k <= 1), Phi(0) = A-1 > 0 and Phi(1) = -2-4k (paper) or -4k(1 + cos(alpha))
    (corrected), so for k > 0 the smaller root is the one in (0, 1) and Phi is
    positive on [0, root).  The residual is |Phi(root)|.
    """
    a, b, c = phi_quadratic(params, setting, mode)
    disc = b * b - 4 * a * c
    if disc < 0 or not params.k > 0:  # not the rounded Phi(1), 0 for k below 1e-16
        raise RootNotBracketed(f"no sign change for mode={mode}, {params}, {setting}")
    root = 2 * c / (-b + math.sqrt(disc))
    return RadiusResult(
        value=float(root),
        method="closed_form",
        residual=abs(float(phi_value((a, b, c), root))),
        mode=mode,
    )


# ---------------------------------------------------------------------------
# radius of convexity
# ---------------------------------------------------------------------------


def radius_convexity(params: ClassParams, mode: str = "sharp") -> RadiusResult:
    """Radii for Re(1 + z f''/f') > 0 over the class.

    mode "paper_literal" reproduces the printed formula 1/(k-1), which is
    non-positive (or divides by zero) for the entire admissible range
    k <= 1 and is returned flagged degenerate, for documentation only.
    mode "sharp": 1 + z P_f = 1 + G1 2 omega/(1 - omega), and for |omega| <= r
    the values of 2 omega/(1 - omega) fill the disk with centre 2r^2/(1-r^2)
    and radius 2r/(1-r^2), so the least Re(1 + z P_f) on |z| = r is
    (1 - 2kr + (2k cos(alpha) - 1) r^2)/(1 - r^2), attained by a rotation
    omega = lambda z.  Its numerator is ((k + m) r - 1)((k - m) r - 1) with
    m = |1 - G1|, so the radius is 1/(k + m), 1 at alpha = 0.
    """
    k = params.k
    if mode == "paper_literal":
        at_pole = abs(k - 1) < 1e-15
        value = math.inf if at_pole else 1 / (k - 1)
        return RadiusResult(
            value=value,
            method="formula_degenerate",
            residual=math.nan,
            mode=mode,
            degenerate=not 0 < value <= 1,
            note=("division by zero at k = 1" if at_pole
                  else "non-positive for every admissible k <= 1"),
        )
    if mode == "sharp":
        r = 1 / (k + abs(1 - params.g1))
        numerator = 1 - 2 * k * r + (2 * k * math.cos(params.alpha) - 1) * r * r
        return RadiusResult(value=r, method="closed_form", residual=abs(numerator), mode=mode)
    raise ParamOutOfRange(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# soundness scan and sharpness probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoundnessReport:
    min_re_t: float
    witness_index: int
    witness_z: complex
    samples: int


def _first_least(rows: np.ndarray, zs: np.ndarray) -> tuple[float, int, complex]:
    """(least, i, z): the least entry of rows, the first row i whose minimum is tied with
    it, and z, the first of the shared points zs tied with that row's minimum (first_tied);
    no rows, or rows of +inf alone, give (inf, -1, 0j).  NaNMargin if a row holds a NaN."""
    lows = rows.min(axis=1)
    least, i = first_tied(lows) if lows.size else (math.inf, -1)
    if math.isnan(least):
        raise NaNMargin(f"member {int(np.isnan(lows).argmax())} reads Re T_f = NaN")
    if least == math.inf:
        return math.inf, -1, 0j
    return float(least), int(i), complex(zs[first_tied(rows[i])[1]])


# points on the soundness scan's circle
SOUNDNESS_ANGLES = 96


def soundness_grid(radius: float) -> tuple[float, np.ndarray]:
    """(r_cap, zs): the soundness scan's cap, just inside radius, and the
    circle |z| = r_cap that holds the least Re T_f on |z| <= r_cap (minimum
    principle); ParamOutOfRange for a radius outside (0, 1)."""
    if not 0 < radius < 1:
        raise ParamOutOfRange(f"radius={radius} outside (0, 1)")
    r_cap = radius - 1e-3 if radius > 2e-3 else radius / 2
    return r_cap, circle(r_cap, SOUNDNESS_ANGLES)


def concavity_soundness_scan(
    members: Sequence[MemberSeries], setting: ConcavitySetting, radius: float
) -> SoundnessReport:
    """Minimum of Re T_f over the members and |z| <= r_cap, read on the
    circle soundness_grid(radius), all members in one MemberBatch call."""
    r_cap, zs = soundness_grid(radius)
    re_t = t_from_p(setting, zs, MemberBatch(members).values("P", zs)).real
    best, w_i, w_z = _first_least(re_t, zs)
    return SoundnessReport(
        min_re_t=best, witness_index=w_i, witness_z=w_z, samples=len(members) * zs.size
    )


def extremal_rotation(params: ClassParams, setting: ConcavitySetting) -> complex:
    """The lam of omega = lam z with Re T_f(-R) = 0 at the corrected radius R.

    z = -R makes Re (1+z)/(1-z) least on |z| = R, and Re(z P_f) = k Re(e^{-i alpha} m)
    is largest where m = 2 omega/(1 - omega) is the point (2R^2 + 2R e^{i alpha})/(1-R^2)
    of its disk; omega = w* = m/(2+m) there, so lam = -w*/R, which is -1 at alpha = 0.
    """
    r = radius_concavity(params, setting, "corrected").value
    m = (2 * r * r + 2 * r * cmath.exp(1j * params.alpha)) / (1 - r * r)
    return -m / (2 + m) / r


# sharpness_probe's default members, points per circle and largest radius
PROBE_ROTATIONS = 16
PROBE_SPECS = 24
PROBE_ANGLES = 96
PROBE_R_HI = 0.9
# the ITP search's truncation kappa_1 (b - a)^kappa_2 and its slack of n0 steps
# over bisection's ceil(log2((b - a)/tol)) (Oliveira and Takahashi, ACM TOMS 47(1), 2021)
ITP_K1 = 0.2 / PROBE_R_HI
ITP_K2 = 2.0
ITP_N0 = 1


def itp_steps(width: float, tol: float) -> int:
    """The most points itp_point reads to narrow a bracket of this width to tol:
    bisection's ceil(log2(width/tol)) steps plus ITP_N0."""
    return math.ceil(math.log2(width / tol)) + ITP_N0


def itp_point(lo: float, f_lo: float, hi: float, f_hi: float, tol: float, left: int) -> float:
    """The next point of an ITP search on [lo, hi], f_lo > 0 >= f_hi, that has
    `left` of its itp_steps(...) points to go and stops once hi - lo <= tol.

    The regula-falsi point between the two values is truncated toward the
    midpoint by ITP_K1 (hi - lo)^ITP_K2, then projected into the interval
    around the midpoint that still narrows the bracket to tol in `left`
    steps: the bracket shrinks from both sides, never slower than bisection
    with ITP_N0 steps of slack.
    """
    mid = 0.5 * (lo + hi)
    x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    step = ITP_K1 * (hi - lo) ** ITP_K2
    x = mid if abs(mid - x) <= step else x + math.copysign(step, mid - x)
    reach = max(0.0, tol * 2.0 ** (left - 1) - 0.5 * (hi - lo))
    return x if abs(x - mid) <= reach else mid + math.copysign(reach, x - mid)


@dataclass(frozen=True)
class SearchOpts:
    seed: int = 0
    budget: int = 2000  # circle evaluations (member at one radius)
    r_tol: float = 1e-6


@dataclass(frozen=True)
class ProbeResult:
    empirical_radius: float
    witness_spec: Optional[dict]
    witness_z: complex
    evaluations: int
    budget_exhausted: bool
    violation_found: bool

    def to_json(self) -> dict:
        return {
            "empirical_radius": self.empirical_radius,
            "witness_spec": self.witness_spec,
            "witness_z": [self.witness_z.real, self.witness_z.imag],
            "evaluations": self.evaluations,
            "budget_exhausted": self.budget_exhausted,
            "violation_found": self.violation_found,
        }


def sharpness_probe(
    params: ClassParams,
    setting: ConcavitySetting,
    search: SearchOpts = SearchOpts(),
    specs: Optional[Sequence[SchwarzSpec]] = None,
) -> ProbeResult:
    """Smallest radius at which some member attains Re T_f <= 0.

    The member family combines PROBE_ROTATIONS rotations omega = lam z,
    lam = lam* e^{2 pi i j/PROBE_ROTATIONS} from the extremal rotation lam*
    at j = 0, whose Re T_f first reaches 0 at the corrected radius
    (extremal_rotation), with PROBE_SPECS seeded Blaschke/polynomial specs;
    pass `specs` to restrict the search to a fixed family.  The least Re T_f
    on |z| <= r lies on |z| = r (minimum principle), so it falls as r grows:
    one circle at PROBE_R_HI shows whether any member fails by then.  If one
    does, an ITP search (itp_point) narrows [0, PROBE_R_HI] until
    hi - lo <= r_tol and returns the midpoint.  Its left value is
    Re T_f(0) = 1, which holds for every member, so no circle is read at 0;
    each step reads one circle at a regula-falsi point of the least Re T_f,
    truncated and projected so that the search reads at most
    itp_steps(PROBE_R_HI, r_tol) circles after the first, ITP_N0 more than
    bisection.  The witness is _first_least's on the last circle with
    Re T_f <= 0.  The budget counts member-circle evaluations; exhaustion
    returns the best-so-far with a flag, and 0.0 when not even the first
    circle fits, since no radius was shown to pass.  A circle reads the
    members' exact P_f in one MemberBatch call.  ParamOutOfRange for a
    negative budget or an r_tol outside (0, inf).
    """
    if search.budget < 0:
        raise ParamOutOfRange(f"budget={search.budget} is negative")
    if not 0 < search.r_tol < math.inf:
        raise ParamOutOfRange(f"r_tol={search.r_tol} outside (0, inf)")
    if specs is None:
        lam, turn = extremal_rotation(params, setting), 2j * math.pi / PROBE_ROTATIONS
        specs = [SchwarzSpec(kind="unit_constant_times_z", rotation=lam * cmath.exp(turn * j))
                 for j in range(PROBE_ROTATIONS)] + sample_schwarz_specs(search.seed, PROBE_SPECS)
    specs = list(specs)
    members = [generate_member(params, s, validate=False) for s in specs]
    batch = MemberBatch(members)
    evals, witness = 0, None  # witness: (spec, z) of the last circle with Re T_f <= 0

    def min_re_t(r: float) -> float:
        nonlocal evals, witness
        zs = circle(r, PROBE_ANGLES)
        least, i, z = _first_least(t_from_p(setting, zs, batch.values("P", zs)).real, zs)
        evals += len(members)
        if least <= 0:
            witness = (specs[i], z)
        return least

    exhausted = len(members) > search.budget
    f_hi = math.inf if exhausted else min_re_t(PROBE_R_HI)
    if f_hi > 0:
        return ProbeResult(
            empirical_radius=0.0 if exhausted else PROBE_R_HI, witness_spec=None,
            witness_z=0j, evaluations=evals, budget_exhausted=exhausted, violation_found=False)
    # T_f(0) = 1 for every member, so the left value needs no circle at 0
    lo, f_lo, hi = 0.0, 1.0, PROBE_R_HI
    left = itp_steps(hi - lo, search.r_tol)
    while hi - lo > search.r_tol:
        if evals + len(members) > search.budget:
            exhausted = True
            break
        r = itp_point(lo, f_lo, hi, f_hi, search.r_tol, left)
        left -= 1
        least = min_re_t(r)
        if least <= 0:
            hi, f_hi = r, least
        else:
            lo, f_lo = r, least

    return ProbeResult(
        empirical_radius=0.5 * (lo + hi), witness_spec=witness[0].to_json(),
        witness_z=witness[1], evaluations=evals, budget_exhausted=exhausted,
        violation_found=True)
