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

The probe searches members and circles for the empirical radius at which
some member first loses Re T_f > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .robertson import (
    ClassParams,
    MemberBatch,
    MemberSeries,
    ParamOutOfRange,
    SchwarzSpec,
    circle,
    generate_member,
    polar_grid,
)
from .sampling import sample_schwarz_specs
from .series import DEFAULT_ORDER, chebyshev_radii


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
    method: str  # "closed_form" | "bisection" | "formula_degenerate"
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


def t_values(member: MemberSeries, setting: ConcavitySetting, z, r_trunc=0.95):
    """T_f at a point or array of points."""
    zs = np.asarray(z, dtype=np.complex128)
    return t_from_p(setting, zs, member.values("P", zs, r_trunc))


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
    """Smaller root of the radius quadratic, cross-checked by bisection.

    Phi(0) = A-1 > 0 and Phi(1) = -2-4k (paper) or -4k(1 + cos(alpha))
    (corrected), so for k > 0 the root is unique in (0, 1); the closed form uses the
    cancellation-free q-formula and positivity of Phi on [0, root) is
    spot-checked at 1000 samples.
    """
    a, b, c = phi_quadratic(params, setting, mode)
    disc = b * b - 4 * a * c
    if disc < 0 or not params.k > 0:  # not the rounded Phi(1), 0 for k below 1e-16
        raise RootNotBracketed(f"no sign change for mode={mode}, {params}, {setting}")
    root = 2 * c / (-b + math.sqrt(disc))

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if phi_value((a, b, c), mid) > 0:
            lo = mid
        else:
            hi = mid
    if abs(root - 0.5 * (lo + hi)) > 1e-12:
        raise RootNotBracketed(
            f"closed form {root} disagrees with bisection {0.5 * (lo + hi)}"
        )

    samples = np.linspace(0.0, root, 1000, endpoint=False)
    if np.any(phi_value((a, b, c), samples) <= 0):
        raise RootNotBracketed("Phi not positive left of the computed root")
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
        if abs(k - 1) < 1e-15:
            return RadiusResult(
                value=math.inf,
                method="formula_degenerate",
                residual=math.nan,
                mode=mode,
                degenerate=True,
                note="division by zero at k = 1",
            )
        value = 1 / (k - 1)
        return RadiusResult(
            value=value,
            method="formula_degenerate",
            residual=math.nan,
            mode=mode,
            degenerate=value <= 0 or value > 1,
            note="non-positive for every admissible k <= 1",
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
    """(least, i, z): the first row i with the strictly least row minimum, at
    its first minimizing column of the shared points zs.  A row whose argmin
    is NaN never wins; no winning row gives (inf, -1, 0j)."""
    js = np.argmin(rows, axis=1)
    mins = np.append(np.fmin(rows[np.arange(len(rows)), js], math.inf), math.inf)
    i = int(np.argmin(mins))
    if mins[i] == math.inf:
        return math.inf, -1, 0j
    return float(mins[i]), i, complex(zs[js[i]])


# the soundness scan's polar grid: Chebyshev radii by uniform angles
SOUNDNESS_RADII = 24
SOUNDNESS_ANGLES = 96


def soundness_grid(radius: float) -> tuple[float, np.ndarray]:
    """(r_cap, zs): the soundness scan's cap, just inside radius, and its
    flattened polar grid out to r_cap."""
    r_cap = radius - 1e-3 if radius > 2e-3 else radius / 2
    return r_cap, polar_grid(chebyshev_radii(SOUNDNESS_RADII, r_cap), SOUNDNESS_ANGLES).ravel()


def concavity_soundness_scan(
    members: Sequence[MemberSeries], setting: ConcavitySetting, radius: float
) -> SoundnessReport:
    """Minimum of Re T_f over the members and soundness_grid(radius), all
    members in one MemberBatch call."""
    r_cap, zs = soundness_grid(radius)
    re_t = t_from_p(setting, zs, MemberBatch(members, r_cap).values("P", zs)).real
    best, w_i, w_z = _first_least(re_t, zs)
    return SoundnessReport(
        min_re_t=best, witness_index=w_i, witness_z=w_z, samples=len(members) * zs.size
    )


# sharpness_probe's default members, points per circle and coarse-scan radii
PROBE_ROTATIONS = 16
PROBE_SPECS = 24
PROBE_ANGLES = 96
PROBE_R_LO = 0.02
PROBE_R_HI = 0.9


@dataclass(frozen=True)
class SearchOpts:
    seed: int = 0
    budget: int = 2000  # circle evaluations (member at one radius)
    r_tol: float = 1e-6
    order: int = DEFAULT_ORDER


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

    The member family combines pure rotations omega = lam z (which realize
    the extremal boundary values of Re(z P_f) on every circle) with seeded
    Blaschke/polynomial specs; pass `specs` to restrict the search to a
    fixed family.  A coarse ascending scan brackets the first failure
    radius and bisection narrows it to r_tol; the budget counts
    member-circle evaluations and exhaustion returns the best-so-far with
    a flag.  A circle evaluates the members in one MemberBatch call.
    """
    if search.budget < 0:
        raise ParamOutOfRange(f"budget={search.budget} is negative")
    specs = list(specs) if specs is not None else [
        SchwarzSpec(kind="unit_constant_times_z",
                    rotation=complex(np.exp(2j * np.pi * j / PROBE_ROTATIONS)))
        for j in range(PROBE_ROTATIONS)
    ] + sample_schwarz_specs(search.seed, PROBE_SPECS, sp0=False)
    members = [generate_member(params, s, order=search.order, validate=False) for s in specs]
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

    exhausted = False
    lo, hi = None, None
    for r in np.linspace(PROBE_R_LO, PROBE_R_HI, 48):
        if evals + len(members) > search.budget:
            exhausted = True
            break
        if min_re_t(float(r)) <= 0:
            hi = float(r)
            break
        lo = float(r)

    if hi is None:
        return ProbeResult(
            empirical_radius=PROBE_R_HI if not exhausted else (lo or PROBE_R_LO),
            witness_spec=None, witness_z=0j, evaluations=evals,
            budget_exhausted=exhausted, violation_found=False)
    lo = 0.0 if lo is None else lo
    while hi - lo > search.r_tol:
        if evals + len(members) > search.budget:
            exhausted = True
            break
        mid = 0.5 * (lo + hi)
        if min_re_t(mid) <= 0:
            hi = mid
        else:
            lo = mid

    return ProbeResult(
        empirical_radius=0.5 * (lo + hi), witness_spec=witness[0].to_json(),
        witness_z=witness[1], evaluations=evals, budget_exhausted=exhausted,
        violation_found=True)
