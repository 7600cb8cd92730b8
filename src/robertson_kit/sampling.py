"""Seeded sampling of Schwarz-function specs and class members.

The generators are valid by construction: Blaschke products with zeros
drawn uniformly from |a| <= 0.8 (plus mandatory factors of z at the
origin), and polynomials with coefficient budget sum |c_i| <= 0.95, a
sufficient condition for mapping the disk into itself.  A fixed seed
fully determines the sample.
"""

from __future__ import annotations

import numpy as np

from .robertson import ClassParams, MemberSeries, ParamOutOfRange, SchwarzSpec, generate_member
from .series import DEFAULT_ORDER

BLASCHKE_ZERO_RADIUS = 0.8
POLY_COEFF_BUDGET = 0.95


def _uniform_disk(rng: np.random.Generator, radius: float) -> complex:
    return complex(
        radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    )


def _unimodular(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def sample_schwarz_spec(rng: np.random.Generator, sp0: bool = False) -> SchwarzSpec:
    """One random spec, a Blaschke product or a polynomial with equal odds;
    sp0=True forces a zero of order >= 2 at the origin."""
    origin_order = 2 if sp0 else 1
    if rng.uniform() < 0.5:
        n_zeros = int(rng.integers(1, 5))
        zeros = [0j] * origin_order + [
            _uniform_disk(rng, BLASCHKE_ZERO_RADIUS) for _ in range(n_zeros)
        ]
        return SchwarzSpec(
            kind="blaschke_product", zeros=tuple(zeros), rotation=_unimodular(rng)
        )
    degree = origin_order + int(rng.integers(1, 5))
    raw = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    raw[:origin_order] = 0.0
    budget = POLY_COEFF_BUDGET * rng.uniform(0.5, 1.0)
    raw *= budget / np.sum(np.abs(raw))
    return SchwarzSpec(kind="polynomial", coeffs=tuple(raw))


def sample_schwarz_specs(seed: int, count: int, sp0: bool = False) -> list[SchwarzSpec]:
    if count < 0:
        raise ParamOutOfRange(f"sample count {count} is negative")
    rng = np.random.default_rng(seed)
    return [sample_schwarz_spec(rng, sp0=sp0) for _ in range(count)]


def sample_members(
    params: ClassParams,
    count: int,
    seed: int,
    sp0: bool = False,
    order: int = DEFAULT_ORDER,
) -> list[MemberSeries]:
    """Deterministic batch of generated members at the given parameters."""
    return [
        generate_member(params, spec, order=order, validate=False)
        for spec in sample_schwarz_specs(seed, count, sp0=sp0)
    ]
