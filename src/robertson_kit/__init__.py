"""Verification toolkit for the generalized Robertson class SP_alpha(beta)."""

from .series import (
    CoefficientOverflow,
    DivisionByZeroConstantTerm,
    RadiusExceeded,
    TruncatedSeries,
)
from .robertson import (
    ClassParams,
    MemberSeries,
    NotASchwarzFunction,
    ParamOutOfRange,
    SchwarzSpec,
    check_ii,
    check_iii,
    classical_convexity_check,
    extremal_member,
    generate_member,
    make_params,
    subordination_membership_check,
    validate_schwarz,
)

__version__ = "0.1.0"
