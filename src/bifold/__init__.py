"""Verification toolkit for m-fold symmetric bi-univalent function classes.

Truncated power-series algebra over exact rationals and complex floats,
inverse-series closed forms with an independent reversion route, finite
Herglotz sampling of the positive-real-part class, disk-sampled membership
functionals, the closed-form coefficient bounds with their special-case
reductions, a replay of the coefficient derivations, and an ensemble
sweep that measures how close sampled data comes to the bounds.
"""

from .bounds import (bound_alpha, bound_beta, corollary_bounds,
                     structural_ceiling, verify_reductions)
from .caratheodory import (CaratheodoryFunction, Lemma1Report, check_lemma1,
                           constrained_pair, sample, sample_exact,
                           unimodular_exact, with_moments)
from .derivation import (CoefficientSolution, bound_consistency,
                         forward_verify, realizable_pair, solve_alpha,
                         solve_beta)
from .explore import SearchRecord, sweep, sweep_cell
from .membership import (ClassSpec, MembershipReport, arg_margin,
                         check_membership, phi, re_margin)
from .mfold import (CATALOG_NAMES, InverseCoefficients, MFoldFunction,
                    catalog, root_transform)
from .series import QComplex, TruncatedSeries, geometric_series

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries", "QComplex", "geometric_series",
    "MFoldFunction", "InverseCoefficients", "root_transform", "catalog",
    "CATALOG_NAMES",
    "CaratheodoryFunction", "Lemma1Report", "check_lemma1", "sample",
    "sample_exact", "constrained_pair", "unimodular_exact",
    "with_moments",
    "ClassSpec", "MembershipReport", "phi", "arg_margin", "re_margin",
    "check_membership",
    "bound_alpha", "bound_beta", "corollary_bounds", "verify_reductions",
    "structural_ceiling",
    "CoefficientSolution", "solve_alpha", "solve_beta", "forward_verify",
    "bound_consistency", "realizable_pair",
    "SearchRecord", "sweep", "sweep_cell",
]
