"""sosforms: a workbench for sums-of-squares composition formulas.

Verifies and constructs bilinear formulas of type [r, s, n], decides the
Hopf condition by two independent engines (binomial parity and exact
arithmetic in the cohomology rings of deleted quadrics), tabulates the Chow
rings and Gysin maps of split quadrics, and searches for formulas over small
odd-prime fields.
"""

from .chow import (
    ChowClass,
    dq_additive_basis_localization,
    even_intersection_table,
    gysin_pullback,
    gysin_pushforward,
    projection_formula_check,
    quadric_generator_degrees,
)
from .formulas import (
    SosFormula,
    construct_classical,
    construct_hurwitz_radon,
    construct_trivial,
    homotopy_invariance_check,
    orthonormal_vectors,
    rho,
)
from .hopf import binom_parity_pascal, bound_table, hopf_admissible, hopf_lower_bound
from .motivic import (
    DQClass,
    DQRingSpec,
    M2Poly,
    diagonal_power,
    dq_power_a,
    hopf_via_motivic,
    motivic_binomial_mismatches,
    ring_additive_basis,
)
from .poly import SparsePoly, hyperbolic_coordinate_change
from .rings import QQ, ZZ, PrimeField, gaussian_ext
from .search import SearchOptions, SearchProblem, hopf_consistency_sweep, search

__version__ = "0.1.0"

__all__ = [
    "ChowClass",
    "DQClass",
    "DQRingSpec",
    "M2Poly",
    "PrimeField",
    "QQ",
    "SearchOptions",
    "SearchProblem",
    "SosFormula",
    "SparsePoly",
    "ZZ",
    "binom_parity_pascal",
    "bound_table",
    "construct_classical",
    "construct_hurwitz_radon",
    "construct_trivial",
    "diagonal_power",
    "dq_additive_basis_localization",
    "dq_power_a",
    "even_intersection_table",
    "gaussian_ext",
    "gysin_pullback",
    "gysin_pushforward",
    "homotopy_invariance_check",
    "hopf_admissible",
    "hopf_consistency_sweep",
    "hopf_lower_bound",
    "hopf_via_motivic",
    "hyperbolic_coordinate_change",
    "motivic_binomial_mismatches",
    "orthonormal_vectors",
    "projection_formula_check",
    "quadric_generator_degrees",
    "rho",
    "ring_additive_basis",
    "search",
]
