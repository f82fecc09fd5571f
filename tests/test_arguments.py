"""The one argument rule: every dimension, count, exponent and prime that a
public entry point takes is an int, not a bool, at or above the entry
point's floor; anything else raises ValueError."""

from fractions import Fraction

import pytest

from sosforms.chow import (
    ChowClass,
    basis_monomials,
    dq_additive_basis_localization,
    even_intersection_table,
    gysin_pullback,
    gysin_pushforward,
    projection_formula_check,
    presentation_text,
    pushforward_class,
    quadric_generator_degrees,
)
from sosforms.formulas import (
    SosFormula,
    construct_hurwitz_radon,
    construct_trivial,
    hurwitz_radon_upper_bound,
    rho,
)
from sosforms.hopf import (
    binom_is_odd,
    binom_parity_pascal,
    bound_table,
    hopf_admissible,
    hopf_lower_bound,
    hopf_violation_witness,
)
from sosforms.motivic import (
    DQRingSpec,
    diagonal_power,
    dq_power_a,
    hopf_via_motivic,
    motivic_binomial_mismatches,
    ring_additive_basis,
)
from sosforms.poly import SparsePoly, hyperbolic_coordinate_change
from sosforms.rings import ZZ, PrimeField
from sosforms.search import SearchOptions, SearchProblem, hopf_consistency_sweep

# (call with the argument under test, the smallest value that call accepts)
ENTRY_POINTS = {
    "SosFormula": (lambda v: SosFormula(v, 1, 1, ZZ, [[[1]]]), 1),
    "construct_trivial": (lambda v: construct_trivial(v, 2), 1),
    "SosFormula.restrict-r": (lambda v: construct_trivial(2, 2).restrict(v, 1), 1),
    "SosFormula.restrict-s": (lambda v: construct_trivial(2, 2).restrict(1, v), 1),
    "rho": (rho, 1),
    "hurwitz_radon_upper_bound": (lambda v: hurwitz_radon_upper_bound(2, v), 1),
    "construct_hurwitz_radon": (construct_hurwitz_radon, 1),
    "binom_is_odd": (lambda v: binom_is_odd(v, 1), 0),
    "binom_parity_pascal": (lambda v: binom_parity_pascal(v, 1), 0),
    "hopf_admissible": (lambda v: hopf_admissible(2, 3, v), 1),
    "hopf_violation_witness": (lambda v: hopf_violation_witness(v, 3, 4), 1),
    "hopf_lower_bound": (lambda v: hopf_lower_bound(v, 3), 1),
    "bound_table": (lambda v: bound_table(2, v), 1),
    "DQRingSpec": (DQRingSpec, 0),
    "ring_additive_basis": (ring_additive_basis, 0),
    "dq_power_a": (lambda v: dq_power_a(DQRingSpec(3), v), 0),
    "diagonal_power-r": (lambda v: diagonal_power(v, 3, 4), 1),
    "diagonal_power-n": (lambda v: diagonal_power(2, 3, v), 0),
    "hopf_via_motivic": (lambda v: hopf_via_motivic(v, 3, 4), 1),
    "motivic_binomial_mismatches": (lambda v: motivic_binomial_mismatches(v, 2, 2), 0),
    "ChowClass": (ChowClass, 0),
    "basis_monomials": (basis_monomials, 0),
    "even_intersection_table": (even_intersection_table, 1),
    "quadric_generator_degrees": (quadric_generator_degrees, 0),
    "presentation_text": (presentation_text, 0),
    "dq_additive_basis_localization": (dq_additive_basis_localization, 1),
    "projection_formula_check": (projection_formula_check, 1),
    "gysin_pushforward-n": (lambda v: gysin_pushforward(v, 0), 1),
    "gysin_pushforward-i": (lambda v: gysin_pushforward(3, v), 0),
    "gysin_pullback": (lambda v: gysin_pullback(v, 0), 1),
    "pushforward_class": (lambda v: pushforward_class(v, ChowClass(0)), 1),
    "hyperbolic_coordinate_change": (hyperbolic_coordinate_change, 0),
    "SparsePoly.variable-var": (lambda v: SparsePoly.variable(ZZ, v), 0),
    "SparsePoly.variable-exp": (lambda v: SparsePoly.variable(ZZ, 0, v), 0),
    "SparsePoly.__pow__": (lambda v: SparsePoly.variable(ZZ, 0) ** v, 0),
    "NormalForm.__pow__": (lambda v: ChowClass.x(2) ** v, 0),
    "PrimeField": (PrimeField, 3),
    "SearchProblem-n": (lambda v: SearchProblem(2, 2, v, 3), 1),
    "SearchProblem-p": (lambda v: SearchProblem(2, 2, 2, v), 3),
    "SearchOptions.max_solutions": (lambda v: SearchOptions(max_solutions=v), 1),
    "hopf_consistency_sweep": (lambda v: hopf_consistency_sweep(v, 1, 1, 3), 1),
}


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2", None], ids=repr)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_value_that_is_not_an_int_raises_value_error(name, bad):
    call, _ = ENTRY_POINTS[name]
    if name == "SearchOptions.max_solutions" and bad is None:
        assert call(bad).max_solutions is None  # None means no cap
        return
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_the_floor_is_accepted_and_one_below_it_raises(name):
    call, floor = ENTRY_POINTS[name]
    call(floor)
    with pytest.raises(ValueError):
        call(floor - 1)


# Every on/off option is a bool, a time budget is None or a real number >= 0
# (not a bool), and a problem's options are a SearchOptions.
FLAGS = {
    "SearchOptions.canonical_first_matrix": lambda v: SearchOptions(canonical_first_matrix=v),
    "SearchOptions.signed_monomial_only": lambda v: SearchOptions(signed_monomial_only=v),
    "DQRingSpec.rho": lambda v: DQRingSpec(4, rho=v),
    "DQRingSpec.eps_is_rho": lambda v: DQRingSpec(4, rho=True, eps_is_rho=v),
}


@pytest.mark.parametrize("bad", [1, 0, "no", "x", None, 1.0], ids=repr)
@pytest.mark.parametrize("name", FLAGS)
def test_a_flag_that_is_not_a_bool_raises_value_error(name, bad):
    call = FLAGS[name]
    call(True)
    call(False)
    with pytest.raises(ValueError, match="must be True or False"):
        call(bad)


BUDGETS = {
    "SearchOptions.time_budget": lambda v: SearchOptions(time_budget=v),
    "hopf_consistency_sweep": lambda v: hopf_consistency_sweep(1, 1, 1, 3, time_budget=v),
}


@pytest.mark.parametrize("bad", [True, False, "1", 1j, -1, -0.5, float("nan"), [1]], ids=repr)
@pytest.mark.parametrize("name", BUDGETS)
def test_a_time_budget_is_none_or_a_non_negative_number(name, bad):
    call = BUDGETS[name]
    for good in (None, 0, 0.0, 2, 0.5, Fraction(1, 2), float("inf")):
        call(good)
    with pytest.raises(ValueError, match="time_budget"):
        call(bad)


@pytest.mark.parametrize("bad", [None, {}, {"max_solutions": 1}, (True, False, None, None), "x"], ids=repr)
def test_search_problem_options_must_be_search_options(bad):
    assert SearchProblem(2, 2, 2, 3, SearchOptions(max_solutions=1)).options.max_solutions == 1
    with pytest.raises(ValueError, match="^options must be a SearchOptions"):
        SearchProblem(2, 2, 2, 3, bad)


def test_one_wording_names_the_type_and_the_floor():
    with pytest.raises(ValueError, match="^r, s, n must be integers, not bool$"):
        hopf_admissible(True, 3, 4)
    with pytest.raises(ValueError, match="^r, s must be integers, not float$"):
        hopf_via_motivic(2.5, 3, 4)
    with pytest.raises(ValueError, match="^p must be an integer, not float$"):
        PrimeField(5.0)
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        ChowClass(-1)


@pytest.mark.parametrize("parity", [binom_is_odd, binom_parity_pascal])
def test_the_binomial_index_is_an_int_with_no_floor(parity):
    for bad in (True, False, 2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="^i must be an integer"):
            parity(5, bad)
    # C(n, i) = 0 outside 0 <= i <= n, so a negative or large i is even
    assert [parity(5, i) for i in (-3, -1, 0, 1, 4, 5, 6)] == [False, False, True, True, True, True, False]
