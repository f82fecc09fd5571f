"""Backtracking search over GF(p) and the existence-vs-Hopf sweep."""

import itertools
import time

import pytest

from sosforms.formulas import SosFormula, construct_classical
from sosforms.hopf import hopf_admissible
from sosforms.rings import PrimeField
from sosforms.search import (
    SearchOptions,
    SearchProblem,
    hopf_consistency_sweep,
    search,
)


def run(r, s, n, p, **opts):
    return search(SearchProblem(r, s, n, p, SearchOptions(**opts)))


def test_scalar_case_without_canonicalization():
    result = run(1, 1, 1, 3, canonical_first_matrix=False)
    assert result.exhausted
    # z = c*xy with c^2 = 1, i.e. c in {1, 2}
    scalars = sorted(f.tensor[0][0][0] for f in result.formulas)
    assert scalars == [1, 2]


def test_scalar_case_canonical():
    result = run(1, 1, 1, 3)
    assert result.exhausted
    assert [f.tensor[0][0][0] for f in result.formulas] == [1]


def test_two_two_two_contains_gauss_image():
    result = run(2, 2, 2, 3)
    assert result.exhausted and result.found
    gauss_mod3 = construct_classical("two").change_ring(PrimeField(3))
    # the canonical search produces B_1 = I representatives; the Gauss tensor
    # itself is one of them
    assert any(f == gauss_mod3 for f in result.formulas)


def test_forbidden_cell_exhausts_empty():
    assert not hopf_admissible(2, 3, 3)
    result = run(2, 3, 3, 3)
    assert result.exhausted
    assert not result.found


def test_infeasible_dimensions_fast():
    result = run(3, 5, 4, 3)  # s > n
    assert result.exhausted and not result.found
    result = run(5, 3, 4, 3)  # r > n
    assert result.exhausted and not result.found


def test_all_hits_verify_and_satisfy_hopf():
    for (r, s, n) in ((1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 3, 4)):
        result = run(r, s, n, 3, max_solutions=4)
        for f in result.formulas:
            assert f.verify_by_expansion()
            assert f.verify_by_hurwitz()
            assert hopf_admissible(r, s, n)


def test_full_search_matches_brute_force_enumeration():
    # independent oracle: try every [2,2,2] tensor over GF(3)
    ring = PrimeField(3)
    brute = set()
    for entries in itertools.product(range(3), repeat=8):
        tensor = [
            [[entries[0], entries[1]], [entries[2], entries[3]]],
            [[entries[4], entries[5]], [entries[6], entries[7]]],
        ]
        f = SosFormula(2, 2, 2, ring, tensor)
        if f.verify_by_hurwitz():
            brute.add(f.to_json())
    full = run(2, 2, 2, 3, canonical_first_matrix=False)
    assert full.exhausted
    assert {f.to_json() for f in full.formulas} == brute
    assert len(brute) == 16


def test_canonical_results_are_subset_of_full_search():
    for (r, s, n) in ((1, 1, 1), (1, 2, 2), (2, 2, 2)):
        canonical = run(r, s, n, 3)
        full = run(r, s, n, 3, canonical_first_matrix=False)
        assert canonical.exhausted and full.exhausted
        full_keys = {f.to_json() for f in full.formulas}
        canon_keys = {f.to_json() for f in canonical.formulas}
        assert canon_keys <= full_keys
        assert len(full_keys) >= len(canon_keys)


def test_results_deterministic_and_sorted():
    a = run(2, 2, 2, 3)
    b = run(2, 2, 2, 3)
    keys = [f.to_json() for f in a.formulas]
    assert keys == [f.to_json() for f in b.formulas]
    assert keys == sorted(keys)


def test_results_sorted_by_tensor_over_gf13():
    # entries 10, 11, 12 make numeric order differ from the order of the JSON text
    result = run(2, 2, 2, 13)
    assert result.exhausted
    tensors = [f.tensor for f in result.formulas]
    assert len(tensors) > 1
    assert tensors == sorted(tensors)
    keys = [f.to_json() for f in result.formulas]
    assert keys != sorted(keys)


def test_signed_monomial_restriction():
    result = run(2, 2, 2, 3, signed_monomial_only=True)
    assert result.exhausted and result.found
    for f in result.formulas:
        entries = {c for slice_k in f.tensor for row in slice_k for c in row}
        assert entries <= {0, 1, 2}  # residues of {-1, 0, 1} mod 3
        for f_idx in range(2):
            for slice_m in f.tensor:  # row m of B_i is T[m][i]
                assert sum(1 for c in slice_m[f_idx] if c) == 1


def test_max_solutions_marks_not_exhausted():
    result = run(2, 2, 2, 3, max_solutions=1)
    assert result.found
    assert not result.exhausted
    assert result.stop_reason == "max_solutions"


def test_stop_reason_exhausted():
    assert run(2, 2, 2, 3).stop_reason == "exhausted"
    assert run(2, 3, 3, 3).stop_reason == "exhausted"  # a nonexistence proof
    assert run(3, 5, 4, 3).stop_reason == "exhausted"  # s > n, no tree at all


def test_time_budget_partial():
    # an absurdly small budget forces a timeout on a nontrivial cell
    result = run(3, 3, 4, 5, time_budget=0.0)
    assert not result.exhausted
    assert result.stop_reason == "timeout"


@pytest.mark.parametrize("signed", [False, True])
def test_zero_budget_expands_no_node(signed):
    result = run(2, 2, 8, 5, time_budget=0, signed_monomial_only=signed)
    assert result.nodes == 0
    assert not result.exhausted and not result.found


def test_time_budget_bounds_wall_time():
    cells = [
        # 5^8 candidate vectors take about 0.3 s to enumerate: the deadline
        # must interrupt the enumeration, not only the tree walk after it
        ((2, 2, 8, 5), 0.05),
        # one node scans thousands of candidates (tens of thousands over
        # GF(5)): the deadline must interrupt the scan inside a node
        ((4, 4, 8, 3), 0.05),
        ((4, 4, 8, 5), 0.5),
    ]
    for cell, budget in cells:
        start = time.perf_counter()
        result = run(*cell, time_budget=budget)
        assert result.stop_reason == "timeout"
        assert time.perf_counter() - start < budget + 0.1, cell


def test_even_char_rejected():
    with pytest.raises(ValueError):
        SearchProblem(1, 1, 1, 2)


@pytest.mark.parametrize(
    "opts",
    [
        {"max_solutions": 0},
        {"max_solutions": -3},
        {"time_budget": -1.0},
        {"time_budget": float("nan")},
    ],
)
def test_bad_search_options_rejected(opts):
    with pytest.raises(ValueError):
        SearchProblem(2, 2, 2, 3, SearchOptions(**opts))


def test_sweep_desk_scale():
    report = hopf_consistency_sweep(3, 3, 4, 3)
    assert len(report.cells) == 3 * 3 * 4
    assert report.violations == []
    status = {(c.r, c.s, c.n): c.status for c in report.cells}
    assert status[(2, 3, 3)] == "consistent-empty"
    assert status[(2, 2, 2)] == "found"
    assert status[(3, 3, 4)] == "found"
    assert status[(3, 3, 3)] == "consistent-empty"


def test_sweep_csv_shape():
    report = hopf_consistency_sweep(1, 1, 2, 3)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "r,s,n,p,status"
    assert lines[1] == "1,1,1,3,found"
