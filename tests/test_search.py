"""Backtracking search over GF(p) and the existence-vs-Hopf sweep."""

import functools
import importlib
import itertools
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosforms.formulas import SosFormula, construct_classical
from sosforms.hopf import hopf_admissible
from sosforms.rings import PrimeField
from sosforms.search import (
    MAX_FULL_VECTORS,
    SearchOptions,
    SearchProblem,
    SearchResult,
    SweepCell,
    _coordinate_sets,
    _members,
    _partition,
    _unit_columns,
    hopf_consistency_sweep,
    search,
)
from test_poly import dense_tensor

# the package's `search` attribute is the function, not this module
search_module = importlib.import_module("sosforms.search")


def run(r, s, n, p, **opts):
    return search(SearchProblem(r, s, n, p, SearchOptions(**opts)))


def oracle_dot(u, v, p):
    return sum(a * b for a, b in zip(u, v)) % p


# -- the per-candidate scan, kept as the oracle of the bitset search ------------


def oracle_search(problem: SearchProblem):
    """The search as a scan: every node tests every candidate against every
    constraint with dot products.  Returns (formulas, stop_reason, nodes)."""
    r, s, n, p = problem.r, problem.s, problem.n, problem.p
    opts = problem.options
    if s > n or r > n:
        return [], "exhausted", 0

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v)) % p

    candidates = _unit_columns(p, n, opts.signed_monomial_only, None)
    matrices = []
    pinned = 0
    if opts.canonical_first_matrix:
        matrices.append([tuple(1 if row == col else 0 for row in range(n)) for col in range(s)])
        pinned = 1
    solutions = []
    nodes = 0

    class Stop(Exception):
        pass

    def column_ok(mi, ci, v):
        cols = matrices[mi]
        for prior in cols:
            if dot(v, prior) != 0:
                return False
        for other in matrices[:mi]:
            for l in range(ci):
                if (dot(v, other[l]) + dot(other[ci], cols[l])) % p != 0:
                    return False
            if (2 * dot(v, other[ci])) % p != 0:
                return False
        return True

    def emit():
        tensor = [[[matrices[i][j][k] for j in range(s)] for i in range(r)] for k in range(n)]
        solutions.append(SosFormula(r, s, n, PrimeField(p), tensor))

    def extend(mi, ci):
        nonlocal nodes
        nodes += 1
        if mi == r:
            emit()
            if opts.max_solutions is not None and len(solutions) >= opts.max_solutions:
                raise Stop
            return
        for v in candidates:
            if column_ok(mi, ci, v):
                matrices[mi].append(v)
                if ci + 1 == s:
                    matrices.append([])
                    extend(mi + 1, 0)
                    matrices.pop()
                else:
                    extend(mi, ci + 1)
                matrices[mi].pop()

    stop_reason = "exhausted"
    matrices.append([])
    try:
        if pinned == r:
            emit()
        else:
            extend(pinned, 0)
    except Stop:
        stop_reason = "max_solutions"
    solutions.sort(key=dense_tensor)
    return solutions, stop_reason, nodes


def assert_matches_oracle(r, s, n, p, **opts):
    problem = SearchProblem(r, s, n, p, SearchOptions(**opts))
    result = search(problem)
    formulas, stop_reason, nodes = oracle_search(problem)
    cell = (r, s, n, p, opts)
    assert (result.stop_reason, result.nodes) == (stop_reason, nodes), cell
    assert [dense_tensor(f) for f in result.formulas] == [dense_tensor(f) for f in formulas], cell


# every (r, s, n) with r, s <= 3 and n <= 5 over GF(3), n <= 4 over GF(5)
ORACLE_CELLS = [
    (r, s, n, p)
    for p, nmax in ((3, 5), (5, 4))
    for r, s, n in itertools.product(range(1, 4), range(1, 4), range(1, nmax + 1))
]


@pytest.mark.parametrize("p", [3, 5])
def test_search_matches_oracle(p):
    for cell in ORACLE_CELLS:
        if cell[3] == p:
            assert_matches_oracle(*cell)


@pytest.mark.parametrize("p", [3, 5])
def test_first_hit_matches_oracle(p):
    for cell in ORACLE_CELLS:
        if cell[3] == p:
            assert_matches_oracle(*cell, max_solutions=1)


def test_signed_monomial_search_matches_oracle():
    for cell in ORACLE_CELLS + [(4, 4, 5, 3), (3, 3, 4, 7)]:
        assert_matches_oracle(*cell, signed_monomial_only=True)
        assert_matches_oracle(*cell, signed_monomial_only=True, max_solutions=1)


def test_search_without_canonical_frame_matches_oracle():
    # the unpinned trees grow fast: every cell here takes well under a second
    cells = [c for c in ORACLE_CELLS if c[2] <= 3] + [(2, 2, 4, 3), (1, 3, 4, 3), (3, 1, 4, 3)]
    for cell in cells:
        assert_matches_oracle(*cell, canonical_first_matrix=False)
        assert_matches_oracle(*cell, canonical_first_matrix=False, max_solutions=1)


def test_large_p_search_matches_oracle():
    # few candidates for their p: most partitions group by dot products
    for cell in ((2, 2, 2, 101), (1, 2, 3, 13), (2, 2, 3, 13)):
        assert_matches_oracle(*cell)
        assert_matches_oracle(*cell, max_solutions=1)
    for cell in ((2, 2, 2, 101), (1, 2, 3, 13)):
        assert_matches_oracle(*cell, canonical_first_matrix=False)


def test_emitted_formulas_verify_by_expansion():
    # search() checks each emitted formula by the Gram check; expansion is
    # the independent oracle for both
    cells = [(cell, {}) for cell in ORACLE_CELLS]
    cells += [((4, 4, 5, 3), {"signed_monomial_only": True}), ((3, 3, 4, 5), {"signed_monomial_only": True})]
    checked = 0
    for cell, opts in cells:
        result = run(*cell, **opts)
        assert result.exhausted, cell
        for f in result.formulas:
            assert f.verify_by_expansion(), (cell, dense_tensor(f))
        checked += len(result.formulas)
    assert checked > 1000


def test_a_wrong_partition_makes_the_search_raise_with_a_witness(monkeypatch):
    """The Gram check of each emitted formula is what stands between a wrong
    partition and a wrong result.  With the partition of the first candidate,
    (0, 0, 1), made one class, column 2 of B_2 in the (2, 2, 3) search over
    GF(3) may repeat column 1, and the search raises at G_22[0][1]."""
    partition = search_module._partition

    def one_class_for_the_first(coord, candidates, u, field, everything):
        if u == candidates[0]:
            return {0: everything}
        return partition(coord, candidates, u, field, everything)

    monkeypatch.setattr(search_module, "_partition", one_class_for_the_first)
    with pytest.raises(AssertionError, match=r"fails the Gram check at \(a, b, j, k\) = \(1, 1, 0, 1\)"):
        run(2, 2, 3, 3)


def test_the_search_forms_each_distinct_gram_pair_once(monkeypatch):
    """The pinned (3, 3, 4) search over GF(5) emits 240 formulas, with the 6
    pairs a <= b of their 3 matrices: 1,440 pair checks.  G_ab depends only
    on (B_a, B_b, a = b), taken in the order of the pair, and the formulas
    hold 361 distinct such keys, so the Gram kernels form 361 pair rows."""
    import sosforms.formulas

    rows = []

    def counted(kernel):
        return lambda *args: (rows.append(row) or row for row in kernel(*args))

    for name in ("_pair_gram_rows", "_block_gram_rows"):
        monkeypatch.setattr(sosforms.formulas, name, counted(getattr(sosforms.formulas, name)))
    formulas = run(3, 3, 4, 5).formulas
    matrices = [[tuple(tuple(row[i]) for row in dense_tensor(f)) for i in range(3)] for f in formulas]
    keys = {(b[x], b[y], x == y) for b in matrices for x, y in itertools.combinations_with_replacement(range(3), 2)}
    assert (len(formulas), len(keys), len(rows)) == (240, 361, 361)


# the pinned searches, the last in signed-monomial mode
SHARED_MEMO_CELLS = [((3, 3, 4, 5), False), ((3, 3, 5, 3), False), ((2, 2, 5, 3), False), ((4, 4, 5, 3), True)]


@functools.cache
def solutions_of(cell, signed):
    return run(*cell, signed_monomial_only=signed).formulas


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_search_memo_gives_the_witness_of_a_fresh_check(data):
    """The solutions of four searches, in a drawn order, with copies carrying
    one entry changed to another residue interleaved: through one memo each
    formula gets exactly the witness that gram_defect() gives it alone."""
    cell, signed = data.draw(st.sampled_from(SHARED_MEMO_CELLS))
    formulas = solutions_of(cell, signed)
    r, s, n, p = cell
    stream = data.draw(st.permutations(range(len(formulas))))
    memo = {}
    for index in stream[: data.draw(st.integers(1, len(formulas)))]:
        f = formulas[index]
        if data.draw(st.integers(0, 3)) == 0:
            tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
            k, i, j = (data.draw(st.integers(0, d - 1)) for d in (n, r, s))
            tensor[k][i][j] = data.draw(st.sampled_from([v for v in range(p) if v != tensor[k][i][j]]))
            f = SosFormula(r, s, n, f.ring, tensor)
        assert f._gram_defect(memo) == f.gram_defect()


def partition_charge(part):
    return sys.getsizeof(part) + sum(map(sys.getsizeof, part.values()))


@pytest.mark.parametrize("budget", [0, 4096, search_module.PARTITION_BUDGET])
def test_partition_budget_changes_no_result(monkeypatch, budget):
    memos = []

    class Recorded(search_module._Space):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    cells = [(cell, {}) for cell in ORACLE_CELLS] + [((2, 2, 2, 101), {"canonical_first_matrix": False})]
    expected = {}
    for cell, opts in cells:
        result = run(*cell, **opts)
        expected[cell] = (result.stop_reason, result.nodes, [dense_tensor(f) for f in result.formulas])
    monkeypatch.setattr(search_module, "_Space", Recorded)
    monkeypatch.setattr(search_module, "PARTITION_BUDGET", budget)
    for cell, opts in cells:
        result = run(*cell, **opts)
        assert (result.stop_reason, result.nodes, [dense_tensor(f) for f in result.formulas]) == expected[cell], cell
    for memo in memos:
        # the charge is the kept partitions' size, and the last one kept is
        # the only one charged at or past the budget
        assert memo.charged == sum(map(partition_charge, memo.kept.values()))
        if memo.kept:
            assert memo.charged - partition_charge(list(memo.kept.values())[-1]) < budget
        else:
            assert memo.charged == 0
    filled = [memo for memo in memos if memo.charged >= budget]
    if budget == 0:
        assert all(not memo.kept for memo in memos)
    elif budget == 4096:
        # the budget runs out partway: some partitions were kept, then no more
        assert {memo.field.p for memo in filled if memo.kept} == {3, 5, 101}
    else:
        assert not filled


def test_kept_partitions_are_those_of_their_candidates():
    candidates = _unit_columns(101, 2, False, None)
    coord = _coordinate_sets(candidates, None)
    everything = (1 << len(candidates)) - 1
    field = PrimeField(101)
    space = search_module._Space(101, 2, False, None)
    assert (space.candidates, space.coord, space.everything) == (candidates, coord, everything)
    for k in (5, 7, 5, 0, 7):
        assert space.of(k) == _partition(coord, candidates, candidates[k], field, everything)
    assert sorted(space.kept) == [0, 5, 7]
    assert space.of(5) is space.kept[5]


# -- one space shared by several searches ----------------------------------------


def assert_space_consistent(space):
    """The space charges the bytes of its kept partitions, only the last one
    kept is charged at or past the budget, and each kept partition is the
    one built afresh."""
    kept = list(space.kept.values())
    assert space.charged == sum(map(partition_charge, kept))
    assert not kept or space.charged - partition_charge(kept[-1]) < search_module.PARTITION_BUDGET
    for k, part in space.kept.items():
        assert part == _partition(space.coord, space.candidates, space.candidates[k], space.field, space.everything)


def result_of(r, s, n, p, opts, spaces):
    result = search(SearchProblem(r, s, n, p, opts), spaces=spaces)
    for space in spaces.values():
        assert_space_consistent(space)
    return result.formulas, result.stop_reason, result.nodes


def search_options(canonical, signed, max_solutions):
    return SearchOptions(canonical_first_matrix=canonical, signed_monomial_only=signed, max_solutions=max_solutions)


OPTIONS = st.builds(search_options, st.booleans(), st.booleans(), st.sampled_from([None, 1, 2]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_space_gives_the_fresh_result(data):
    # unpinned trees grow fast past n = 3 (seconds at n = 5), as in the oracle tests
    p = data.draw(st.sampled_from([3, 5]), label="p")
    n = data.draw(st.integers(1, 5), label="n")
    # r, s <= n: a larger r or s stops before the space is looked up
    dims = st.tuples(st.integers(1, min(3, n)), st.integers(1, min(3, n)))
    cell = st.tuples(dims, OPTIONS).filter(lambda c: c[1].canonical_first_matrix or n <= 3)
    (r, s), opts = data.draw(cell, label="cell")
    fresh = result_of(r, s, n, p, opts, {})
    # other cells of (p, n), the first of them in the same mode, so that
    # this search starts from partitions that others kept, in their order
    same_mode = cell.filter(lambda c: c[1].signed_monomial_only == opts.signed_monomial_only)
    warmers = [data.draw(same_mode, label="warmer")] + data.draw(st.lists(cell, max_size=3), label="warmers")
    spaces = {}
    for (r2, s2), opts2 in warmers:
        result_of(r2, s2, n, p, opts2, spaces)
    assert (p, n, opts.signed_monomial_only) in spaces
    assert result_of(r, s, n, p, opts, spaces) == fresh
    assert result_of(r, s, n, p, opts, spaces) == fresh


def test_shared_space_gives_the_fresh_result_on_the_dot_product_path():
    unpinned = search_options(False, False, None)
    fresh = result_of(2, 2, 2, 101, unpinned, {})
    spaces = {}
    for opts in (search_options(True, False, None), search_options(False, False, 1)):
        for cell in ((1, 2), (2, 1), (2, 2)):
            result_of(*cell, 2, 101, opts, spaces)
    assert result_of(2, 2, 2, 101, unpinned, spaces) == fresh
    assert len(fresh[0]) > 1


def test_spaces_must_be_a_dict():
    with pytest.raises(ValueError, match="spaces must be None or a dict"):
        search(SearchProblem(1, 1, 1, 3), spaces=[])


def test_a_build_cut_by_the_deadline_stores_no_space():
    spaces = {}
    # 3^12 prefixes take about 0.6 s to enumerate
    problem = SearchProblem(2, 2, 13, 3, SearchOptions(time_budget=0.05))
    assert search(problem, spaces=spaces).stop_reason == "timeout"
    assert spaces == {}
    # a timeout in the tree walk keeps the space it walked over
    problem = SearchProblem(4, 4, 8, 3, SearchOptions(time_budget=0.05))
    assert search(problem, spaces=spaces).stop_reason == "timeout"
    assert list(spaces) == [(3, 8, False)]
    assert_space_consistent(spaces[3, 8, False])


def test_the_sweep_builds_one_space_per_n(monkeypatch):
    built = []

    class Recorded(search_module._Space):
        def __init__(self, p, n, signed_only, deadline):
            super().__init__(p, n, signed_only, deadline)
            built.append((p, n, signed_only))

    expected = [
        SweepCell(r, s, n, 3, None, hopf_admissible(r, s, n))
        for r in range(1, 4) for s in range(1, 4) for n in range(1, 5)
    ]
    monkeypatch.setattr(search_module, "_Space", Recorded)
    report = hopf_consistency_sweep(3, 3, 4, 3)
    assert built == [(3, n, False) for n in range(1, 5)]
    # cell by cell in (r, s, n) order, each with the status of its own search
    assert [c._replace(status=None) for c in report.cells] == expected
    for c in report.cells:
        result = run(c.r, c.s, c.n, 3, max_solutions=1)
        assert c.status == ("found" if result.found else "empty-forbidden" if not c.admissible else "empty-admissible")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_classes_match_dot_products(data):
    p = data.draw(st.sampled_from([3, 5, 7]), label="p")
    n = data.draw(st.integers(1, 6), label="n")
    vector = st.tuples(*[st.integers(0, p - 1)] * n)
    candidates = data.draw(st.lists(vector, min_size=1, max_size=40), label="candidates")
    u = data.draw(vector, label="u")
    everything = (1 << len(candidates)) - 1
    classes = _partition(_coordinate_sets(candidates, None), candidates, u, PrimeField(p), everything)
    assert all(classes.values())  # empty classes are left out
    for t in range(p):
        expected = [k for k, v in enumerate(candidates) if oracle_dot(v, u, p) == t]
        assert list(_members(classes.get(t, 0))) == expected
    assert sorted(classes) == sorted({oracle_dot(v, u, p) for v in candidates})


def oracle_unit_columns(p, n):
    """The former enumeration: every vector of GF(p)^n, kept when <v, v> = 1."""
    squares = [c * c for c in range(p)]
    return [v for v in itertools.product(range(p), repeat=n) if sum(map(squares.__getitem__, v)) % p == 1]


def test_unit_columns_match_oracle():
    cells = [(p, n) for p in (3, 5, 7, 13) for n in range(1, 10) if p**n <= 3**9]
    for p, n in cells + [(101, 2), (101, 3), (1259, 2)]:
        assert _unit_columns(p, n, False, None) == oracle_unit_columns(p, n), (p, n)


def test_partition_of_unit_columns():
    # large p with few candidates groups by dot products, the rest refines
    for p, n in ((3, 6), (5, 4), (7, 3), (13, 3), (101, 2), (1259, 2)):
        candidates = _unit_columns(p, n, False, None)
        coord = _coordinate_sets(candidates, None)
        everything = (1 << len(candidates)) - 1
        for u in candidates[:: max(1, len(candidates) // 15)]:
            expected: dict[int, int] = {}
            for k, v in enumerate(candidates):
                t = oracle_dot(v, u, p)
                expected[t] = expected.get(t, 0) | 1 << k
            assert _partition(coord, candidates, u, PrimeField(p), everything) == expected, (p, n, u)


def test_scalar_case_without_canonicalization():
    result = run(1, 1, 1, 3, canonical_first_matrix=False)
    assert result.exhausted
    # z = c*xy with c^2 = 1, i.e. c in {1, 2}
    scalars = sorted(dense_tensor(f)[0][0][0] for f in result.formulas)
    assert scalars == [1, 2]


def test_scalar_case_canonical():
    result = run(1, 1, 1, 3)
    assert result.exhausted
    assert [dense_tensor(f)[0][0][0] for f in result.formulas] == [1]


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


def test_nonexistence_proof_for_3_5_6_over_gf3():
    # Hopf forbids [3, 5, 6]; the exhausted tree is the oracle's, node for node
    assert not hopf_admissible(3, 5, 6)
    result = run(3, 5, 6, 3)
    assert result.stop_reason == "exhausted"
    assert result.formulas == []
    assert result.nodes == 65_317


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
    tensors = [dense_tensor(f) for f in result.formulas]
    assert len(tensors) > 1
    assert tensors == sorted(tensors)
    keys = [f.to_json() for f in result.formulas]
    assert keys != sorted(keys)


def test_signed_monomial_restriction():
    result = run(2, 2, 2, 3, signed_monomial_only=True)
    assert result.exhausted and result.found
    for f in result.formulas:
        entries = {c for slice_k in dense_tensor(f) for row in slice_k for c in row}
        assert entries <= {0, 1, 2}  # residues of {-1, 0, 1} mod 3
        for f_idx in range(2):
            for slice_m in dense_tensor(f):  # row m of B_i is T[m][i]
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
        # 3^12 prefixes take about 0.6 s to enumerate, well past budget + 0.1:
        # the deadline must interrupt the enumeration, not only the tree walk
        # after it
        ((2, 2, 13, 3), 0.05),
        # one node has thousands of candidates (tens of thousands over
        # GF(5)): the deadline must interrupt a node's candidates
        ((4, 4, 8, 3), 0.05),
        ((4, 4, 8, 5), 0.5),
    ]
    for cell, budget in cells:
        start = time.perf_counter()
        result = run(*cell, time_budget=budget)
        assert result.stop_reason == "timeout"
        assert time.perf_counter() - start < budget + 0.1, cell
    # over GF(1259) with n = 2 every partition takes one dot product per
    # candidate, and the unpinned tree runs for seconds past the enumeration
    # even when the kept partitions are reused
    start = time.perf_counter()
    result = run(2, 2, 2, 1259, time_budget=0.5, canonical_first_matrix=False)
    assert result.stop_reason == "timeout" and result.nodes > 0
    assert time.perf_counter() - start < 0.6


def test_even_char_rejected():
    with pytest.raises(ValueError):
        SearchProblem(1, 1, 1, 2)


def test_bad_dimensions_rejected():
    # a bool is refused up front, not midway through the search
    for r, s, n in ((True, 1, 1), (1, True, 1), (1, 1, True), (True, True, True)):
        with pytest.raises(ValueError, match="not bool"):
            SearchProblem(r, s, n, 3)
    for r, s, n in ((0, 1, 1), (1, -2, 1), (1, 1, 0), (False, 1, 1)):
        with pytest.raises(ValueError):
            SearchProblem(r, s, n, 3)


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


def test_full_search_size_limit():
    assert 3**13 == MAX_FULL_VECTORS
    SearchProblem(2, 2, 13, 3)  # p^n = MAX_FULL_VECTORS is allowed
    for r, s, n, p in ((2, 2, 14, 3), (1, 1, 9, 5), (2, 2, 10**9, 3), (1, 1, 2, 1_299_709)):
        with pytest.raises(ValueError, match="exceeds"):
            SearchProblem(r, s, n, p)
        with pytest.raises(ValueError, match="exceeds"):
            SearchProblem(r, s, n, p, SearchOptions(canonical_first_matrix=False))
    # signed-monomial mode has 2n candidates and no limit
    result = run(2, 2, 40, 3, signed_monomial_only=True, max_solutions=1)
    assert result.found and result.formulas[0].verify_by_expansion()



def test_a_search_past_the_kept_formula_cap_raises(monkeypatch):
    """The unpinned (2, 2, 4, 3) search has 1,440 formulas: a cap below that
    rejects it, while the cap itself and a smaller max_solutions do not."""
    problem = SearchProblem(2, 2, 4, 3, SearchOptions(canonical_first_matrix=False))
    monkeypatch.setattr(search_module, "MAX_KEPT_FORMULAS", 1439)
    with pytest.raises(ValueError, match="more than 1439 formulas.*--max-solutions.*canonical frame"):
        search(problem)
    capped = SearchProblem(2, 2, 4, 3, SearchOptions(canonical_first_matrix=False, max_solutions=1439))
    assert search(capped).stop_reason == "max_solutions"
    monkeypatch.setattr(search_module, "MAX_KEPT_FORMULAS", 1440)
    assert len(search(problem).formulas) == 1440

def test_sweep_desk_scale():
    report = hopf_consistency_sweep(3, 3, 4, 3)
    assert len(report.cells) == 3 * 3 * 4
    assert report.violations == []
    status = {(c.r, c.s, c.n): c.status for c in report.cells}
    assert status[(2, 3, 3)] == "empty-forbidden"
    assert status[(2, 2, 2)] == "found"
    assert status[(3, 3, 4)] == "found"
    assert status[(3, 3, 3)] == "empty-forbidden"
    # (1, 1, 1) ... (3, 3, 4): every exhausted empty cell is Hopf-forbidden
    for c in report.cells:
        assert c.status in ("found", "empty-forbidden")
        assert (c.status == "empty-forbidden") == (not c.admissible)


def test_sweep_tells_the_two_empty_statuses_apart(monkeypatch):
    # no small cell is empty over GF(3) where Hopf allows it, so a search that
    # exhausts every cell empty stands in for one
    monkeypatch.setattr(search_module, "search", lambda problem, spaces: SearchResult([], "exhausted"))
    report = hopf_consistency_sweep(2, 2, 2, 3)
    for c in report.cells:
        assert c.status == ("empty-admissible" if c.admissible else "empty-forbidden")
    assert {c.status for c in report.cells} == {"empty-admissible", "empty-forbidden"}
    assert report.violations == []
    monkeypatch.setattr(search_module, "search", lambda problem, spaces: SearchResult([], "timeout"))
    assert {c.status for c in hopf_consistency_sweep(2, 2, 2, 3).cells} == {"timeout"}


def test_sweep_rejects_empty_ranges():
    for args in ((0, 2, 3), (2, 0, 3), (2, 2, 0), (-1, 1, 1)):
        with pytest.raises(ValueError, match=">= 1"):
            hopf_consistency_sweep(*args, 3)
    with pytest.raises(ValueError, match="exceeds"):
        hopf_consistency_sweep(1, 1, 14, 3)


def test_sweep_csv_shape():
    report = hopf_consistency_sweep(1, 1, 2, 3)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "r,s,n,p,status"
    assert lines[1] == "1,1,1,3,found"
