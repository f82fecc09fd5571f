"""Binomial parity, the Hopf condition, and the bound table."""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosforms.hopf
from sosforms.formulas import SosFormula, construct_hurwitz_radon, hurwitz_radon_upper_bound, rho
from sosforms.hopf import (
    _LOWER_BOUND_CAP,
    MAX_TABLE_UPPER,
    binom_is_odd,
    binom_parity_pascal,
    bound_table,
    bound_table_csv,
    bound_table_text,
    hopf_admissible,
    hopf_lower_bound,
    hopf_violation_witness,
)


def test_parity_examples():
    assert binom_is_odd(3, 1)
    assert not binom_is_odd(8, 4)
    for n in (0, 1, 7, 100):
        assert binom_is_odd(n, 0)
    assert not binom_is_odd(5, -1)
    assert not binom_is_odd(5, 6)


def test_parity_against_math_comb():
    for n in range(0, 30):
        for i in range(-1, n + 2):
            expected = 0 <= i <= n and math.comb(n, i) % 2 == 1
            assert binom_is_odd(n, i) == expected


def test_lucas_vs_pascal_full_range():
    for n in range(0, 513):
        for i in range(0, n + 1):
            assert binom_is_odd(n, i) == binom_parity_pascal(n, i)


def test_admissible_examples():
    assert hopf_admissible(1, 1, 1)  # empty range
    assert not hopf_admissible(3, 3, 3)  # C(3,1) odd
    assert hopf_admissible(4, 4, 4)  # 4, 6, 4 all even
    assert hopf_violation_witness(3, 3, 3) == 1
    assert hopf_violation_witness(4, 4, 4) is None


def test_witness_matches_brute_force():
    # hopf_admissible reads its verdict off the witness, so the witness is
    # checked against math.comb over the whole range n - r < i < s
    for r in range(1, 49):
        for s in range(1, 49):
            for n in range(1, 49):
                odd = (i for i in range(max(n - r + 1, 0), min(s, n + 1)) if math.comb(n, i) % 2)
                expected = next(odd, None)
                assert hopf_violation_witness(r, s, n) == expected, (r, s, n)
                assert hopf_admissible(r, s, n) == (expected is None)


# -- the Hopf-range scan, kept as the oracle of the smallest-submask step --------------


def _witness_scan(r, s, n):
    """The former hopf_violation_witness: test each i in the Hopf range."""
    for i in range(max(n - r + 1, 0), min(s, n + 1)):
        if (i & n) == i:
            return i
    return None


def test_witness_matches_scan_oracle():
    for r in range(1, 129):
        for s in range(1, 129):
            for n in range(1, 129):
                assert hopf_violation_witness(r, s, n) == _witness_scan(r, s, n), (r, s, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**16), st.integers(1, 2**16), st.integers(1, 2**16))
def test_witness_matches_scan_oracle_up_to_2_16(r, s, n):
    assert hopf_violation_witness(r, s, n) == _witness_scan(r, s, n)


def test_witness_on_inputs_too_large_to_scan():
    big = 2**40
    assert hopf_violation_witness(big, big, big) is None  # C(2^40, i) even for 0 < i < 2^40
    assert hopf_violation_witness(big, big + 1, big) == big
    assert hopf_violation_witness(big + 1, 2, big) == 0
    assert hopf_violation_witness(2, big, big - 1) == big - 2  # every C(2^40 - 1, i) is odd
    # n = 2^200 + 2^100: the submasks in (n - r, s) are 2^100 and 2^200
    n = 2**200 + 2**100
    assert hopf_violation_witness(n - 1, n, n) == 2**100
    assert hopf_violation_witness(n - 2**100, n, n) == 2**200
    assert hopf_violation_witness(n - 2**100, 2**200, n) is None


def test_admissible_symmetry():
    for r in range(1, 65):
        for s in range(r, 65):
            for n in range(1, 65):
                assert hopf_admissible(r, s, n) == hopf_admissible(s, r, n)


def test_admissible_monotone_in_r_s():
    for r in range(1, 13):
        for s in range(1, 13):
            for n in range(max(r, s), 17):
                if hopf_admissible(r, s, n):
                    assert hopf_admissible(max(r - 1, 1), s, n)
                    assert hopf_admissible(r, max(s - 1, 1), n)


def test_powers_of_two_always_admissible():
    for k in range(1, 8):
        n = 2 ** k
        assert hopf_admissible(n, n, n)


def test_lower_bound_spot_values():
    assert hopf_lower_bound(2, 2) == 2
    assert hopf_lower_bound(3, 3) == 4
    assert hopf_lower_bound(5, 5) == 8
    assert hopf_lower_bound(9, 9) == 16
    for s in (1, 2, 5, 11):
        assert hopf_lower_bound(1, s) == s


# -- the admissibility scan, kept as the oracle of Pfister's recursion -----------------


def _lower_bound_scan(r, s):
    """The former hopf_lower_bound: test each n from max(r, s) upward and
    return the first admissible one, giving up past the cap."""
    if r < 1 or s < 1:
        raise ValueError("r, s must be positive")
    n = max(r, s)
    while n <= _LOWER_BOUND_CAP:
        if hopf_admissible(r, s, n):
            return n
        n += 1
    raise ValueError("no admissible n below the cap; inputs are out of scope")


def test_lower_bound_matches_scan_oracle():
    for r in range(1, 129):
        for s in range(1, 129):
            assert hopf_lower_bound(r, s) == _lower_bound_scan(r, s), (r, s)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**12), st.integers(1, 2**12))
def test_lower_bound_is_the_least_admissible_n(r, s):
    n = hopf_lower_bound(r, s)
    assert n == hopf_lower_bound(s, r)
    assert hopf_admissible(r, s, n)
    if n - 1 >= max(r, s):
        assert not hopf_admissible(r, s, n - 1)


def test_lower_bound_at_the_cap():
    for lower_bound in (hopf_lower_bound, _lower_bound_scan):
        assert lower_bound(_LOWER_BOUND_CAP, 1) == _LOWER_BOUND_CAP == 2**20
        assert lower_bound(3, _LOWER_BOUND_CAP) == _LOWER_BOUND_CAP
        for r, s in ((_LOWER_BOUND_CAP + 1, 1), (1, _LOWER_BOUND_CAP + 1)):
            with pytest.raises(ValueError, match="below the cap"):
                lower_bound(r, s)


def test_library_never_imports_the_benchmark():
    # the recursion must stay independent of the benchmark's hopf_stiefel
    root = Path(__file__).resolve().parents[1]
    forbidden = {"bench"} | {path.stem for path in (root / "bench").glob("*.py")}
    assert "refcheck" in forbidden
    sources = sorted((root / "src" / "sosforms").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in forbidden, (path.name, node.lineno, name)


def _imported_modules(node):
    """The sosforms modules an import statement names, e.g. {'hopf'} for
    `from .hopf import rho`, `from . import hopf` or `import sosforms.hopf`."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif node.level == 0:
        dotted = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        prefix = f"sosforms.{node.module}" if node.module else "sosforms"
        dotted = [f"{prefix}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("sosforms.")}


def test_no_deferred_imports_and_formulas_never_imports_hopf():
    # hopf imports formulas (the Hurwitz-Radon family and rho), so an import
    # of hopf from formulas would be a cycle, and a deferred import hides one
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "sosforms").glob("*.py"))
    assert any(path.name == "formulas.py" for path in sources)
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (path.name, node.lineno)
        if path.name == "formulas.py":
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    assert "hopf" not in _imported_modules(node), node.lineno


def test_no_module_converts_arguments_with_operator_index():
    # the argument rule lives in rings.require_ints; operator.index would
    # accept what it rejects (a bool, a numpy integer) and raise TypeError
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "sosforms").glob("*.py"))
    assert any(path.name == "rings.py" for path in sources)
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                assert not (isinstance(node.value, ast.Name) and node.value.id == "operator"
                            and node.attr == "index"), (path.name, node.lineno)
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                assert "index" not in {alias.name for alias in node.names}, (path.name, node.lineno)


def test_lower_bound_below_next_power_of_two():
    for r in range(1, 20):
        for s in range(1, 20):
            n = hopf_lower_bound(r, s)
            assert max(r, s) <= n <= 1 << (max(r, s) - 1).bit_length()


def test_rho_values():
    assert [rho(n) for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)] == [
        1, 2, 4, 8, 9, 10, 12, 16, 17,
    ]
    assert rho(12) == 4
    assert rho(48) == 9  # 48 = 16 * 3
    for odd in (1, 3, 5, 7, 9):
        assert rho(odd) == 1


def test_upper_bound_recipe():
    assert hurwitz_radon_upper_bound(2, 2) == 2
    assert hurwitz_radon_upper_bound(3, 3) == 4
    assert hurwitz_radon_upper_bound(5, 5) == 8
    assert hurwitz_radon_upper_bound(1, 7) == 7
    assert hurwitz_radon_upper_bound(10, 10) == 32


def test_bound_table_entries():
    entries = {(e.r, e.s): e for e in bound_table(3, 3)}
    assert entries[(2, 2)].hopf_lower == 2
    assert entries[(2, 2)].construct_upper == 2
    assert entries[(2, 2)].tight
    assert entries[(3, 3)].hopf_lower == 4
    assert entries[(3, 3)].construct_upper == 4
    assert entries[(3, 3)].tight
    for s in (1, 2, 3):
        assert entries[(1, s)].tight
    # a gap: Hopf asks for n >= 3, the best construction here needs 4
    assert entries[(3, 1)].hopf_lower == 3
    assert entries[(3, 1)].construct_upper == 4
    assert not entries[(3, 1)].tight


def test_bound_table_lower_le_upper():
    for e in bound_table(6, 6):
        assert e.hopf_lower <= e.construct_upper


def test_bound_table_csv_header():
    text = bound_table_csv(bound_table(2, 2))
    assert text.splitlines()[0] == "r,s,hopf_lower,construct_upper,tight"
    assert "2,2,2,2,true" in text


def test_bound_table_text_alignment():
    text = bound_table_text(bound_table(2, 2))
    lines = text.splitlines()
    assert "lower" in lines[0] and "tight" in lines[0]
    assert any("yes" in line for line in lines[2:])


def test_bound_table_rejects_an_oversized_upper_bound(monkeypatch):
    def unexpected(n):
        raise AssertionError("a formula was built before the size check")

    monkeypatch.setattr(sosforms.hopf, "construct_hurwitz_radon", unexpected)
    assert hurwitz_radon_upper_bound(17, 17) == hurwitz_radon_upper_bound(1, 256) == MAX_TABLE_UPPER
    for rmax, smax in ((18, 18), (1, 257), (25, 1)):
        with pytest.raises(ValueError, match="Hurwitz-Radon formula of size"):
            bound_table(rmax, smax)


def test_bound_table_checks_every_restriction(monkeypatch):
    # flip one sign of HR(4) in the entry at x_3 y_4: the leaf [4, 4, 4] is
    # checked when it is built, so every table that needs HR(4) fails there,
    # naming the leaf, although the cells of bound_table(4, 3) restrict it
    # to s <= 3 and drop the flipped entry
    real = sosforms.hopf.construct_hurwitz_radon

    def corrupted(n):
        f = real(n)
        if n != 4:
            return f
        nonzeros = tuple(
            tuple((i, j, -c if (i, j) == (2, 3) else c) for i, j, c in entries) for entries in f.nonzeros
        )
        return SosFormula._of_nonzeros(f.r, f.s, f.n, f.ring, nonzeros)

    monkeypatch.setattr(sosforms.hopf, "construct_hurwitz_radon", corrupted)
    assert len(bound_table(2, 2)) == 4  # needs no HR(4)
    for rmax, smax in ((4, 3), (4, 4), (2, 3)):
        with pytest.raises(AssertionError, match=r"Hurwitz-Radon formula \[4,4,4\] failed to verify"):
            bound_table(rmax, smax)


def test_bound_table_checks_each_leaf_once_and_builds_no_restriction(monkeypatch):
    checked = []
    gram_defect = SosFormula.gram_defect

    def counting(self):
        checked.append(self.type_triple)
        return gram_defect(self)

    def refuse(self, r2, s2):
        raise AssertionError("a restriction was built")

    monkeypatch.setattr(SosFormula, "gram_defect", counting)
    monkeypatch.setattr(SosFormula, "restrict", refuse)
    entries = bound_table(8, 8)
    assert len(entries) == 64
    assert checked == [(rho(n), n, n) for n in range(1, 9)]
    checked.clear()
    bound_table(17, 32)
    uppers = sorted({hurwitz_radon_upper_bound(r, s) for r in range(1, 18) for s in range(1, 33)})
    assert sorted(checked, key=lambda t: t[2]) == [(rho(n), n, n) for n in uppers]


def test_bound_table_refuses_a_leaf_too_small_for_its_cell(monkeypatch):
    # a leaf that verifies but is smaller than [rho(n), n, n] cannot realize
    # every cell that its n bounds
    real = sosforms.hopf.construct_hurwitz_radon

    def shrunk(n):
        f = real(n)
        return f.restrict(f.r - 1, f.s) if n == 4 else f

    monkeypatch.setattr(sosforms.hopf, "construct_hurwitz_radon", shrunk)
    assert len(bound_table(3, 4)) == 12  # HR(4) restricted to r = 3 still holds every cell
    with pytest.raises(AssertionError, match=r"\[4,1,4\] does not fit inside its leaf \[3,4,4\]"):
        bound_table(4, 4)


@pytest.mark.parametrize("rmax, smax", [(8, 8), (17, 32)])
def test_every_restriction_of_the_bound_table_passes_both_verifiers(rmax, smax):
    # the per-cell check that the leaf check replaced, kept as its oracle
    leaves = {}
    for e in bound_table(rmax, smax):
        leaf = leaves.setdefault(e.construct_upper, construct_hurwitz_radon(e.construct_upper))
        f = leaf.restrict(e.r, e.s)
        assert f.type_triple == (e.r, e.s, e.construct_upper)
        assert f.gram_defect() is None
        assert f.expansion_defect().is_zero


def test_input_validation():
    with pytest.raises(ValueError):
        hopf_lower_bound(0, 1)
    for r, s in ((2.0, 3), (2, 3.0)):
        with pytest.raises(ValueError):
            hopf_admissible(r, s, 3)
        with pytest.raises(ValueError):
            hopf_lower_bound(r, s)
    for r, s, n in ((0, 1, 1), (-3, 5, 2), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError, match=">= 1"):
            hopf_admissible(r, s, n)
        # "no witness" would read as admissible
        with pytest.raises(ValueError, match=">= 1"):
            hopf_violation_witness(r, s, n)
    with pytest.raises(ValueError):
        rho(0)
    # a bool is not a dimension, though it is an int
    for r, s, n in ((True, True, True), (True, 2, 3), (2, True, 3), (2, 3, True), (False, 1, 1)):
        for check in (hopf_admissible, hopf_violation_witness):
            with pytest.raises(ValueError, match="not bool"):
                check(r, s, n)
    for r, s in ((True, 2), (2, True), (True, True)):
        for check in (hopf_lower_bound, hurwitz_radon_upper_bound, bound_table):
            with pytest.raises(ValueError, match="not bool"):
                check(r, s)
    for n in (True, False):
        with pytest.raises(ValueError, match="not bool"):
            rho(n)


def test_upper_bound_rejects_floats_and_zero():
    # stepping n from a non-integral s never reaches a power of two, so
    # hurwitz_radon_upper_bound(2, 2.5) and bound_table(2, 2.5) used to hang,
    # and rho read 2.0 as 2
    for n in (2.0, 1.5, 2.5):
        with pytest.raises(ValueError):
            rho(n)
    for r, s in ((2, 2.5), (2.5, 2), (2.0, 2), (2, 2.0)):
        for check in (hurwitz_radon_upper_bound, bound_table):
            with pytest.raises(ValueError):
                check(r, s)
    for r, s in ((0, 1), (1, 0), (0, 0)):
        with pytest.raises(ValueError, match=">= 1"):
            hurwitz_radon_upper_bound(r, s)
        with pytest.raises(ValueError, match=">= 1"):
            bound_table(r, s)
