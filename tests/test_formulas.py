"""Composition formulas: verification oracles, constructions, transformations."""

import json
import os
import random
import subprocess
import sys
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosforms.formulas
from sosforms.formulas import (
    SosFormula,
    construct_classical,
    construct_hurwitz_radon,
    construct_trivial,
    homotopy_invariance_check,
    orthonormal_vectors,
    rho,
)
from sosforms.hopf import bound_table, hopf_admissible
from sosforms.poly import SparsePoly, poly_sum
from sosforms.rings import GaussianExt, PrimeField, QQ, ZZ, gaussian_ext, ring_to_json
from test_poly import dense_eight, dense_tensor, dot_sum_of_squares, householder_dense
from test_rings import unreduced_dot


def gauss():
    return construct_classical("two")


# -- expansion defect ---------------------------------------------------------


def test_defect_identity_formula():
    f = SosFormula(1, 1, 1, ZZ, [[[1]]])
    assert f.expansion_defect().is_zero


def test_defect_gauss_hand_oracle():
    # hand expansion: (x1y1 - x2y2)^2 + (x1y2 + x2y1)^2 - (x1^2+x2^2)(y1^2+y2^2) = 0
    f = gauss()
    x1, x2, y1, y2 = (SparsePoly.variable(ZZ, v) for v in range(4))
    z1 = x1 * y1 - x2 * y2
    z2 = x1 * y2 + x2 * y1
    oracle = z1 * z1 + z2 * z2 - (x1 * x1 + x2 * x2) * (y1 * y1 + y2 * y2)
    assert oracle.is_zero
    assert f.expansion_defect() == oracle


def test_defect_scaled_identity():
    f = SosFormula(1, 1, 1, ZZ, [[[2]]])
    defect = f.expansion_defect()
    x, y = SparsePoly.variable(ZZ, 0), SparsePoly.variable(ZZ, 1)
    assert defect == 3 * x * x * y * y


def test_gauss_with_flipped_sign_fails():
    f = gauss()
    tensor = [list(map(list, slice_k)) for slice_k in dense_tensor(f)]
    tensor[0][1][1] = 1  # break z1 = x1y1 - x2y2
    broken = SosFormula(2, 2, 2, ZZ, tensor)
    assert not broken.verify_by_expansion()
    assert not broken.verify_by_hurwitz()


# -- verification routes -------------------------------------------------------


def test_trivial_formula_verifies():
    f = construct_trivial(2, 3)
    assert f.type_triple == (2, 3, 6)
    assert f.verify_by_expansion()
    assert f.verify_by_hurwitz()


def test_classical_formulas_verify_both_routes():
    for kind, triple in (("two", (2, 2, 2)), ("four", (4, 4, 4)), ("eight", (8, 8, 8))):
        f = construct_classical(kind)
        assert f.type_triple == triple
        assert f.verify_by_expansion()
        assert f.verify_by_hurwitz()


def test_classical_tables_load_from_a_zipped_package(tmp_path):
    # the tables are read through the module's loader, so a package imported
    # from a zip archive finds its data file too
    package = Path(sosforms.formulas.__file__).parent
    archive = tmp_path / "sosforms.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in [*package.glob("*.py"), *package.glob("data/*.json")]:
            zf.write(path, path.relative_to(package.parent).as_posix())
    script = (
        "import sosforms\n"
        "assert '.zip' in sosforms.__file__, sosforms.__file__\n"
        "print([sosforms.construct_classical(k).type_triple for k in ('two', 'four', 'eight')])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(archive)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[(2, 2, 2), (4, 4, 4), (8, 8, 8)]"


def test_the_two_verifiers_share_no_kernel(monkeypatch):
    """Expansion and the Gram check cross-check each other, so each must
    still decide with the other's kernel disabled: the dense formulas here
    take the Gram check's block kernel, the expansion's row kernel squares
    their shared supports, and dense HR(8) over GF(3) has its split supports
    squared as one group."""
    import sosforms.formulas
    import sosforms.poly

    def refuse(*args, **kwargs):
        raise AssertionError("the other verifier's kernel was called")

    def counted(module, name):
        kernel, calls = getattr(module, name), []
        monkeypatch.setattr(module, name, lambda *args: calls.append(1) or kernel(*args))
        return calls

    good = [construct_hurwitz_radon(16), construct_classical("eight")]
    good += [dense_sixteen(QQ), dense_sixteen(gaussian_ext(QQ))]  # expanded in integers
    good += [dense_eight("hurwitz-radon", PrimeField(3)), dense_sixteen(PrimeField(5))]
    bad = [SosFormula._of_nonzeros(f.r, f.s, f.n, f.ring, (f.nonzeros[1],) + f.nonzeros[1:]) for f in good]
    with monkeypatch.context() as m:
        m.setattr(SosFormula, "gram_defect", refuse)
        m.setattr(sosforms.formulas, "_pair_gram_rows", refuse)
        m.setattr(sosforms.formulas, "_block_gram_rows", refuse)
        fills, dots = counted(sosforms.poly, "_fill_rows"), counted(sosforms.poly, "_row_dots")
        assert all(f.verify_by_expansion() for f in good)
        assert not any(f.verify_by_expansion() for f in bad)
        assert fills and dots
    blocks = counted(sosforms.formulas, "_block_gram_rows")
    monkeypatch.setattr(sosforms.poly, "sum_of_squares", refuse)
    monkeypatch.setattr(sosforms.formulas, "sum_of_squares", refuse)
    monkeypatch.setattr(sosforms.poly, "_packing", refuse)
    monkeypatch.setattr(sosforms.poly, "_lift", refuse)
    monkeypatch.setattr(sosforms.poly, "_row_dots", refuse)
    monkeypatch.setattr(sosforms.poly, "_fill_rows", refuse)
    assert all(f.gram_defect() is None for f in good)
    assert all(f.gram_defect() is not None for f in bad)
    assert len(blocks) == 2 * 4  # the four dense formulas, clean and bad
    with pytest.raises(AssertionError, match="other verifier"):
        good[0].expansion_defect()


def test_zero_tensor_fails_hurwitz():
    f = SosFormula(1, 1, 1, ZZ, [[[0]]])
    assert not f.verify_by_hurwitz()
    assert not f.verify_by_expansion()


# -- Gram defect against the naive oracle -----------------------------------------


def naive_gram_defect(f):
    """Every entry of B_a^T B_b + B_b^T B_a, with B_i[m][j] = T[m][i][j],
    summed over all n rows, zeros included, scanned in (a, b, j, k) order:
    the first that differs from 2 delta_ab delta_jk, or None."""
    ring = f.ring
    T = dense_tensor(f)
    zero, two = ring.zero(), ring.coerce(2)
    for a in range(f.r):
        for b in range(a, f.r):
            for j in range(f.s):
                for k in range(f.s):
                    acc = zero
                    for m in range(f.n):
                        acc = ring.add(acc, ring.mul(T[m][a][j], T[m][b][k]))
                        acc = ring.add(acc, ring.mul(T[m][b][j], T[m][a][k]))
                    if acc != (two if a == b and j == k else zero):
                        return (a, b, j, k)
    return None


# _BLOCK_DENSITY values that force each row kernel of the Gram check
KERNEL_RULES = {"pair": float("inf"), "block": -1}


def kernel_defects(f):
    """f.gram_defect() with its rows formed by each kernel in turn: the pair
    kernel, then the block kernel."""
    defects = []
    for density in KERNEL_RULES.values():
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sosforms.formulas, "_BLOCK_DENSITY", density)
            defects.append(f.gram_defect())
    return defects


# (ring, nonzero entries); zeros are drawn far more often than these.  The
# last five rings put the packed Gram kernel's lanes at their edges: residues
# near +-p/2 of a 31-bit prime, integers of 71 bits, large coprime
# denominators, and Gaussian entries over Q and GF(7).
RINGS_AND_ENTRIES = [
    (PrimeField(3), [1, 2]),
    (PrimeField(5), [1, 2, 3, 4]),
    (PrimeField(13), [1, 5, 8, 12]),
    (PrimeField(1259), [1, 2, 629, 1000, 1258]),
    (ZZ, [1, -1, 2]),
    (QQ, [1, -1, Fraction(1, 2), Fraction(-3, 5)]),
    (gaussian_ext(ZZ), [1, -1, (0, 1), (0, -1), (1, 1)]),
    (PrimeField(2147483647), [1, 2, 1073741823, 1073741824, 2147483646]),
    (ZZ, [1, -1, 2**70, -(2**70)]),
    (QQ, [1, Fraction(1, 2**61 - 1), Fraction(-(2**40), 3**41), Fraction(7, 5**30)]),
    (gaussian_ext(QQ), [1, (0, 1), (Fraction(1, 3), Fraction(-2, 5)), (Fraction(-5, 7), 0)]),
    (gaussian_ext(PrimeField(7)), [1, (0, 1), (3, 4), (6, 6), (0, 3)]),
]


@st.composite
def sparse_formulas(draw):
    ring, nonzero = draw(st.sampled_from(RINGS_AND_ENTRIES))
    r, s, n = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.sampled_from([0] * 3 * len(nonzero) + nonzero)
    tensor = [[[draw(entry) for _ in range(s)] for _ in range(r)] for _ in range(n)]
    return SosFormula(r, s, n, ring, tensor)


@st.composite
def corrupted_hurwitz_radon(draw):
    ring, _ = draw(st.sampled_from(RINGS_AND_ENTRIES))
    f = construct_hurwitz_radon(draw(st.integers(1, 32)))
    i = draw(st.integers(0, f.r - 1))
    k = draw(st.integers(0, f.n - 1))
    j = draw(st.integers(0, f.s - 1))
    tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
    old = tensor[k][i][j]
    tensor[k][i][j] = draw(st.sampled_from([v for v in (-1, 0, 1, 2) if v != old]))
    return SosFormula(f.r, f.s, f.n, ring, tensor)


@settings(max_examples=150, deadline=None)
@given(sparse_formulas())
def test_gram_defect_matches_oracle_on_sparse_tensors(f):
    assert kernel_defects(f) == [naive_gram_defect(f)] * 2
    assert f.verify_by_hurwitz() == f.verify_by_expansion() == (f.gram_defect() is None)


@settings(max_examples=30, deadline=None)
@given(corrupted_hurwitz_radon())
def test_gram_defect_matches_oracle_on_corrupted_hurwitz_radon(f):
    assert kernel_defects(f) == [naive_gram_defect(f)] * 2
    assert f.verify_by_hurwitz() == f.verify_by_expansion()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_expansion_hurwitz_equivalence_on_random_tensors(data):
    """Small tensors with any entries, dense residues over GF(3) and GF(5)
    included: the two verifiers agree."""
    ring, nonzero = data.draw(st.sampled_from(RINGS_AND_ENTRIES), label="ring")
    r, s, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entry = st.sampled_from([0, *nonzero])
    tensor = [[[data.draw(entry) for _ in range(s)] for _ in range(r)] for _ in range(n)]
    f = SosFormula(r, s, n, ring, tensor)
    assert f.verify_by_expansion() == f.verify_by_hurwitz()


# -- the expansion defect against the former composition ------------------------------


def oracle_expansion_defect(f):
    """The former composition: the squares by the former per-pair dot
    product loop, then (sum x_i^2)(sum y_j^2) as its own product, negated and added
    in a separate sum."""
    ring = f.ring
    xs = poly_sum((SparsePoly.variable(ring, i, 2) for i in range(f.r)), ring)
    ys = poly_sum((SparsePoly.variable(ring, f.r + j, 2) for j in range(f.s)), ring)
    return dot_sum_of_squares(f.z_polys(), ring) - xs * ys


def assert_defect_matches_oracle(f):
    defect, oracle = f.expansion_defect(), oracle_expansion_defect(f)
    assert defect.terms == oracle.terms
    assert defect.first_term() == oracle.first_term()  # the witness `sosforms verify` prints


@settings(max_examples=150, deadline=None)
@given(sparse_formulas())
def test_expansion_defect_matches_oracle_on_sparse_tensors(f):
    assert_defect_matches_oracle(f)


@settings(max_examples=30, deadline=None)
@given(corrupted_hurwitz_radon())
def test_expansion_defect_matches_oracle_on_corrupted_hurwitz_radon(f):
    assert_defect_matches_oracle(f)


@pytest.mark.parametrize("n", range(1, 33))
def test_expansion_defect_matches_oracle_on_hurwitz_radon(n):
    f = construct_hurwitz_radon(n)
    assert_defect_matches_oracle(f)
    assert f.expansion_defect().is_zero


DENSE_RINGS = [PrimeField(5), PrimeField(7), QQ, gaussian_ext(QQ), gaussian_ext(PrimeField(7))]


@pytest.mark.parametrize("ring", DENSE_RINGS)
@pytest.mark.parametrize("kind", ["hurwitz-radon", "degen"])
def test_gram_defect_is_none_on_dense_formulas(kind, ring):
    f = dense_eight(kind, ring)
    zero = ring.zero()
    assert all(c != zero for slice_k in dense_tensor(f) for row in slice_k for c in row)
    assert kernel_defects(f) == [None, None] and naive_gram_defect(f) is None


@pytest.mark.parametrize("ring", DENSE_RINGS)
@pytest.mark.parametrize("kind", ["hurwitz-radon", "degen"])
def test_expansion_defect_matches_oracle_on_dense_formulas(kind, ring):
    f = dense_eight(kind, ring)
    tensor = [[list(row) for row in sl] for sl in dense_tensor(f)]
    tensor[3][7][2] = ring.add(tensor[3][7][2], ring.one())
    tensor[0][0][0] = ring.zero()  # and an entry removed
    corrupted = SosFormula(8, 8, 8, ring, tensor)
    for g in (f, corrupted):
        assert_defect_matches_oracle(g)
    assert not corrupted.expansion_defect().is_zero


def counting_unpacks(monkeypatch):
    """Wrap ``sosforms.poly._packing`` so that each call of an ``unpack`` it
    returns is counted; return the list of counts."""
    import sosforms.poly

    packing, calls = sosforms.poly._packing, []

    def counted(supports):
        pack, unpack = packing(supports)
        return pack, lambda key: calls.append(1) or unpack(key)

    monkeypatch.setattr(sosforms.poly, "_packing", counted)
    return calls


def test_a_formula_that_holds_unpacks_nothing(monkeypatch):
    calls = counting_unpacks(monkeypatch)
    hr32 = construct_hurwitz_radon(32)
    for f in (hr32, hr32.restrict(7, 20), construct_classical("eight")):
        assert f.expansion_defect().is_zero
    assert not calls


def test_a_failing_formula_unpacks_only_its_defect(monkeypatch):
    calls = counting_unpacks(monkeypatch)
    hr32 = construct_hurwitz_radon(32)
    failing = [
        SosFormula._of_nonzeros(hr32.r, hr32.s, hr32.n, hr32.ring, (hr32.nonzeros[1],) + hr32.nonzeros[1:]),
        SosFormula(1, 1, 1, ZZ, [[[2]]]),
        SosFormula(2, 3, 1, ZZ, [[[1, 0, 0], [0, 0, 0]]]),  # a zero row and zero columns
    ]
    for f in failing:
        calls.clear()
        defect = f.expansion_defect()
        assert defect.terms and len(calls) == len(defect.terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gram_defect_matches_oracle_on_corrupted_dense_formulas(data):
    """Dense formulas sum eight products into every Gram entry."""
    ring = data.draw(st.sampled_from(DENSE_RINGS), label="ring")
    f = dense_eight(data.draw(st.sampled_from(["hurwitz-radon", "degen"])), ring)
    tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
    entry = st.tuples(*[st.integers(0, 7)] * 3)
    for k, i, j in data.draw(st.lists(entry, min_size=1, max_size=4, unique=True), label="entries"):
        delta = ring.coerce(data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]), label="delta"))
        tensor[k][i][j] = ring.add(tensor[k][i][j], delta)
    g = SosFormula(8, 8, 8, ring, tensor)
    assert kernel_defects(g) == [naive_gram_defect(g)] * 2 and g.gram_defect() is not None


def test_gram_defect_examples():
    assert kernel_defects(construct_hurwitz_radon(16)) == [None, None]
    # B_1 = I and B_2 = 0: B_2^T B_2 fails on its first diagonal entry
    zero_b2 = SosFormula(2, 2, 2, ZZ, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    assert kernel_defects(zero_b2) == [(1, 1, 0, 0)] * 2
    # Gauss with z1 = x1y1 + x2y2: B_1 = I and B_2 = [[0, 1], [1, 0]], so the
    # cross Gram matrix is 2 * B_2, which first fails at (j, k) = (0, 1)
    broken = [list(map(list, slice_k)) for slice_k in dense_tensor(gauss())]
    broken[0][1][1] = 1
    assert kernel_defects(SosFormula(2, 2, 2, ZZ, broken)) == [(0, 1, 0, 1)] * 2


# -- the packed Gram kernel against the former scatter loop ----------------------------


def scatter_gram_defect(f):
    """The Gram check before rows were packed into integers, kept verbatim as
    the oracle wherever naive_gram_defect is too slow: for each pair a <= b,
    the products of nonzeros sharing a row, scattered into the entries of G
    on and above its diagonal, each entry's products summed once by
    ``unreduced_dot``."""
    ring = f.ring
    if ring.characteristic() == 2:  # unreachable: such rings are rejected
        raise ValueError("matrix criterion needs characteristic != 2")
    s = f.s
    zero, two = ring.zero(), ring.coerce(2)
    # rows[i][m]: the (column, value) nonzeros of row m of B_i, i.e. of T[m][i]
    rows = [[[] for _ in range(f.n)] for _ in range(f.r)]
    for m, entries in enumerate(f.nonzeros):
        for i, j, c in entries:
            rows[i][m].append((j, c))
    for a, rows_a in enumerate(rows):
        for b in range(a, len(rows)):
            # upper[j * s + k], j <= k, holds the factors of G[j][k] for j < k and
            # of P[j][j] = G[j][j] / 2
            upper = {}
            for row_a, row_b in zip(rows_a, rows[b]):
                for j, x in row_a:
                    for k, y in row_b:
                        xs, ys = upper.setdefault(j * s + k if j <= k else k * s + j, ([], []))
                        xs.append(x)
                        ys.append(y)
            if a == b:
                for j in range(s):
                    upper.setdefault(j * s + j, ([], []))
            diagonal = two if a == b else zero
            entries = {key: ring.coerce(unreduced_dot(ring, xs, ys)) for key, (xs, ys) in upper.items()}
            # j = k exactly when s + 1 divides j * s + k, since 0 <= k - j < s
            bad = [
                key
                for key, g in entries.items()
                if (ring.add(g, g) != diagonal if key % (s + 1) == 0 else g != zero)
            ]
            if bad:
                return (a, b, *divmod(min(bad), s))
    return None


@pytest.mark.parametrize("n", range(1, 65))
def test_gram_defect_matches_scatter_oracle_on_hurwitz_radon(n):
    f = construct_hurwitz_radon(n)
    assert kernel_defects(f) == [None, None] and scatter_gram_defect(f) is None
    # an entry of B_0 and two of the last matrix moved by 1, which changes a column's norm
    for k, i, j in ((0, 0, 0), (n // 2, f.r - 1, 0), (n - 1, f.r - 1, n - 1)):
        tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
        tensor[k][i][j] += 1
        g = SosFormula(f.r, f.s, f.n, ZZ, tensor)
        assert kernel_defects(g) == [scatter_gram_defect(g)] * 2 and g.gram_defect() is not None


def rotate_gaussian(f):
    """f with each pair z_2k, z_2k+1 turned by [[5/4, 3i/4], [-3i/4, 5/4]],
    which is orthogonal since (5/4)^2 + (3i/4)^2 = 1: the identity still
    holds, and the entries get imaginary parts."""
    ring, T = f.ring, dense_tensor(f)
    a, b = ring.coerce(Fraction(5, 4)), ring.coerce((0, Fraction(3, 4)))
    tensor = [[list(row) for row in slice_k] for slice_k in T]
    for k in range(0, f.n - 1, 2):
        for i in range(f.r):
            for j in range(f.s):
                x, y = T[k][i][j], T[k + 1][i][j]
                tensor[k][i][j] = ring.add(ring.mul(a, x), ring.mul(b, y))
                tensor[k + 1][i][j] = ring.sub(ring.mul(a, y), ring.mul(b, x))
    return SosFormula(f.r, f.s, f.n, ring, tensor)


def dense_sixteen(ring):
    """HR(16) after the reflection by (1, ..., 1, 2), whose norm 19 is a unit
    over Q, GF(5) and GF(7); over a Gaussian ring also rotated."""
    f = householder_dense(construct_hurwitz_radon(16), ring, (1,) * 15 + (2,))
    return rotate_gaussian(f) if isinstance(ring, GaussianExt) else f


@pytest.mark.parametrize("ring", DENSE_RINGS)
def test_gram_defect_matches_scatter_oracle_on_dense_hurwitz_radon_16(ring):
    f = dense_sixteen(ring)
    zero = ring.zero()
    assert all(c != zero for slice_k in dense_tensor(f) for row in slice_k for c in row)
    assert kernel_defects(f) == [None, None] and scatter_gram_defect(f) is None
    # one entry of B_0, of B_4 and of the last matrix B_8 moved
    for k, i, j in ((0, 0, 0), (7, 4, 11), (15, 8, 15)):
        tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
        tensor[k][i][j] = ring.add(tensor[k][i][j], ring.one())
        g = SosFormula(f.r, f.s, f.n, ring, tensor)
        assert kernel_defects(g) == [scatter_gram_defect(g)] * 2 and g.gram_defect() is not None


# -- the expansion over Q and Q[i], done in integers, against the Fraction one ------------

QI = gaussian_ext(QQ)
# the Q and Q[i] entries above, whose large coprime denominators make D huge,
# and entries with no denominator, for which D = 1
RATIONAL_ENTRIES = [(ring, nonzero) for ring, nonzero in RINGS_AND_ENTRIES if ring in (QQ, QI)]
RATIONAL_ENTRIES += [(QQ, [1, -1, 2, -3]), (QI, [1, (0, 1), (2, -1), (0, -3)])]


def fraction_expansion_defect(f):
    """The expansion in the formula's own ring, unscaled, by the former
    per-pair dot product loop: over Q and Q[i] every product and sum is one
    of Fractions."""
    ring, r = f.ring, f.r
    xs = SparsePoly(ring, {((i, 2),): 1 for i in range(r)})
    ys = SparsePoly(ring, {((r + j, 2),): 1 for j in range(f.s)})
    return dot_sum_of_squares(f.z_polys(), ring, minus=(xs, ys))


def assert_integer_expansion_matches(f):
    defect, oracle = f.expansion_defect(), fraction_expansion_defect(f)
    assert defect.ring == f.ring
    # equal, with coefficients of the same types (Fractions, not ints)
    assert repr(sorted(defect.terms.items())) == repr(sorted(oracle.terms.items()))
    assert defect.first_term() == oracle.first_term()


@st.composite
def rational_formulas(draw):
    """Sparse formulas over Q and Q[i], some slices left empty."""
    ring, nonzero = draw(st.sampled_from(RATIONAL_ENTRIES))
    r, s, n = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.sampled_from([0] * len(nonzero) + nonzero)
    tensor = [[[draw(entry) for _ in range(s)] for _ in range(r)] for _ in range(n)]
    for k in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        tensor[k] = [[0] * s for _ in range(r)]
    return SosFormula(r, s, n, ring, tensor)


@st.composite
def corrupted_rational_formulas(draw):
    """Formulas over Q and Q[i] that hold (Hurwitz-Radon, or dense HR(8)
    with fractional and, over Q[i], imaginary entries) with up to three
    entries replaced by drawn ones."""
    ring, nonzero = draw(st.sampled_from(RATIONAL_ENTRIES))
    if draw(st.booleans()):
        f = dense_eight("hurwitz-radon", QQ).change_ring(ring)
        f = rotate_gaussian(f) if ring == QI else f
    else:
        f = construct_hurwitz_radon(draw(st.integers(1, 16))).change_ring(ring)
    tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
    entry = st.tuples(st.integers(0, f.n - 1), st.integers(0, f.r - 1), st.integers(0, f.s - 1))
    for k, i, j in draw(st.lists(entry, max_size=3, unique=True), label="entries"):
        tensor[k][i][j] = draw(st.sampled_from([0, *nonzero]))
    return SosFormula(f.r, f.s, f.n, ring, tensor)


@settings(max_examples=150, deadline=None)
@given(rational_formulas())
def test_integer_expansion_matches_fraction_expansion_on_sparse_tensors(f):
    assert_integer_expansion_matches(f)


@settings(max_examples=60, deadline=None)
@given(corrupted_rational_formulas())
def test_integer_expansion_matches_fraction_expansion_on_corrupted_formulas(f):
    assert_integer_expansion_matches(f)


@pytest.mark.parametrize("ring", [QQ, QI])
def test_integer_expansion_edge_cases(ring):
    empty = SosFormula(2, 3, 2, ring, [[[0] * 3] * 2] * 2)
    integral = construct_hurwitz_radon(8).change_ring(ring)
    assert integral.expansion_defect().is_zero
    halves = SosFormula(1, 1, 1, ring, [[[Fraction(1, 2)]]])  # (x y / 2)^2 - x^2 y^2
    for f in (empty, integral, halves, dense_sixteen(ring)):
        assert_integer_expansion_matches(f)
    assert halves.expansion_defect().terms == {((0, 2), (1, 2)): ring.coerce(Fraction(-3, 4))}


@pytest.mark.parametrize("ring", [QQ, QI])
def test_verifying_a_dense_rational_formula_hashes_no_fraction(ring, monkeypatch):
    # a Fraction hashes by a modular inverse in Python, so the lifts to
    # integers key on denominators only, and each entry lifts itself
    f = dense_eight("hurwitz-radon", QQ).change_ring(ring)
    f = rotate_gaussian(f) if ring == QI else f
    assert all(c != ring.zero() for slice_k in dense_tensor(f) for row in slice_k for c in row)

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    assert f.verify_by_expansion()
    assert f.gram_defect() is None


# -- the two row kernels of the Gram check -------------------------------------------------


def kernel_rows(f):
    """The rows (a, b, g) that each kernel forms for f, called directly on the
    packed rows, nonzeros, targets, block width, bias and pairs that
    gram_defect builds: (pair kernel's, block kernel's)."""
    captured = []

    def capture(*args):
        captured.append(args)
        return iter(())

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sosforms.formulas, "_BLOCK_DENSITY", KERNEL_RULES["block"])
        m.setattr(sosforms.formulas, "_block_gram_rows", capture)
        f.gram_defect()
    (args,) = captured
    packed, nz, minus_target = args[:3]
    pair = list(sosforms.formulas._pair_gram_rows(packed, nz, minus_target, args[-1]))
    return pair, list(sosforms.formulas._block_gram_rows(*args))


@st.composite
def kernel_cases(draw):
    """HR(n), n <= 8, over a ring of RINGS_AND_ENTRIES, on both sides of the
    kernel rule: over a field whose reflection by (1, ..., 1) on the first
    t coordinates of z exists, so reflected; then some entries set to the
    ring's entries at random; and often the last column of the last matrix
    moved by -1, which puts a negative defect in the top lane of the last
    block of the stacked rows."""
    ring, nonzero = draw(st.sampled_from(RINGS_AND_ENTRIES))
    f = construct_hurwitz_radon(draw(st.integers(1, 8)))
    t = draw(st.integers(0, f.n))
    p = ring.characteristic()
    if ring not in (ZZ, gaussian_ext(ZZ)) and t and t % (p or t + 1):
        f = householder_dense(f, ring, (1,) * t + (0,) * (f.n - t))
    tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f.change_ring(ring))]
    places = st.tuples(st.integers(0, f.n - 1), st.integers(0, f.r - 1), st.integers(0, f.s - 1))
    for k, i, j in draw(st.lists(places, max_size=f.r * f.s * f.n // 2)):
        tensor[k][i][j] = ring.coerce(draw(st.sampled_from(nonzero)))
    if draw(st.booleans()):
        k = draw(st.integers(0, f.n - 1))
        tensor[k][-1][-1] = ring.sub(tensor[k][-1][-1], ring.one())
    return SosFormula(f.r, f.s, f.n, ring, tensor)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_the_two_gram_kernels_form_the_same_rows(f):
    pair, block = kernel_rows(f)
    assert pair == block
    assert [(a, b) for a, b, _ in block] == [(a, b) for a in range(f.r) for b in range(a, f.r)]
    assert kernel_defects(f) == [naive_gram_defect(f)] * 2


@pytest.mark.parametrize("ring", [ZZ, PrimeField(5), QQ, gaussian_ext(ZZ), gaussian_ext(PrimeField(7))])
def test_a_defect_in_the_top_lane_of_the_last_block(ring):
    """HR(8) with the last column of B_7 moved by -1 in row 3: B_0 = I, so
    G_07 = B_7 + B_7^T first fails at (j, k) = (3, 7), a lane of -1 or of
    -1 plus a sign at the top of block 7 of the stacked row U_0[3]."""
    f = construct_hurwitz_radon(8).change_ring(ring)
    tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
    tensor[3][7][7] = ring.sub(tensor[3][7][7], ring.one())
    g = SosFormula(8, 8, 8, ring, tensor)
    assert kernel_defects(g) == [naive_gram_defect(g)] * 2
    assert g.gram_defect()[:3] == (0, 7, 3)


def test_the_kernel_rule_reads_the_count_of_nonzeros(monkeypatch):
    """Dense HR(16) over GF(5) and Q takes the block kernel; HR(32) and the
    densest formula of a search take the pair kernel, as does an [1, 1, n]
    formula with n = 2 (r + 1) s nonzeros, one more than which takes the block
    kernel."""
    from sosforms.search import SearchProblem, search

    emits = search(SearchProblem(3, 3, 4, 5)).formulas
    densest = max(emits, key=lambda f: sum(map(len, f.nonzeros)))
    runs = []
    for name in ("_pair_gram_rows", "_block_gram_rows"):
        kernel = getattr(sosforms.formulas, name)
        monkeypatch.setattr(sosforms.formulas, name, lambda *args, k=kernel, n=name: runs.append(n) or k(*args))

    def kernel_of(f):
        runs.clear()
        f.gram_defect()
        return runs

    assert kernel_of(dense_sixteen(PrimeField(5))) == kernel_of(dense_sixteen(QQ)) == ["_block_gram_rows"]
    assert kernel_of(construct_hurwitz_radon(32)) == kernel_of(densest) == ["_pair_gram_rows"]
    assert kernel_of(SosFormula(1, 1, 4, ZZ, [[[1]]] * 4)) == ["_pair_gram_rows"]
    assert kernel_of(SosFormula(1, 1, 5, ZZ, [[[1]]] * 5)) == ["_block_gram_rows"]


# -- a Gram memo shared by the formulas of one ring and one type -----------------------------


@st.composite
def memo_streams(draw):
    """Formulas of one ring and one (r, s, n), for one Gram memo: HR(n),
    n <= 8, over a ring of RINGS_AND_ENTRIES, reflected as in kernel_cases
    where the field allows, and then copies of it, each either unchanged,
    with up to three entries set to the ring's entries (zero too), or with
    one matrix copied over another."""
    ring, nonzero = draw(st.sampled_from(RINGS_AND_ENTRIES))
    f = construct_hurwitz_radon(draw(st.integers(1, 8)))
    t = draw(st.integers(0, f.n))
    p = ring.characteristic()
    if ring not in (ZZ, gaussian_ext(ZZ)) and t and t % (p or t + 1):
        f = householder_dense(f, ring, (1,) * t + (0,) * (f.n - t))
    base = dense_tensor(f.change_ring(ring))
    places = st.tuples(st.integers(0, f.n - 1), st.integers(0, f.r - 1), st.integers(0, f.s - 1))
    stream = []
    for _ in range(draw(st.integers(1, 8))):
        tensor = [[list(row) for row in slice_k] for slice_k in base]
        kind = draw(st.sampled_from(["same", "entries", "copy"]))
        if kind == "entries":
            for k, i, j in draw(st.lists(places, min_size=1, max_size=3)):
                tensor[k][i][j] = ring.coerce(draw(st.sampled_from([0, *nonzero])))
        elif kind == "copy":
            a, b = draw(st.integers(0, f.r - 1)), draw(st.integers(0, f.r - 1))
            for slice_k in tensor:
                slice_k[b] = list(slice_k[a])
        stream.append(SosFormula(f.r, f.s, f.n, ring, tensor))
    return stream


@settings(max_examples=150, deadline=None)
@given(memo_streams())
def test_a_gram_memo_gives_the_witness_of_a_fresh_check(stream):
    """One memo across the stream, under each kernel rule: every formula gets
    exactly the witness that gram_defect() gives it alone."""
    fresh = [f.gram_defect() for f in stream]
    assert fresh == [naive_gram_defect(f) for f in stream]
    for density in KERNEL_RULES.values():
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sosforms.formulas, "_BLOCK_DENSITY", density)
            memo = {}
            assert [f._gram_defect(memo) for f in stream] == fresh


def test_a_gram_memo_checks_a_repeated_matrix_as_a_cross_pair():
    """A formula of the pinned (3, 3, 4) search over GF(5) holds, so the
    memo holds its pairs, B_2 with itself among them.  The copy with
    B_3 := B_2 reuses (B_2, B_2), but as the cross pair (2, 3), whose target
    is 0, not 2I: the memo must check it and fail it exactly as gram_defect()
    does, at G_23."""
    from sosforms.search import SearchProblem, search

    f = search(SearchProblem(3, 3, 4, 5)).formulas[0]
    tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
    for slice_k in tensor:
        slice_k[2] = list(slice_k[1])
    g = SosFormula(3, 3, 4, f.ring, tensor)
    memo = {}
    assert f._gram_defect(memo) is None
    assert g._gram_defect(memo) == g.gram_defect() == naive_gram_defect(g)
    assert g.gram_defect()[:2] == (1, 2)


def test_a_gram_memo_serves_one_ring_and_one_type():
    f = construct_hurwitz_radon(4).change_ring(PrimeField(5))
    memo = {}
    assert f._gram_defect(memo) is None and f._gram_defect(memo) is None
    for other in (f.change_ring(PrimeField(7)), f.restrict(3, 4), construct_hurwitz_radon(4)):
        with pytest.raises(ValueError, match="Gram memo"):
            other._gram_defect(memo)


# -- split supports squared as one group ----------------------------------------------------


def with_zeros(f, places):
    """f with the entries at ``places`` (k, i, j) set to zero."""
    tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(f)]
    for k, i, j in places:
        tensor[k][i][j] = 0
    return SosFormula(f.r, f.s, f.n, f.ring, tensor)


@pytest.mark.parametrize("ring", [PrimeField(3), PrimeField(13), QI, gaussian_ext(PrimeField(3))])
def test_split_supports_squared_as_one_group_match_the_dot_oracle(ring, monkeypatch):
    """Dense HR(8), over a Gaussian ring also rotated, with entries zeroed by
    chance (over GF(3), 8 of the 64 of each z_k) or on purpose, clean and
    moved by one: the terms, their text and the witness are those of the
    former per-support squaring."""
    import sosforms.poly

    fills, fill = [], sosforms.poly._fill_rows
    monkeypatch.setattr(sosforms.poly, "_fill_rows", lambda *args: fills.append(1) or fill(*args))
    f = householder_dense(construct_hurwitz_radon(8), ring, (1,) * 7 + (2,))
    f = rotate_gaussian(f) if isinstance(ring, GaussianExt) else f
    for places in ((), ((0, 0, 0),), ((0, 0, 0), (3, 7, 2), (5, 2, 6))):
        g = with_zeros(f, places)
        split = len({tuple(z.terms) for z in g.z_polys()}) > 1
        tensor = [[list(row) for row in slice_k] for slice_k in dense_tensor(g)]
        tensor[6][1][4] = ring.add(tensor[6][1][4], ring.one())
        for h in (g, SosFormula(8, 8, 8, ring, tensor)):
            fills.clear()
            assert_defect_matches_oracle(h)
            assert repr(h.expansion_defect()) == repr(oracle_expansion_defect(h))
            assert bool(fills) == split


def test_dense_hurwitz_radon_8_over_gf3_is_squared_as_one_group(monkeypatch):
    import sosforms.poly

    groups, row_dots = [], sosforms.poly._row_dots
    monkeypatch.setattr(sosforms.poly, "_row_dots", lambda rows, pairs: groups.append(rows) or row_dots(rows, pairs))
    f = dense_eight("hurwitz-radon", PrimeField(3))
    assert len({tuple(z.terms) for z in f.z_polys()}) == 8
    assert f.expansion_defect().is_zero
    assert [(len(rows), len(rows[0])) for rows in groups] == [(8, 64)]
    groups.clear()
    assert construct_hurwitz_radon(32).expansion_defect().is_zero
    assert not groups  # 32 supports of 10 terms: each z_k squared alone


# -- lanes at their edges ----------------------------------------------------------------

# rings in which 2 is invertible, so that entries of 1/2 exist
HALVES = [QQ, PrimeField(3), PrimeField(7), PrimeField(2147483647), gaussian_ext(QQ), gaussian_ext(PrimeField(7))]


@pytest.mark.parametrize("ring", HALVES)
def test_gram_defect_reads_a_defect_of_minus_one_in_the_top_lane(ring):
    """B_0 has the columns e_0, e_3 and (-1/2, 1/2, 1/2, 1/2), so row 0 of G
    is (2, 0, -1): the defect is -1 in the top lane and 0 below it."""
    h = Fraction(1, 2)
    f = SosFormula(1, 3, 4, ring, [[[1, 0, -h]], [[0, 0, h]], [[0, 0, h]], [[0, 1, h]]])
    assert kernel_defects(f) == [(0, 0, 0, 2)] * 2 and naive_gram_defect(f) == (0, 0, 0, 2)


def test_gram_defect_reads_a_defect_of_minus_one_in_the_top_lane_over_z():
    """(B_0, B_1) = (I, -E_02): row 0 of B_0^T B_1 + B_1^T B_0 is (0, 0, -1)."""
    f = SosFormula(2, 3, 3, ZZ, [[[1, 0, 0], [0, 0, -1]], [[0, 1, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0]]])
    assert kernel_defects(f) == [(0, 1, 0, 2)] * 2 and naive_gram_defect(f) == (0, 1, 0, 2)


@pytest.mark.parametrize("ring", HALVES)
def test_gram_defect_reads_a_defect_of_minus_one_in_lane_0(ring):
    """B_0 has the columns (1/2, 1/2, 0, 0), e_2 and e_3: G[0][0] = 1 is one
    less than its target, and every other entry of G holds."""
    h = Fraction(1, 2)
    f = SosFormula(1, 3, 4, ring, [[[h, 0, 0]], [[h, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]])
    assert kernel_defects(f) == [(0, 0, 0, 0)] * 2 and naive_gram_defect(f) == (0, 0, 0, 0)


@pytest.mark.parametrize("ring, top", [
    (ZZ, 3), (ZZ, 2**70), (QQ, Fraction(3, 2)), (PrimeField(3), 1), (PrimeField(5), 2),
    (PrimeField(7), 3), (PrimeField(2147483647), 1073741823), (gaussian_ext(PrimeField(7)), (3, 3)),
])
@pytest.mark.parametrize("n", range(1, 13))
def test_gram_defect_at_the_lane_bound(ring, top, n):
    """Column 0 of B_0 holds n entries of the largest lift, so lane 0 of row 0
    nears the bound that the lane width is chosen from; column 1 is zero, e_0
    or a copy of column 0.  Over GF(p) the largest lift is (p - 1) / 2, which
    is -1/2, so column 0 has norm 1 when n = 4 (and n = 1, 7, 10 over GF(3)).
    With column 1 of B_0 the negated column 0, the top lane of row 0 of
    B_0^T B_0 is -beta, the least a lane of the block kernel's first block
    can hold before it borrows from the second."""
    for column in ([0] * n, [1] + [0] * (n - 1), [top] * n):
        f = SosFormula(1, 2, n, ring, [[[top, c]] for c in column])
        assert kernel_defects(f) == [naive_gram_defect(f)] * 2
    negated = ring.neg(ring.coerce(top))
    f = SosFormula(2, 2, n, ring, [[[top, negated], [top, top]]] * n)
    pair, block = kernel_rows(f)
    assert pair == block
    assert kernel_defects(f) == [naive_gram_defect(f)] * 2


def test_substitution_soundness_over_gf():
    rng = random.Random(5)
    ring = PrimeField(5)
    f = construct_classical("four").change_ring(ring)
    for _ in range(50):
        xs = [rng.randrange(5) for _ in range(4)]
        ys = [rng.randrange(5) for _ in range(4)]
        # z_k = sum_{i,j} T[k][i][j] x_i y_j, read off the tensor directly
        zs = [
            sum(c * xs[i] * ys[j] for i, row in enumerate(slice_k) for j, c in enumerate(row))
            for slice_k in dense_tensor(f)
        ]
        lhs = sum(v * v for v in xs) * sum(v * v for v in ys) % 5
        assert lhs == sum(v * v for v in zs) % 5


# -- the stored nonzeros against dense-scan oracles ---------------------------------


def dense_coerced(ring, raw):
    """The input tensor with every entry coerced, zeros included."""
    return tuple(tuple(tuple(ring.coerce(c) for c in row) for row in sl) for sl in raw)


def dense_z_poly(f, k):
    """z_k read off the dense tensor, scanning every entry."""
    zero, T = f.ring.zero(), dense_tensor(f)
    return SparsePoly(f.ring, {
        ((i, 1), (f.r + j, 1)): T[k][i][j]
        for i in range(f.r) for j in range(f.s) if T[k][i][j] != zero
    })


# (ring, nonzero entries, entries that coerce to zero there)
STORED_FORM_RINGS = [
    (ZZ, [1, -1, 2], [0]),
    (QQ, [1, -1, Fraction(1, 2), "-3/5"], [0, Fraction(0), "0/7"]),
    (PrimeField(3), [1, 2, 4], [0, 3, -3]),
    (PrimeField(13), [1, 5, 12, 14], [0, 13, 26]),
    (PrimeField(1259), [1, 629, 1258, -1], [0, 1259]),
    (gaussian_ext(ZZ), [1, -1, (0, 1), (1, 1)], [0, (0, 0)]),
]


@st.composite
def stored_form_cases(draw):
    """(ring, r, s, n, raw tensor): sparse or dense, with zeros in every form."""
    ring, nonzero, zeros = draw(st.sampled_from(STORED_FORM_RINGS))
    r, s, n = (draw(st.integers(1, 5)) for _ in range(3))
    weight = draw(st.sampled_from([6, 1, 0]))  # zeros per nonzero: sparse, mixed, dense
    entry = st.sampled_from(zeros * weight * len(nonzero) + nonzero)
    raw = [[[draw(entry) for _ in range(s)] for _ in range(r)] for _ in range(n)]
    return ring, r, s, n, raw


@settings(max_examples=200, deadline=None)
@given(stored_form_cases(), st.data())
def test_stored_nonzeros_match_dense_oracles(case, data):
    ring, r, s, n, raw = case
    f = SosFormula(r, s, n, ring, raw)
    T = dense_coerced(ring, raw)
    zero = ring.zero()
    assert dense_tensor(f) == T
    assert f.nonzeros == tuple(
        tuple((i, j, c) for i, row in enumerate(sl) for j, c in enumerate(row) if c != zero) for sl in T
    )
    for k in range(n):
        assert f.z_poly(k) == dense_z_poly(f, k)
    assert f.gram_defect() == naive_gram_defect(f)
    if r >= 2:
        u, v, _ = orthonormal_vectors(f)
        assert (u, v) == ([T[k][0][0] for k in range(n)], [T[k][1][0] for k in range(n)])
    # the JSON text holds every entry, zeros included, and loads back equal
    data_dict = f.to_json_dict()
    assert data_dict["tensor"] == [[[ring.element_to_json(c) for c in row] for row in sl] for sl in T]
    again = SosFormula.from_json(f.to_json())
    assert again == f and dense_tensor(again) == T and again.nonzeros == f.nonzeros
    # restriction: the leading r2 x s2 block of every slice
    r2, s2 = data.draw(st.integers(1, r), label="r2"), data.draw(st.integers(1, s), label="s2")
    block = [[[T[k][i][j] for j in range(s2)] for i in range(r2)] for k in range(n)]
    restricted = f.restrict(r2, s2)
    assert restricted == SosFormula(r2, s2, n, ring, block)
    assert dense_tensor(restricted) == dense_coerced(ring, block)
    # change of ring: every dense entry coerced into the target, which may raise
    targets = [gaussian_ext(ZZ), gaussian_ext(QQ)]
    if not isinstance(zero, tuple):
        targets += [ZZ, QQ, PrimeField(3), PrimeField(13)]
    target = data.draw(st.sampled_from(targets), label="target")
    try:
        oracle = SosFormula(r, s, n, target, T)
    except ValueError:
        with pytest.raises(ValueError):
            f.change_ring(target)
    else:
        changed = f.change_ring(target)
        assert changed == oracle and dense_tensor(changed) == dense_tensor(oracle)
        assert all(c != target.zero() for entries in changed.nonzeros for _, _, c in entries)


def test_change_ring_drops_entries_that_become_zero():
    f = SosFormula(1, 2, 1, ZZ, [[[13, 1]]])
    assert f.change_ring(PrimeField(13)).nonzeros == (((0, 1, 1),),)
    assert f.change_ring(PrimeField(13)) == SosFormula(1, 2, 1, PrimeField(13), [[[0, 1]]])


def test_bound_table_never_builds_the_dense_tensor(monkeypatch):
    """A formula has no dense view but its JSON form, which lists every
    entry; the bound table never writes it."""
    def refuse(self):
        raise AssertionError("the dense tensor was built")

    assert not hasattr(SosFormula, "tensor")
    monkeypatch.setattr(SosFormula, "to_json_dict", refuse)
    entries = bound_table(4, 64)
    assert len(entries) == 4 * 64
    with pytest.raises(AssertionError, match="dense tensor"):
        construct_trivial(1, 1).to_json()


# -- round trips ------------------------------------------------------------------


def test_json_round_trip_bit_exact():
    for f in (gauss(), construct_trivial(2, 2).change_ring(QQ), gauss().change_ring(PrimeField(3))):
        again = SosFormula.from_json(f.to_json())
        assert again == f
        assert again.to_json() == f.to_json()


def dense_to_json(f):
    """The former writer: every entry of the dense tensor, zeros included."""
    ring = f.ring
    tensor = [[[ring.element_to_json(c) for c in row] for row in slice_k] for slice_k in dense_tensor(f)]
    data = {"r": f.r, "s": f.s, "n": f.n, "field": ring_to_json(ring), "tensor": tensor}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def test_to_json_writes_each_nonzero_once_without_the_dense_tensor(monkeypatch):
    formulas = [
        gauss(),
        construct_trivial(2, 3).restrict(1, 2),  # zero slices
        dense_eight("degen", QQ),
        rotate_gaussian(dense_eight("hurwitz-radon", QQ).change_ring(QI)),
        construct_hurwitz_radon(12).change_ring(GaussianExt(PrimeField(7))),
    ]
    expected = [dense_to_json(f) for f in formulas]
    for f, text in zip(formulas, expected):
        ring_class, calls = type(f.ring), []
        to_json = ring_class.element_to_json
        with monkeypatch.context() as m:
            m.setattr(ring_class, "element_to_json", lambda self, a: calls.append(a) or to_json(self, a))
            assert f.to_json() == text
        assert len(calls) == 1 + sum(map(len, f.nonzeros))  # the zero, then each nonzero


def test_json_schema_shape():
    data = gauss().to_json_dict()
    assert data["field"] == {"kind": "Z"}
    assert data["r"] == data["s"] == data["n"] == 2
    # index order [k][i][j]: z1 = x1y1 - x2y2
    assert data["tensor"][0][0][0] == 1
    assert data["tensor"][0][1][1] == -1


# -- restriction --------------------------------------------------------------------


def test_restrict_degen_to_five_five():
    f = construct_classical("eight").restrict(5, 5)
    assert f.type_triple == (5, 5, 8)
    assert f.verify_by_expansion()


def test_restrict_trivial_and_identity_cases():
    f = construct_trivial(2, 2)
    assert f.restrict(1, 1).verify_by_expansion()
    assert f.restrict(2, 2) == f
    with pytest.raises(ValueError):
        f.restrict(0, 1)
    with pytest.raises(ValueError):
        f.restrict(3, 1)


def test_restrict_to_a_larger_type_raises():
    f = construct_hurwitz_radon(4)
    r, s, _ = f.type_triple
    for r2, s2 in ((r, s + 1), (r + 1, s)):
        with pytest.raises(ValueError, match="out of bounds"):
            f.restrict(r2, s2)


# -- Hurwitz-Radon family --------------------------------------------------------------


def test_hurwitz_radon_small_types():
    for n in (1, 2, 4, 8, 16, 64, 128, 256):
        f = construct_hurwitz_radon(n)
        assert f.type_triple == (rho(n), n, n)
        assert f.verify_by_expansion()
        assert f.verify_by_hurwitz()


def test_hurwitz_radon_entries_are_signs():
    f = construct_hurwitz_radon(16)
    entries = {c for slice_k in dense_tensor(f) for row in slice_k for c in row}
    assert entries <= {-1, 0, 1}


def test_hurwitz_radon_odd_factor():
    f = construct_hurwitz_radon(12)  # 12 = 4 * 3, rho = 4
    assert f.type_triple == (4, 12, 12)
    assert f.verify_by_expansion()


def test_hurwitz_radon_reduces_mod_p():
    for p in (3, 5):
        f = construct_hurwitz_radon(8).change_ring(PrimeField(p))
        assert f.verify_by_expansion()
        assert f.verify_by_hurwitz()


def test_every_constructed_formula_satisfies_hopf():
    formulas = [
        construct_trivial(2, 3),
        gauss(),
        construct_classical("four"),
        construct_classical("eight"),
        construct_hurwitz_radon(16),
        construct_classical("eight").restrict(5, 5),
        construct_classical("four").restrict(3, 3),
    ]
    for f in formulas:
        assert f.verify_by_expansion()
        assert hopf_admissible(*f.type_triple)


# -- orthonormal vectors ------------------------------------------------------------------


def test_orthonormal_vectors_gauss():
    u, v, ok = orthonormal_vectors(gauss())
    assert u == [1, 0]
    assert v == [0, 1]
    assert ok


def test_orthonormal_vectors_all_verified_formulas():
    for f in (
        construct_classical("four"),
        construct_classical("eight"),
        construct_hurwitz_radon(8),
        construct_trivial(3, 2),
    ):
        _, _, ok = orthonormal_vectors(f)
        assert ok


def test_orthonormal_vectors_needs_two_rows():
    with pytest.raises(ValueError):
        orthonormal_vectors(SosFormula(1, 1, 1, ZZ, [[[1]]]))


# -- homotopy checks -----------------------------------------------------------------------


def test_homotopy_formal_modes():
    assert homotopy_invariance_check("first")
    assert homotopy_invariance_check("second")


def test_homotopy_fails_without_orthogonality():
    assert not homotopy_invariance_check("second", omit_uv_relation=True)
    assert not homotopy_invariance_check("first", omit_uv_relation=True)


@pytest.mark.parametrize("omit", [False, True], ids=["uv", "no-uv"])
@pytest.mark.parametrize("mode", ["first", "second"])
@pytest.mark.parametrize("n", range(1, 13))
def test_homotopy_concrete_lengths(n, mode, omit):
    # the identity holds exactly when sum u*v = 0 is imposed
    assert homotopy_invariance_check(mode, n, omit_uv_relation=omit) is not omit


def oracle_reduce_modulo(poly, rules):
    """The former reducer: rewrite one term, rebuild the polynomial, rescan,
    until no term is divisible by a rule's leading monomial."""
    changed = True
    while changed:
        changed = False
        for lead, repl in rules:
            for mono, coeff in list(poly.terms.items()):
                exps = dict(mono)
                if all(exps.get(v, 0) >= e for v, e in lead):
                    rest = dict(exps)
                    for v, e in lead:
                        rest[v] -= e
                        if rest[v] == 0:
                            del rest[v]
                    rest_mono = tuple(sorted(rest.items()))
                    quotient = SparsePoly(poly.ring, {rest_mono: coeff})
                    poly = (poly - SparsePoly(poly.ring, {mono: coeff})) + quotient * repl
                    changed = True
                    break
            if changed:
                break
    return poly


@pytest.mark.parametrize("omit", [False, True], ids=["uv", "no-uv"])
@pytest.mark.parametrize("mode", ["first", "second"])
def test_one_pass_reduction_matches_fixpoint_oracle(monkeypatch, mode, omit):
    import sosforms.formulas as mod

    one_pass = mod._reduce_modulo
    reduced = []

    def checked(poly, rules):
        out = one_pass(poly, rules)
        assert out == oracle_reduce_modulo(poly, rules)
        reduced.append(out)
        return out

    monkeypatch.setattr(mod, "_reduce_modulo", checked)
    for n in range(1, 9):
        homotopy_invariance_check(mode, n, omit_uv_relation=omit)
    assert len(reduced) == 8
    # without the uv relation the residual cross terms survive the reduction
    assert all(out.is_zero is not omit for out in reduced)


def test_homotopy_rejects_bad_mode_and_ring():
    with pytest.raises(ValueError):
        homotopy_invariance_check("third")
    with pytest.raises(ValueError):
        homotopy_invariance_check("first", ring=ZZ)


@pytest.mark.parametrize("bad", [True, False, 0, -2, 2.0, "2"])
def test_homotopy_rejects_a_length_that_is_not_a_positive_int(bad):
    # a bool is an int in Python; True must not pass as n = 1
    for mode in ("first", "second"):
        with pytest.raises(ValueError, match="^n must be "):
            homotopy_invariance_check(mode, bad)


# -- misc validation -------------------------------------------------------------------------


def test_tensor_shape_validation():
    with pytest.raises(ValueError):
        SosFormula(2, 2, 2, ZZ, [[[1, 0], [0, 1]]])  # only one slice
    with pytest.raises(ValueError):
        SosFormula(2, 2, 2, ZZ, [[[1], [0]], [[0], [1]]])  # wrong row width


@pytest.mark.parametrize("bad", [1.0, True, "1", None])
def test_non_integer_dimensions_are_rejected(bad):
    for dims in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
        with pytest.raises(ValueError, match="must be integers"):
            SosFormula(*dims, ZZ, [[[1]]])


def test_gauss_tensor_read_as_matrices():
    # B_i[m] = T[m][i]: Gauss's formula is B_1 = I and B_2 = J
    f = gauss()
    b1 = [list(slice_m[0]) for slice_m in dense_tensor(f)]
    b2 = [list(slice_m[1]) for slice_m in dense_tensor(f)]
    assert b1 == [[1, 0], [0, 1]]
    assert b2 == [[0, -1], [1, 0]]
    assert f.gram_defect() is None
    assert f.verify_by_hurwitz()


def test_fixture_loader_rejects_corrupt_table(monkeypatch):
    import sosforms.formulas as mod

    corrupt = {"four": [[1, 2, 3, 4], [2, -1, 4, -3], [3, -4, -1, 2], [4, 3, -2, 1]]}
    monkeypatch.setattr(mod, "_load_tables", lambda: corrupt)
    monkeypatch.setattr(mod, "_TABLE_CACHE", {})
    with pytest.raises(ValueError, match="does not satisfy"):
        construct_classical("four")
