"""Composition formulas: verification oracles, constructions, transformations."""

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
from sosforms.poly import SparsePoly, poly_sum, sum_of_squares
from sosforms.rings import PrimeField, QQ, ZZ, gaussian_ext
from test_poly import dense_eight


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
    tensor = [list(map(list, slice_k)) for slice_k in f.tensor]
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
    still decide with the other's kernel disabled."""
    import sosforms.formulas
    import sosforms.poly

    def refuse(*args, **kwargs):
        raise AssertionError("the other verifier's kernel was called")

    good = [construct_hurwitz_radon(16), construct_classical("eight")]
    bad = [SosFormula._of_nonzeros(f.r, f.s, f.n, f.ring, (f.nonzeros[1],) + f.nonzeros[1:]) for f in good]
    with monkeypatch.context() as m:
        m.setattr(SosFormula, "gram_defect", refuse)
        assert all(f.verify_by_expansion() for f in good)
        assert not any(f.verify_by_expansion() for f in bad)
    monkeypatch.setattr(sosforms.poly, "sum_of_squares", refuse)
    monkeypatch.setattr(sosforms.formulas, "sum_of_squares", refuse)
    monkeypatch.setattr(sosforms.poly, "_packing", refuse)
    assert all(f.gram_defect() is None for f in good)
    assert all(f.gram_defect() is not None for f in bad)
    with pytest.raises(AssertionError, match="other verifier"):
        good[0].expansion_defect()


def test_zero_tensor_fails_hurwitz():
    f = SosFormula(1, 1, 1, ZZ, [[[0]]])
    assert not f.verify_by_hurwitz()
    assert not f.verify_by_expansion()


def test_expansion_hurwitz_equivalence_on_random_tensors():
    rng = random.Random(2024)
    for p in (3, 5):
        ring = PrimeField(p)
        for _ in range(100):
            r, s = rng.randint(1, 2), rng.randint(1, 3)
            n = rng.randint(1, 3)
            tensor = [
                [[rng.randrange(p) for _ in range(s)] for _ in range(r)] for _ in range(n)
            ]
            f = SosFormula(r, s, n, ring, tensor)
            assert f.verify_by_expansion() == f.verify_by_hurwitz()


# -- Gram defect against the naive oracle -----------------------------------------


def naive_gram_defect(f):
    """Every entry of B_a^T B_b + B_b^T B_a, with B_i[m][j] = T[m][i][j],
    summed over all n rows, zeros included, scanned in (a, b, j, k) order:
    the first that differs from 2 delta_ab delta_jk, or None."""
    ring = f.ring
    T = f.tensor
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


# (ring, nonzero entries); zeros are drawn far more often than these
RINGS_AND_ENTRIES = [
    (PrimeField(3), [1, 2]),
    (PrimeField(5), [1, 2, 3, 4]),
    (PrimeField(13), [1, 5, 8, 12]),
    (PrimeField(1259), [1, 2, 629, 1000, 1258]),
    (ZZ, [1, -1, 2]),
    (QQ, [1, -1, Fraction(1, 2), Fraction(-3, 5)]),
    (gaussian_ext(ZZ), [1, -1, (0, 1), (0, -1), (1, 1)]),
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
    old = f.tensor[k][i][j]
    tensor = [[list(row) for row in slice_k] for slice_k in f.tensor]
    tensor[k][i][j] = draw(st.sampled_from([v for v in (-1, 0, 1, 2) if v != old]))
    return SosFormula(f.r, f.s, f.n, ring, tensor)


@settings(max_examples=150, deadline=None)
@given(sparse_formulas())
def test_gram_defect_matches_oracle_on_sparse_tensors(f):
    assert f.gram_defect() == naive_gram_defect(f)
    assert f.verify_by_hurwitz() == f.verify_by_expansion() == (f.gram_defect() is None)


@settings(max_examples=30, deadline=None)
@given(corrupted_hurwitz_radon())
def test_gram_defect_matches_oracle_on_corrupted_hurwitz_radon(f):
    assert f.gram_defect() == naive_gram_defect(f)
    assert f.verify_by_hurwitz() == f.verify_by_expansion()


# -- the expansion defect against the former composition ------------------------------


def oracle_expansion_defect(f):
    """The former composition: the squares, then (sum x_i^2)(sum y_j^2) as its
    own product, negated and added in a separate sum."""
    ring = f.ring
    xs = poly_sum((SparsePoly.variable(ring, i, 2) for i in range(f.r)), ring)
    ys = poly_sum((SparsePoly.variable(ring, f.r + j, 2) for j in range(f.s)), ring)
    return sum_of_squares(f.z_polys(), ring) - xs * ys


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
    assert all(c != zero for slice_k in f.tensor for row in slice_k for c in row)
    assert f.gram_defect() is None is naive_gram_defect(f)


@pytest.mark.parametrize("ring", DENSE_RINGS)
@pytest.mark.parametrize("kind", ["hurwitz-radon", "degen"])
def test_expansion_defect_matches_oracle_on_dense_formulas(kind, ring):
    f = dense_eight(kind, ring)
    tensor = [[list(row) for row in sl] for sl in f.tensor]
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
    tensor = [[list(row) for row in slice_k] for slice_k in f.tensor]
    entry = st.tuples(*[st.integers(0, 7)] * 3)
    for k, i, j in data.draw(st.lists(entry, min_size=1, max_size=4, unique=True), label="entries"):
        delta = ring.coerce(data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]), label="delta"))
        tensor[k][i][j] = ring.add(tensor[k][i][j], delta)
    g = SosFormula(8, 8, 8, ring, tensor)
    assert g.gram_defect() == naive_gram_defect(g) is not None


def test_gram_defect_examples():
    assert construct_hurwitz_radon(16).gram_defect() is None
    # B_1 = I and B_2 = 0: B_2^T B_2 fails on its first diagonal entry
    zero_b2 = SosFormula(2, 2, 2, ZZ, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    assert zero_b2.gram_defect() == (1, 1, 0, 0)
    # Gauss with z1 = x1y1 + x2y2: B_1 = I and B_2 = [[0, 1], [1, 0]], so the
    # cross Gram matrix is 2 * B_2, which first fails at (j, k) = (0, 1)
    broken = [list(map(list, slice_k)) for slice_k in gauss().tensor]
    broken[0][1][1] = 1
    assert SosFormula(2, 2, 2, ZZ, broken).gram_defect() == (0, 1, 0, 1)


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
            for slice_k in f.tensor
        ]
        lhs = sum(v * v for v in xs) * sum(v * v for v in ys) % 5
        assert lhs == sum(v * v for v in zs) % 5


# -- the stored nonzeros against dense-scan oracles ---------------------------------


def dense_coerced(ring, raw):
    """The input tensor with every entry coerced, zeros included."""
    return tuple(tuple(tuple(ring.coerce(c) for c in row) for row in sl) for sl in raw)


def dense_z_poly(f, k):
    """z_k read off the dense tensor, scanning every entry."""
    zero, T = f.ring.zero(), f.tensor
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
    assert f.tensor == T
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
    assert again == f and again.tensor == T and again.nonzeros == f.nonzeros
    # restriction: the leading r2 x s2 block of every slice
    r2, s2 = data.draw(st.integers(1, r), label="r2"), data.draw(st.integers(1, s), label="s2")
    block = [[[T[k][i][j] for j in range(s2)] for i in range(r2)] for k in range(n)]
    restricted = f.restrict(r2, s2)
    assert restricted == SosFormula(r2, s2, n, ring, block)
    assert restricted.tensor == dense_coerced(ring, block)
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
        assert changed == oracle and changed.tensor == oracle.tensor
        assert all(c != target.zero() for entries in changed.nonzeros for _, _, c in entries)


def test_change_ring_drops_entries_that_become_zero():
    f = SosFormula(1, 2, 1, ZZ, [[[13, 1]]])
    assert f.change_ring(PrimeField(13)).nonzeros == (((0, 1, 1),),)
    assert f.change_ring(PrimeField(13)) == SosFormula(1, 2, 1, PrimeField(13), [[[0, 1]]])


def test_bound_table_never_builds_the_dense_tensor(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense tensor was built")

    monkeypatch.setattr(SosFormula, "tensor", property(refuse))
    entries = bound_table(4, 64)
    assert len(entries) == 4 * 64
    with pytest.raises(AssertionError, match="dense tensor"):
        construct_trivial(1, 1).tensor


# -- round trips ------------------------------------------------------------------


def test_json_round_trip_bit_exact():
    for f in (gauss(), construct_trivial(2, 2).change_ring(QQ), gauss().change_ring(PrimeField(3))):
        again = SosFormula.from_json(f.to_json())
        assert again == f
        assert again.to_json() == f.to_json()


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


# -- Hurwitz-Radon family --------------------------------------------------------------


def test_hurwitz_radon_small_types():
    for n in (1, 2, 4, 8, 16, 64, 128, 256):
        f = construct_hurwitz_radon(n)
        assert f.type_triple == (rho(n), n, n)
        assert f.verify_by_expansion()
        assert f.verify_by_hurwitz()


def test_hurwitz_radon_entries_are_signs():
    f = construct_hurwitz_radon(16)
    entries = {c for slice_k in f.tensor for row in slice_k for c in row}
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
        with pytest.raises(ValueError, match="positive integer"):
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
    b1 = [list(slice_m[0]) for slice_m in f.tensor]
    b2 = [list(slice_m[1]) for slice_m in f.tensor]
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
