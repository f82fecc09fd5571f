"""The deleted-quadric cohomology rings: normal forms, Bockstein, tensor
products, and the diagonal-power pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosforms import algebra, motivic
from sosforms.chow import ChowClass
from sosforms.grading import BiDegree
from sosforms.hopf import hopf_admissible
from sosforms.motivic import (
    DQClass,
    DQRingSpec,
    M2_ONE,
    M2_RHO,
    M2_TAU,
    M2Poly,
    TensorClass,
    diagonal_power,
    dq_power_a,
    hopf_via_motivic,
    motivic_binomial_mismatches,
    ring_additive_basis,
)


def tau_pow(t):
    return M2Poly.monomial(t, 0)


# rho = 0; rho formal with eps = 0; rho formal with eps = rho
MODELS = ((False, False), (True, False), (True, True))
m2_polys = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=3).map(M2Poly)


def dq_classes(spec):
    # raw exponents past the basis, so the constructor's reduction is exercised too
    keys = st.tuples(st.integers(0, 3), st.integers(0, spec.n // 2 + 1))
    return st.dictionaries(keys, m2_polys, max_size=4).map(lambda terms: DQClass(spec, terms))


def tensor_classes(left, right):
    keys = st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
    return st.dictionaries(keys, m2_polys, max_size=4).map(lambda terms: TensorClass(left, right, terms))


# -- coefficient model -----------------------------------------------------------


def test_m2_arithmetic_is_mod_two():
    assert (M2_TAU + M2_TAU).is_zero
    assert M2_TAU * M2_RHO == M2Poly.monomial(1, 1)
    assert (M2_ONE + M2_TAU) * (M2_ONE + M2_TAU) == M2_ONE + tau_pow(2)


def test_m2_bidegrees():
    assert M2_TAU.bidegrees() == {BiDegree(0, 1)}
    assert M2_RHO.bidegrees() == {BiDegree(1, 1)}


# -- ring specs and bases -----------------------------------------------------------


def test_spec_basis_counts_and_degrees():
    for n in range(0, 21):
        spec = DQRingSpec(n)
        basis = spec.basis_monomials()
        assert len(basis) == n + 1
        degrees = [BiDegree(e + 2 * j, e + j) for e, j in basis]
        assert degrees == [BiDegree(i, (i + 1) // 2) for i in range(n + 1)]
        if n % 2 == 0:
            assert (1, spec.k) not in basis


def test_ring_additive_basis_examples():
    assert ring_additive_basis(2) == [BiDegree(0, 0), BiDegree(1, 1), BiDegree(2, 1)]
    assert ring_additive_basis(3) == [
        BiDegree(0, 0), BiDegree(1, 1), BiDegree(2, 1), BiDegree(3, 2),
    ]
    assert ring_additive_basis(1) == [BiDegree(0, 0), BiDegree(1, 1)]


def test_eps_normalized_away_without_rho():
    assert not DQRingSpec(4, rho=False, eps_is_rho=True).eps_is_rho
    assert not DQRingSpec(5, rho=True, eps_is_rho=True).eps_is_rho  # odd: no eps
    assert DQRingSpec(4, rho=True, eps_is_rho=True).eps_is_rho


# -- multiplication ------------------------------------------------------------------


def test_mul_examples():
    a3 = DQClass.gen_a(DQRingSpec(3))
    assert a3 * a3 == DQClass(DQRingSpec(3), {(0, 1): M2_TAU})  # a*a = tau b
    b3 = DQClass.gen_b(DQRingSpec(3))
    assert (b3 * b3).is_zero  # b^2 = 0 when k = 1
    spec2 = DQRingSpec(2)
    assert (DQClass.gen_a(spec2) * DQClass.gen_b(spec2)).is_zero  # a b^k = 0


def test_mul_with_formal_rho():
    spec = DQRingSpec(3, rho=True)
    a = DQClass.gen_a(spec)
    assert a * a == DQClass(spec, {(1, 0): M2_RHO, (0, 1): M2_TAU})


def test_mul_spec_mismatch():
    with pytest.raises(ValueError):
        DQClass.gen_a(DQRingSpec(3)) * DQClass.gen_a(DQRingSpec(5))


def test_eps_rho_rewrites_middle_product():
    spec = DQRingSpec(4, rho=True, eps_is_rho=True)
    a, b = DQClass.gen_a(spec), DQClass.gen_b(spec)
    ab2 = a * b * b  # a b^k with k = 2
    assert ab2 == DQClass(spec, {(0, 2): M2_RHO})


# -- powers of a -----------------------------------------------------------------------


def test_power_examples():
    assert dq_power_a(DQRingSpec(5), 5).to_text() == "t^2*a*b^2"
    assert dq_power_a(DQRingSpec(5), 6).is_zero
    assert dq_power_a(DQRingSpec(1, rho=True), 2).to_text() == "r*a"


def test_power_vanishing_threshold():
    for n in range(0, 26):
        spec = DQRingSpec(n)
        for i in range(0, n + 1):
            assert not dq_power_a(spec, i).is_zero
        assert dq_power_a(spec, n + 1).is_zero


def test_power_closed_form_before_truncation():
    big = DQRingSpec(101)  # no truncation in range
    for m in range(0, 31):
        even = dq_power_a(big, 2 * m)
        odd = dq_power_a(big, 2 * m + 1)
        assert even == DQClass(big, {(0, m): tau_pow(m)})
        assert odd == DQClass(big, {(1, m): tau_pow(m)})


# -- Bockstein ---------------------------------------------------------------------------


def test_bockstein_generators():
    spec = DQRingSpec(9, rho=True)
    a, b = DQClass.gen_a(spec), DQClass.gen_b(spec)
    assert a.bockstein() == b
    assert b.bockstein().is_zero
    tau_one = DQClass(spec, {(0, 0): M2_TAU})
    assert tau_one.bockstein() == DQClass(spec, {(0, 0): M2_RHO})


def test_bockstein_on_a_b_powers():
    spec = DQRingSpec(11)
    a, b = DQClass.gen_a(spec), DQClass.gen_b(spec)
    for i in range(0, 5):
        assert (a * b ** i).bockstein() == b ** (i + 1)


def test_bockstein_squares_to_zero_on_bases():
    for n in range(0, 21):
        spec = DQRingSpec(n, rho=True)
        for (e, j) in spec.basis_monomials():
            x = DQClass(spec, {(e, j): M2_ONE})
            assert x.bockstein().bockstein().is_zero


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bockstein_leibniz_on_random_classes(data):
    spec = DQRingSpec(data.draw(st.sampled_from((4, 7, 10))), rho=True)
    x, y = data.draw(dq_classes(spec)), data.draw(dq_classes(spec))
    assert (x * y).bockstein() == x.bockstein() * y + x * y.bockstein()


def test_bockstein_raises_first_degree_by_one():
    spec = DQRingSpec(8, rho=True)
    x = DQClass(spec, {(1, 2): M2_TAU})
    deg = x.bidegree()
    image = x.bockstein()
    for term_deg in [image.bidegree()]:
        assert term_deg == BiDegree(deg.p + 1, deg.q)


# -- restriction --------------------------------------------------------------------------


def test_restriction_examples():
    for k in (1, 2, 3):
        top = DQRingSpec(2 * k + 1)
        bk = DQClass.gen_b(top) ** k
        down = bk.restrict()
        assert down.spec.n == 2 * k
        assert not down.is_zero
        abk = DQClass.gen_a(top) * bk
        assert abk.restrict().is_zero  # a b^k dies when eps = 0
    b2 = DQClass.gen_b(DQRingSpec(2))
    assert b2.restrict().is_zero  # b = 0 in the ring of DQ_1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_restriction_is_ring_map(data):
    spec = DQRingSpec(data.draw(st.sampled_from((3, 4, 6, 9))), rho=data.draw(st.booleans()))
    x, y = data.draw(dq_classes(spec)), data.draw(dq_classes(spec))
    assert (x * y).restrict() == x.restrict() * y.restrict()


# -- tensor products ------------------------------------------------------------------------


def _pair(r, s):
    return DQRingSpec(r - 1), DQRingSpec(s - 1)


def test_tensor_bilinearity_example():
    left, right = _pair(4, 4)
    a1 = TensorClass.a_left(left, right)
    a2 = TensorClass.a_right(left, right)
    prod = a1 * a2
    assert prod == TensorClass(left, right, {(1, 0, 1, 0): M2_ONE})


def test_tensor_factors_must_share_model():
    with pytest.raises(ValueError):
        TensorClass(DQRingSpec(2, rho=True), DQRingSpec(2, rho=False))


def test_tensor_left_square_dies_in_dq1():
    left, right = _pair(2, 2)
    a1 = TensorClass.a_left(left, right)
    assert (a1 * a1).is_zero  # a^2 = tau b and b = 0 in the ring of DQ_1


def test_tensor_b_power_truncates():
    left, right = _pair(4, 6)  # right ring is DQ_5, k = 2
    b2 = TensorClass(left, right, {(0, 0, 0, 1): M2_ONE})
    assert (b2 ** 2).to_text() == "b2^2"
    assert (b2 ** 3).is_zero


def test_tensor_product_basis_is_full_product():
    left, right = _pair(3, 4)
    count = 0
    for (e1, j1) in left.basis_monomials():
        for (e2, j2) in right.basis_monomials():
            cls = TensorClass(left, right, {(e1, j1, e2, j2): M2_ONE})
            assert not cls.is_zero
            count += 1
    assert count == 3 * 4


# -- diagonal powers and the two engines -----------------------------------------------------


def test_diagonal_power_spot_values():
    assert diagonal_power(2, 2, 2).is_zero
    assert diagonal_power(4, 4, 4).is_zero
    d333 = diagonal_power(3, 3, 3)
    assert not d333.is_zero
    assert d333.to_text() == "t*a1*b2 + t*b1*a2"


def test_diagonal_power_surviving_monomials():
    # survivors are exactly i with C(n, i) odd, i <= r-1, n-i <= s-1
    r, s, n = 5, 4, 6
    power = diagonal_power(r, s, n)
    survivors = set()
    for (e1, j1, e2, j2) in power.terms:
        survivors.add(e1 + 2 * j1)
    expected = {
        i
        for i in range(n + 1)
        if (i & n) == i and i <= r - 1 and n - i <= s - 1
    }
    assert survivors == expected


def test_hopf_via_motivic_examples():
    assert hopf_via_motivic(2, 2, 2)
    assert not hopf_via_motivic(3, 3, 3)
    assert hopf_via_motivic(5, 5, 8)


def test_engines_agree_small_sweep():
    assert motivic_binomial_mismatches(8, 8, 16) == []


def test_engines_agree_spot_triples():
    for (r, s, n) in ((1, 1, 1), (1, 5, 5), (6, 2, 8), (7, 7, 7), (7, 7, 8)):
        assert hopf_via_motivic(r, s, n) == hopf_admissible(r, s, n)


# -- ring axioms and grading -------------------------------------------------------------------


def assert_z2_algebra_axioms(x, y, z, zero, one):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x * one == x and x + zero == x
    assert x + x == zero  # characteristic 2


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dq_ring_axioms_on_random_classes(data):
    rho, eps = data.draw(st.sampled_from(MODELS))
    spec = DQRingSpec(data.draw(st.integers(0, 9)), rho=rho, eps_is_rho=eps)
    x, y, z = (data.draw(dq_classes(spec)) for _ in range(3))
    assert_z2_algebra_axioms(x, y, z, DQClass.zero(spec), DQClass.one(spec))


def term_bidegrees(x):
    return {BiDegree(e + 2 * j, e + j) + d for (e, j), c in x.terms.items() for d in c.bidegrees()}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dq_mul_adds_bidegrees(data):
    spec = DQRingSpec(11, rho=True)
    x, y = data.draw(dq_classes(spec)), data.draw(dq_classes(spec))
    sums = {dx + dy for dx in term_bidegrees(x) for dy in term_bidegrees(y)}
    assert term_bidegrees(x * y) <= sums
    if x.bidegree() and y.bidegree() and not (x * y).is_zero:
        assert (x * y).bidegree() == x.bidegree() + y.bidegree()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_ring_axioms_on_random_classes(data):
    rho, eps = data.draw(st.sampled_from(MODELS))
    left = DQRingSpec(data.draw(st.integers(0, 5)), rho=rho, eps_is_rho=eps)
    right = DQRingSpec(data.draw(st.integers(0, 5)), rho=rho, eps_is_rho=eps)
    x, y, z = (data.draw(tensor_classes(left, right)) for _ in range(3))
    zero, one = TensorClass.zero(left, right), TensorClass.one(left, right)
    assert_z2_algebra_axioms(x, y, z, zero, one)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rho_to_zero_is_a_ring_map(data):
    # re-normalising into the rho = 0 ring (which also sends eps = rho to 0)
    # commutes with the product, in one ring and in a tensor product
    eps = data.draw(st.booleans())
    n, m = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
    formal, flat = DQRingSpec(n, rho=True, eps_is_rho=eps), DQRingSpec(n)
    x, y = data.draw(dq_classes(formal)), data.draw(dq_classes(formal))
    assert DQClass(flat, (x * y).terms) == DQClass(flat, x.terms) * DQClass(flat, y.terms)
    other = DQRingSpec(m, rho=True, eps_is_rho=eps)
    u, v = data.draw(tensor_classes(formal, other)), data.draw(tensor_classes(formal, other))
    flat_other = DQRingSpec(m)

    def strip(w):
        return TensorClass(flat, flat_other, w.terms)

    assert strip(u * v) == strip(u) * strip(v)
    assert strip(u + v) == strip(u) + strip(v)


# -- rendering --------------------------------------------------------------------------------


def test_render_ordering_and_symbols():
    spec = DQRingSpec(7, rho=True)
    cls = DQClass(spec, {(1, 2): tau_pow(2), (0, 1): M2_RHO})
    assert cls.to_text() == "t^2*a*b^2 + r*b"


def test_render_zero_and_one():
    spec = DQRingSpec(3)
    assert DQClass.zero(spec).to_text() == "0"
    assert DQClass.one(spec).to_text() == "1"


# -- malformed monomials -------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: DQClass(DQRingSpec(4), {(0, -1): M2_ONE}),
        lambda: DQClass(DQRingSpec(4), {(0, 1, 0): M2_ONE}),
        lambda: DQClass(DQRingSpec(4), {(1,): M2_ONE}),
        lambda: DQClass(DQRingSpec(4), {(True, 0): M2_ONE}),
        lambda: DQClass(DQRingSpec(4), {(1.0, 0): M2_ONE}),
        lambda: DQClass(DQRingSpec(4), {"ab": M2_ONE}),
        lambda: TensorClass(DQRingSpec(2), DQRingSpec(2), {(1, 0, 0): M2_ONE}),
        lambda: TensorClass(DQRingSpec(2), DQRingSpec(2), {(1, 0, 0, -1): M2_ONE}),
        lambda: ChowClass(4, {(-1, 0): 1}),
        lambda: ChowClass(4, {(0,): 1}),
        lambda: ChowClass.monomial(4, 1, -1),
        lambda: M2Poly([(-1, 0)]),
        lambda: M2Poly([(1,)]),
        lambda: M2Poly([("a", 0)]),
        lambda: M2Poly([(0, False)]),
        lambda: M2Poly([[1, 0]]),
        lambda: M2Poly.monomial(0, -2),
    ],
)
def test_malformed_monomials_are_rejected(make):
    # they used to print as b^-1, x^-1, t^-1, t and t^a, or fail deep in the reduction
    with pytest.raises(ValueError, match="^a monomial is a tuple of [24] integers >= 0"):
        make()


def test_products_take_the_unchecked_path(monkeypatch):
    spec = DQRingSpec(9, rho=True)
    a, b = DQClass.gen_a(spec), DQClass.gen_b(spec)
    left, right = DQRingSpec(4, rho=True), DQRingSpec(6, rho=True)
    x = TensorClass.a_left(left, right) + TensorClass.a_right(left, right)
    c = ChowClass.x(6) + ChowClass.y(6)
    t = M2_TAU + M2_RHO
    expected = [(a + b) ** 7, a * b * a, x ** 9, c ** 5, (t * t + t).strip_rho()]

    def refuse(*args):
        raise AssertionError("an internal product re-checked its monomials")

    monkeypatch.setattr(algebra, "require_exponents", refuse)
    monkeypatch.setattr(motivic, "require_exponents", refuse)
    assert [(a + b) ** 7, a * b * a, x ** 9, c ** 5, (t * t + t).strip_rho()] == expected
