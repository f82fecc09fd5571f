"""Sparse polynomial arithmetic and the coordinate change."""

from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosforms.poly
from sosforms.formulas import SosFormula, construct_classical, construct_hurwitz_radon
from sosforms.poly import (
    SparsePoly,
    _check_ring,
    _lift,
    _packing,
    _row_dots,
    _text_order,
    hyperbolic_coordinate_change,
    poly_sum,
    sum_of_squares,
)
from sosforms.rings import CoeffRing, GaussianExt, PrimeField, QQ, ZZ, gaussian_ext
from test_rings import unreduced_dot


def var(ring, v):
    return SparsePoly.variable(ring, v)


# -- the former kernels, kept as oracles ------------------------------------------


def oracle_mono_mul(m1, m2):
    """The former monomial product: add exponents in a dict, then sort."""
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def oracle_mul_terms(ring, t1, t2):
    """The former product: every ordered pair of terms, zeros dropped at the end."""
    terms = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            mono = oracle_mono_mul(m1, m2)
            c = ring.mul(c1, c2)
            if mono in terms:
                terms[mono] = ring.add(terms[mono], c)
            else:
                terms[mono] = c
    return {m: c for m, c in terms.items() if c != ring.zero()}


def oracle_pow_terms(f, e):
    terms = {(): f.ring.one()}
    for _ in range(e):
        terms = oracle_mul_terms(f.ring, terms, f.terms)
    return terms


def oracle_add_terms(ring, t1, t2):
    terms = dict(t1)
    for mono, c in t2.items():
        terms[mono] = ring.add(terms[mono], c) if mono in terms else c
    return {m: c for m, c in terms.items() if c != ring.zero()}


def oracle_sum(polys, ring):
    """The former poly_sum: a left fold of the former +."""
    terms = {}
    for p in polys:
        terms = oracle_add_terms(ring, terms, p.terms)
    return SparsePoly(ring, terms)


ORACLE_RINGS = [ZZ, QQ, PrimeField(3), PrimeField(13), gaussian_ext(ZZ), gaussian_ext(QQ)]


def coefficients(ring, far=False):
    """Small coefficients; over Q and Q[i] with denominators up to 3, or
    with ``far`` only 5 and 7, which no other draw has."""
    if isinstance(ring, GaussianExt):
        part = coefficients(ring.base, far) if ring.base == QQ else st.integers(-2, 2)
        return st.tuples(part, part).map(ring.coerce)
    if ring == QQ and far:
        return st.builds(Fraction, st.integers(-3, 3), st.sampled_from([5, 7])).map(ring.coerce)
    if ring == QQ:
        return st.fractions(min_value=-2, max_value=2, max_denominator=3).map(ring.coerce)
    return st.integers(-3, 3).map(ring.coerce)


# Few variables, exponents up to 3 and the constant monomial: products share
# variables, merged exponents exceed 1, and coefficients often cancel.
monomials = st.dictionaries(st.integers(0, 3), st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)


def polys(ring, max_terms=6, far=False):
    return st.dictionaries(monomials, coefficients(ring, far), max_size=max_terms).map(
        lambda terms: SparsePoly(ring, terms)
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_matches_oracle(data):
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    f, g = data.draw(polys(ring)), data.draw(polys(ring))
    assert (f * g).terms == oracle_mul_terms(ring, f.terms, g.terms)
    # (f + g)(f - g): the cross terms f*g and -g*f cancel inside one product
    assert ((f + g) * (f - g)).terms == oracle_mul_terms(ring, (f + g).terms, (f - g).terms)
    assert (f + g).terms == oracle_add_terms(ring, f.terms, g.terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_square_matches_oracle(data):
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    f = data.draw(polys(ring))
    assert (f * f).terms == oracle_mul_terms(ring, f.terms, f.terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_power_matches_oracle(data):
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    f = data.draw(polys(ring, max_terms=4))
    e = data.draw(st.integers(0, 4))
    assert (f ** e).terms == oracle_pow_terms(f, e)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_poly_sum_matches_left_fold(data):
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    addends = data.draw(st.lists(polys(ring), max_size=6))
    # the negatives of some addends, so that whole terms cancel
    addends += [-p for p in data.draw(st.lists(st.sampled_from(addends), max_size=3))] if addends else []
    assert poly_sum(addends, ring) == oracle_sum(addends, ring)
    assert poly_sum(iter(addends), ring) == oracle_sum(addends, ring)


def test_cancelling_terms_are_dropped():
    x, y = var(ZZ, 0), var(ZZ, 1)
    assert ((x + y) * (x - y)).terms == {((0, 2),): 1, ((1, 2),): -1}
    # (2x^2 + 1 - 2x^4)^2: the x^4 square 4x^4 meets the cross term -4x^4
    f = 2 * x ** 2 + 1 - 2 * x ** 4
    square = f * f
    assert ((0, 4),) not in square.terms
    assert square.terms == oracle_mul_terms(ZZ, f.terms, f.terms)
    assert square == f ** 2
    gf3 = PrimeField(3)
    u, w = var(gf3, 0), var(gf3, 1)
    assert ((u + w) * (u + w)).terms == {((0, 2),): 1, ((0, 1), (1, 1)): 2, ((1, 2),): 1}
    assert (u + w) ** 3 == u ** 3 + w ** 3


def test_poly_sum_over_mixed_rings_raises():
    gf3, gf5 = PrimeField(3), PrimeField(5)
    with pytest.raises(ValueError):
        poly_sum([var(ZZ, 0), var(gf3, 0)], ZZ)
    with pytest.raises(ValueError):
        poly_sum([var(gf5, 0)], gf3)
    with pytest.raises(ValueError):
        poly_sum([var(gf3, 0), SparsePoly.zero(gf5)], gf3)
    assert poly_sum([], gf3) == SparsePoly.zero(gf3)


# -- sum_of_squares -------------------------------------------------------------------


def oracle_sum_of_squares(polys, ring):
    """The left fold of the former square of each poly."""
    return oracle_sum([SparsePoly(ring, oracle_mul_terms(ring, p.terms, p.terms)) for p in polys], ring)


def dot_sum_of_squares(polys, ring, minus=None):
    """The former sum_of_squares, kept as the oracle of the packed row
    kernel where the left fold is too slow: per group of polys with one
    support, the packed product of each pair of support terms once, with
    its coefficient the dot product of the two terms' columns over the
    group's rows.  Each packed monomial gathers the factors of its cross
    products, which count twice, apart from those of its squares and of the
    negated products of ``minus``; each of the two sums is formed once by
    ``unreduced_dot`` and coerced."""
    groups = {}
    for p in polys:
        _check_ring(ring, p.ring)
        groups.setdefault(tuple(p.terms), []).append(list(p.terms.values()))
    minus = minus or ()
    for p in minus:
        _check_ring(ring, p.ring)
    pack, unpack = _packing([*groups, *(p.terms for p in minus)])
    cross, rest = {}, {}  # packed monomial -> (left factors, right factors)

    def gather(into, k, xs, ys):
        left, right = into.setdefault(k, ([], []))
        left += xs
        right += ys

    for support, rows in groups.items():
        items = [(pack(m), col) for m, col in zip(support, zip(*rows))]
        for a, (k1, col) in enumerate(items):
            for k2, col2 in items[a + 1 :]:
                gather(cross, k1 + k2, col, col2)
            gather(rest, k1 + k1, col, col)
    if minus:
        left, right = minus
        for m1, c1 in left.terms.items():
            for m2, c2 in right.terms.items():
                gather(rest, pack(m1) + pack(m2), [ring.neg(c1)], [c2])

    def total(k):
        twice, once = (ring.coerce(unreduced_dot(ring, *sums.get(k, ([], [])))) for sums in (cross, rest))
        return ring.add(ring.add(twice, twice), once)

    zero = ring.zero()
    totals = {k: total(k) for k in {**cross, **rest}}
    return SparsePoly._new(ring, {unpack(k): c for k, c in totals.items() if c != zero})


# The rings of the packed row kernel's tests: ORACLE_RINGS, an 11-bit
# prime, and a Gaussian extension of GF(7).
GROUP_RINGS = ORACLE_RINGS + [PrimeField(1259), gaussian_ext(PrimeField(7))]


def wide_parts(ring, negative=False, integral=False):
    """Parts of coefficients of ``ring`` (the ring itself, or the base of a
    Gaussian extension): ints up to +-2^130, and over Q fractions whose
    numerators and denominators reach 2^130, or with ``integral`` Fractions
    with denominator 1; all < 0 when ``negative``."""
    base = ring.base if isinstance(ring, GaussianExt) else ring
    ints = st.one_of(st.integers(-3, 3), st.integers(-(2**130), 2**130))
    if negative:
        ints = ints.map(lambda v: -abs(v) or -1)
    if base == QQ:
        denominators = st.just(1) if integral else st.one_of(st.integers(1, 3), st.integers(1, 2**130))
        return st.builds(Fraction, ints, denominators)
    return ints


def group_column(data, ring, height, whole):
    """``height`` coefficients for one support term: free, the same in every
    row, all negative (in every part), or over a Gaussian ring purely real
    or purely imaginary, so that a part's column is all zero.  ``whole`` is
    drawn once per group: "integral" keeps every part over Q an integer,
    and "real" every coefficient over a Gaussian ring real."""
    gaussian = isinstance(ring, GaussianExt)
    modes = ["free", "constant", "negative"] + (["real", "imaginary"] if gaussian else [])
    mode = "real" if whole == "real" else data.draw(st.sampled_from(modes))
    part = wide_parts(ring, negative=mode == "negative", integral=whole == "integral")
    if gaussian:
        zero = st.just(0)
        element = st.tuples(zero if mode == "imaginary" else part, zero if mode == "real" else part)
    else:
        element = part
    if mode == "constant":
        return [ring.coerce(data.draw(element))] * height
    return [ring.coerce(v) for v in data.draw(st.lists(element, min_size=height, max_size=height))]


def shared_support_group(data, ring, support):
    """Polys whose term maps list ``support`` in that order: up to 40 rows,
    copies of up to four distinct ones whose columns ``group_column`` draws
    (a zero coefficient drops its monomial, so that poly leaves the group),
    plus copies with some signs flipped, whose cross terms cancel, and,
    where the ring has a square root of -1 and the group need not stay
    real, i times a poly, whose square cancels."""
    gaussian, rational = isinstance(ring, GaussianExt), QQ in (ring, getattr(ring, "base", None))
    whole = data.draw(st.sampled_from([None] + ["integral"] * rational + ["real"] * gaussian))
    distinct = data.draw(st.integers(1, 4))
    columns = [group_column(data, ring, distinct, whole) for _ in support]
    coeffs = [[column[k] for column in columns] for k in range(distinct)]
    rows = data.draw(st.lists(st.sampled_from(range(distinct)), min_size=1, max_size=40))
    group = [SparsePoly(ring, dict(zip(support, coeffs[k]))) for k in rows]
    for cs in data.draw(st.lists(st.sampled_from(coeffs), max_size=2)):
        signs = data.draw(st.lists(st.booleans(), min_size=len(cs), max_size=len(cs)))
        flipped = {m: ring.neg(c) if flip else c for m, c, flip in zip(support, cs, signs)}
        group.append(SparsePoly(ring, flipped))
    i_elt = ring.sqrt_minus_one()
    if i_elt is not None and whole != "real" and data.draw(st.booleans()):
        group.append(SparsePoly(ring, {m: ring.mul(i_elt, c) for m, c in group[0].terms.items()}))
    return group


supports = st.lists(monomials, max_size=6, unique=True)  # the empty support included


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_of_squares_matches_oracle_on_shared_supports(data):
    ring = data.draw(st.sampled_from(GROUP_RINGS))
    group = shared_support_group(data, ring, data.draw(supports))
    assert sum_of_squares(group, ring) == oracle_sum_of_squares(group, ring)
    assert sum_of_squares(group, ring) == dot_sum_of_squares(group, ring)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sum_of_squares_matches_oracle_on_mixed_supports(data):
    ring = data.draw(st.sampled_from(GROUP_RINGS))
    group = [
        p for support in data.draw(st.lists(supports, max_size=3))
        for p in shared_support_group(data, ring, support)
    ]
    group += data.draw(st.lists(polys(ring), max_size=3))
    group = data.draw(st.permutations(group))
    assert sum_of_squares(group, ring) == oracle_sum_of_squares(group, ring)
    assert sum_of_squares(iter(group), ring) == oracle_sum_of_squares(group, ring)
    assert sum_of_squares(group[:1], ring) == oracle_sum_of_squares(group[:1], ring)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sum_of_squares_of_one_monomial_set_in_two_orders(data):
    ring = data.draw(st.sampled_from(GROUP_RINGS))
    support = data.draw(supports)
    other = data.draw(st.permutations(support))
    group = shared_support_group(data, ring, support) + shared_support_group(data, ring, other)
    group = data.draw(st.permutations(group))
    assert sum_of_squares(group, ring) == oracle_sum_of_squares(group, ring)


def test_sum_of_squares_small_cases():
    assert sum_of_squares([], ZZ) == SparsePoly.zero(ZZ)
    assert sum_of_squares([SparsePoly.zero(QQ)] * 3, QQ) == SparsePoly.zero(QQ)
    x, y = var(ZZ, 0), var(ZZ, 1)
    # Gauss: (x + y)^2 + (x - y)^2 = 2x^2 + 2y^2, the cross terms cancel
    assert sum_of_squares([x + y, x - y], ZZ) == 2 * x * x + 2 * y * y
    zi = gaussian_ext(ZZ)
    u = var(zi, 0) + 1
    assert sum_of_squares([u, u * zi.sqrt_minus_one()], zi).is_zero



@pytest.mark.parametrize("ring", [ZZ, PrimeField(3), gaussian_ext(QQ)])
def test_split_supports_are_squared_as_one_group_only_when_that_forms_fewer_products(ring, monkeypatch):
    """Supports of sizes t_g over a union of U monomials form one group
    exactly when U (U + 1) < sum_g t_g (t_g + 1): not {x0 x1, x0 x2}
    (12 = 6 + 6), but {x0 x1 x2, x0 x1 x3} (20 < 12 + 12); the missing
    entries are zeros, (0, 0) over a Gaussian ring."""
    fills, fill = [], sosforms.poly._fill_rows
    monkeypatch.setattr(sosforms.poly, "_fill_rows", lambda *args: fills.append(args) or fill(*args))
    c = ring.coerce((2, -1)) if isinstance(ring, GaussianExt) else ring.coerce(2)
    x = [SparsePoly.variable(ring, v) for v in range(4)]
    for group, united in (
        ([x[0], x[1]], False),
        ([x[0] + x[1], x[0] + c * x[2]], False),
        ([x[0] + x[1] + x[2], c * x[0] - x[1] + x[3], x[0] + x[1] + x[2]], True),
    ):
        fills.clear()
        assert sum_of_squares(group, ring) == oracle_sum_of_squares(group, ring)
        assert bool(fills) == united


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sum_of_squares_minus_a_product_matches_oracle(data):
    """The subtracted product may use variables that no square has (ids up to
    10^6, exponents up to 2^40), may cancel the squares term by term, and
    over Q and Q[i] may have denominators that no square has."""
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    monos = wide_monomials(data)
    wide_polys = st.dictionaries(monos, coefficients(ring), max_size=5).map(lambda t: SparsePoly(ring, t))
    group = data.draw(st.lists(st.one_of(polys(ring), wide_polys), max_size=4))
    left = data.draw(st.one_of(polys(ring), wide_polys, polys(ring, far=True)))
    right = data.draw(st.one_of(polys(ring), wide_polys, polys(ring, far=True)))
    for minus in ((left, right), (left, left), (right, SparsePoly.zero(ring))):
        product = SparsePoly(ring, oracle_mul_terms(ring, *(p.terms for p in minus)))
        oracle = oracle_sum([oracle_sum_of_squares(group, ring), -product], ring)
        assert sum_of_squares(group, ring, minus=minus) == oracle
    # the squares of the group itself, subtracted, leave nothing
    square = oracle_sum_of_squares(group[:1], ring)
    assert sum_of_squares(group[:1], ring, minus=(square, SparsePoly.constant(ring, 1))).is_zero


def test_sum_of_squares_minus_a_product_small_cases():
    x, y = var(ZZ, 0), var(ZZ, 1)
    # Gauss: (x + y)^2 + (x - y)^2 - 2(x^2 + y^2) = 0
    assert sum_of_squares([x + y, x - y], ZZ, minus=(2 * x * x + 2 * y * y, SparsePoly.constant(ZZ, 1))).is_zero
    # y appears only in the product: it still gets a bit field
    assert sum_of_squares([x], ZZ, minus=(x, y)) == x * x - x * y
    assert sum_of_squares([], ZZ, minus=(x, y)) == -(x * y)
    with pytest.raises(ValueError):
        sum_of_squares([x], ZZ, minus=(x, var(PrimeField(3), 1)))


def test_sum_of_squares_over_mixed_rings_raises():
    gf3, gf5 = PrimeField(3), PrimeField(5)
    with pytest.raises(ValueError):
        sum_of_squares([var(ZZ, 0), var(gf3, 0)], ZZ)
    with pytest.raises(ValueError):
        sum_of_squares([var(gf5, 0)], gf3)
    with pytest.raises(ValueError):  # one support, so one group, over two rings
        sum_of_squares([var(gf3, 0), var(gf5, 0)], gf3)


def dense_tensor(f):
    """The dense tensor T[k][i][j] of ``f`` as nested tuples, built from its
    nonzeros."""
    zero = f.ring.zero()
    dense = []
    for entries in f.nonzeros:
        rows = [[zero] * f.s for _ in range(f.r)]
        for i, j, c in entries:
            rows[i][j] = c
        dense.append(tuple(map(tuple, rows)))
    return tuple(dense)


def householder_dense(f, ring, v):
    """f with z -> H z for the reflection H = I - 2 v v^T / <v, v>, over ring."""
    n = f.n
    scale = Fraction(2, sum(a * a for a in v))
    h = [[int(k == l) - scale * v[k] * v[l] for l in range(n)] for k in range(n)]
    T = dense_tensor(f)
    tensor = [
        [[sum(h[k][l] * T[l][i][j] for l in range(n)) for j in range(f.s)] for i in range(f.r)]
        for k in range(n)
    ]
    return SosFormula(f.r, f.s, n, ring, tensor)


# No entry of v, nor <v, v> = 11, nor a diagonal entry 1 - 2 v_k^2 / 11 of H
# vanishes mod 5 or 7, so every entry of H is a unit and every z_k of the
# [8, 8, 8] formulas below has all 64 monomials x_i*y_j
DENSE_V = (1, 1, 1, 1, 1, 1, 1, 2)


def dense_eight(kind, ring):
    base = construct_hurwitz_radon(8) if kind == "hurwitz-radon" else construct_classical("eight")
    return householder_dense(base, ring, DENSE_V)


@pytest.mark.parametrize("ring", [PrimeField(5), PrimeField(7), QQ])
@pytest.mark.parametrize("kind", ["hurwitz-radon", "degen"])
def test_expansion_defect_of_dense_formulas_matches_oracle(kind, ring):
    f = dense_eight(kind, ring)
    assert len({tuple(z.terms) for z in f.z_polys()}) == 1
    assert all(len(z.terms) == 64 for z in f.z_polys())
    tensor = [[list(row) for row in sl] for sl in dense_tensor(f)]
    tensor[3][7][2] = ring.add(tensor[3][7][2], ring.one())
    corrupted = SosFormula(8, 8, 8, ring, tensor)
    xs = oracle_sum([SparsePoly.variable(ring, i, 2) for i in range(8)], ring)
    ys = oracle_sum([SparsePoly.variable(ring, 8 + j, 2) for j in range(8)], ring)
    minus_xs_ys = {m: ring.neg(c) for m, c in oracle_mul_terms(ring, xs.terms, ys.terms).items()}
    for g in (f, corrupted):
        oracle = oracle_sum(
            [oracle_sum_of_squares(g.z_polys(), ring), SparsePoly(ring, minus_xs_ys)], ring
        )
        assert g.expansion_defect() == oracle
    assert f.expansion_defect().is_zero
    assert not corrupted.expansion_defect().is_zero


def counting_multiply_adds(monkeypatch):
    """Wrap ``sosforms.poly._row_dots`` so that each product of a lifted
    coefficient with a packed row is counted; return the list of counts."""
    row_dots, calls = sosforms.poly._row_dots, []

    class Counted(int):
        def __mul__(self, other):
            calls.append(1)
            return int(self) * other

    def counted(rows, pairs):
        wrap = (lambda c: (Counted(c[0]), Counted(c[1]))) if pairs else Counted
        return row_dots([[wrap(c) for c in row] for row in rows], pairs)

    monkeypatch.setattr(sosforms.poly, "_row_dots", counted)
    return calls


def refuse_ring_methods(monkeypatch, ring):
    """Make every method of the classes of ``ring``, and of its base over a
    Gaussian extension, raise when called."""

    def refuse(*args, **kwargs):
        raise AssertionError("a ring method ran")

    classes = {c for r in (ring, getattr(ring, "base", ring)) for c in type(r).__mro__ if issubclass(c, CoeffRing)}
    for cls in classes:
        for name, value in list(vars(cls).items()):
            if callable(value) and (name == "__eq__" or not name.startswith("__")):
                monkeypatch.setattr(cls, name, refuse)


@pytest.mark.parametrize("ring, per_part", [(PrimeField(5), 1), (gaussian_ext(PrimeField(7)), 2)])
def test_sum_of_squares_forms_each_product_of_a_shared_support_once(monkeypatch, ring, per_part):
    """Dense HR(8): eight z_k share one 64-term support, so sum_of_squares
    forms all 2,080 dots of its columns with one multiply-add per
    coefficient and per sum it feeds: 8 * 64 over GF(5), twice that over
    GF(7)[i], one into re and one into im (these entries are real, so no
    imaginary part is multiplied).  It runs in integers, with no method of
    the ring run; squaring each z_k alone multiplies no packed row."""
    f = dense_eight("hurwitz-radon", ring)
    zs = f.z_polys()
    products = counting_multiply_adds(monkeypatch)
    with monkeypatch.context() as m:
        refuse_ring_methods(m, ring)
        with pytest.raises(AssertionError, match="ring method"):
            ring.zero()
        total = sum_of_squares(zs, ring)
    assert len(products) == per_part * 8 * 64
    products.clear()
    assert poly_sum([z * z for z in zs], ring) == total
    assert not products


# (ring, coefficient): every coefficient of LANE_BOUND_ROWS rows of three terms
# is the largest lift, so a lane of twice a dot reaches 2 parts n top^2, the
# bound that the lane width is chosen from: the cross lanes over GF(1259),
# those of the imaginary parts over GF(7)[i] and GF(19)[i], and over Z, where
# the lifts +-2^130 take the wide reader, the lanes of both signs.  Over
# GF(19)[i] the bound 51,840 needs 32-bit lanes, and half of it, the bound
# of one part, would fit in 16
LANE_BOUND_ROWS = 40
LANE_BOUND_GROUPS = [
    (PrimeField(1259), [1258, 1258, 1258]),
    (ZZ, [2**130, 2**130, -(2**130)]),
    (gaussian_ext(PrimeField(7)), [(6, 6), (6, 6), (6, 6)]),
    (gaussian_ext(PrimeField(19)), [(18, 18), (18, 18), (18, 18)]),
]


def lane_bound_group(ring, coeffs):
    support = [((0, 1),), ((1, 1),), ((0, 1), (1, 1))]
    return [SparsePoly(ring, dict(zip(support, coeffs)))] * LANE_BOUND_ROWS


@pytest.mark.parametrize("ring, coeffs", LANE_BOUND_GROUPS)
def test_sum_of_squares_with_a_lane_at_its_bound(ring, coeffs):
    group = lane_bound_group(ring, coeffs)
    assert sum_of_squares(group, ring) == oracle_sum_of_squares(group, ring)


def reads_wrong(compute, oracle) -> bool:
    """Whether ``compute()`` differs from ``oracle`` or overflows: a carry out
    of the top lane leaves more bytes than the C reader converts."""
    try:
        return compute() != oracle
    except OverflowError:
        return True


def one_step_narrower(width):
    """The C format width below ``width``, or one bit less past them."""
    narrower = [w for w in sorted(sosforms.poly._FORMATS) if w < width]
    return narrower[-1] if width in sosforms.poly._FORMATS else width - 1


@pytest.mark.parametrize("ring, coeffs", LANE_BOUND_GROUPS)
def test_a_lane_one_bit_short_is_caught(monkeypatch, ring, coeffs):
    """One width step narrower, over GF(1259) and GF(19)[i] 16 bits for 32
    and over GF(7)[i] 8 for 16, and the wide reader over Z one bit short,
    each give a wrong sum."""
    group = lane_bound_group(ring, coeffs)
    lane_width = sosforms.poly._lane_width
    monkeypatch.setattr(sosforms.poly, "_lane_width", lambda bound: one_step_narrower(lane_width(bound)))
    assert reads_wrong(lambda: sum_of_squares(group, ring), oracle_sum_of_squares(group, ring))


# -- the former packed column kernel, kept as the oracle of _row_dots ---------------------


def _lane_width(rows: int, top: int) -> int:
    """Bits per lane for packed columns of ``rows`` entries in 0..top: no lane
    of the product of two such columns, a sum of at most ``rows`` products
    of two entries, reaches 2^W."""
    return (rows * top * top).bit_length()


def _pack(column, shift: int, width: int) -> tuple[int, int]:
    """The entries of ``column`` plus ``shift`` in lanes of ``width`` bits,
    forward, sum_k (c_k + M) 2^(W k), and reversed,
    sum_k (c_k + M) 2^(W (n-1-k))."""
    forward = reverse = 0
    for c in column:
        reverse = reverse << width | c + shift
    for c in reversed(column):
        forward = forward << width | c + shift
    return forward, reverse


def _column_products(rows: list, pairs: bool) -> Iterator[list]:
    """For each column u of ``rows``, the lifted coefficient rows of a group
    of polys with one support, the list of sum_k rows[k][u] * rows[k][v] over
    v = u, u + 1, ..., as ints, or as (re, im) pairs of ints when ``pairs``.

    A row of pairs is split into its real and imaginary parts.  Every part
    is shifted to integers >= 0 by M = max(0, -min).  Part a of column u is
    packed as P_u = sum_k c_ku 2^(W k) and reversed as
    Q_u = sum_k c_ku 2^(W (n-1-k)), W from ``_lane_width``, so lane n - 1 of
    P_u * Q_v is sum_k c_ku c_kv, exact because no lane reaches 2^W: one
    integer product per pair of columns and pair of parts.  The shift comes
    back off as M (S_u + S_v) + n M^2, with S the unshifted column sums, and
    the dots of the parts combine as (x + yi)(u + vi) = (xu - yv) + (xv + yu)i."""
    n = len(rows)
    parts = [([c[0] for c in row], [c[1] for c in row]) if pairs else (row,) for row in rows]
    values = {v for row in parts for part in row for v in part}
    shift = max(0, -min(values, default=0))
    width = _lane_width(n, max(values, default=0) + shift)
    at, mask = width * (n - 1), (1 << width) - 1
    packed = []  # per part: the columns packed forward (P) and reversed (Q), and their sums S
    for part_rows in zip(*parts):
        forward, reverse, sums = [], [], []
        for column in zip(*part_rows):  # one column tuple at a time: only the packed ints stay
            p, q = _pack(column, shift, width)
            forward.append(p)
            reverse.append(q)
            sums.append(sum(column) if shift else 0)
        packed.append((forward, reverse, sums))
    offset = n * shift * shift
    for u in range(len(packed[0][0])):
        dots = []  # part a of column u against part b of columns u, u + 1, ..., for (a, b) in order
        for p, _, s in packed:
            pu, su = p[u], s[u]
            for _, q, t in packed:
                lanes = [pu * qv >> at & mask for qv in q[u:]]
                if shift:
                    lanes = [x - shift * (su + tv) - offset for x, tv in zip(lanes, t[u:])]
                dots.append(lanes)
        if pairs:
            rr, ri, ir, ii = dots
            yield [(a - d, b + c) for a, b, c, d in zip(rr, ri, ir, ii)]
        else:
            yield dots[0]


def oracle_row_dots(rows, pairs):
    """The former kernel's dots, with the cross sums doubled as ``_row_dots``
    gives them; nothing for a group with no column."""
    if not rows[0]:
        return []
    twice = (lambda d: (2 * d[0], 2 * d[1])) if pairs else (lambda d: 2 * d)
    return [[dots[0], *map(twice, dots[1:])] for dots in _column_products(rows, pairs)]


def lifted_rows(ring, rows):
    """(pairs, rows): the ring elements of ``rows`` lifted as ``sum_of_squares``
    lifts them, with 0, or (0, 0) over a Gaussian ring, for each zero, as in
    a row filled over a union support."""
    polys = [SparsePoly(ring, {((u, 1),): c for u, c in enumerate(row)}) for row in rows]
    pairs, _, maps = _lift(ring, polys)
    zero = (0, 0) if pairs else 0
    return pairs, [[m.get(((u, 1),), zero) for u in range(len(rows[0]))] for m in maps]


KERNEL_RINGS = [ZZ, QQ, PrimeField(3), PrimeField(1259), gaussian_ext(ZZ), gaussian_ext(PrimeField(7))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_dots_match_the_former_column_kernel(data):
    """Rows of up to 12 coefficients of up to 6 columns, none included, often
    zero (a union row's fill, or a whole zero column), small or up to
    +-2^130 (the wide reader), and negative over Z and Q."""
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    n, size = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 6))
    element = coefficients(ring)
    if data.draw(st.booleans()):
        part = wide_parts(ring)
        element = st.one_of(element, st.tuples(part, part) if isinstance(ring, GaussianExt) else part).map(ring.coerce)
    element = st.one_of(st.just(ring.zero()), element)
    rows = data.draw(st.lists(st.lists(element, min_size=size, max_size=size), min_size=n, max_size=n))
    pairs, rows = lifted_rows(ring, rows)
    assert [list(dots) for dots in _row_dots(rows, pairs)] == oracle_row_dots(rows, pairs)


# Four squares summing to 2^(W-2) - 1, for each C lane width W: a column of
# them dotted with itself, or with its negative, puts twice that,
# +-(2^(W-1) - 2), in its lane, the largest even lane within +-(2^(W-1) - 1)
EDGE_SQUARES = {8: (7, 3, 2, 1), 16: (127, 15, 5, 2), 32: (32767, 255, 22, 5), 64: (2147483647, 65535, 362, 5)}


@pytest.mark.parametrize("pairs", [False, True])
@pytest.mark.parametrize("width", sorted(EDGE_SQUARES))
def test_row_dots_read_lanes_at_the_edge_of_each_width(monkeypatch, width, pairs):
    """With the lane width forced to W, columns a, -a (over Z[i] a, i a, -a)
    fill lanes at +-(2^(W-1) - 2), and they read back exactly; with a column
    of norm 2^(W-2), lanes reach +-2^(W-1), and the read is wrong."""
    assert sum(a * a for a in EDGE_SQUARES[width]) == 2 ** (width - 2) - 1
    monkeypatch.setattr(sosforms.poly, "_lane_width", lambda bound: width)
    for column, exact in ((EDGE_SQUARES[width], True), ((2 ** (width // 2 - 1), 0, 0, 0), False)):
        if pairs:
            rows = [[(a, 0), (0, a), (-a, 0)] for a in column]
        else:
            rows = [[a, -a] for a in column]
        assert reads_wrong(lambda: [list(dots) for dots in _row_dots(rows, pairs)], oracle_row_dots(rows, pairs)) != exact


@pytest.mark.parametrize("pairs", [False, True])
def test_row_dots_just_past_64_bits_take_the_wide_reader(monkeypatch, pairs):
    """Lifts of 2^31 in two rows put 2^64 in a lane, past every C format: the
    lanes are read by shift and mask."""
    widths, lane_width = [], sosforms.poly._lane_width
    monkeypatch.setattr(sosforms.poly, "_lane_width", lambda bound: widths.append(lane_width(bound)) or widths[-1])
    big = 2**31
    rows = [[(big, -3), (0, big), (-big, 0)], [(big, big), (1, -big), (0, 0)]] if pairs else [[big, -big, 3], [big, 0, -big]]
    assert [list(dots) for dots in _row_dots(rows, pairs)] == oracle_row_dots(rows, pairs)
    assert widths and widths[0] > 64 and widths[0] not in sosforms.poly._FORMATS
    assert widths[0] <= 67


# -- packed monomials: field widths that differ from call to call -----------------


def wide_monomials(data):
    """Monomials over a few variable ids up to 10^6, with exponents drawn from
    a few values up to 2^40, so that products share variables and terms."""
    ids = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True))
    exps = data.draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 2**40)), min_size=1, max_size=3))
    return st.dictionaries(st.sampled_from(ids), st.sampled_from(exps), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_match_oracle_on_wide_monomials(data):
    ring = data.draw(st.sampled_from(ORACLE_RINGS))
    monos = wide_monomials(data)
    wide_polys = st.dictionaries(monos, coefficients(ring), max_size=5).map(lambda t: SparsePoly(ring, t))
    f, g = data.draw(wide_polys), data.draw(wide_polys)
    assert (f * g).terms == oracle_mul_terms(ring, f.terms, g.terms)
    assert (f * f).terms == oracle_mul_terms(ring, f.terms, f.terms)
    e = data.draw(st.integers(0, 3))  # a small power: the binomial expansion grows fast
    assert (f ** e).terms == oracle_pow_terms(f, e)
    group = shared_support_group(data, ring, data.draw(st.lists(monos, min_size=1, max_size=5, unique=True)))
    group = data.draw(st.permutations(group + [f, g, f * g]))
    assert sum_of_squares(group, ring) == oracle_sum_of_squares(group, ring)


def test_packed_fields_hold_the_doubled_largest_exponent():
    big = 2**40
    x, y = SparsePoly.variable(ZZ, 0, big), SparsePoly.variable(ZZ, 10**6, big)
    assert (x * x).terms == {((0, 2 * big),): 1}
    assert (x * SparsePoly.variable(ZZ, 0, big)).terms == {((0, 2 * big),): 1}
    assert ((x + y) * (x - y)).terms == {((0, 2 * big),): 1, ((10**6, 2 * big),): -1}
    assert sum_of_squares([x + y, x - y], ZZ).terms == {((0, 2 * big),): 2, ((10**6, 2 * big),): 2}
    # a field sized for exponent 1 holds the product x0 * x0 = x0^2
    x0 = var(ZZ, 0)
    assert (x0 * var(ZZ, 0) * var(ZZ, 1)).terms == {((0, 2), (1, 1)): 1}


# -- coefficients ---------------------------------------------------------------------------


def test_constructor_coerces_coefficients():
    gf5 = PrimeField(5)
    assert SparsePoly(gf5, {((0, 1),): 7}) == 2 * SparsePoly.variable(gf5, 0)
    assert SparsePoly(gf5, {((0, 1),): 7}).terms == {((0, 1),): 2}
    assert SparsePoly(gf5, {((0, 1),): 10, (): 1}).terms == {(): 1}  # 10 is zero in GF(5)
    assert SparsePoly(QQ, {(): 1, ((0, 1),): "0/7"}).terms == {(): Fraction(1)}
    assert SparsePoly(gaussian_ext(ZZ), {(): 3}).terms == {(): (3, 0)}
    with pytest.raises(ValueError):
        SparsePoly(ZZ, {((0, 1),): 1.5})
    with pytest.raises(ValueError):
        SparsePoly(ZZ, {((0, 1),): True})


# -- malformed monomials ----------------------------------------------------------------


@pytest.mark.parametrize(
    "mono",
    [
        ((0, -1),),  # negative exponent
        ((0, 0),),  # zero exponent
        ((-1, 1),),  # negative variable id
        ((1, 1), (0, 1)),  # ids out of order
        ((0, 1), (0, 2)),  # repeated id
        ((0, 1.0),),  # float exponent
        ((0.0, 1),),  # float id
        ((True, 1),),  # bool id
        ((0, True),),  # bool exponent
        ((0, 1, 2),),  # not a pair
        (0, 1),  # a bare pair, not a tuple of pairs
        "x0",  # not a tuple
    ],
)
def test_malformed_monomials_are_rejected(mono):
    with pytest.raises(ValueError):
        SparsePoly(ZZ, {mono: 1})
    with pytest.raises(ValueError):  # also under a zero coefficient, which is dropped
        SparsePoly(ZZ, {(): 1, mono: 0})


# -- display order ------------------------------------------------------------------------


def oracle_text_order(m):
    """The former graded-lex key: higher degree first, then the variable word,
    each variable repeated by its exponent."""
    return (-sum(e for _, e in m), tuple(v for v, e in m for _ in range(e)))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 6), st.integers(1, 6), max_size=4).map(lambda d: tuple(sorted(d.items()))),
        unique=True,
        max_size=12,
    )
)
def test_text_order_matches_the_variable_word(monos):
    assert sorted(monos, key=_text_order) == sorted(monos, key=oracle_text_order)
    f = SparsePoly(ZZ, {m: 1 for m in monos})
    assert f.first_term() == ((min(monos, key=oracle_text_order), 1) if monos else None)


def test_text_of_a_huge_exponent():
    big = 2**40
    f = SparsePoly.variable(ZZ, 0, big) * 3 + SparsePoly.variable(ZZ, 1, big + 1)
    assert f.to_text() == f"v1^{big + 1} + 3*v0^{big}"
    assert f.first_term() == (((1, big + 1),), 1)


def test_square_of_sum_over_z():
    x, y = var(ZZ, 0), var(ZZ, 1)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert ((x + y) ** 2).to_text({0: "x", 1: "y"}) == "x^2 + 2*x*y + y^2"


def test_frobenius_in_char_three():
    ring = PrimeField(3)
    x, y = var(ring, 0), var(ring, 1)
    assert (x + y) ** 3 == x ** 3 + y ** 3


def test_multiplication_by_zero():
    x = var(ZZ, 0)
    f = (x + 3) ** 4
    assert (f * SparsePoly.zero(ZZ)).is_zero


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        var(ZZ, 0) ** -1


def test_ring_mismatch_raises():
    with pytest.raises(ValueError):
        var(ZZ, 0) + var(PrimeField(3), 0)


GF5 = PrimeField(5)
# 0-6 terms over GF(5); each monomial has 0-2 of the variables 0..4 with exponents 1-4
gf5_polys = st.dictionaries(
    st.dictionaries(st.integers(0, 4), st.integers(1, 4), max_size=2).map(lambda d: tuple(sorted(d.items()))),
    st.integers(0, 4),
    max_size=6,
).map(lambda terms: SparsePoly(GF5, terms))


@settings(max_examples=40, deadline=None)
@given(gf5_polys, gf5_polys, gf5_polys)
def test_ring_axioms_on_random_polys(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


def test_canonical_text_is_graded_lex():
    x, y = var(ZZ, 0), var(ZZ, 1)
    f = 1 + y + x + x * x
    assert f.to_text({0: "x", 1: "y"}) == "x^2 + x + y + 1"
    assert SparsePoly.zero(ZZ).to_text() == "0"


def test_default_variable_names():
    f = SparsePoly.variable(ZZ, 3, 2) * SparsePoly.variable(ZZ, 7)
    assert f.to_text() == "v3^2*v7"


def test_gaussian_coefficient_rendering():
    ring = gaussian_ext(ZZ)
    i = SparsePoly.constant(ring, ring.sqrt_minus_one())
    x = SparsePoly.variable(ring, 0)
    f = (1 + i) * x
    assert f.to_text({0: "x"}) == "(1+1*i)*x"
    assert (i * x).to_text({0: "x"}) == "1*i*x"


def test_hyperbolic_coordinate_change_small_cases():
    assert hyperbolic_coordinate_change(0)
    assert hyperbolic_coordinate_change(1)
    assert hyperbolic_coordinate_change(4)


def test_hyperbolic_coordinate_change_up_to_twelve():
    assert all(hyperbolic_coordinate_change(n) for n in range(13))


def test_hyperbolic_coordinate_change_over_gf13():
    # GF(13) contains a square root of -1 already
    assert hyperbolic_coordinate_change(3, PrimeField(13))


def test_hyperbolic_requires_sqrt_minus_one():
    with pytest.raises(ValueError):
        hyperbolic_coordinate_change(2, ZZ)
