"""Chow rings of split quadrics, Gysin tables, and localization bookkeeping."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosforms import chow
from sosforms.algebra import accumulate
from sosforms.chow import (
    ChowClass,
    additive_ranks,
    basis_monomials,
    dq_additive_basis_localization,
    even_intersection_table,
    gysin_pullback,
    gysin_pushforward,
    projection_formula_check,
    pushforward_class,
    quadric_generator_degrees,
    y_codim,
)
from sosforms.cli import main
from sosforms.grading import BiDegree
from sosforms.motivic import ring_additive_basis


# -- ring structure --------------------------------------------------------------


def test_mul_examples():
    x3 = ChowClass.x(3)
    assert x3 * x3 == 2 * ChowClass.y(3)  # m = 2k+1, x^(k+1) = 2y
    y2 = ChowClass.y(2)
    assert (y2 * y2).is_zero  # m = 2k, k odd: y^2 = 0
    y4 = ChowClass.y(4)
    assert y4 * y4 == ChowClass.x(4) ** 2 * ChowClass.y(4)  # k even: y^2 = x^k y


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        ChowClass.x(3) * ChowClass.x(4)


def test_top_truncation():
    # codim beyond the dimension is zero
    assert (ChowClass.x(3) ** 4).is_zero
    assert (ChowClass.x(4) ** 5).is_zero
    assert not (ChowClass.x(4) ** 4).is_zero


def test_conic_presentation():
    # Q_1: the degree-1 generator in normal form is the point class y, x = 2y
    assert ChowClass.x(1) == 2 * ChowClass.y(1)
    assert (ChowClass.y(1) * ChowClass.y(1)).is_zero


def test_q0_is_two_points():
    # CH*(Q_0) = Z[y]/(y^2 - y), x = 0
    assert ChowClass.x(0).is_zero
    y = ChowClass.y(0)
    assert y * y == y
    assert additive_ranks(0) == {0: 2}


def test_additive_ranks_match_generator_counts():
    for m in range(0, 25):
        ranks = additive_ranks(m)
        if m % 2 == 1:
            assert ranks == {i: 1 for i in range(m + 1)}
        else:
            expected = {i: 1 for i in range(m + 1)}
            if m > 0:
                expected[m // 2] = 2
            else:
                expected[0] = 2
            assert ranks == expected


def test_point_class_products():
    for k in range(1, 11):
        m = 2 * k
        xky = ChowClass.x(m) ** k * ChowClass.y(m)
        assert xky == ChowClass.point(m)  # x^k y = [*]
        assert (ChowClass.x(m) ** (k + 1) * ChowClass.y(m)).is_zero


def test_odd_quadric_generators():
    for k in range(0, 11):
        m = 2 * k + 1
        for i in range(0, k + 1):
            assert ChowClass.x(m) ** i == ChowClass.monomial(m, i, 0)
        assert ChowClass.x(m) ** (k + 1) == 2 * ChowClass.y(m)


# -- middle classes and the intersection pairing -------------------------------------


def test_intersection_tables():
    assert even_intersection_table(1) == ((0, 1), (1, 0))
    assert even_intersection_table(2) == ((1, 0), (0, 1))
    for k in range(1, 11):
        table = even_intersection_table(k)
        if k % 2 == 1:
            assert table == ((0, 1), (1, 0))
        else:
            assert table == ((1, 0), (0, 1))


def test_alpha_plus_beta_squares_to_twice_point():
    for k in range(1, 8):
        m = 2 * k
        total = ChowClass.alpha(m) + ChowClass.beta(m)
        assert total == ChowClass.x(m) ** k
        assert total * total == 2 * ChowClass.point(m)


# -- Gysin tables -----------------------------------------------------------------------


def test_pushforward_matrices():
    assert gysin_pushforward(4, 0) == ((2,),)
    assert gysin_pushforward(4, 3) == ((1,),)
    assert gysin_pushforward(1, 0) == ((1, 1),)  # Q_0 in P^1: the fold
    assert gysin_pushforward(5, 2) == ((1, 1),)
    with pytest.raises(ValueError):
        gysin_pushforward(4, 4)


def test_pullback_images():
    assert gysin_pullback(5, 2) == ChowClass.alpha(4) + ChowClass.beta(4)
    assert gysin_pullback(4, 2) == 2 * ChowClass.y(3)
    for n in (2, 3, 7):
        assert gysin_pullback(n, 0) == ChowClass.one(n - 1)


def test_pushforward_then_pullback_is_doubling():
    for n in range(1, 25):
        for d in range(0, n + 1):
            image = pushforward_class(n, gysin_pullback(n, d))
            assert image == ({d + 1: 2} if d + 1 <= n else {})


def _positional_gysin_rows(n: int) -> list[dict]:
    """Oracle for the `chow gysin` rows, by position against the middle
    codimension (n-1)/2 alone: j_* is (2) below it, (1) above it and the
    fold (1, 1) at it; j^* is (1) below, (2) above and (1),(1) at it."""
    rows = []
    for i in range(n):
        if 2 * i < n - 1:
            push, pull = [[2]], [[1]]
        elif 2 * i > n - 1:
            push, pull = [[1]], [[2]]
        else:
            push, pull = [[1, 1]], [[1], [1]]
        rows.append({"codim": i, "pushforward": push, "pullback": pull})
    return rows


def test_gysin_cli_rows_match_positional_rule(capsys):
    for n in range(1, 25):
        assert main(["chow", "gysin", str(n), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == _positional_gysin_rows(n)
        assert data["double_cover"] is True
        for row in data["rows"]:
            (push,) = row["pushforward"]
            assert sum(a * b for a, (b,) in zip(push, row["pullback"], strict=True)) == 2


def test_projection_formula():
    for n in range(1, 25):
        assert projection_formula_check(n)


def test_projection_formula_check_catches_a_wrong_map(monkeypatch):
    # coefficient 1 instead of 2 on pure x powers: the doubling range is lost
    def wrong_pushforward(n, cls):
        pushed = {}
        for (i, ybit), c in cls.terms.items():
            accumulate(pushed, i + ybit * y_codim(cls.m) + 1, c)
        return pushed

    monkeypatch.setattr(chow, "pushforward_class", wrong_pushforward)
    assert not any(projection_formula_check(n) for n in range(2, 13))
    monkeypatch.undo()

    # j^* t^k as 2*alpha instead of alpha + beta at the middle of an odd n: j_* j^*
    # is still 2, so only the products g . j^* t^d can tell
    def wrong_pullback(n, d, pullback=gysin_pullback):
        return ChowClass.alpha(n - 1) * 2 if 2 * d == n - 1 else pullback(n, d)

    monkeypatch.setattr(chow, "gysin_pullback", wrong_pullback)
    assert [projection_formula_check(n) for n in range(2, 13)] == [n % 2 == 0 for n in range(2, 13)]
    monkeypatch.undo()
    assert all(projection_formula_check(n) for n in range(2, 13))


def test_fold_pushforward_on_middle_classes():
    # both middle planes push to the same generator
    for k in (1, 2, 3):
        n = 2 * k + 1
        m = 2 * k
        assert pushforward_class(n, ChowClass.alpha(m)) == {k + 1: 1}
        assert pushforward_class(n, ChowClass.beta(m)) == {k + 1: 1}
        assert pushforward_class(n, ChowClass.x(m) ** k) == {k + 1: 2}


# -- ring axioms -------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_chow_ring_axioms_on_random_classes(data):
    m = data.draw(st.integers(0, 9))
    # raw exponents past the basis, so the constructor's reduction is exercised too
    keys = st.tuples(st.integers(0, m + 2), st.integers(0, 2))
    classes = st.dictionaries(keys, st.integers(-3, 3), max_size=4).map(lambda terms: ChowClass(m, terms))
    x, y, z = data.draw(classes), data.draw(classes), data.draw(classes)
    one, zero = ChowClass.one(m), ChowClass.zero(m)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x * one == x and x + zero == x
    assert (x - x).is_zero
    assert 2 * x == x + x and -x == x * -1


# -- generator degrees and the localization basis ---------------------------------------


def test_quadric_generator_degrees():
    assert quadric_generator_degrees(1) == [BiDegree(0, 0), BiDegree(2, 1)]
    assert quadric_generator_degrees(2) == [
        BiDegree(0, 0), BiDegree(2, 1), BiDegree(4, 2), BiDegree(2, 1),
    ]
    assert quadric_generator_degrees(3) == [
        BiDegree(0, 0), BiDegree(2, 1), BiDegree(4, 2), BiDegree(6, 3),
    ]


def test_localization_basis_examples():
    assert dq_additive_basis_localization(1) == [BiDegree(0, 0), BiDegree(1, 1)]
    assert dq_additive_basis_localization(2) == [
        BiDegree(0, 0), BiDegree(1, 1), BiDegree(2, 1),
    ]
    assert dq_additive_basis_localization(5) == [
        BiDegree(0, 0), BiDegree(1, 1), BiDegree(2, 1),
        BiDegree(3, 2), BiDegree(4, 2), BiDegree(5, 3),
    ]


def test_localization_matches_ring_basis():
    for n in range(1, 51):
        expected = [BiDegree(i, (i + 1) // 2) for i in range(n + 1)]
        assert dq_additive_basis_localization(n) == expected
        assert ring_additive_basis(n) == expected


# -- display -------------------------------------------------------------------------------


def test_chow_text():
    cls = 2 * ChowClass.y(3) + ChowClass.x(3)
    assert cls.to_text() == "x + 2*y"
    assert ChowClass.zero(5).to_text() == "0"
    assert ChowClass.beta(4).to_text() == "x^2 - y"


def test_basis_monomials_and_y_codim():
    assert y_codim(3) == 2
    assert y_codim(4) == 2
    assert len(basis_monomials(7)) == 8
