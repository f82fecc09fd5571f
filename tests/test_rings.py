"""Coefficient ring construction and arithmetic."""

from fractions import Fraction

import pytest

from sosforms.rings import (
    GaussianExt,
    IntegerRing,
    PrimeField,
    QQ,
    ZZ,
    gaussian_ext,
    ring_from_json,
    ring_to_json,
)


def test_prime_field_rejects_char_two():
    with pytest.raises(ValueError):
        PrimeField(2)


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_prime_field_residues_canonical():
    f = PrimeField(7)
    assert f.coerce(-1) == 6
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 1 mod 7


def test_sqrt_minus_one_prime_fields():
    assert PrimeField(3).sqrt_minus_one() is None
    assert PrimeField(7).sqrt_minus_one() is None
    for p in (5, 13, 17, 29):
        i = PrimeField(p).sqrt_minus_one()
        assert (i * i) % p == p - 1


def test_gaussian_collapse_for_one_mod_four():
    base = PrimeField(5)
    assert gaussian_ext(base) is base
    with pytest.raises(ValueError):
        GaussianExt(base)


def test_gaussian_formal_arithmetic():
    ring = gaussian_ext(ZZ)
    i = ring.sqrt_minus_one()
    assert ring.mul(i, i) == ring.coerce(-1)
    # (1 + 2i)(3 - i) = 5 + 5i
    assert ring.mul(ring.coerce((1, 2)), ring.coerce((3, -1))) == (5, 5)


def test_gaussian_over_gaussian_rejected():
    with pytest.raises(ValueError):
        GaussianExt(gaussian_ext(ZZ))
    assert gaussian_ext(gaussian_ext(ZZ)) == gaussian_ext(ZZ)


def test_gf_p_squared_is_field_like():
    ring = gaussian_ext(PrimeField(7))
    i = ring.sqrt_minus_one()
    assert ring.mul(i, i) == ring.coerce(-1)
    assert ring.characteristic() == 7


def test_rationals_exact():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.element_to_json(Fraction(3, 2)) == "3/2"
    assert QQ.element_to_json(Fraction(4, 2)) == 2
    assert QQ.element_from_json("3/2") == Fraction(3, 2)


def test_integer_ring_rejects_fractions():
    with pytest.raises(ValueError):
        ZZ.coerce(Fraction(1, 2))
    assert ZZ.coerce(Fraction(4, 2)) == 2


def test_ring_json_round_trip():
    rings = [ZZ, QQ, PrimeField(3), gaussian_ext(ZZ), gaussian_ext(PrimeField(7))]
    for ring in rings:
        assert ring_from_json(ring_to_json(ring)) == ring


def test_ring_equality_is_structural():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert IntegerRing() == ZZ
    assert gaussian_ext(ZZ) == gaussian_ext(ZZ)


@pytest.mark.parametrize(
    "ring",
    [ZZ, QQ, PrimeField(3), PrimeField(13), gaussian_ext(ZZ), gaussian_ext(QQ), gaussian_ext(PrimeField(7))],
    ids=repr,
)
def test_is_zero_agrees_with_equality_to_zero(ring):
    samples = [ring.coerce(v) for v in (0, 1, -1, 2, 13, -26, 100)]
    if ring.kind != "GF":
        samples.append(ring.coerce(Fraction(0)))
    if isinstance(ring, GaussianExt) or ring.sqrt_minus_one() is not None:
        i = ring.sqrt_minus_one()
        samples += [i, ring.mul(i, i), ring.add(ring.one(), ring.mul(i, i)), ring.sub(i, i)]
    if ring == QQ:
        samples += [Fraction(1, 3), Fraction(-2, 7), ring.sub(Fraction(1, 3), Fraction(1, 3))]
    for a in samples:
        assert ring.is_zero(a) == (a == ring.zero()), (ring, a)
    assert any(ring.is_zero(a) for a in samples)
    assert not all(ring.is_zero(a) for a in samples)
