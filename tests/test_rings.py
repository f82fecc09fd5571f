"""Coefficient ring construction and arithmetic."""

import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosforms.rings import (
    CoeffRing,
    GaussianExt,
    IntegerRing,
    PrimeField,
    QQ,
    RationalField,
    ZZ,
    _is_prime,
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


def _is_prime_by_trial_division(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_miller_rabin_matches_trial_division():
    for p in range(-2, 20_000):
        assert _is_prime(p) == _is_prime_by_trial_division(p), p


def test_miller_rabin_rejects_strong_pseudoprimes():
    # strong pseudoprimes to every prime base up to 7, 31 and 37 respectively
    for composite in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(composite)
        with pytest.raises(ValueError):
            PrimeField(composite)


def test_large_primes_are_accepted_quickly():
    start = time.perf_counter()
    for p in (2**61 - 1, 10**16 + 61, 10**14 + 31):
        assert PrimeField(p).p == p
    assert time.perf_counter() - start < 1.0


def test_primality_beyond_the_exact_bound_is_refused():
    for p in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)
    assert not _is_prime(2**89)  # a base divides it: still decided exactly


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


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        QQ.element_from_json("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        gaussian_ext(QQ).element_from_json(["1/0", 0])


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


# -- dot products against the fold of add and mul ------------------------------------


def oracle_dot(ring, xs, ys):
    """The slow path: one add of one mul per pair, reduced every time."""
    acc = ring.zero()
    for x, y in zip(xs, ys):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def unreduced_dot(ring, xs, ys):
    """sum_i xs[i] * ys[i] with Python's operators, never reduced mod p: an
    int or a Fraction, or over a Gaussian extension a (re, im) pair of them,
    whose ``ring.coerce`` is the element.  The test oracles that sum many
    products (``dot_sum_of_squares``, ``scatter_gram_defect``) sum them with
    this."""
    if isinstance(ring, GaussianExt):
        xr, xi, yr, yi = ([c[part] for c in v] for v in (xs, ys) for part in (0, 1))
        dot = lambda a, b: sum(map(operator.mul, a, b))
        return (dot(xr, yr) - dot(xi, yi), dot(xr, yi) + dot(xi, yr))
    return sum(map(operator.mul, xs, ys))


DOT_RINGS = [
    ZZ,
    QQ,
    PrimeField(3),
    PrimeField(13),
    PrimeField(1259),
    gaussian_ext(ZZ),
    gaussian_ext(QQ),
    GaussianExt(PrimeField(3)),
    GaussianExt(PrimeField(7)),
]

# large integers, so sums of products leave the machine-word range
big_ints = st.integers(-(2**130), 2**130)


def ring_elements(ring):
    if isinstance(ring, GaussianExt):
        return st.tuples(ring_elements(ring.base), ring_elements(ring.base))
    if isinstance(ring, RationalField):
        # mixed denominators, some large, some shared
        return st.one_of(
            st.fractions(max_denominator=50), st.builds(Fraction, big_ints, st.integers(1, 2**70))
        ).map(ring.coerce)
    return st.one_of(st.integers(-3, 3), big_ints).map(ring.coerce)


def concrete_ring_classes(cls=CoeffRing):
    for sub in cls.__subclasses__():
        yield sub
        yield from concrete_ring_classes(sub)


def test_every_ring_class_has_its_dot_checked():
    assert {type(ring) for ring in DOT_RINGS} == set(concrete_ring_classes())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dot_matches_the_fold_of_add_and_mul(data):
    ring = data.draw(st.sampled_from(DOT_RINGS), label="ring")
    size = data.draw(st.integers(0, 12), label="size")
    vector = st.lists(ring_elements(ring), min_size=size, max_size=size)
    xs, ys = data.draw(vector, label="xs"), data.draw(vector, label="ys")
    expected = oracle_dot(ring, xs, ys)
    got = ring.coerce(unreduced_dot(ring, xs, ys))
    assert repr(got) == repr(expected)  # equal, and of the same element types
    assert ring.coerce(unreduced_dot(ring, ys, xs)) == expected
    # the sum taken twice, as the Gram check doubles its diagonal
    assert repr(ring.coerce(unreduced_dot(ring, xs + xs, ys + ys))) == repr(ring.add(expected, expected))


def test_dot_of_empty_vectors_is_zero():
    for ring in DOT_RINGS:
        assert repr(ring.coerce(unreduced_dot(ring, [], []))) == repr(ring.zero())
