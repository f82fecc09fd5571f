"""Exact coefficient rings: Z, Q, GF(p) for odd p, and Gaussian extensions.

A ring object owns the arithmetic; elements are lightweight Python values
(int, Fraction, or a (re, im) pair for Gaussian extensions).  All arithmetic
is exact -- no floats anywhere.  Ring objects are immutable and compare by
structure, so they can be shared freely between threads.

The two verifiers do not sum products with these methods: the expansion
(``sosforms.poly``) and the Gram check (``SosFormula.gram_defect``) each lift
the coefficients to integers with a lift of their own, and read the integer
sums back as elements.

Characteristic 2 is rejected at construction: every identity handled here
lives over a field (or domain) in which 2 is regular, and the matrix form of
the composition equations divides by 2.
"""

from __future__ import annotations

from fractions import Fraction


def require_ints(names: str, *values, low: int | None = 1) -> None:
    """The argument rule for every dimension, count, exponent, index and
    prime: raise ValueError unless each value is an int, not a bool, and
    >= low (no floor when low is None)."""
    for value in values:
        # an exact int (the usual case) skips the two isinstance calls
        if value.__class__ is not int and (isinstance(value, bool) or not isinstance(value, int)):
            noun = "integers" if len(values) > 1 else "an integer"
            raise ValueError(f"{names} must be {noun}, not {type(value).__name__}")
        if low is not None and value < low:
            raise ValueError(f"{names} must be >= {low}")


def require_flags(names: str, *values) -> None:
    """The rule for every on/off option: raise ValueError unless each value is a bool."""
    if not all(isinstance(value, bool) for value in values):
        raise ValueError(f"{names} must be True or False")


class ValueTuple:
    """Base of the named-tuple value classes (``class V(ValueTuple,
    namedtuple(...))``): a value equals only a value of its own class, never
    a plain tuple or another class with the same fields.  Hashing and
    ordering stay the tuple's."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class CoeffRing:
    """Base class for coefficient rings.  Use the concrete subclasses.

    The defaults are the arithmetic and JSON form of rings whose elements are
    Python numbers (Z, Q); other rings override them.
    """

    kind: str = "?"

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def characteristic(self) -> int:
        return 0

    def sqrt_minus_one(self):
        """An element i with i*i = -1, or None if the ring has none."""
        return None

    def format_element(self, a) -> str:
        return str(a)

    def element_to_json(self, a):
        return a

    def element_from_json(self, v):
        return self.coerce(v)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self):
        return self.kind


class IntegerRing(CoeffRing):
    """The integers, with arbitrary-precision arithmetic."""

    kind = "Z"

    def coerce(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            if isinstance(value, Fraction) and value.denominator == 1:
                return int(value)
            raise ValueError(f"cannot coerce {value!r} into Z")
        return value


class RationalField(CoeffRing):
    """The rationals, backed by fractions.Fraction."""

    kind = "Q"

    def coerce(self, value):
        if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        raise ValueError(f"cannot coerce {value!r} into Q")

    def element_to_json(self, a):
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


# Miller-Rabin with these bases is exact below _MR_LIMIT: no composite under
# it is a strong pseudoprime to all of them (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin.  Raises ValueError for p >= _MR_LIMIT
    unless one of the bases divides p."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_LIMIT:
        raise ValueError(f"{p} is too large to test for primality exactly")
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^r with d odd
    d = (p - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << j, p) != p - 1 for j in range(r)):
            return False
    return True


class PrimeField(CoeffRing):
    """GF(p) for an odd prime p; elements are canonical residues 0..p-1."""

    kind = "GF"

    def __init__(self, p: int):
        require_ints("p", p, low=2)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p

    def coerce(self, value):
        if isinstance(value, bool):
            raise ValueError("cannot coerce bool into GF(p)")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ValueError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        raise ValueError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def characteristic(self) -> int:
        return self.p

    def sqrt_minus_one(self):
        if self.p % 4 != 1:
            return None
        # i = n^((p-1)/4) for any quadratic nonresidue n
        for n in range(2, self.p):
            if pow(n, (self.p - 1) // 2, self.p) == self.p - 1:
                return pow(n, (self.p - 1) // 4, self.p)
        raise AssertionError("unreachable: every field GF(p), p>2, has nonresidues")

    def __repr__(self):
        return f"GF({self.p})"


class GaussianExt(CoeffRing):
    """Adjoin a formal square root of -1 to a base ring.

    Elements are (re, im) pairs over the base.  Use :func:`gaussian_ext` to
    construct one: over GF(p) with p = 1 mod 4 the extension collapses,
    since -1 is already a square there.
    """

    kind = "Gaussian"

    def __init__(self, base: CoeffRing):
        if isinstance(base, GaussianExt):
            raise ValueError("base ring already contains a square root of -1")
        if isinstance(base, PrimeField) and base.p % 4 == 1:
            raise ValueError(
                f"GF({base.p}) already contains a square root of -1; "
                "use gaussian_ext() to collapse"
            )
        self.base = base

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == 2:
            return (self.base.coerce(value[0]), self.base.coerce(value[1]))
        return (self.base.coerce(value), self.base.zero())

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        # (x + yi)(u + vi) = (xu - yv) + (xv + yu)i
        x, y = a
        u, v = b
        re = self.base.sub(self.base.mul(x, u), self.base.mul(y, v))
        im = self.base.add(self.base.mul(x, v), self.base.mul(y, u))
        return (re, im)

    def characteristic(self) -> int:
        return self.base.characteristic()

    def sqrt_minus_one(self):
        return (self.base.zero(), self.base.one())

    def format_element(self, a) -> str:
        re, im = a
        zero = self.base.zero()
        if im == zero:
            return self.base.format_element(re)
        if re == zero:
            return f"{self.base.format_element(im)}*i"
        return f"({self.base.format_element(re)}+{self.base.format_element(im)}*i)"

    def element_to_json(self, a):
        return [self.base.element_to_json(a[0]), self.base.element_to_json(a[1])]

    def element_from_json(self, v):
        if isinstance(v, list) and len(v) == 2:
            return (self.base.element_from_json(v[0]), self.base.element_from_json(v[1]))
        return self.coerce(self.base.element_from_json(v))

    def __repr__(self):
        return f"{self.base!r}[i]"


def gaussian_ext(base: CoeffRing) -> CoeffRing:
    """A ring extending ``base`` in which -1 is a square.

    Returns ``base`` itself when it already has a square root of -1
    (a Gaussian extension, or GF(p) with p = 1 mod 4).
    """
    if base.sqrt_minus_one() is not None:
        return base
    return GaussianExt(base)


ZZ = IntegerRing()
QQ = RationalField()


def ring_to_json(ring: CoeffRing) -> dict:
    if isinstance(ring, IntegerRing):
        return {"kind": "Z"}
    if isinstance(ring, RationalField):
        return {"kind": "Q"}
    if isinstance(ring, PrimeField):
        return {"kind": "GF", "p": ring.p}
    if isinstance(ring, GaussianExt):
        inner = ring_to_json(ring.base)
        return {"kind": inner["kind"] + "i", **{k: v for k, v in inner.items() if k != "kind"}}
    raise ValueError(f"unknown ring {ring!r}")


def ring_from_json(data: dict) -> CoeffRing:
    kind = data.get("kind")
    if kind == "Z":
        return ZZ
    if kind == "Q":
        return QQ
    if kind == "GF":
        return PrimeField(data["p"])
    if kind in ("Zi", "Qi", "GFi"):
        return gaussian_ext(ring_from_json({**data, "kind": kind[:-1]}))
    raise ValueError(f"unknown ring descriptor {data!r}")
