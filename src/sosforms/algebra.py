"""Normal-form elements of a commutative ring with a finite monomial basis.

An element is a ring parameter plus a dict ``{exponent tuple: coefficient}``
over the basis monomials, with every stored coefficient nonzero.  A subclass
supplies the ring: ``_reduce(key)`` rewrites an arbitrary exponent tuple as
basis terms ``((basis key, unit), ...)`` (a key may repeat; repeats are
summed), and ``UNIT`` is the ``(key, coefficient)`` of the ring's one.
Coefficients need only ``+``, ``*`` and truthiness (zero is false), so the
same kernel serves the Z/2[tau, rho] polynomials of the motivic rings and
the integers of the Chow rings.
"""

from __future__ import annotations

from operator import add

from .rings import require_ints


def accumulate(terms: dict, key, coeff) -> None:
    """terms[key] += coeff, dropping the key when the sum is zero."""
    if key in terms:
        coeff = terms[key] + coeff
        if not coeff:
            del terms[key]
            return
    terms[key] = coeff


def require_exponents(keys, arity: int) -> None:
    """Raise ValueError unless each key is a tuple of ``arity`` ints >= 0 (not bools)."""
    for key in keys:
        if type(key) is not tuple or len(key) != arity or not all(type(e) is int and e >= 0 for e in key):
            raise ValueError(f"a monomial is a tuple of {arity} integers >= 0, not {key!r}")


def mono_text(names, exps) -> str:
    """``x^2*y`` for names (x, y) and exponents (2, 1); '' for the unit."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)


class NormalForm:
    __slots__ = ("ring", "terms")
    UNIT: tuple  # (basis key, coefficient) of the ring's one

    def __init__(self, ring, terms=None):
        self.ring = ring
        require_exponents(terms or (), len(self.UNIT[0]))
        one = self.UNIT[1]
        clean: dict = {}
        for key, coeff in (terms or {}).items():
            coeff = self._scalar(coeff)
            if coeff:
                for basis_key, unit in self._reduce(key):
                    accumulate(clean, basis_key, coeff if unit is one else coeff * unit)
        self.terms = clean

    def _scalar(self, coeff):
        """The coefficient as the ring sees it (a hook for models that kill
        part of the coefficient ring)."""
        return coeff

    def _reduce(self, key) -> tuple:
        raise NotImplementedError

    @classmethod
    def _new(cls, ring, terms: dict):
        """An element from terms already in normal form."""
        out = cls.__new__(cls)
        out.ring, out.terms = ring, terms
        return out

    @classmethod
    def zero(cls, *ring):
        return cls(*ring)

    @classmethod
    def one(cls, *ring):
        return cls(*ring, dict((cls.UNIT,)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other) -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(terms, key, coeff)
        return self._new(self.ring, terms)

    def __mul__(self, other):
        self._check(other)
        one = self.UNIT[1]
        reduce = self._reduce
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c2 if c1 is one else c1 if c2 is one else c1 * c2
                for key, unit in reduce(tuple(map(add, k1, k2))):
                    accumulate(terms, key, c if unit is one else c * unit)
        return self._new(self.ring, terms)

    def __pow__(self, exp: int):
        require_ints("exp", exp, low=0)
        result, base = self._new(self.ring, dict((self.UNIT,))), self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None
