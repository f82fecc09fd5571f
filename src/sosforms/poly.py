"""Exact sparse multivariate polynomials over a coefficient ring.

A polynomial is a map from monomials to nonzero coefficients.  Monomials are
sorted tuples of (variable id, exponent) pairs with positive exponents, so
the zero polynomial has an empty term map and equality of polynomials is
equality of term maps; the constructor rejects any other monomial, coerces
each coefficient into the ring and drops the zero ones.  Variable ids are
plain ints; display names come from an optional registry.

Products are formed on packed monomials.  Each multiplication packs the
monomials of its inputs into Python ints, with one bit field per variable
present, wide enough for twice that variable's largest exponent in the
inputs, so the product of two monomials is the sum of their ints and no
field carries into the next.  ``sum_of_squares`` can also subtract one
product in the same packed map, so an identity such as
sum_k z_k^2 = (sum_i x_i^2)(sum_j y_j^2) is checked by one map whose terms
all cancel.  Only the monomials whose coefficients survive are unpacked back
into tuples.  A packing is built per call and not kept.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from .rings import CoeffRing, IntegerRing, gaussian_ext, require_ints

# Monomial: tuple of (var, exp) pairs, sorted by var, all exps > 0.
Monomial = tuple

_ONE_MONOMIAL: Monomial = ()


def _check_monomial(mono) -> None:
    """Raise ValueError unless ``mono`` is a tuple of (var, exp) pairs with
    int variable ids >= 0 in strictly increasing order and int exponents
    >= 1."""
    if not isinstance(mono, tuple):
        raise ValueError(f"a monomial is a tuple of (var, exp) pairs, not {mono!r}")
    last = -1
    for pair in mono:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise ValueError(f"monomial {mono!r}: {pair!r} is not a (var, exp) pair")
        v, e = pair
        require_ints("a variable id", v, low=0)
        require_ints("an exponent", e, low=1)
        if v <= last:
            raise ValueError(f"monomial {mono!r}: variable ids must strictly increase")
        last = v


def _text_order(m: Monomial) -> tuple:
    """Graded-lex sort key: higher degree first, then the variable word (each
    variable repeated by its exponent).  Two words of one degree compare as
    their (var, -exp) pairs do, so the word itself is never spelled out."""
    return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))


def _packing(supports: Iterable[Iterable[Monomial]]) -> tuple[Callable, Callable]:
    """(pack, unpack) for products of two monomials from ``supports``.

    Each variable present gets one bit field, in sorted id order, of
    (2 * its largest exponent).bit_length() bits, so the sum of two packed
    monomials never carries from one field into the next.  ``pack`` maps a
    monomial to its int; ``unpack`` maps such a sum back to the product
    monomial, walking its lowest set bits."""
    top: dict = {}
    for support in supports:
        for mono in support:
            for v, e in mono:
                if e > top.get(v, 0):
                    top[v] = e
    shifts: dict = {}
    fields = []  # bit position -> (var, shift, mask) of its field; 8 bytes a bit, the size of 64 keys
    for v in sorted(top):
        width = (2 * top[v]).bit_length()
        shifts[v] = len(fields)
        fields += [(v, len(fields), (1 << width) - 1)] * width

    def pack(mono: Monomial) -> int:
        key = 0
        for v, e in mono:
            key += e << shifts[v]
        return key

    def unpack(key: int) -> Monomial:
        out = []
        while key:
            v, at, mask = fields[(key & -key).bit_length() - 1]
            e = key >> at & mask
            out.append((v, e))
            key -= e << at
        return tuple(out)

    return pack, unpack


class SparsePoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoeffRing, terms: Mapping[Monomial, object] | None = None):
        self.ring = ring
        self.terms = {}
        if terms:
            coerce, zero = ring.coerce, ring.zero()
            for mono, c in terms.items():
                _check_monomial(mono)
                c = coerce(c)
                if c != zero:
                    self.terms[mono] = c

    @classmethod
    def _new(cls, ring: CoeffRing, terms: dict) -> "SparsePoly":
        """A poly from a term map that is canonical by construction: valid
        monomials and nonzero coefficients, so neither is checked again."""
        out = cls.__new__(cls)
        out.ring, out.terms = ring, terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring: CoeffRing) -> "SparsePoly":
        return cls(ring)

    @classmethod
    def constant(cls, ring: CoeffRing, value) -> "SparsePoly":
        return cls(ring, {_ONE_MONOMIAL: value})

    @classmethod
    def variable(cls, ring: CoeffRing, var: int, exp: int = 1) -> "SparsePoly":
        require_ints("var, exp", var, exp, low=0)
        mono = ((var, exp),) if exp > 0 else _ONE_MONOMIAL
        return cls._new(ring, {mono: ring.one()})

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return poly_sum((self, self._coerce_operand(other)), self.ring)

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        return SparsePoly._new(ring, {m: ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    def __mul__(self, other):
        if other is self:
            return sum_of_squares((self,), self.ring)
        other = self._coerce_operand(other)
        ring = self.ring
        _check_ring(ring, other.ring)
        pack, unpack = _packing((self.terms, other.terms))
        terms: dict = {}
        _add_products(ring, terms, pack, self.terms.items(), other.terms)
        return _survivors(ring, terms, unpack)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        require_ints("exp", exp, low=0)
        if exp == 0:
            return SparsePoly.constant(self.ring, 1)
        result = None
        base = self
        while exp:
            if exp & 1:
                result = base if result is None else result * base
            base = base * base if exp > 1 else base
            exp >>= 1
        return result

    def _coerce_operand(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            return other
        return SparsePoly.constant(self.ring, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None  # mutable term map; polynomials are not dict keys

    # -- display ---------------------------------------------------------------

    def first_term(self) -> tuple[Monomial, object] | None:
        """The (monomial, coefficient) that ``to_text`` prints first, or None
        for the zero polynomial."""
        if not self.terms:
            return None
        mono = min(self.terms, key=_text_order)
        return mono, self.terms[mono]

    def to_text(self, names: Callable[[int], str] | Mapping[int, str] | None = None) -> str:
        """Canonical text form ``coeff*v3^2*v7 + ...`` in graded-lex order."""
        if not self.terms:
            return "0"
        if names is None:
            name = lambda v: f"v{v}"
        elif callable(names):
            name = names
        else:
            name = lambda v: names.get(v, f"v{v}")

        parts = []
        for mono in sorted(self.terms, key=_text_order):
            coeff = self.terms[mono]
            factors = [f"{name(v)}^{e}" if e > 1 else name(v) for v, e in mono]
            coeff_str = self.ring.format_element(coeff)
            if factors and coeff == self.ring.one():
                parts.append("*".join(factors))
            elif factors:
                parts.append("*".join([coeff_str] + factors))
            else:
                parts.append(coeff_str)
        return " + ".join(parts)

    def __repr__(self):
        return f"SparsePoly({self.to_text()})"


def _check_ring(ring: CoeffRing, other: CoeffRing):
    if other is not ring and other != ring:
        raise ValueError(f"ring mismatch: {ring!r} vs {other!r}")


def _add_products(ring: CoeffRing, terms: dict, pack: Callable, left: Iterable, right: Mapping) -> None:
    """Add the product of every (monomial, coefficient) pair of ``left`` with
    every term of ``right`` into ``terms``, a map from packed monomials to
    lazy sums, with the ring's lazy operations."""
    add, mul = ring.lazy_add, ring.lazy_mul
    get = terms.get
    rights = [(pack(m), c) for m, c in right.items()]
    for m1, c1 in left:
        k1 = pack(m1)
        for k2, c2 in rights:
            k = k1 + k2
            c = mul(c1, c2)
            prev = get(k)
            terms[k] = c if prev is None else add(prev, c)


def _survivors(ring: CoeffRing, terms: dict, unpack: Callable) -> SparsePoly:
    """The poly of a map from packed monomials to lazy sums: each sum is
    reduced once, and only the monomials of nonzero ones are unpacked."""
    reduce, zero = ring.reduce, ring.zero()
    out = {}
    for k, c in terms.items():
        c = reduce(c)
        if c != zero:
            out[unpack(k)] = c
    return SparsePoly._new(ring, out)


def poly_sum(polys: Iterable[SparsePoly], ring: CoeffRing) -> SparsePoly:
    """The sum of ``polys``, all over ``ring``, added into one term map."""
    add, zero = ring.add, ring.zero()
    terms: dict = {}
    get = terms.get
    for p in polys:
        _check_ring(ring, p.ring)
        for mono, c in p.terms.items():
            prev = get(mono)
            terms[mono] = c if prev is None else add(prev, c)
    return SparsePoly._new(ring, {m: c for m, c in terms.items() if c != zero})


def sum_of_squares(
    polys: Iterable[SparsePoly], ring: CoeffRing, minus: tuple[SparsePoly, SparsePoly] | None = None
) -> SparsePoly:
    """The sum of p * p over ``polys``, all over ``ring``, exactly, less the
    product ``left * right`` when ``minus=(left, right)`` is given.

    Polys with the same support, in the same insertion order, are squared
    together: the packed product of each unordered pair of support terms is
    formed once for the group, and its coefficient products are summed over
    the group's coefficient rows by ``ring.dot``.  Every group adds into one
    map keyed by packed monomial, gathered with the ring's lazy operations:
    the cross sums are doubled once, the squares of the terms are added on
    top, then the negated products of ``minus``, and each coefficient is
    reduced once.  Only nonzero coefficients are unpacked, so a difference
    that cancels unpacks nothing.  Nothing is kept between calls.
    """
    groups: dict = {}
    for p in polys:
        _check_ring(ring, p.ring)
        groups.setdefault(tuple(p.terms), []).append(list(p.terms.values()))
    minus = minus or ()
    for p in minus:
        _check_ring(ring, p.ring)
    pack, unpack = _packing([*groups, *(p.terms for p in minus)])
    add = ring.lazy_add
    terms: dict = {}
    get = terms.get
    squares = []
    for support, rows in groups.items():
        if len(rows) == 1:  # one poly: multiply its coefficients directly
            cols, dot = rows[0], ring.lazy_mul
        else:
            cols, dot = list(zip(*rows)), ring.dot
        items = [(pack(m), col) for m, col in zip(support, cols)]
        for a, (k1, col) in enumerate(items):
            for k2, col2 in items[a + 1 :]:
                k = k1 + k2
                c = dot(col, col2)
                prev = get(k)
                terms[k] = c if prev is None else add(prev, c)
        squares += [(k + k, dot(col, col)) for k, col in items]
    for k, c in terms.items():  # in place: no second map of every monomial
        terms[k] = add(c, c)
    for k, c in squares:
        prev = get(k)
        terms[k] = c if prev is None else add(prev, c)
    if minus:
        left, right = minus
        _add_products(ring, terms, pack, ((m, ring.neg(c)) for m, c in left.terms.items()), right.terms)
    return _survivors(ring, terms, unpack)


def hyperbolic_coordinate_change(n: int, ring: CoeffRing | None = None) -> bool:
    """Check that the split (hyperbolic) quadratic form in n+2 variables turns
    into the standard sum of squares under the substitution

        a_j = w_{2j-1} + i*w_{2j},   b_j = w_{2j-1} - i*w_{2j}

    (with the odd leftover coordinate c = w_{n+2} kept as a square), where i
    is a square root of -1.  Returns True when the expansion is exactly
    w_1^2 + ... + w_{n+2}^2.
    """
    require_ints("n", n, low=0)
    if ring is None:
        ring = gaussian_ext(IntegerRing())
    i_elt = ring.sqrt_minus_one()
    if i_elt is None:
        raise ValueError("ring has no square root of -1")

    # variables w_1..w_{n+2} get ids 0..n+1
    w = [SparsePoly.variable(ring, m) for m in range(n + 2)]
    i_const = SparsePoly.constant(ring, i_elt)

    pairs = n // 2 + 1
    total = SparsePoly.zero(ring)
    for j in range(pairs):
        a_j = w[2 * j] + i_const * w[2 * j + 1]
        b_j = w[2 * j] - i_const * w[2 * j + 1]
        total = total + a_j * b_j
    if n % 2 == 1:
        total = total + w[n + 1] * w[n + 1]

    squares = poly_sum((wm * wm for wm in w), ring)
    return total == squares
