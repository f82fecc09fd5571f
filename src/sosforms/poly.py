"""Exact sparse multivariate polynomials over a coefficient ring.

A polynomial is a map from monomials to nonzero coefficients.  Monomials are
sorted tuples of (variable id, exponent) pairs with positive exponents, so
the zero polynomial has an empty term map and equality of polynomials is
equality of term maps.  Variable ids are plain ints; display names come from
an optional registry.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .rings import CoeffRing, IntegerRing, gaussian_ext, require_ints

# Monomial: tuple of (var, exp) pairs, sorted by var, all exps > 0.
Monomial = tuple

_ONE_MONOMIAL: Monomial = ()


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials: one merge of the two sorted pair lists."""
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 < v2:
            out.append(m1[i])
            i += 1
        elif v2 < v1:
            out.append(m2[j])
            j += 1
        else:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _text_order(m: Monomial) -> tuple:
    """Graded-lex sort key: higher degree first, then the variable word."""
    return (-_mono_degree(m), tuple(v for v, e in m for _ in range(e)))


class SparsePoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoeffRing, terms: Mapping[Monomial, object] | None = None):
        self.ring = ring
        if terms:
            zero = ring.zero()
            self.terms = {mono: c for mono, c in terms.items() if c != zero}
        else:
            self.terms = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring: CoeffRing) -> "SparsePoly":
        return cls(ring)

    @classmethod
    def constant(cls, ring: CoeffRing, value) -> "SparsePoly":
        return cls(ring, {_ONE_MONOMIAL: ring.coerce(value)})

    @classmethod
    def variable(cls, ring: CoeffRing, var: int, exp: int = 1) -> "SparsePoly":
        require_ints("var, exp", var, exp, low=0)
        mono = ((var, exp),) if exp > 0 else _ONE_MONOMIAL
        return cls(ring, {mono: ring.one()})

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
        return SparsePoly(ring, {m: ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    def __mul__(self, other):
        if other is self:
            return self._square()
        other = self._coerce_operand(other)
        _check_ring(self.ring, other.ring)
        add, mul = self.ring.add, self.ring.mul
        terms: dict = {}
        get = terms.get
        others = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in others:
                mono = _mono_mul(m1, m2)
                c = mul(c1, c2)
                prev = get(mono)
                terms[mono] = c if prev is None else add(prev, c)
        return SparsePoly(self.ring, terms)

    def _square(self) -> "SparsePoly":
        """self * self, from each unordered pair of terms once."""
        return _square_sum(self.ring, list(self.terms), [list(self.terms.values())])

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


def poly_sum(polys: Iterable[SparsePoly], ring: CoeffRing) -> SparsePoly:
    """The sum of ``polys``, all over ``ring``, added into one term map."""
    add = ring.add
    terms: dict = {}
    get = terms.get
    for p in polys:
        _check_ring(ring, p.ring)
        for mono, c in p.terms.items():
            prev = get(mono)
            terms[mono] = c if prev is None else add(prev, c)
    return SparsePoly(ring, terms)


def sum_of_squares(polys: Iterable[SparsePoly], ring: CoeffRing) -> SparsePoly:
    """The sum of p * p over ``polys``, all over ``ring``, exactly.

    Polys with the same support, in the same insertion order, are squared
    together, so the monomial product of each pair of support terms is formed
    once for the group, not once per poly.  Nothing is kept between calls.
    """
    groups: dict = {}
    for p in polys:
        _check_ring(ring, p.ring)
        groups.setdefault(tuple(p.terms), []).append(list(p.terms.values()))
    return poly_sum((_square_sum(ring, support, rows) for support, rows in groups.items()), ring)


def _square_sum(ring: CoeffRing, support: list, rows: list) -> SparsePoly:
    """The sum of the squares of the polys sum_a row[a] * support[a], one per
    coefficient row.  Each unordered pair of support terms is multiplied
    once, its coefficient products summed over the rows by ``ring.dot``; the
    cross sums are doubled once per monomial and the squares of the terms
    added on top.  The sums are gathered with the ring's lazy operations; a
    coefficient is reduced when its cross sum is doubled and when a square
    is added to it, not once per product."""
    add, reduce = ring.lazy_add, ring.reduce
    if len(rows) == 1:  # one poly: multiply its coefficients directly
        cols, dot = rows[0], ring.lazy_mul
    else:
        cols, dot = list(zip(*rows)), ring.dot
    items = list(zip(support, cols))
    terms: dict = {}
    get = terms.get
    for a, (m1, col) in enumerate(items):
        for m2, col2 in items[a + 1 :]:
            mono = _mono_mul(m1, m2)
            c = dot(col, col2)
            prev = get(mono)
            terms[mono] = c if prev is None else add(prev, c)
    for mono, c in terms.items():  # in place: no second map of every monomial
        terms[mono] = reduce(add(c, c))
    for m, col in items:
        mono = tuple((v, e + e) for v, e in m)
        c = dot(col, col)
        prev = get(mono)
        terms[mono] = reduce(c if prev is None else add(prev, c))
    return SparsePoly(ring, terms)


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
