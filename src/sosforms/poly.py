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

Every product is formed in Z or Z[i].  ``_lift`` makes the coefficients of
a multiplication's inputs ints, or (re, im) pairs of ints over a Gaussian
extension: over Z and GF(p) they already are, and over Q and Q[i] each part
is multiplied by the lcm D of all the inputs' denominators.  Sums of products
are then never reduced on the way, and each nonzero sum v is read back once,
part by part: as v mod p over GF(p), v / D^2 over Q, and v itself over Z.

Coefficients are packed too where polys share a support: ``sum_of_squares``
packs each lifted coefficient row of such a group into one int of W-bit
lanes (Kronecker substitution), and one multiply-add per coefficient puts
the dots of a column with all columns, doubled, in the lanes of one int.
They lie within +-2 parts n top^2 < 2^(W-1); biased by 2^(W-1) and XORed
back, they are read in C as signed ints of W = 8 to 64 bits, and past that
by shift and mask.  Polys whose supports differ by a few monomials are
squared as one group over the union of their supports, with zeros for the
missing coefficients, whenever that forms fewer products.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction
from math import lcm

from .rings import CoeffRing, GaussianExt, IntegerRing, PrimeField, RationalField, gaussian_ext, require_ints

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
        ring = self.ring
        pairs, read, (left, right) = _lift(ring, (self, self._coerce_operand(other)))
        add, mul, _ = _ARITHMETIC[pairs]
        pack, unpack = _packing((left, right))
        terms: dict = {}
        _add_products(terms, pack, left.items(), right, add, mul)
        return _survivors(ring, terms, unpack, pairs, read)

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


# (add, mul, neg) of lifted coefficients: ints, or (re, im) pairs of ints, with
# (x + yi)(u + vi) = (xu - yv) + (xv + yu)i
_ARITHMETIC = {
    False: (operator.add, operator.mul, operator.neg),
    True: (
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
        lambda a: (-a[0], -a[1]),
    ),
}


def _lift(ring: CoeffRing, polys) -> tuple[bool, Callable, list]:
    """(pairs, read, maps): the term maps of ``polys``, all over ``ring``,
    with each coefficient an int, or a (re, im) pair of ints when ``pairs``,
    and ``read``, which maps one part of a sum of their products to the base
    ring.  Over Q and Q[i] each part is multiplied by the lcm D of every
    denominator in ``polys``, so ``read`` divides by D^2."""
    pairs = isinstance(ring, GaussianExt)
    base = ring.base if pairs else ring
    for p in polys:
        _check_ring(ring, p.ring)
    maps = [p.terms for p in polys]
    if not isinstance(base, RationalField):  # ints already: read v mod p, or v itself
        return pairs, base.p.__rmod__ if isinstance(base, PrimeField) else int, maps
    parts = {v for terms in maps for c in terms.values() for v in (c if pairs else (c,))}
    scale = lcm(*{v.denominator for v in parts})
    lift = {v: v.numerator * (scale // v.denominator) for v in parts}
    maps = [{m: (lift[c[0]], lift[c[1]]) if pairs else lift[c] for m, c in terms.items()} for terms in maps]
    square = scale * scale
    return pairs, lambda v: Fraction(v, square), maps


def _add_products(terms: dict, pack: Callable, left: Iterable, right: Mapping, add: Callable, mul: Callable) -> None:
    """Add the product of every (monomial, coefficient) pair of ``left`` with
    every term of ``right`` into ``terms``, a map from packed monomials to
    sums, with ``add`` and ``mul``."""
    get = terms.get
    rights = [(pack(m), c) for m, c in right.items()]
    for m1, c1 in left:
        k1 = pack(m1)
        for k2, c2 in rights:
            k = k1 + k2
            c = mul(c1, c2)
            prev = get(k)
            terms[k] = c if prev is None else add(prev, c)


def _survivors(ring: CoeffRing, terms: dict, unpack: Callable, pairs: bool, read: Callable) -> SparsePoly:
    """The poly of a map from packed monomials to sums of lifted products:
    each nonzero sum (each part of a nonzero pair) is read back once, and
    only the monomials of nonzero elements are unpacked."""
    out = {}
    if pairs:
        for k, (re, im) in terms.items():
            if (re or im) and any(c := (read(re), read(im))):
                out[unpack(k)] = c
    else:
        for k, v in terms.items():
            if v and (c := read(v)):
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


# signed C formats by lane width, sized as memoryview casts them (importing
# struct would slow every command); none on a big-endian machine
_FORMATS = {8 * memoryview(bytes(8)).cast(f).itemsize: f for f in "bhilq"} if sys.byteorder == "little" else {}


def _lane_width(bound: int) -> int:
    """Bits per lane for lanes within +-``bound``: the narrowest width W of
    ``_FORMATS`` with bound < 2^(W-1), or past them bit_length(bound) + 1."""
    for width in sorted(_FORMATS):
        if bound < 1 << (width - 1):
            return width
    return bound.bit_length() + 1


def _row_dots(rows: list, pairs: bool) -> Iterator:
    """For each column u of ``rows``, the lifted coefficient rows of a group
    of polys with one support, its dots with the columns v = u, u + 1, ...:
    the square sum_k rows[k][u]^2, then each sum_k rows[k][u] rows[k][v]
    doubled: an iterable of ints, or of (re, im) pairs when ``pairs``.

    Each part of row k is packed once as 2 R_k, R_k = sum_v c_kv 2^(W v), so
    2 D_u = sum_k c_ku 2 R_k over the nonzero c_ku holds twice the dot of
    columns u and v in lane v; over a Gaussian ring re = sum_k (x_ku 2 Rx_k
    - y_ku 2 Ry_k) and im = sum_k (x_ku 2 Ry_k + y_ku 2 Rx_k).  Every lane
    lies within +-2 parts n top^2 < 2^(W-1), W from ``_lane_width``: with
    2^(W-1) added to each none borrows, and XORed back they are two's
    complement, read in C by a memoryview cast where W is a C width and by
    shift and mask past that.  Lane u, the square, is halved."""
    size = len(rows[0])
    parts = [([c[0] for c in row], [c[1] for c in row]) for row in rows] if pairs else [rows]
    top = max((max(max(part), -min(part)) for row in parts for part in row if part), default=0)
    width = _lane_width(2 * (1 + pairs) * len(rows) * top * top)
    bias = ((1 << (width * size)) - 1) // ((1 << width) - 1) << (width - 1)  # 2^(W-1) in every lane
    fmt, nbytes, mask, half = _FORMATS.get(width), width * size // 8, (1 << width) - 1, 1 << (width - 1)
    if fmt:
        read = lambda x, u: memoryview((x ^ bias).to_bytes(nbytes, "little")).cast(fmt)[u:].tolist()
    else:
        read = lambda x, u: [(x >> at & mask) - half for at in range(width * u, width * size, width)]
    shifts = range(1, width * size, width)  # 2 R_k = sum_v c_kv 2^(W v + 1)
    if pairs:
        packed = [(sum(map(operator.lshift, xs, shifts)), sum(map(operator.lshift, ys, shifts))) for xs, ys in parts]
        for u, column in enumerate(zip(*rows)):
            re = im = bias
            for (x, y), (rx, ry) in zip(column, packed):
                if x:
                    re += x * rx
                    im += x * ry
                if y:
                    re -= y * ry
                    im += y * rx
            re, im = read(re, u), read(im, u)
            re[0] >>= 1
            im[0] >>= 1
            yield zip(re, im)
    else:
        packed = [sum(map(operator.lshift, row, shifts)) for row in rows]
        for u, column in enumerate(zip(*rows)):
            x = bias
            for c, r in zip(column, packed):
                if c:
                    x += c * r
            lanes = read(x, u)
            lanes[0] >>= 1
            yield lanes


def _fill_rows(groups: list, union: set, zero) -> list:
    """The coefficient rows of every (packed support, rows) group, each
    spread over the packed monomials of ``union`` in order, with ``zero``
    where its support has none."""
    at = {k: u for u, k in enumerate(union)}
    rows = []
    for keys, group in groups:
        places = [at[k] for k in keys]
        for row in group:
            full = [zero] * len(at)
            for u, c in zip(places, row):
                full[u] = c
            rows.append(full)
    return rows


def sum_of_squares(
    polys: Iterable[SparsePoly], ring: CoeffRing, minus: tuple[SparsePoly, SparsePoly] | None = None
) -> SparsePoly:
    """The sum of p * p over ``polys``, all over ``ring``, exactly, less the
    product ``left * right`` when ``minus=(left, right)`` is given.

    Polys with the same support, in the same insertion order, are squared
    together: the packed product of each unordered pair of support terms is
    formed once for the group, and its coefficient is the dot product of the
    two terms' coefficient columns over the group's rows.  Groups of t_g
    terms whose union has U monomials become one group over the union when
    that forms fewer products, U (U + 1) < sum_g t_g (t_g + 1), each row
    filled with zeros, (0, 0) for pairs, where its support has no monomial.
    Every coefficient is lifted first (``_lift``), so all of this is integer
    arithmetic.  A group of one poly multiplies its coefficients directly; a
    larger group reads its dots off W-bit lanes (``_row_dots``): within
    +-2 parts n top^2 < 2^(W-1), biased by 2^(W-1) so that none borrows, and
    XORed with the bias to two's complement for a memoryview cast.  Every
    group adds its squares and doubled cross sums into one map keyed by
    packed monomial, then the negated products of ``minus``, and each sum is
    read back once.  Only nonzero coefficients are unpacked, so a difference
    that cancels unpacks nothing.  Nothing is kept between calls.
    """
    minus = minus or ()
    pairs, read, maps = _lift(ring, [*polys, *minus])
    add, mul, neg = _ARITHMETIC[pairs]
    squared = len(maps) - len(minus)
    groups: dict = {}
    for lifted in maps[:squared]:
        groups.setdefault(tuple(lifted), []).append(list(lifted.values()))
    pack, unpack = _packing([*groups, *maps[squared:]])
    groups = [([pack(m) for m in support], rows) for support, rows in groups.items()]
    if len(groups) > 1:  # the union's size is counted only until it is too large
        per_support, union = sum(len(keys) * (len(keys) + 1) for keys, _ in groups), set()
        for keys, _ in groups:
            union.update(keys)
            if len(union) * (len(union) + 1) >= per_support:
                break
        else:
            groups = [(list(union), _fill_rows(groups, union, (0, 0) if pairs else 0))]
    terms: dict = {}
    get = terms.get
    for keys, rows in groups:
        if len(rows) == 1:  # one poly: multiply its coefficients directly
            items = list(zip(keys, rows[0]))
            for a, (k1, c1) in enumerate(items):
                k, c = k1 + k1, mul(c1, c1)
                prev = get(k)
                terms[k] = c if prev is None else add(prev, c)
                twice = add(c1, c1)
                for k2, c2 in items[a + 1 :]:
                    k = k1 + k2
                    c = mul(twice, c2)
                    prev = get(k)
                    terms[k] = c if prev is None else add(prev, c)
            continue
        for u, (k1, dots) in enumerate(zip(keys, _row_dots(rows, pairs))):
            for k2, c in zip(keys[u:], dots):  # the square, then the doubled cross sums
                k = k1 + k2
                prev = get(k)
                terms[k] = c if prev is None else add(prev, c)
    if minus:
        left, right = maps[squared:]
        _add_products(terms, pack, ((m, neg(c)) for m, c in left.items()), right, add, mul)
    return _survivors(ring, terms, unpack, pairs, read)


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
