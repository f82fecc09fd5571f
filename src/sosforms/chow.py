"""Chow rings of split quadrics, Gysin tables, and the localization
bookkeeping that recovers the additive basis of the deleted-quadric ring.

For the m-dimensional split quadric Q_m inside P^(m+1), the Chow ring is
(grading by codimension, x the hyperplane section, y the extra generator):

    m = 2k+1:          Z[x, y] / (x^(k+1) - 2y,  y^2)            deg y = k+1
    m = 2k,  k odd:    Z[x, y] / (x^(k+1) - 2xy, y^2)            deg y = k
    m = 2k,  k even:   Z[x, y] / (x^(k+1) - 2xy, x^(k+1)y, y^2 - x^k y)

Classes are kept in normal form on the monomial basis {x^i, x^i y : 0 <= i
<= k}.  In the even case the two middle-dimensional plane classes are
alpha = y and beta = x^k - y, with intersection pairing

    k odd:   alpha^2 = beta^2 = 0,    alpha.beta = [*]
    k even:  alpha^2 = beta^2 = [*],  alpha.beta = 0

where [*] = x^k y is the point class.  For the conic Q_1 (k = 0) the
degree-1 generator in this basis is the point class y, with x = 2y; the
hyperplane-class presentation Z[x]/x^2 of P^1 names a different degree-1
element, and both descriptions are kept.

The Gysin pushforward j_* : CH^i(Q_(n-1)) -> CH^(i+1)(P^n) is multiplication
by 2 below the middle codimension, an isomorphism above it, and the fold map
(1 1) on (alpha, beta) at the middle when n is odd; the pullback is the ring
map t -> x.  Reducing the integer tables mod 2 and walking the localization
sequence yields one generator in bidegree (i, ceil(i/2)) for the deleted
quadric, the kernel contribution shifted by (1, 1).
"""

from __future__ import annotations

from .algebra import NormalForm, accumulate, mono_text
from .grading import BiDegree
from .rings import require_ints

# `sosforms chow M` and `chow gysin N` build tables with O(M) rows, and refuse
# M or N above this cap before any work.  Measured with Python 3.11 on a
# 2-core machine: `chow 65536` 0.35 s and 35 MB, `chow gysin 65536` 1.4 s and
# 63 MB (json); past the cap, `chow 1000000` took 4.2 s and 310 MB, and
# `chow gysin 1000000` 21 s and 576 MB.
MAX_TABLE_DIM = 2 ** 16


def y_codim(m: int) -> int:
    """Codimension of the generator y in CH*(Q_m)."""
    return (m + 1) // 2


def _reduce_monomial(m: int, i: int, j: int) -> tuple:
    """Normal form of x^i y^j in CH*(Q_m) as (((i', ybit), int unit), ...)."""
    k = m // 2
    odd = m % 2 == 1
    if j >= 2:
        if odd or k % 2 == 1:
            return ()  # y^2 = 0
        # k even: y^2 = x^k y
        return _reduce_monomial(m, i + k, j - 1)
    if i <= k:
        return (((i, j), 1),)
    if j == 1:
        return ()  # x^(k+1) y = 0 in every case
    # x^(k+1) = 2y (odd) or 2xy (even)
    shift = i - k - 1 if odd else i - k
    return tuple((key, 2 * c) for key, c in _reduce_monomial(m, shift, 1))


def basis_monomials(m: int) -> list[tuple[int, int]]:
    require_ints("m", m, low=0)
    k = m // 2
    return [(i, 0) for i in range(k + 1)] + [(i, 1) for i in range(k + 1)]


class ChowClass(NormalForm):
    """Integer combination of the normal-form monomials of CH*(Q_m)."""

    __slots__ = ()
    UNIT = ((0, 0), 1)

    def __init__(self, m: int, terms=None):
        require_ints("m", m, low=0)
        super().__init__(m, terms)

    @property
    def m(self) -> int:
        return self.ring

    def _reduce(self, key) -> tuple:
        return _reduce_monomial(self.ring, *key)

    @classmethod
    def x(cls, m: int) -> "ChowClass":
        return cls(m, {(1, 0): 1})

    @classmethod
    def y(cls, m: int) -> "ChowClass":
        return cls(m, {(0, 1): 1})

    @classmethod
    def monomial(cls, m: int, i: int, ybit: int, coeff: int = 1) -> "ChowClass":
        return cls(m, {(i, ybit): coeff})

    @classmethod
    def alpha(cls, m: int) -> "ChowClass":
        if m % 2:
            raise ValueError("middle plane classes live on even quadrics")
        return cls.y(m)

    @classmethod
    def beta(cls, m: int) -> "ChowClass":
        if m % 2:
            raise ValueError("middle plane classes live on even quadrics")
        return cls(m, {(m // 2, 0): 1, (0, 1): -1})

    @classmethod
    def point(cls, m: int) -> "ChowClass":
        """The class [*] of a rational point (top codimension)."""
        return cls(m, {(m // 2, 1): 1})

    def __neg__(self) -> "ChowClass":
        return self * -1

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new(self.m, {k: other * c for k, c in self.terms.items()} if other else {})
        return super().__mul__(other)

    __rmul__ = __mul__

    def to_text(self) -> str:
        parts = []
        for key in sorted(self.terms, key=lambda t: (t[0] + t[1] * y_codim(self.m), t[1])):
            c, mono = self.terms[key], mono_text(("x", "y"), key)
            if not mono:
                parts.append(str(c))
            elif c in (1, -1):
                parts.append(mono if c == 1 else f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") or "0"

    def __repr__(self):
        return f"ChowClass(Q_{self.m}: {self.to_text()})"


def presentation_text(m: int) -> str:
    require_ints("m", m, low=0)
    k = m // 2
    if m % 2:
        return f"Z[x,y]/(x^{k + 1} - 2y, y^2), deg x = 1, deg y = {k + 1}"
    if k % 2:
        return f"Z[x,y]/(x^{k + 1} - 2xy, y^2), deg x = 1, deg y = {k}"
    return f"Z[x,y]/(x^{k + 1} - 2xy, x^{k + 1}y, y^2 - x^{k}y), deg x = 1, deg y = {k}"


def additive_ranks(m: int) -> dict[int, int]:
    """Rank of CH^i(Q_m) for each codimension, read off the basis."""
    ranks: dict[int, int] = {}
    for (i, ybit) in basis_monomials(m):
        codim = i + ybit * y_codim(m)
        ranks[codim] = ranks.get(codim, 0) + 1
    return ranks


# -- Gysin tables -------------------------------------------------------------


def gysin_pushforward(n: int, i: int):
    """Matrix of j_* : CH^i(Q_(n-1)) -> CH^(i+1)(P^n).

    Returns (2,) below the middle, (1,) above it, and the fold (1, 1) -- in
    the (alpha, beta) basis -- at i = (n-1)/2 when n is odd.
    """
    require_ints("n, i", n, i, low=0)
    if i > n - 1:
        raise ValueError("codimension out of range")
    if 2 * i < n - 1:
        return ((2,),)
    if 2 * i > n - 1:
        return ((1,),)
    return ((1, 1),)


def gysin_pullback(n: int, i: int) -> ChowClass:
    """Image of the generator t^i under j^* : CH^i(P^n) -> CH^i(Q_(n-1)),
    i.e. the normal form of x^i.  At the even middle this is alpha + beta."""
    require_ints("n, i", n, i, low=0)
    if i > n:
        raise ValueError("codimension out of range")
    return ChowClass.monomial(n - 1, i, 0)


def pushforward_class(n: int, cls: ChowClass) -> dict[int, int]:
    """j_* on a normal-form class, as {codim d: coefficient of t^d} in P^n.

    A basis monomial in codim c maps to t^(c+1) with coefficient 2 when the
    monomial is a pure power of x and 1 when it involves y; this encodes the
    multiplication-by-2 range, the isomorphism range, and the fold.
    """
    require_ints("n", n)
    if cls.m != n - 1:
        raise ValueError("class does not live on Q_(n-1)")
    out: dict[int, int] = {}
    for (i, ybit), c in cls.terms.items():
        accumulate(out, i + ybit * y_codim(cls.m) + 1, c if ybit else 2 * c)
    return out


def projection_formula_check(n: int) -> bool:
    """Verify j_*(g . j^* t^d) = (j_* g) . t^d for every basis class g of
    CH*(Q_(n-1)) and every generator t^d of CH*(P^n), and re-derive that
    j_* j^* is multiplication by 2 in every codimension."""
    require_ints("n", n)
    m = n - 1
    # neither a basis class g nor j_* g depends on d
    classes = [ChowClass.monomial(m, i, ybit) for i, ybit in basis_monomials(m)]
    basis = [(g, pushforward_class(n, g)) for g in classes]
    for d in range(0, n + 1):
        xd = gysin_pullback(n, d)
        for g, pushed in basis:
            lhs = pushforward_class(n, g * xd)
            rhs = {deg + d: c for deg, c in pushed.items() if deg + d <= n}
            if lhs != rhs:
                return False
        # projection formula with g = [Q]: j_* j^* = x2
        composite = pushforward_class(n, xd)
        expected = {d + 1: 2} if d + 1 <= n else {}
        if composite != expected:
            return False
    return True


def even_intersection_table(k: int):
    """The 2x2 intersection matrix of (alpha, beta) on Q_2k, as integer
    multiples of the point class [*]."""
    require_ints("k", k)
    m = 2 * k
    classes = (ChowClass.alpha(m), ChowClass.beta(m))
    point = ChowClass.point(m)
    table = []
    for u in classes:
        row = []
        for v in classes:
            prod = u * v
            for mult in range(0, 3):
                if prod == point * mult:
                    row.append(mult)
                    break
            else:
                raise AssertionError("middle product is not a multiple of the point class")
        table.append(tuple(row))
    return tuple(table)


def quadric_generator_degrees(m: int) -> list[BiDegree]:
    """Bidegrees of the free module generators of the motivic cohomology of
    Q_m: (0,0), (2,1), ..., (2m,m), plus an extra (m, m/2) when m is even."""
    require_ints("m", m, low=0)
    out = [BiDegree(2 * i, i) for i in range(m + 1)]
    if m % 2 == 0:
        out.append(BiDegree(m, m // 2))
    return out


def dq_additive_basis_localization(n: int) -> list[BiDegree]:
    """Additive basis of the mod-2 cohomology of the deleted quadric DQ_n,
    derived from the localization sequence of Q_(n-1) in P^n.

    The integer Gysin matrices are reduced mod 2 (multiplication by 2 becomes
    zero, isomorphisms stay onto, the fold keeps rank one); cokernel
    generators land in their own degree and kernel generators shift by
    (1, 1).  The result is one generator in degree (i, ceil(i/2)) per
    0 <= i <= n.
    """
    require_ints("n", n)
    m = n - 1
    counts: dict[int, int] = {}
    for deg in quadric_generator_degrees(m):
        counts[deg.q] = counts.get(deg.q, 0) + 1

    basis: list[BiDegree] = []
    covered: dict[int, bool] = {}
    for c in range(0, m + 1):
        mat = gysin_pushforward(n, c)
        width = len(mat[0])
        if width != counts.get(c, 0):
            raise AssertionError("generator count disagrees with Gysin table shape")
        mod2 = tuple(e % 2 for e in mat[0])
        rank = 1 if any(mod2) else 0
        ker = width - rank
        for _ in range(ker):
            basis.append(BiDegree(2 * c + 1, c + 1))
        covered[c + 1] = rank == 1
    for d in range(0, n + 1):
        if not covered.get(d, False):
            basis.append(BiDegree(2 * d, d))
    return sorted(basis)
