"""Bilinear sums-of-squares composition formulas of type [r, s, n].

A formula is a coefficient tensor T[k][i][j] defining the bilinear forms
z_k = sum_{i,j} T[k][i][j] x_i y_j; it is *verified* when

    (x_1^2 + ... + x_r^2)(y_1^2 + ... + y_s^2) = z_1^2 + ... + z_n^2

holds identically in the polynomial ring.  The one stored form is the
tensor's nonzeros: per slice k, the (i, j, c) with c = T[k][i][j] != 0, in
(i, j) order.  Every classical formula is sparse, so loading, restricting,
changing the ring and setting up either verifier cost O(nnz), not O(n r s);
the dense tensor is built only on demand (``tensor``, ``to_json_dict``).
Two independent verifiers read the nonzeros: direct expansion
(``verify_by_expansion``), and the equivalent matrix equations
B_a^T B_b + B_b^T B_a = 2 delta_{ab} I (``gram_defect``, ``verify_by_hurwitz``)
on the r matrices B_i (n x s) whose rows are the tensor rows, B_i[k] = T[k][i].

Classical constructions included: the trivial [r, s, rs] formula, the
2/4/8-square identities of the composition algebras C, H, O (loaded from a
data file and re-verified), and the Hurwitz-Radon family of type
[rho(n), n, n] built from anticommuting signed-permutation matrices, with the
Hurwitz-Radon function rho and the upper bound on r * s that the family gives.
"""

from __future__ import annotations

import json
import os

from .poly import SparsePoly, poly_sum, sum_of_squares
from .rings import (
    CoeffRing,
    IntegerRing,
    ZZ,
    gaussian_ext,
    require_ints,
    ring_from_json,
    ring_to_json,
)


class SosFormula:
    """An [r, s, n] bilinear formula over a ring, stored as its nonzeros.

    The tensor is indexed T[k][i][j] with 0 <= k < n, 0 <= i < r, 0 <= j < s;
    ``nonzeros[k]`` holds the (i, j, T[k][i][j]) with a nonzero entry, in
    (i, j) order.  In the associated polynomials, x_i has variable id i and
    y_j has id r+j.
    """

    __slots__ = ("r", "s", "n", "ring", "nonzeros")

    def __init__(self, r: int, s: int, n: int, ring: CoeffRing, tensor):
        self._store(r, s, n, ring, tensor, ring.coerce)

    def _store(self, r, s, n, ring, tensor, convert) -> None:
        """Check the dense tensor's shape and keep its nonzeros, converting
        each entry into the ring once.  An int 0 is zero in every ring, so it
        is skipped unconverted; every other entry is converted, and dropped
        if it is zero there ("0/7" over Q, 13 over GF(13))."""
        require_ints("r, s, n", r, s, n)
        if len(tensor) != n:
            raise ValueError("tensor has wrong number of slices")
        zero = ring.zero()
        nonzeros = []
        for slice_k in tensor:
            if len(slice_k) != r:
                raise ValueError("tensor slice has wrong shape")
            entries = []
            for i, row in enumerate(slice_k):
                if len(row) != s:
                    raise ValueError("tensor slice has wrong shape")
                for j, v in enumerate(row):
                    if v.__class__ is not int or v:
                        c = convert(v)
                        if c != zero:
                            entries.append((i, j, c))
            nonzeros.append(tuple(entries))
        self.r, self.s, self.n, self.ring = r, s, n, ring
        self.nonzeros = tuple(nonzeros)

    @classmethod
    def _of_nonzeros(cls, r: int, s: int, n: int, ring: CoeffRing, nonzeros) -> "SosFormula":
        """A formula from nonzeros that are already ring elements, nonzero,
        and in (i, j) order within each slice."""
        f = object.__new__(cls)
        f.r, f.s, f.n, f.ring, f.nonzeros = r, s, n, ring, nonzeros
        return f

    @property
    def tensor(self) -> tuple:
        """The dense tensor T[k][i][j] as nested tuples, built on each call."""
        zero = self.ring.zero()
        dense = []
        for entries in self.nonzeros:
            rows = [[zero] * self.s for _ in range(self.r)]
            for i, j, c in entries:
                rows[i][j] = c
            dense.append(tuple(map(tuple, rows)))
        return tuple(dense)

    @property
    def type_triple(self) -> tuple[int, int, int]:
        return (self.r, self.s, self.n)

    # -- polynomial side -------------------------------------------------------

    def z_poly(self, k: int) -> SparsePoly:
        r = self.r
        return SparsePoly._new(self.ring, {((i, 1), (r + j, 1)): c for i, j, c in self.nonzeros[k]})

    def z_polys(self) -> list[SparsePoly]:
        return [self.z_poly(k) for k in range(self.n)]

    def expansion_defect(self) -> SparsePoly:
        """sum_k z_k^2 - (sum_i x_i^2)(sum_j y_j^2), exactly.

        The whole difference is gathered in the one packed map of
        ``sum_of_squares``, so only its nonzero terms are ever unpacked:
        none for a formula that holds."""
        ring, r, one = self.ring, self.r, self.ring.one()
        xs = SparsePoly._new(ring, {((i, 2),): one for i in range(r)})
        ys = SparsePoly._new(ring, {((r + j, 2),): one for j in range(self.s)})
        return sum_of_squares(self.z_polys(), ring, minus=(xs, ys))

    def verify_by_expansion(self) -> bool:
        return self.expansion_defect().is_zero

    # -- matrix side -----------------------------------------------------------

    def gram_defect(self) -> tuple[int, int, int, int] | None:
        """The first (a, b, j, k) with a <= b, in lexicographic order, at which
        B_a^T B_b + B_b^T B_a differs from 2 delta_ab delta_jk; None if none.

        Only nonzero entries are touched.  For each pair a <= b the Gram
        matrix G = P + P^T, P = B_a^T B_b, is accumulated on and above its
        diagonal from the products of nonzeros sharing a row, which costs
        sum_m nnz(B_a[m]) * nnz(B_b[m]) ring products.  G can differ from its
        target only on that support, or on the diagonal when a = b.  The
        products are summed with the ring's lazy operations, and each entry
        is reduced once, when it is compared.
        """
        ring = self.ring
        if ring.characteristic() == 2:  # unreachable: such rings are rejected
            raise ValueError("matrix criterion needs characteristic != 2")
        add, mul, reduce, s = ring.lazy_add, ring.lazy_mul, ring.reduce, self.s
        zero, two = ring.zero(), ring.coerce(2)
        # rows[i][m]: the (column, value) nonzeros of row m of B_i, i.e. of T[m][i]
        rows = [[[] for _ in range(self.n)] for _ in range(self.r)]
        for m, entries in enumerate(self.nonzeros):
            for i, j, c in entries:
                rows[i][m].append((j, c))
        for a, rows_a in enumerate(rows):
            for b in range(a, len(rows)):
                # upper[j * s + k], j <= k, is G[j][k] for j < k and P[j][j] = G[j][j] / 2
                upper = {}
                get = upper.get
                for row_a, row_b in zip(rows_a, rows[b]):
                    for j, x in row_a:
                        for k, y in row_b:
                            key = j * s + k if j <= k else k * s + j
                            prev = get(key)
                            upper[key] = mul(x, y) if prev is None else add(prev, mul(x, y))
                if a == b:
                    for j in range(s):
                        upper.setdefault(j * s + j, zero)
                diagonal = two if a == b else zero
                # j = k exactly when s + 1 divides j * s + k, since 0 <= k - j < s
                bad = [
                    key
                    for key, g in upper.items()
                    if (reduce(add(g, g)) != diagonal if key % (s + 1) == 0 else reduce(g) != zero)
                ]
                if bad:
                    return (a, b, *divmod(min(bad), s))
        return None

    def verify_by_hurwitz(self) -> bool:
        return self.gram_defect() is None

    # -- transformations ---------------------------------------------------------

    def restrict(self, r2: int, s2: int) -> "SosFormula":
        """Zero out the trailing x and y variables: an [r', s', n] formula."""
        require_ints("r2, s2", r2, s2)
        if r2 > self.r or s2 > self.s:
            raise ValueError("restricted type out of bounds")
        nonzeros = tuple(
            tuple(e for e in entries if e[0] < r2 and e[1] < s2) for entries in self.nonzeros
        )
        return SosFormula._of_nonzeros(r2, s2, self.n, self.ring, nonzeros)

    def change_ring(self, ring: CoeffRing) -> "SosFormula":
        """The same tensor with each entry coerced into ``ring``; entries that
        become zero there (13 in GF(13)) are dropped."""
        coerce, zero = ring.coerce, ring.zero()
        nonzeros = tuple(
            tuple((i, j, c) for i, j, v in entries if (c := coerce(v)) != zero)
            for entries in self.nonzeros
        )
        return SosFormula._of_nonzeros(self.r, self.s, self.n, ring, nonzeros)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        ring = self.ring
        return {
            "r": self.r,
            "s": self.s,
            "n": self.n,
            "field": ring_to_json(ring),
            "tensor": [
                [[ring.element_to_json(c) for c in row] for row in slice_k]
                for slice_k in self.tensor
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "SosFormula":
        ring = ring_from_json(data["field"])
        f = object.__new__(cls)
        f._store(data["r"], data["s"], data["n"], ring, data["tensor"], ring.element_from_json)
        return f

    @classmethod
    def from_json(cls, text: str) -> "SosFormula":
        return cls.from_json_dict(json.loads(text))

    def __eq__(self, other) -> bool:
        # entries are canonical ring elements, so equal tensors have equal nonzeros
        if not isinstance(other, SosFormula):
            return NotImplemented
        return (
            self.type_triple == other.type_triple
            and self.ring == other.ring
            and self.nonzeros == other.nonzeros
        )

    __hash__ = None

    def __repr__(self):
        return f"SosFormula[{self.r},{self.s},{self.n}] over {self.ring!r}"


# -- classical constructions ------------------------------------------------------


def _load_tables() -> dict:
    # through the module's own loader, as pkgutil.get_data reads package data
    path = os.path.join(os.path.dirname(__file__), "data", "classical_formulas.json")
    return json.loads(__spec__.loader.get_data(path))


_TABLE_CACHE: dict = {}


def _nonzeros_from_table(table) -> tuple:
    """Entry (i, j) = +-(k + 1) of a signed multiplication table puts the sign
    at T[k][i][j]."""
    nonzeros = [[] for _ in table]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            nonzeros[abs(v) - 1].append((i, j, 1 if v > 0 else -1))
    return tuple(map(tuple, nonzeros))


def construct_trivial(r: int, s: int) -> SosFormula:
    """[r, s, rs] with z_(i,j) = x_i y_j."""
    require_ints("r, s", r, s)
    nonzeros = tuple(((i, j, 1),) for i in range(r) for j in range(s))
    return SosFormula._of_nonzeros(r, s, r * s, ZZ, nonzeros)


def construct_classical(kind: str) -> SosFormula:
    """One of the classical identities: ``two`` (Gauss, [2,2,2]), ``four``
    (Euler, [4,4,4]), or ``eight`` (Degen, [8,8,8]).

    The tensors come from a data file holding the signed multiplication
    tables of C, H, O; they are verified once at load and the loader refuses
    corrupted data.
    """
    if kind not in ("two", "four", "eight"):
        raise ValueError(f"unknown classical formula {kind!r}")
    if kind not in _TABLE_CACHE:
        table = _load_tables()[kind]
        d = len(table)
        f = SosFormula._of_nonzeros(d, d, d, ZZ, _nonzeros_from_table(table))
        if not f.verify_by_expansion():
            raise ValueError(f"table {kind!r} does not satisfy the identity")
        _TABLE_CACHE[kind] = f
    return _TABLE_CACHE[kind]


# -- Hurwitz-Radon family -----------------------------------------------------------
#
# A family of rho(n)-1 pairwise anticommuting skew matrices A with A^2 = -I,
# all signed permutation matrices, yields the [rho(n), n, n] formula with
# B_1 = I, B_{i+1} = A_i.  The family is assembled from tensor-product blocks:
# sizes 1, 2, 4 use quaternion-type generators, size 8 uses the octonion
# table, and each extra factor of 16 contributes eight more matrices via a
# symmetric involution that anticommutes with the size-16 family.


def rho(n: int) -> int:
    """Hurwitz-Radon function: for n = 2^(4a+b) * odd with 0 <= b <= 3,
    rho(n) = 8a + 2^b.  This is the largest r with a classical [r, n, n]
    formula."""
    require_ints("n", n)
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    a, b = divmod(t, 4)
    return 8 * a + 2 ** b


def hurwitz_radon_upper_bound(r: int, s: int) -> int:
    """Smallest n with rho(n) >= r and n >= s, so that the [rho(n), n, n]
    family restricts to an [r, s, n] formula."""
    require_ints("r, s", r, s)
    n = s
    while rho(n) < r:
        n += 1
    return n


# A signed permutation matrix is stored by rows: row k holds its one nonzero,
# the sign at column col, as the pair (col, sign).


def _eye(n: int) -> tuple:
    return tuple((k, 1) for k in range(n))


def _kron(A, B) -> tuple:
    """A (x) B: row i * len(B) + k holds sign sa * sb at column ca * len(B) + cb,
    where (ca, sa) is row i of A and (cb, sb) is row k of B."""
    nb = len(B)
    return tuple((ca * nb + cb, sa * sb) for ca, sa in A for cb, sb in B)


_J = ((1, -1), (0, 1))  # [[0, -1], [1, 0]]
_P = ((1, 1), (0, 1))  # [[0, 1], [1, 0]]
_R = ((0, 1), (1, -1))  # [[1, 0], [0, -1]]


def _octonion_family() -> list:
    # B_i for i >= 1 of Degen's formula: row k of B_i is the one nonzero of T[k][i]
    f = construct_classical("eight")
    fam = [[None] * f.n for _ in range(1, f.r)]
    for k, entries in enumerate(f.nonzeros):
        for i, j, c in entries:
            if i:
                fam[i - 1][k] = (j, c)
    return [tuple(rows) for rows in fam]


def _small_family(b: int) -> list:
    if b == 0:
        return []
    if b == 1:
        return [_J]
    if b == 2:
        return [_kron(_J, _eye(2)), _kron(_P, _J), _kron(_R, _J)]
    return _octonion_family()


def _skew_family(t: int) -> list:
    """rho(2^t) - 1 anticommuting skew signed-permutation matrices of size 2^t."""
    a, b = divmod(t, 4)
    fam = _small_family(b)
    size = 2 ** b
    if a:
        oct_fam = _octonion_family()
        g16 = [_kron(_J, _eye(8))] + [_kron(_P, o) for o in oct_fam]
        s16 = _kron(_R, _eye(8))
        for _ in range(a):
            fam = [_kron(g, _eye(size)) for g in g16] + [_kron(s16, d) for d in fam]
            size *= 16
    return fam


def construct_hurwitz_radon(n: int) -> SosFormula:
    """The [rho(n), n, n] formula with entries in {-1, 0, 1}."""
    require_ints("n", n)
    m = n
    t = 0
    while m % 2 == 0:
        m //= 2
        t += 1
    fam = _skew_family(t)
    if m > 1:
        block = _eye(m)
        fam = [_kron(A, block) for A in fam]
    mats = [_eye(n)] + fam
    assert len(mats) == rho(n)
    # T[k][i] is row k of B_i, whose one nonzero is mats[i][k]
    nonzeros = tuple(tuple((i, *mat[k]) for i, mat in enumerate(mats)) for k in range(n))
    return SosFormula._of_nonzeros(len(mats), n, n, ZZ, nonzeros)


# -- orthonormality and homotopy checks -------------------------------------------------


def orthonormal_vectors(f: SosFormula):
    """u = z(e_1, e_1) and v = z(e_2, e_1), with the flag

        ok  <=>  sum u^2 = 1, sum v^2 = 1, sum u*v = 0.

    For any verified formula with r >= 2 the flag is True: substituting the
    first two standard basis vectors into the defining identity forces
    exactly these relations.
    """
    if f.r < 2:
        raise ValueError("need r >= 2")
    ring, dot = f.ring, f.ring.dot
    u, v = [ring.zero()] * f.n, [ring.zero()] * f.n
    for k, entries in enumerate(f.nonzeros):
        for i, j, c in entries:
            if i < 2 and j == 0:
                (u, v)[i][k] = c
    ok = dot(u, u) == ring.one() and dot(v, v) == ring.one() and dot(u, v) == ring.zero()
    return u, v, ok


def _homotopy_shape(mode: str, ring, a, b, t):
    """The factor on the u, v block (1 or t) and the two extra coordinates."""
    i_c = SparsePoly.constant(ring, ring.sqrt_minus_one())
    if mode == "first":
        return 1, (t * a - t * i_c * b, t * i_c * a + t * b)
    return t, (a - t * i_c * b, t * i_c * a + b)


def _homotopy_formal(mode: str, ring, omit_uv_relation: bool) -> bool:
    # variables: a=0, b=1, t=2, S_uv=3
    a, b, t, s_uv = (SparsePoly.variable(ring, v) for v in range(4))
    factor, extras = _homotopy_shape(mode, ring, a, b, t)
    # sum over j of (u_j a + v_j b)^2 with sum u^2 = sum v^2 = 1 already applied,
    # and sum u*v = S_uv kept only when its relation is omitted
    block = a * a + b * b
    if omit_uv_relation:
        block = block + 2 * s_uv * a * b
    total = factor * factor * block + poly_sum((c * c for c in extras), ring)
    return total == a * a + b * b


def _reduce_modulo(poly: SparsePoly, rules) -> SparsePoly:
    """Rewrite each term once by the first rule whose leading monomial divides it.

    Each rule is (leading monomial, replacement polynomial).  One pass leaves
    no reducible term for the homotopy defects: each of their terms has degree
    0 or 2 in the u's and v's, so it contains at most one leading monomial,
    and no replacement contains u_n or v_n.
    """
    ring = poly.ring
    kept, rewritten = {}, []
    for mono, coeff in poly.terms.items():
        exps = dict(mono)
        for lead, repl in rules:
            if all(exps.get(v, 0) >= e for v, e in lead):
                rest = dict(exps)
                for v, e in lead:
                    rest[v] -= e
                quotient = tuple((v, e) for v, e in sorted(rest.items()) if e)
                rewritten.append(SparsePoly(ring, {quotient: coeff}) * repl)
                break
        else:
            kept[mono] = coeff
    return poly_sum([SparsePoly(ring, kept), *rewritten], ring)


def _homotopy_concrete(mode: str, n: int, ring, omit_uv_relation: bool) -> bool:
    # variables: a=0, b=1, t=2, u_j=3..n+2, v_j=n+3..2n+2
    a, b, t = (SparsePoly.variable(ring, v) for v in range(3))
    u = [SparsePoly.variable(ring, 3 + j) for j in range(n)]
    v = [SparsePoly.variable(ring, 3 + n + j) for j in range(n)]
    factor, extras = _homotopy_shape(mode, ring, a, b, t)
    coords = [factor * (u[j] * a + v[j] * b) for j in range(n)] + list(extras)
    defect = poly_sum((c * c for c in coords), ring) - (a * a + b * b)

    one = SparsePoly.constant(ring, 1)
    un, vn = 3 + n - 1, 3 + 2 * n - 1
    sum_uu = poly_sum((u[j] * u[j] for j in range(n - 1)), ring)
    sum_vv = poly_sum((v[j] * v[j] for j in range(n - 1)), ring)
    sum_uv = poly_sum((u[j] * v[j] for j in range(n - 1)), ring)
    rules = [
        (((un, 2),), one - sum_uu),
        (((vn, 2),), one - sum_vv),
    ]
    if not omit_uv_relation:
        rules.append((((un, 1), (vn, 1)), -sum_uv))
    return _reduce_modulo(defect, rules).is_zero


def homotopy_invariance_check(
    mode: str,
    n: int | str = "formal",
    *,
    omit_uv_relation: bool = False,
    ring: CoeffRing | None = None,
) -> bool:
    """Check that the two contraction homotopies of the standard line inside a
    deleted quadric preserve the defining inequation: the sum of squares of
    the n+2 image coordinates must equal a^2 + b^2 identically, given
    sum u^2 = 1, sum v^2 = 1, sum u*v = 0.

    ``mode='first'`` uses coordinates (u_j a + v_j b, ..., ta - tib, tia + tb);
    ``mode='second'`` uses (t u_j a + t v_j b, ..., a - tib, tia + b).

    With ``n='formal'`` the three sums are symbolic; a concrete integer n
    spells out the u's and v's and reduces modulo the three relations.
    Dropping the orthogonality relation must break the identity (the
    residual cross term in ab survives), which is exposed via
    ``omit_uv_relation``.
    """
    if mode not in ("first", "second"):
        raise ValueError(f"unknown homotopy mode {mode!r}")
    if ring is None:
        ring = gaussian_ext(IntegerRing())
    if ring.sqrt_minus_one() is None:
        raise ValueError("ring has no square root of -1")
    if n == "formal":
        return _homotopy_formal(mode, ring, omit_uv_relation)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be 'formal' or a positive integer")
    return _homotopy_concrete(mode, n, ring, omit_uv_relation)
