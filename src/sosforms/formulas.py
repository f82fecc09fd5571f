"""Bilinear sums-of-squares composition formulas of type [r, s, n].

A formula is a coefficient tensor T[k][i][j] defining the bilinear forms
z_k = sum_{i,j} T[k][i][j] x_i y_j; it is *verified* when

    (x_1^2 + ... + x_r^2)(y_1^2 + ... + y_s^2) = z_1^2 + ... + z_n^2

holds identically in the polynomial ring.  The one stored form is the
tensor's nonzeros: per slice k, the (i, j, c) with c = T[k][i][j] != 0, in
(i, j) order.  Every classical formula is sparse, so loading, restricting,
changing the ring and setting up either verifier cost O(nnz), not O(n r s);
only the JSON form lists every entry.
Two independent verifiers read the nonzeros: direct expansion
(``verify_by_expansion``), and the equivalent matrix equations
B_a^T B_b + B_b^T B_a = 2 delta_{ab} I (``gram_defect``, ``verify_by_hurwitz``)
on the r matrices B_i (n x s) whose rows are the tensor rows, B_i[k] = T[k][i].
The Gram check forms the rows of G with one of two kernels, chosen from the
count of nonzeros: per pair of matrices for a sparse formula, and for a dense
one (a formula over GF(p) or Q after a change of z) from row m of all r
matrices stacked into one integer, so that each nonzero costs one
multiply-add for all pairs at once.

Classical constructions included: the trivial [r, s, rs] formula, the
2/4/8-square identities of the composition algebras C, H, O (loaded from a
data file and re-verified), and the Hurwitz-Radon family of type
[rho(n), n, n] built from anticommuting signed-permutation matrices, with the
Hurwitz-Radon function rho and the upper bound on r * s that the family gives.
"""

from __future__ import annotations

import functools
import json
import os
from itertools import combinations_with_replacement
from math import lcm

from .poly import SparsePoly, poly_sum, sum_of_squares
from .rings import (
    CoeffRing,
    GaussianExt,
    IntegerRing,
    RationalField,
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
    def type_triple(self) -> tuple[int, int, int]:
        return (self.r, self.s, self.n)

    # -- polynomial side -------------------------------------------------------

    def z_poly(self, k: int) -> SparsePoly:
        r = self.r
        return SparsePoly._new(self.ring, {((i, 1), (r + j, 1)): c for i, j, c in self.nonzeros[k]})

    def z_polys(self) -> list[SparsePoly]:
        ys = [(self.r + j, 1) for j in range(self.s)]
        monos = [[((i, 1), y) for y in ys] for i in range(self.r)]  # one tuple per x_i y_j for every z_k
        return [SparsePoly._new(self.ring, {monos[i][j]: c for i, j, c in entries}) for entries in self.nonzeros]

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
        G = B_a^T B_b + B_b^T B_a differs from 2 delta_ab delta_jk; None if none.

        Row m of B_i is packed into the integer R[i][m] = sum_k x_k 2^(w k)
        (Kronecker substitution), each entry lifted once to an exact integer:
        itself over Z, its balanced residue over GF(p), itself times the lcm D
        of the denominators over Q (the target becomes 2 D^2), and a Gaussian
        entry part by part into lanes 2k and 2k + 1, with a second row packed
        times i.  A lane of B_a^T B_b sums at most lanes * n products of two
        lifts, so it lies within +-beta = lanes * n * (largest lift)^2, and no
        lane of G - target exceeds ``bound`` = 2 beta + 2 D^2 < 2^w.  The rows
        of G come from one of two kernels, chosen by the count of nonzeros
        (see ``_BLOCK_DENSITY``): ``_pair_gram_rows`` for sparse formulas and
        ``_block_gram_rows`` for dense ones.  Over Z and Q a row holds exactly
        when it is 0.  Over GF(p), w leaves room for row / p plus a bias of
        2^(t-1) in the low t bits of each lane: a row holds exactly when p
        divides it and that sum has no other bit.  The first failing lane of
        the first failing row is the witness, as G is symmetric; its digits
        before it are read exactly.
        """
        return self._gram_defect(None)

    def _gram_defect(self, memo):
        """``gram_defect``, less the pairs of matrices that ``memo`` has shown
        to hold.  ``memo`` is None, or a dict that the Gram checks of the
        formulas of one ring and one (r, s, n) share, empty at first.  G_ab
        depends on nothing but B_a, B_b and whether a = b, so a pair left out
        has no failing row, and the witness is unchanged.

        The memo interns each distinct matrix to a small int, keyed on its
        ring entries, not their lifts (over Q a lift depends on the
        denominators), and holds a pair as (id of B_a, id of B_b, a = b): the
        target 2 delta_ab I differs between the two cases, so B_a = B_b with
        a != b is still checked after B_a passed its diagonal pair.  It packs
        only the matrices of pairs still to check, each once, with one layout
        that covers every value packed so far; a value it does not cover
        widens it, and every matrix is packed again."""
        r, s, n = self.r, self.s, self.n
        if memo is None:
            pairs = _pairs(r)
            layout = _gram_layout(self.ring, s, n, [c for entries in self.nonzeros for _, _, c in entries])
            packed, nz = _gram_pack(enumerate(self.nonzeros), r, n, layout)
        else:
            scope = (self.ring, r, s, n)
            if not memo:
                memo.update(scope=scope, ids={}, held=set(), packs={}, covered=set(), layout=None)
            elif memo["scope"] != scope:
                raise ValueError(f"a Gram memo of {memo['scope']} cannot serve a formula of {scope}")
            ids, held, packs, covered = memo["ids"], memo["held"], memo["packs"], memo["covered"]
            layout = memo["layout"]
            groups = [[] for _ in range(r)]  # groups[i] holds the (j, m, c) of B_i
            for m, entries in enumerate(self.nonzeros):
                for i, j, c in entries:
                    groups[i].append((j, m, c))
            index = [ids.setdefault(tuple(g), len(ids)) for g in groups]
            pairs, keys, need = [], [], set()
            for a, b in _pairs(r):
                key = (index[a], index[b], a == b)
                if key not in held:
                    pairs.append((a, b))
                    keys.append(key)
                    need.update((a, b))
            if not pairs:
                return None
            fresh = [i for i in need if index[i] not in packs]
            if fresh and (layout is None or not {c for i in fresh for _, _, c in groups[i]} <= covered):
                # cover every value of this formula, and pack every matrix again
                covered.update(c for g in groups for _, _, c in g)
                layout = memo["layout"] = _gram_layout(self.ring, s, n, covered)
                packs.clear()
                fresh = need
            for i in fresh:
                (rows,), (nz,) = _gram_pack([(m, ((0, j, c),)) for j, m, c in groups[i]], 1, n, layout)
                packs[index[i]] = rows, nz
            packed, nz = [[0] * (layout[1] * n)] * r, [()] * r
            for i in need:
                packed[i], nz[i] = packs[index[i]]
        p, lanes, _, w, beta, bias, outside, minus_target, _ = layout
        if sum(map(len, nz)) > _BLOCK_DENSITY * (r + 1) * s:
            rows = _block_gram_rows(packed, nz, minus_target, w, lanes * s, beta, pairs)
        else:
            rows = _pair_gram_rows(packed, nz, minus_target, pairs)
        for a, b, g in rows:
            for j, v in enumerate(g) if any(g) else ():
                if v and (not p or v % p or (v // p + bias) & outside):
                    # the first balanced digit not divisible by p (over Z and Q: not 0)
                    k, half, q = 0, 1 << (w - 1), p or 1 << w
                    while v and (d := ((v + half) & (2 * half - 1)) - half) % q == 0:
                        v, k = (v - d) >> w, k + 1
                    return (a, b, j, k // lanes)
        if memo is not None:
            held.update(keys)
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
        """The dense JSON form, written from the nonzeros: one JSON value per
        nonzero, and one JSON zero shared by every zero entry."""
        to_json = self.ring.element_to_json
        zero = to_json(self.ring.zero())
        tensor = []
        for entries in self.nonzeros:
            rows = [[zero] * self.s for _ in range(self.r)]
            for i, j, c in entries:
                rows[i][j] = to_json(c)
            tensor.append(rows)
        return {"r": self.r, "s": self.s, "n": self.n, "field": ring_to_json(self.ring), "tensor": tensor}

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


# -- the two row kernels of the Gram check ------------------------------------------------
#
# Each yields (a, b, g) for the pairs (a, b) it is given, a <= b in
# lexicographic order, g[j] being row j of G_ab - target as one signed packed
# int.  For N nonzeros (two slots per Gaussian entry) and all the pairs, the
# pair kernel makes (r + 1) N multiply-adds, the block
# kernel N plus r (r + 1) s block reads of about c multiply-adds each, so it
# wins once N > c (r + 1) s.  On HR(8), HR(12) and HR(16) with 2 to n of their
# z changed, over GF(5), GF(7), GF(13) and Q, the two broke even at
# N / ((r + 1) s) from 1.6 to 2.2, and search results of types [3, 3, 4] and
# [4, 4, 4] at 1.8 were still 1.3x slower by blocks (2-core Xeon, Python
# 3.11.7): c = 2.  Signed-permutation formulas and search results have
# N / ((r + 1) s) <= 1.8, formulas whose z was changed >= 3.1.
_BLOCK_DENSITY = 2


@functools.cache
def _pairs(r):
    """The pairs (a, b) with a <= b < r, in lexicographic order."""
    return tuple(combinations_with_replacement(range(r), 2))


def _pair_gram_rows(packed, nz, minus_target, pairs):
    """Row j of G_ab as the sum of x R[b][m] over the nonzeros x = B_a[m][j]
    and of y R[a][m] over y = B_b[m][j]: nnz(B_a) + nnz(B_b) integer
    multiply-adds per pair."""
    s = len(minus_target)
    for a, b in pairs:
        g, rows_a, rows_b = minus_target[:] if a == b else [0] * s, packed[a], packed[b]
        for j, m, x in nz[a]:
            g[j] += x * rows_b[m]
        for j, m, y in nz[b]:
            g[j] += y * rows_a[m]
        yield a, b, g


def _block_gram_rows(packed, nz, minus_target, w: int, lanes: int, beta: int, pairs):
    """Slot m of every B_i stacked into one int R[m], B_i in block i of
    ``lanes`` lanes of w bits, and U_a[j] = sum of x R[m] over the nonzeros
    x = B_a[m][j]: block b of U_a[j] is row j of H_ab = B_a^T B_b, for every b
    at once, so all the products cost one multiply-add per nonzero.  Every
    lane of U starts at beta, so it lies in 0..2 beta < 2^w and a block comes
    off by shift and mask with no borrow; row j of G_ab is block b of U_a[j]
    plus block a of U_b[j], less beta twice in every lane."""
    r, s, block = len(packed), len(minus_target), w * lanes
    bias = beta * (((1 << block) - 1) // ((1 << w) - 1))  # beta in every lane of a block
    stacked = [sum(row << (block * i) for i, row in enumerate(rows)) for rows in zip(*packed)]
    start = bias * (((1 << (block * r)) - 1) // ((1 << block) - 1))
    products = []  # products[a][j] is U_a[j]
    for entries in nz:
        u = [start] * s
        for j, m, x in entries:
            u[j] += x * stacked[m]
        products.append(u)
    mask, twice = (1 << block) - 1, 2 * bias
    diagonal, cross = [t - twice for t in minus_target], [-twice] * s
    for a, b in pairs:
        at, bt, offsets = block * a, block * b, diagonal if a == b else cross
        rows = zip(products[a], products[b], offsets)
        yield a, b, [(x >> bt & mask) + (y >> at & mask) + o for x, y, o in rows]


def _gram_layout(ring, s, n, values):
    """(p, lanes, lift, w, beta, bias, outside, minus_target, rational): how
    ``gram_defect`` packs and reads matrices of n rows and s columns whose
    entries all lie in ``values``, which may repeat (see there).  A real
    value v lifts to lift[v], or over Q (``rational``) to v.numerator *
    lift[v.denominator], as a Fraction hashes by a modular inverse in
    Python; a Gaussian value lifts part by part.  Each row of G less its
    target is read in lanes of w bits."""
    p, gaussian = ring.characteristic(), isinstance(ring, GaussianExt)
    lanes = 2 if gaussian else 1
    values = [v for c in values for v in c] if gaussian else values
    rational = isinstance(ring.base if gaussian else ring, RationalField)
    if rational:
        denominators = {v.denominator for v in values}
        scale = lcm(*denominators)
        lift = {d: scale // d for d in denominators}
        top = 0
        for v in values:
            top = max(top, abs(v.numerator) * lift[v.denominator])
    else:
        lift = {v: v - p if p and 2 * v > p else v for v in set(values)}
        scale, top = 1, max(map(abs, lift.values()), default=0)
    beta = lanes * n * top**2
    bound = 2 * beta + 2 * scale**2
    w, bias, outside = bound.bit_length(), 0, 0
    if p:
        t = (bound // p).bit_length() + 1
        w = t + p.bit_length()
        ones = ((1 << (w * lanes * s)) - 1) // ((1 << w) - 1)
        bias, outside = ones << (t - 1), ~(ones * ((1 << t) - 1))
    minus_target = [-2 * scale**2 << (lanes * w * j) for j in range(s)]
    return p, lanes, lift, w, beta, bias, outside, minus_target, rational


def _gram_pack(slices, r, n, layout):
    """(packed, nz) for r matrices of n rows whose nonzeros are the (i, j, c)
    with B_i[m][j] = c of the (m, entries) in ``slices``: packed[i][lanes * m
    + u] is i^u times row m of B_i, and nz[i] lists the (j, slot, lift) of
    B_i."""
    _, lanes, lift, w = layout[:4]
    rational = layout[-1]
    packed, nz, gaussian = [[0] * (lanes * n) for _ in range(r)], [[] for _ in range(r)], lanes == 2
    for m, entries in slices:
        for i, j, c in entries:
            if gaussian:
                x, y = c
                if rational:
                    x, y = x.numerator * lift[x.denominator], y.numerator * lift[y.denominator]
                else:
                    x, y = lift[x], lift[y]
                shift = 2 * w * j
                packed[i][2 * m] += (x << shift) + (y << (shift + w))
                packed[i][2 * m + 1] += (x << (shift + w)) - (y << shift)
                nz[i] += [(j, 2 * m, x), (j, 2 * m + 1, y)]
            else:
                v = c.numerator * lift[c.denominator] if rational else lift[c]
                packed[i][m] += v << (w * j)
                nz[i].append((j, m, v))
    return packed, nz


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


def _two_adic(n: int) -> tuple[int, int]:
    """(t, m) with n = 2^t * m and m odd, for n >= 1."""
    t = (n & -n).bit_length() - 1
    return t, n >> t


def rho(n: int) -> int:
    """Hurwitz-Radon function: for n = 2^(4a+b) * odd with 0 <= b <= 3,
    rho(n) = 8a + 2^b.  This is the largest r with a classical [r, n, n]
    formula."""
    require_ints("n", n)
    a, b = divmod(_two_adic(n)[0], 4)
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
    t, m = _two_adic(n)
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
    ring = f.ring
    dot = lambda a, b: functools.reduce(ring.add, map(ring.mul, a, b), ring.zero())
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
    require_ints("n", n)
    return _homotopy_concrete(mode, n, ring, omit_uv_relation)
