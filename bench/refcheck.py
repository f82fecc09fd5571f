"""Reference computations made apart from sosforms.

Nothing here imports the package.  The benchmark's checkers compare the
program's outputs against these computations and against properties the
mathematics forces; no check compares against a stored copy of an earlier
output, and none pins a count of search nodes or solutions.

Formula tensors are nested lists ``T[k][i][j]`` whose entries are plain
Python values of a `Ring`: ints (Z, GF(p)), Fractions (Q) or (re, im) int
pairs (Z[i]).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# -- binomial parity and the Hopf condition ------------------------------------


def hopf_range(r: int, s: int, n: int) -> range:
    """The i with n - r < i < s and 0 <= i <= n."""
    return range(max(n - r + 1, 0), min(s, n + 1))


def hopf_witness_comb(r: int, s: int, n: int):
    """Smallest i in the Hopf range with C(n, i) odd, by math.comb; or None."""
    for i in hopf_range(r, s, n):
        if math.comb(n, i) % 2:
            return i
    return None


def hopf_admissible_comb(r: int, s: int, n: int) -> bool:
    return hopf_witness_comb(r, s, n) is None


def hopf_lower_comb(r: int, s: int) -> int:
    """r o s by brute force: the smallest admissible n (never below max(r, s))."""
    n = max(r, s)
    while not hopf_admissible_comb(r, s, n):
        n += 1
    return n


def hopf_stiefel(r: int, s: int) -> int:
    """r o s by Pfister's recursion: with r <= s and 2^k the smallest power of
    two >= s, r o s = 2^k if r + s > 2^k, else 2^(k-1) + r o (s - 2^(k-1))."""
    if r > s:
        r, s = s, r
    top = 1
    while top < s:
        top *= 2
    if r + s > top:
        return top
    half = top // 2
    return half + hopf_stiefel(r, s - half)


def hr_rho(n: int) -> int:
    """Hurwitz-Radon number: n = 2^(4a+b) * odd, 0 <= b <= 3, gives 8a + 2^b."""
    twos = (n & -n).bit_length() - 1
    a, b = divmod(twos, 4)
    return 8 * a + 2**b


def hr_upper(r: int, s: int) -> int:
    """Smallest n >= s with rho(n) >= r: the [rho(n), n, n] formula restricts to
    an [r, s, n] formula, so an [r, s, n] formula exists for every n >= this."""
    n = s
    while hr_rho(n) < r:
        n += 1
    return n


# -- coefficient rings on plain values ---------------------------------------------


class Ring:
    """Arithmetic on the plain entry values of one coefficient ring.

    ``kind`` is ``Z``, ``Q``, ``GF`` (with ``p``) or ``Zi`` (Gaussian
    integers, entries (re, im)).
    """

    def __init__(self, kind: str, p: int = 0):
        if kind not in ("Z", "Q", "GF", "Zi") or (kind == "GF") != (p > 0):
            raise ValueError(f"unknown ring {kind} {p}")
        self.kind, self.p = kind, p

    def __repr__(self):
        return f"GF({self.p})" if self.kind == "GF" else self.kind

    def json_field(self) -> dict:
        return {"kind": "GF", "p": self.p} if self.kind == "GF" else {"kind": self.kind}

    def from_int(self, v: int):
        if self.kind == "GF":
            return v % self.p
        if self.kind == "Q":
            return Fraction(v)
        if self.kind == "Zi":
            return (v, 0)
        return v

    def zero(self):
        return self.from_int(0)

    def add(self, a, b):
        if self.kind == "Zi":
            return (a[0] + b[0], a[1] + b[1])
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        if self.kind == "Zi":
            return (a[0] - b[0], a[1] - b[1])
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        if self.kind == "Zi":
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        return (a * b) % self.p if self.p else a * b

    def is_zero(self, a) -> bool:
        return a == (0, 0) if self.kind == "Zi" else a == 0

    def random(self, rng):
        """A seeded random element (integers from a wide range over Z, Q, Z[i])."""
        if self.kind == "GF":
            return rng.randrange(self.p)
        if self.kind == "Zi":
            return (rng.randint(-999, 999), rng.randint(-999, 999))
        if self.kind == "Q":
            return Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        return rng.randint(-99999, 99999)

    def to_json(self, a):
        if self.kind == "Zi":
            return [a[0], a[1]]
        if self.kind == "Q":
            return a.numerator if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return a


def defect_at(tensor, ring: Ring, xs, ys):
    """sum_k z_k(x, y)^2 - (sum x_i^2)(sum y_j^2), evaluated exactly."""
    add, mul = ring.add, ring.mul
    xy = [[mul(x, y) for y in ys] for x in xs]
    total = ring.zero()
    for slice_k in tensor:
        z = ring.zero()
        for row, xy_row in zip(slice_k, xy):
            for c, v in zip(row, xy_row):
                if not ring.is_zero(c):
                    z = add(z, mul(c, v))
        total = add(total, mul(z, z))
    sx = ring.zero()
    for x in xs:
        sx = add(sx, mul(x, x))
    sy = ring.zero()
    for y in ys:
        sy = add(sy, mul(y, y))
    return ring.sub(total, mul(sx, sy))


def identity_witness(tensor, ring: Ring, rng, tries: int):
    """The first of ``tries`` seeded points (x, y) at which the formula's
    defect is nonzero, or None when it vanishes at all of them."""
    r, s = len(tensor[0]), len(tensor[0][0])
    for _ in range(tries):
        xs = [ring.random(rng) for _ in range(r)]
        ys = [ring.random(rng) for _ in range(s)]
        if not ring.is_zero(defect_at(tensor, ring, xs, ys)):
            return xs, ys
    return None


# -- the deleted-quadric rings, read from their text form ---------------------------

_FACTOR = re.compile(r"^(t|r|a1|b1|a2|b2|a|b)(?:\^(\d+))?$")
_SLOTS = {"t": 0, "r": 1, "a": 2, "b": 3, "a1": 2, "b1": 3, "a2": 4, "b2": 5}


def parse_classes(text: str) -> frozenset:
    """Terms of a Z/2 class printed by ``to_text``, as exponent tuples
    (tau, rho, a, b) or (tau, rho, a1, b1, a2, b2).  Coefficients are mod 2,
    so a term printed twice cancels."""
    text = text.strip()
    if text == "0":
        return frozenset()
    terms: set = set()
    width = 6 if re.search(r"[ab][12]", text) else 4
    for word in text.split(" + "):
        exps = [0] * width
        if word != "1":
            for factor in word.split("*"):
                m = _FACTOR.match(factor)
                if m is None:
                    raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
                exps[_SLOTS[m.group(1)]] += int(m.group(2) or 1)
        terms ^= {tuple(exps)}
    return frozenset(terms)


def class_bidegrees(terms) -> set:
    """Bidegrees (p, q) of DQ-ring terms: tau (0,1), rho (1,1), a (1,1), b (2,1)."""
    return {(m + e + 2 * j, t + m + e + j) for t, m, e, j in terms}


def strip_rho(terms) -> frozenset:
    return frozenset(term for term in terms if term[1] == 0)


def expected_intersection_table(k: int):
    """(alpha, beta) pairing on Q_2k in units of the point class."""
    return ((0, 1), (1, 0)) if k % 2 else ((1, 0), (0, 1))


def expected_dq_basis(n: int) -> list:
    return [(i, -(-i // 2)) for i in range(n + 1)]


def expected_chow_ranks(m: int) -> dict:
    """Rank of CH^c of the split quadric Q_m: 1 in each codimension, 2 at the
    middle of an even-dimensional quadric."""
    ranks = {c: 1 for c in range(m + 1)}
    if m % 2 == 0:
        ranks[m // 2] = 2
    return ranks
