"""Exact arithmetic in the mod-2 motivic cohomology rings of deleted quadrics.

The ring attached to the deleted quadric DQ_n is presented over the
coefficient model Z/2[tau, rho] (tau in bidegree (0,1), rho in (1,1)) as

    n = 2k+1:  [a, b] / (a^2 = rho*a + tau*b,  b^(k+1))
    n = 2k:    [a, b] / (a^2 = rho*a + tau*b,  b^(k+1),  a*b^k = eps*b^k)

with a in bidegree (1,1) and b in (2,1).  Setting rho = 0 models a base
field in which every element is a square (then eps = 0 as well); keeping
rho formal models the real numbers.  The classes a^e b^j with e in {0,1},
0 <= j <= k -- excluding (e, j) = (1, k) when n is even -- are a free basis,
one per bidegree (i, ceil(i/2)) for 0 <= i <= n.

The Bockstein is the derivation with beta(tau) = rho, beta(rho) = 0,
beta(a) = b, beta(b) = 0.  In the rho = 0 model the powers of a close up as
a^(2m) = tau^m b^m and a^(2m+1) = tau^m a b^m, so a^i vanishes exactly for
i > n; squaring that vanishing through a Kunneth tensor product of two such
rings is what turns binomial parities into ring identities.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import NormalForm, accumulate, mono_text, require_exponents
from .grading import BiDegree
from .hopf import hopf_admissible
from .rings import require_flags, require_ints


class M2Poly:
    """A polynomial in tau and rho over Z/2: a set of (t, m) exponent pairs.

    Addition is symmetric difference; the class is immutable and hashable.
    tau^t rho^m sits in bidegree (m, t + m).
    """

    __slots__ = ("monos",)

    def __init__(self, monos=()):
        monos = tuple(monos)
        require_exponents(monos, 2)
        self.monos = frozenset(monos)

    @classmethod
    def _new(cls, monos: frozenset) -> "M2Poly":
        """A polynomial from exponent pairs already known to be valid."""
        out = cls.__new__(cls)
        out.monos = monos
        return out

    @staticmethod
    def monomial(t: int, m: int) -> "M2Poly":
        return M2Poly(((t, m),))

    @property
    def is_zero(self) -> bool:
        return not self.monos

    def __bool__(self) -> bool:
        return bool(self.monos)

    def __add__(self, other: "M2Poly") -> "M2Poly":
        return M2Poly._new(self.monos ^ other.monos)

    def __mul__(self, other: "M2Poly") -> "M2Poly":
        acc: set = set()
        for t1, m1 in self.monos:
            for t2, m2 in other.monos:
                key = (t1 + t2, m1 + m2)
                if key in acc:
                    acc.discard(key)
                else:
                    acc.add(key)
        return M2Poly._new(frozenset(acc))

    def strip_rho(self) -> "M2Poly":
        """Image under rho -> 0 (self when there is no rho to strip)."""
        kept = [(t, m) for t, m in self.monos if m == 0]
        return self if len(kept) == len(self.monos) else M2Poly._new(frozenset(kept))

    def bidegrees(self) -> set[BiDegree]:
        return {BiDegree(m, t + m) for t, m in self.monos}

    def __eq__(self, other) -> bool:
        return isinstance(other, M2Poly) and self.monos == other.monos

    def __hash__(self):
        return hash(self.monos)

    def to_text(self) -> str:
        return " + ".join(mono_text(_TR, tm) or "1" for tm in sorted(self.monos)) or "0"

    def __repr__(self):
        return f"M2Poly({self.to_text()})"


_TR = ("t", "r")
M2_ONE = M2Poly.monomial(0, 0)
M2_TAU = M2Poly.monomial(1, 0)
M2_RHO = M2Poly.monomial(0, 1)


class DQRingSpec(namedtuple("DQRingSpec", "n rho eps_is_rho")):
    """Presentation parameters for the ring of DQ_n.

    ``rho`` keeps rho as a formal class (the model for F = R); with
    ``rho=False`` every rho is reduced to 0 (all-squares model).  ``eps_is_rho``
    picks eps = rho in the even-case relation a*b^k = eps*b^k; the only
    representable values of eps are 0 and rho, and with rho disabled both
    collapse to 0.  n = 0 is the point (a = b = 0), n = 1 is the punctured
    line (b = 0).
    """

    __slots__ = ()

    def __new__(cls, n: int, rho: bool = False, eps_is_rho: bool = False):
        require_ints("n", n, low=0)
        require_flags("rho, eps_is_rho", rho, eps_is_rho)
        # eps only exists in even rings, and eps = rho = 0 when rho is off
        return super().__new__(cls, n, rho, eps_is_rho and rho and n % 2 == 0)

    @property
    def k(self) -> int:
        return self.n // 2

    @property
    def is_even(self) -> bool:
        return self.n % 2 == 0

    def basis_monomials(self) -> tuple:
        """The (e, j) pairs of the free basis a^e b^j, in increasing bidegree."""
        return tuple((i % 2, i // 2) for i in range(self.n + 1))

    def basis_bidegrees(self) -> list[BiDegree]:
        return [BiDegree(e + 2 * j, e + j) for e, j in self.basis_monomials()]


def _dq_reduce(spec: DQRingSpec, e: int, j: int) -> list:
    """Normal form of a^e b^j as [((e', j'), unit), ...]; a key may repeat."""
    if e >= 2:
        # a^2 = rho*a + tau*b
        out = [(key, u * M2_TAU) for key, u in _dq_reduce(spec, e - 2, j + 1)]
        if spec.rho:
            out += [(key, u * M2_RHO) for key, u in _dq_reduce(spec, e - 1, j)]
        return out
    n = spec.n  # one field read: this runs once per product monomial
    if j > n // 2:
        return []
    if e == 1 and 2 * j == n:
        # a*b^k = eps*b^k with k = n/2, n even
        return [((0, j), M2_RHO)] if spec.eps_is_rho else []
    return [((e, j), M2_ONE)]


def _class_text(terms: dict, names: tuple) -> str:
    """Terms with M2Poly coefficients as ``coeff*basis`` words, basis
    monomials in decreasing exponent order."""
    words = (
        "*".join(filter(None, (mono_text(_TR, tm), mono_text(names, key)))) or "1"
        for key in sorted(terms, reverse=True)
        for tm in sorted(terms[key].monos)
    )
    return " + ".join(words) or "0"


class DQClass(NormalForm):
    """A normal-form element: M2Poly coefficients on the basis monomials a^e b^j."""

    __slots__ = ()
    UNIT = ((0, 0), M2_ONE)

    @property
    def spec(self) -> DQRingSpec:
        return self.ring

    def _scalar(self, coeff: M2Poly) -> M2Poly:
        if not isinstance(coeff, M2Poly):
            raise TypeError("coefficients must be M2Poly")
        return coeff if self.ring.rho else coeff.strip_rho()

    def _reduce(self, key) -> list:
        return _dq_reduce(self.ring, *key)

    @classmethod
    def gen_a(cls, spec: DQRingSpec) -> "DQClass":
        return cls(spec, {(1, 0): M2_ONE})

    @classmethod
    def gen_b(cls, spec: DQRingSpec) -> "DQClass":
        return cls(spec, {(0, 1): M2_ONE})

    def bidegree(self) -> BiDegree | None:
        """The common bidegree of all terms, or None if inhomogeneous/zero."""
        degrees = set()
        for (e, j), coeff in self.terms.items():
            base = BiDegree(e + 2 * j, e + j)
            degrees |= {base + d for d in coeff.bidegrees()}
        return degrees.pop() if len(degrees) == 1 else None

    def bockstein(self) -> "DQClass":
        """The derivation with beta(tau) = rho, beta(a) = b, beta(rho) =
        beta(b) = 0, extended by the Leibniz rule (characteristic 2)."""
        terms: dict = {}
        for (e, j), coeff in self.terms.items():
            for t, m in coeff.monos:
                if t % 2 == 1:
                    # beta(tau^t) = t tau^(t-1) rho
                    accumulate(terms, (e, j), M2Poly.monomial(t - 1, m + 1))
                if e == 1:
                    # beta(a b^j) = b^(j+1)
                    accumulate(terms, (0, j + 1), M2Poly.monomial(t, m))
        return DQClass(self.ring, terms)

    def restrict(self, *, eps_is_rho: bool = False) -> "DQClass":
        """Image in the ring of DQ_(n-1) under a -> a, b -> b, renormalized
        against the smaller ring's relations."""
        if self.spec.n < 1:
            raise ValueError("no smaller ring to restrict to")
        target = DQRingSpec(self.spec.n - 1, rho=self.spec.rho, eps_is_rho=eps_is_rho)
        return DQClass(target, self.terms)

    def to_text(self) -> str:
        return _class_text(self.terms, ("a", "b"))

    def __repr__(self):
        return f"DQClass(n={self.spec.n}: {self.to_text()})"


def dq_power_a(spec: DQRingSpec, m: int) -> DQClass:
    """Normal form of a^m.  In the rho = 0 model this is tau^(m//2) b^(m//2)
    (m even) or tau^((m-1)/2) a b^((m-1)/2) (m odd), hence zero iff m > n."""
    return DQClass.gen_a(spec) ** m


def ring_additive_basis(spec_or_n) -> list[BiDegree]:
    """Bidegrees of the free basis: exactly (i, ceil(i/2)) for 0 <= i <= n."""
    spec = spec_or_n if isinstance(spec_or_n, DQRingSpec) else DQRingSpec(spec_or_n)
    return sorted(spec.basis_bidegrees())


# -- Kunneth tensor products -------------------------------------------------------


class TensorClass(NormalForm):
    """An element of the tensor product of two deleted-quadric rings over the
    coefficient model, on the product basis a1^e1 b1^j1 (x) a2^e2 b2^j2.
    The ring parameter is the pair (left spec, right spec)."""

    __slots__ = ()
    UNIT = ((0, 0, 0, 0), M2_ONE)

    def __init__(self, left_spec: DQRingSpec, right_spec: DQRingSpec, terms=None):
        if left_spec.rho != right_spec.rho:
            raise ValueError("tensor factors must share the coefficient model")
        super().__init__((left_spec, right_spec), terms)

    def _scalar(self, coeff: M2Poly) -> M2Poly:
        return coeff if self.ring[0].rho else coeff.strip_rho()

    def _reduce(self, key) -> list:
        left, right = self.ring
        rights = _dq_reduce(right, key[2], key[3])
        return [
            (lk + rk, ru if lu is M2_ONE else lu if ru is M2_ONE else lu * ru)
            for lk, lu in _dq_reduce(left, key[0], key[1])
            for rk, ru in rights
        ]

    @classmethod
    def a_left(cls, left_spec, right_spec) -> "TensorClass":
        return cls(left_spec, right_spec, {(1, 0, 0, 0): M2_ONE})

    @classmethod
    def a_right(cls, left_spec, right_spec) -> "TensorClass":
        return cls(left_spec, right_spec, {(0, 0, 1, 0): M2_ONE})

    def to_text(self) -> str:
        return _class_text(self.terms, ("a1", "b1", "a2", "b2"))

    def __repr__(self):
        return f"TensorClass({self.to_text()})"


def diagonal_power(r: int, s: int, n: int) -> TensorClass:
    """Normal form of (a1 (x) 1 + 1 (x) a2)^n in the tensor product of the
    rings for DQ_(r-1) and DQ_(s-1), in the all-squares model (rho = eps = 0).

    The surviving monomials correspond exactly to the i with C(n, i) odd,
    i <= r-1 and n-i <= s-1.
    """
    require_ints("r, s", r, s)
    require_ints("n", n, low=0)
    left = DQRingSpec(r - 1, rho=False)
    right = DQRingSpec(s - 1, rho=False)
    x = TensorClass.a_left(left, right) + TensorClass.a_right(left, right)
    return x ** n


def hopf_via_motivic(r: int, s: int, n: int) -> bool:
    """The ring-theoretic Hopf verdict: (a1 + a2)^n = 0.  Agrees with the
    binomial-parity condition on every input."""
    return diagonal_power(r, s, n).is_zero


def motivic_binomial_mismatches(rmax: int, smax: int, nmax: int) -> list[tuple]:
    """Exhaustively compare the ring engine against binomial parity for all
    1 <= r <= rmax, 1 <= s <= smax, max(r, s) <= n <= nmax.  Returns the list
    of disagreeing (r, s, n, ring_verdict, parity_verdict); empty means the
    two engines agree.  Powers are built incrementally per (r, s)."""
    require_ints("rmax, smax, nmax", rmax, smax, nmax, low=0)
    mismatches = []
    for r in range(1, rmax + 1):
        for s in range(1, smax + 1):
            left = DQRingSpec(r - 1, rho=False)
            right = DQRingSpec(s - 1, rho=False)
            x = TensorClass.a_left(left, right) + TensorClass.a_right(left, right)
            power = TensorClass.one(left, right)
            for n in range(1, nmax + 1):
                power = power * x
                if n < max(r, s):
                    continue
                ring_verdict = power.is_zero
                parity_verdict = hopf_admissible(r, s, n)
                if ring_verdict != parity_verdict:
                    mismatches.append((r, s, n, ring_verdict, parity_verdict))
    return mismatches
