"""Binomial-parity combinatorics: the Hopf condition and the bound table,
which sets the Hopf lower bound beside the Hurwitz-Radon upper bound.

The Hopf condition for a triple (r, s, n) requires C(n, i) to be even for
every integer i with n - r < i < s; it is necessary for the existence of an
[r, s, n] composition formula over any field of characteristic != 2.  Parity
is computed two independent ways: the Lucas bit test (C(n, i) is odd exactly
when i is a bit-submask of n) and Pascal's triangle mod 2.

The violation witness comes from a smallest-submask step in O(log n) steps,
not from testing each i in the Hopf range in turn.  The smallest admissible
n, the Hopf-Stiefel number r o s, comes from Pfister's recursion in
O(log s) steps, not from testing each n in turn.  The tests keep both scans
as the oracles.
"""

from __future__ import annotations

from collections import namedtuple

from .formulas import SosFormula, construct_hurwitz_radon, hurwitz_radon_upper_bound
from .rings import ValueTuple, require_ints

# bound_table builds and Gram-checks each distinct HR(n) once.  Measured 2026-10-20 in-process,
# import included, Python 3.11.7, shared 2-core Xeon: `bounds 17 17` 0.05-0.09 s and 17 MB peak
# RSS, `bounds 1 256` 0.2-0.3 s and 24 MB, `bounds 17 256` (the largest table allowed) 0.3-0.45 s
# and 25 MB; with the cap at 512, `bounds 1 512` 1.5 s and `bounds 17 512` 1.7 s, both 54 MB.
MAX_TABLE_UPPER = 256

# hopf_lower_bound refuses a result r o s above this cap.  Since r o s never
# exceeds the smallest power of two >= max(r, s), and the cap is itself a power
# of two, that happens exactly when max(r, s) > 2^20; the cap only guards
# against absurd inputs.
_LOWER_BOUND_CAP = 2 ** 20


def binom_is_odd(n: int, i: int) -> bool:
    """Lucas bit test; C(n, i) = 0 (even) outside 0 <= i <= n."""
    require_ints("n", n, low=0)
    require_ints("i", i, low=None)
    return 0 <= i <= n and (i & n) == i


_PASCAL_ROWS: list[int] = [1]  # row k stored as a bitmask: bit i = C(k, i) mod 2


def binom_parity_pascal(n: int, i: int) -> bool:
    """Independent oracle for binom_is_odd: parity read off Pascal's
    triangle built mod 2."""
    require_ints("n", n, low=0)
    require_ints("i", i, low=None)
    while len(_PASCAL_ROWS) <= n:
        row = _PASCAL_ROWS[-1]
        _PASCAL_ROWS.append(row ^ (row << 1))
    return 0 <= i <= n and bool(_PASCAL_ROWS[n] >> i & 1)


def hopf_violation_witness(r: int, s: int, n: int) -> int | None:
    """The smallest i with n - r < i < s and C(n, i) odd, if any.

    C(n, i) is odd exactly when i is a bit-submask of n, so the witness is
    the smallest submask of n at or above max(n - r + 1, 0).  While i has a
    bit outside n, the highest such bit h must be carried away: no j with
    i <= j < ((i >> h) + 1) << h is a submask.  After a step, i has no bit
    outside n at or below h, so h rises at each step and the loop runs at
    most n.bit_length() + 1 times.
    """
    require_ints("r, s, n", r, s, n)
    i, end = max(n - r + 1, 0), min(s, n + 1)
    while i < end and i & ~n:
        h = (i & ~n).bit_length() - 1
        i = ((i >> h) + 1) << h
    return i if i < end else None


def hopf_admissible(r: int, s: int, n: int) -> bool:
    """True iff C(n, i) is even for every i with n - r < i < s."""
    return hopf_violation_witness(r, s, n) is None


def hopf_lower_bound(r: int, s: int) -> int:
    """r o s: the smallest n >= max(r, s) passing the Hopf condition for
    (r, s), by Pfister's recursion.

    With r <= s and 2^k the smallest power of two >= s, r o s = 2^k when
    r + s > 2^k, and r o s = 2^(k-1) + r o (s - 2^(k-1)) otherwise.  Each
    step at least halves 2^k, so the loop runs at most k + 1 times.  Raises
    ValueError when r o s exceeds _LOWER_BOUND_CAP.
    """
    require_ints("r, s", r, s)
    n = 0
    while True:
        if r > s:
            r, s = s, r
        top = 1 << (s - 1).bit_length()
        if r + s > top:
            n += top
            break
        n += top // 2
        s -= top // 2
    if n > _LOWER_BOUND_CAP:
        raise ValueError("no admissible n below the cap; inputs are out of scope")
    return n


class BoundEntry(ValueTuple, namedtuple("BoundEntry", "r s hopf_lower construct_upper tight")):
    __slots__ = ()


def bound_table(rmax: int, smax: int) -> list[BoundEntry]:
    """For each (r, s) up to (rmax, smax): the Hopf lower bound on the
    composition range, the upper bound n realized by restricting the
    Hurwitz-Radon formula HR(n), and whether they meet.

    Each distinct HR(n), of type [rho(n), n, n], is a leaf, built once and
    checked when it is built by the packed Gram check (gram_defect, which the
    tests cross-check against expansion).  A cell only asserts that [r, s]
    fits inside its leaf, and no restriction is built: setting the trailing
    variables to zero in an identity leaves an identity, and the Gram blocks
    of the restriction are sub-blocks of the leaf's.  Raises ValueError,
    before any work, when the largest upper bound exceeds MAX_TABLE_UPPER."""
    require_ints("rmax, smax", rmax, smax)
    largest = hurwitz_radon_upper_bound(rmax, smax)
    if largest > MAX_TABLE_UPPER:
        raise ValueError(
            f"bound table up to ({rmax}, {smax}) needs a Hurwitz-Radon formula of size "
            f"{largest} > {MAX_TABLE_UPPER}"
        )
    leaves: dict[int, SosFormula] = {}
    entries = []
    for r in range(1, rmax + 1):
        for s in range(1, smax + 1):
            lower = hopf_lower_bound(r, s)
            upper = hurwitz_radon_upper_bound(r, s)
            leaf = leaves.get(upper)
            if leaf is None:
                leaf = leaves[upper] = construct_hurwitz_radon(upper)
                if leaf.gram_defect() is not None:
                    raise AssertionError(f"Hurwitz-Radon formula [{leaf.r},{leaf.s},{upper}] failed to verify")
            if not (r <= leaf.r and s <= leaf.s):
                raise AssertionError(f"[{r},{s},{upper}] does not fit inside its leaf [{leaf.r},{leaf.s},{upper}]")
            entries.append(BoundEntry(r, s, lower, upper, lower == upper))
    return entries


def bound_table_csv(entries: list[BoundEntry]) -> str:
    lines = ["r,s,hopf_lower,construct_upper,tight"]
    for e in entries:
        lines.append(f"{e.r},{e.s},{e.hopf_lower},{e.construct_upper},{str(e.tight).lower()}")
    return "\n".join(lines) + "\n"


def bound_table_text(entries: list[BoundEntry]) -> str:
    header = f"{'r':>3} {'s':>3} {'lower':>6} {'upper':>6}  tight"
    lines = [header, "-" * len(header)]
    for e in entries:
        mark = "yes" if e.tight else "no"
        lines.append(f"{e.r:>3} {e.s:>3} {e.hopf_lower:>6} {e.construct_upper:>6}  {mark}")
    return "\n".join(lines) + "\n"
