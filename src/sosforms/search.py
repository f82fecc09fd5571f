"""Backtracking search for composition formulas over small odd-prime fields.

The search works on the matrix form: find B_1, ..., B_r (each n x s over
GF(p)) with B_j^T B_k + B_k^T B_j = 2 delta_{jk} I_s, filling one column at
a time and pruning on the orthogonality constraints as soon as both columns
of a constrained pair are placed.

The candidate columns (the unit vectors) are numbered 0..m-1, and a set of
them is a Python int used as a bitset.  Each placed column u carries its
partition: the candidates grouped by <v, u> mod p.  Every constraint on a
later column asks <v, u> = t for one placed u and one residue t, so it
selects one class, and a node's candidates are the AND of one class per
constraint, tried in ascending order, which is the order of the candidate
list.  A node of column c ANDs the classes that the columns before c select
for column c + 1 once for all its candidates, and each candidate adds its
own.  A partition is refined from the coordinate sets one nonzero
coordinate at a time, or, when p is large for the number of candidates,
grouped from one dot product per candidate.

The candidates, their coordinate sets and the partitions built so far form
the space of (p, n, signed_monomial_only).  A search keeps each partition
for the next time its candidate is placed, until the kept partitions fill
PARTITION_BUDGET bytes; past that, partitions are built on use and dropped
with their column.  Searches given one ``spaces`` dict share their spaces;
the consistency sweep gives the cells of each n one.

Without ``signed_monomial_only`` all the unit vectors, about p^(n-1) of
them, are enumerated up front, so such problems are limited to
p^n <= MAX_FULL_VECTORS.

By default B_1 is pinned to the standard frame [I_s; 0]: the columns of any
admissible B_1 are orthonormal, and Witt extension over GF(p) moves any such
frame to the standard one by an isometry acting on all matrices at once, so
existence is unaffected.  Disabling the pin recovers the full solution set
(used to test that the canonical search misses nothing on tiny instances).

A result says why the search stopped: ``exhausted`` (the whole tree was
walked), ``max_solutions`` or ``timeout``.  An empty exhausted result is a
proof of nonexistence within the searched class; timeouts never masquerade
as proofs.  Every emitted formula is built as its nonzeros in one pass over
the placed columns, and passes the Hurwitz Gram check (``SosFormula``'s
``gram_defect``) before it is returned.  The formulas of a search share
their matrices, and G_ab = B_a^T B_b + B_b^T B_a depends on nothing but
(B_a, B_b, a = b), so the search checks each distinct such triple once,
through one memo that it drops when it ends.  A search that would keep more
than MAX_KEPT_FORMULAS formulas raises ValueError instead of exhausting
memory.
"""

from __future__ import annotations

import itertools
import operator
import sys
import time
from collections import namedtuple
from numbers import Real

from .formulas import SosFormula
from .hopf import hopf_admissible
from .rings import PrimeField, ValueTuple, require_flags, require_ints

# Largest p^n a search without signed_monomial_only may enumerate.  Over
# GF(3), n = 13 (532,170 unit vectors) takes about 1.5 s and 110 MB before
# the first node on a 2-core Xeon with Python 3.11; each step in n multiplies
# both by about 3, so n = 18 would need some 25 GB.
MAX_FULL_VECTORS = 3**13

# Most formulas a search may keep.  A kept formula costs about 2.7 KB while
# the search runs, its share of the Gram memo included, and 1.7 KB once it
# ends (tracemalloc peak and retained, the 240 formulas of the pinned
# (3, 3, 4, 5) search, Python 3.11), so the cap holds a search to about
# 270 MB.  The unpinned (3, 3, 4, 5) search, uncapped, kept 245,037 formulas
# at 623 MB RSS in 15 s.
MAX_KEPT_FORMULAS = 100_000

# Bytes of partitions a space keeps (see above), charged as the getsizeof
# sizes of the partition dicts and their class bitsets.  Peak RSS with
# Python 3.11 of the unpinned (2, 2, 2, 1259) search: 172 MB unbounded,
# 40 MB with this budget; of the unpinned (3, 3, 3, 101) over 20 s:
# 311 MB unbounded, 34 MB with it.
PARTITION_BUDGET = 16 * 2**20


class SearchOptions(
    ValueTuple,
    namedtuple("SearchOptions", "canonical_first_matrix signed_monomial_only max_solutions time_budget")
):
    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, canonical_first_matrix: bool = True, signed_monomial_only: bool = False,
                max_solutions: int | None = None, time_budget: float | None = None):  # seconds
        require_flags("canonical_first_matrix, signed_monomial_only", canonical_first_matrix, signed_monomial_only)
        if max_solutions is not None:
            require_ints("max_solutions", max_solutions)
        if time_budget is not None and (
            isinstance(time_budget, bool) or not isinstance(time_budget, Real) or not time_budget >= 0  # NaN too
        ):
            raise ValueError("time_budget must be None or a non-negative number of seconds")
        return super().__new__(cls, canonical_first_matrix, signed_monomial_only, max_solutions, time_budget)


class SearchProblem(ValueTuple, namedtuple("SearchProblem", "r s n p options")):
    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, r: int, s: int, n: int, p: int, options: SearchOptions = SearchOptions()):
        require_ints("r, s, n", r, s, n)
        PrimeField(p)  # validates p odd prime
        if not isinstance(options, SearchOptions):
            raise ValueError(f"options must be a SearchOptions, not {type(options).__name__}")
        # p >= 3, so p^n > MAX_FULL_VECTORS once n reaches its bit length
        vectors = p ** min(n, MAX_FULL_VECTORS.bit_length())
        if not options.signed_monomial_only and vectors > MAX_FULL_VECTORS:
            raise ValueError(
                f"a full search enumerates p^n = {p}^{n} vectors, which exceeds "
                f"the limit of {MAX_FULL_VECTORS}; use the signed-monomial mode or a smaller n"
            )
        return super().__new__(cls, r, s, n, p, options)


# stop_reason: "exhausted" | "max_solutions" | "timeout"
class SearchResult(ValueTuple, namedtuple("SearchResult", "formulas stop_reason nodes elapsed", defaults=(0, 0.0))):
    __slots__ = ()

    @property
    def exhausted(self) -> bool:
        return self.stop_reason == "exhausted"

    @property
    def found(self) -> bool:
        return bool(self.formulas)


def _unit_columns(p: int, n: int, signed_only: bool, deadline: float | None) -> list[tuple[int, ...]]:
    """Candidate columns: unit vectors for the standard bilinear form, in
    lexicographic order.  The full enumeration walks the p^(n-1) prefixes w
    and appends each root c of c^2 = 1 - <w, w>, so it watches the deadline
    too."""
    if signed_only:
        cols = []
        for pos in range(n):
            for sign in (1, p - 1):
                v = [0] * n
                v[pos] = sign
                cols.append(tuple(v))
        return cols
    squares = [c * c % p for c in range(p)]
    roots: list[list[int]] = [[] for _ in range(p)]  # roots[a]: the c with c^2 = a, ascending
    for c, a in enumerate(squares):
        roots[a].append(c)
    cols = []
    for count, w in enumerate(itertools.product(range(p), repeat=n - 1)):
        if deadline is not None and count % 1024 == 0 and time.monotonic() >= deadline:
            raise _Timeout
        for c in roots[(1 - sum(map(squares.__getitem__, w))) % p]:
            cols.append(w + (c,))
    return cols


def _coordinate_sets(candidates, deadline: float | None) -> list[dict[int, int]]:
    """coord[i][a]: the bitset of candidates v with v_i = a (bit k is
    candidates[k]); values a that no candidate takes are left out."""
    coord = []
    for i in range(len(candidates[0])):
        if deadline is not None and time.monotonic() >= deadline:
            raise _Timeout
        column = list(map(operator.itemgetter(i), candidates))
        # One character per candidate, the last one first, as int() reads the
        # top bit first.  A coordinate takes at most 3 values in signed mode,
        # 2 when n = 1, and p <= 1262 otherwise (p^2 <= MAX_FULL_VECTORS), so
        # its codes stay far below chr()'s limit of 0x110000.
        values = {a: chr(k) for k, a in enumerate(set(column))}
        text = "".join(map(values.__getitem__, reversed(column)))
        coord.append({
            a: int(text.translate({ord(c): "1" if b == a else "0" for b, c in values.items()}), 2)
            for a in values
        })
    return coord


def _partition(coord, candidates, u, field: PrimeField, everything: int) -> dict[int, int]:
    """The candidates grouped by <v, u> mod p, as {t: bitset}, empty classes
    left out."""
    p = field.p
    if (len(u) - u.count(0) - 1) * p * p > len(candidates):
        # Refining costs up to p^2 ANDs for each nonzero coordinate of u after
        # the first, more than one dot product per candidate: large p, few
        # candidates.
        groups: dict[int, int] = {}
        for k, t in enumerate([sum(map(operator.mul, u, v)) % p for v in candidates]):
            groups[t] = groups.get(t, 0) | 1 << k
        return groups
    # Refine one nonzero coordinate of u at a time.
    classes = {0: everything}
    for sets, c in zip(coord, u):
        if c:
            refined: dict[int, int] = {}
            for t, members in classes.items():
                for a, bits in sets.items():
                    both = members & bits
                    if both:
                        key = (t + a * c) % p
                        refined[key] = refined.get(key, 0) | both
            classes = refined
    return classes


class _Space:
    """The candidates of one (p, n, signed_monomial_only), their coordinate
    sets, and the partitions kept so far, by candidate index.  A partition
    is built on first use and kept while fewer than PARTITION_BUDGET bytes
    of partitions are charged, so that charge passes the budget by at most
    one partition.  Callers only read what they get: the partitions, and
    the coordinate sets that the pinned frame uses as its partitions."""

    def __init__(self, p: int, n: int, signed_only: bool, deadline: float | None):
        self.field = PrimeField(p)
        self.candidates = _unit_columns(p, n, signed_only, deadline)
        self.coord = _coordinate_sets(self.candidates, deadline)
        self.everything = (1 << len(self.candidates)) - 1
        self.kept: dict[int, dict[int, int]] = {}
        self.charged = 0

    def of(self, k: int) -> dict[int, int]:
        part = self.kept.get(k)
        if part is None:
            part = _partition(self.coord, self.candidates, self.candidates[k], self.field, self.everything)
            if self.charged < PARTITION_BUDGET:
                self.kept[k] = part
                self.charged += sys.getsizeof(part) + sum(map(sys.getsizeof, part.values()))
        return part


def _members(bits: int):
    """The indices of the set bits, lowest first."""
    digits = bin(bits)[:1:-1]  # bit k is digits[k]
    k = digits.find("1")
    while k >= 0:
        yield k
        k = digits.find("1", k + 1)


class _Timeout(Exception):
    pass


def search(problem: SearchProblem, *, spaces: dict | None = None) -> SearchResult:
    """All formulas of the given type over GF(p), up to the option limits.

    The formulas come sorted by tensor T[k][i][j], compared entry by entry as
    residues 0..p-1.  This is numeric order: for p < 11 it is also the order
    of their JSON text, for p >= 11 it is not (10 sorts after 9, not before 2).

    Searches given the same ``spaces`` dict share the candidate space of
    their (p, n, signed_monomial_only) kept there: the candidates and the
    partitions kept so far.  A search builds its space and stores it there
    if missing; without a dict it builds a space of its own.
    """
    if spaces is None:
        spaces = {}
    elif not isinstance(spaces, dict):
        raise ValueError(f"spaces must be None or a dict, not {type(spaces).__name__}")
    r, s, n, p = problem.r, problem.s, problem.n, problem.p
    opts = problem.options
    start = time.monotonic()

    # B_1^T B_1 = I_s forces n >= s; r <-> s symmetry forces n >= r.
    if s > n or r > n:
        return SearchResult([], "exhausted", elapsed=time.monotonic() - start)

    solutions: list[tuple[tuple[int, ...], SosFormula]] = []  # (flat tensor, formula)
    state = {"nodes": 0}
    deadline = start + opts.time_budget if opts.time_budget is not None else None
    matrices: list[list[tuple[int, ...]]] = []  # per matrix: list of placed columns
    partitions: list[list[dict[int, int]]] = []  # per placed column
    places = [(i, j) for i in range(r) for j in range(s)]
    rows = range(n)
    memo: dict = {}  # what the Gram checks of the emitted formulas share

    def diagonal(mi: int, c: int) -> int:
        """The candidates that meet the diagonal constraints on column c of
        B_mi: 2<v, B_j[c]> = 0 for j < mi, as p is odd."""
        bits = everything
        for parts in partitions[:mi]:
            bits &= parts[c].get(0, 0)
        return bits

    def narrow(bits: int, mi: int, l: int, c: int) -> int:
        """bits AND the classes that column l of B_mi selects for column c:
        its own <v, B_mi[l]> = 0, and the cross pairs (c, l) with each
        earlier matrix, <v, B_j[l]> = -<B_j[c], B_mi[l]>."""
        u = matrices[mi][l]
        bits &= partitions[mi][l].get(0, 0)
        if pinned:  # <e_c, u> = u[c]
            bits &= coord[l].get(-u[c] % p, 0)
        for j in range(pinned, mi):
            if not bits:
                break
            bits &= partitions[j][l].get(-sum(map(operator.mul, matrices[j][c], u)) % p, 0)
        return bits

    def emit():
        # T[k][i][j] is entry k of column j of B_i, so slice k lists the
        # nonzero entries k of the columns in (i, j) order
        columns = list(itertools.chain.from_iterable(matrices[:r]))
        flat = tuple(itertools.chain.from_iterable(zip(*columns)))
        slices = [[] for _ in range(n)]
        for (i, j), u in zip(places, columns):
            for k in itertools.compress(rows, u):
                slices[k].append((i, j, u[k]))
        f = SosFormula._of_nonzeros(r, s, n, space.field, tuple(map(tuple, slices)))
        # The constraints imply this; the Gram check reads the built formula,
        # not the bitsets, so it does not share the search's code.  Each
        # distinct (B_a, B_b, a = b) is checked once per search, in ``memo``:
        # G_ab depends on nothing else.
        witness = f._gram_defect(memo)
        if witness is not None:
            raise AssertionError(f"search emitted a formula that fails the Gram check at (a, b, j, k) = {witness}")
        if len(solutions) >= MAX_KEPT_FORMULAS:
            raise ValueError(
                f"the search would keep more than {MAX_KEPT_FORMULAS} formulas; cap them with "
                "max_solutions (--max-solutions) or pin B_1 to the canonical frame (drop --no-canonical)"
            )
        solutions.append((flat, f))

    def extend(mi: int, ci: int, bits: int) -> None:
        """Walk the subtree of column ci of B_mi, whose candidates are bits."""
        if deadline is not None and time.monotonic() >= deadline:
            raise _Timeout
        state["nodes"] += 1
        if mi == r:
            emit()
            if opts.max_solutions is not None and len(solutions) >= opts.max_solutions:
                raise _Stop
            return
        cols, parts = matrices[mi], partitions[mi]
        nxt = ci + 1
        # A candidate gets its partition only if a later column reads it, and
        # enters its child node, which checks the deadline first; where column
        # nxt has no candidate left, each child is counted without entering it.
        if nxt < s:
            # what the columns placed before ci allow in column nxt, once for
            # all the candidates tried here
            shared = diagonal(mi, nxt) if bits else 0
            for l in range(ci):
                if not shared:
                    break
                shared = narrow(shared, mi, l, nxt)
            if not shared:
                state["nodes"] += bits.bit_count()  # each child is a node with no candidate
                return
            for k in _members(bits):
                cols.append(candidates[k])
                parts.append(partitions_of(k))
                extend(mi, nxt, narrow(shared, mi, ci, nxt))
                cols.pop()
                parts.pop()
        elif mi + 1 < r:
            matrices.append([])
            partitions.append([])
            for k in _members(bits):
                cols.append(candidates[k])
                parts.append(partitions_of(k))
                extend(mi + 1, 0, diagonal(mi + 1, 0))
                cols.pop()
                parts.pop()
            matrices.pop()
            partitions.pop()
        else:
            for k in _members(bits):  # each child is a leaf, which reads no partition
                cols.append(candidates[k])
                extend(r, 0, 0)
                cols.pop()

    pinned = int(opts.canonical_first_matrix)
    key = (p, n, opts.signed_monomial_only)
    stop_reason = "exhausted"
    try:
        space = spaces.get(key)
        if space is None:  # a build cut by the deadline stores nothing
            space = spaces[key] = _Space(*key, deadline)
        candidates, coord, everything, partitions_of = space.candidates, space.coord, space.everything, space.of
        if pinned:
            # B_1 = [I_s; 0]: column c is e_c, whose partition is coord[c]
            matrices.append([tuple(int(row == c) for row in range(n)) for c in range(s)])
            partitions.append(coord[:s])
        matrices.append([])
        partitions.append([])
        if pinned == r:
            # nothing left to search: the pinned frame is the whole solution
            emit()
        else:
            extend(pinned, 0, diagonal(pinned, 0))
    except _Stop:
        stop_reason = "max_solutions"
    except _Timeout:
        stop_reason = "timeout"
    finally:
        memo.clear()  # the nested functions hold it in a reference cycle

    solutions.sort(key=operator.itemgetter(0))
    return SearchResult(
        [f for _, f in solutions], stop_reason, nodes=state["nodes"], elapsed=time.monotonic() - start
    )


class _Stop(Exception):
    pass


# -- consistency sweep ------------------------------------------------------------


# status: found | empty-forbidden (exhausted, and Hopf forbids the cell) |
# empty-admissible (exhausted, Hopf allows it, GF(p) has no formula) | timeout
class SweepCell(ValueTuple, namedtuple("SweepCell", "r s n p status admissible")):
    __slots__ = ()


class SweepReport(ValueTuple, namedtuple("SweepReport", "cells violations")):
    __slots__ = ()

    def to_csv(self) -> str:
        return "r,s,n,p,status\n" + "".join(f"{c.r},{c.s},{c.n},{c.p},{c.status}\n" for c in self.cells)


def hopf_consistency_sweep(
    rmax: int,
    smax: int,
    nmax: int,
    p: int,
    *,
    time_budget: float | None = None,
) -> SweepReport:
    """Search every cell (r, s, n) in range and check that each hit satisfies
    the Hopf condition.  A found formula in an inadmissible cell would
    contradict the necessity of the condition; such cells are returned as
    violations (and there are none).  The cells are searched n by n, so the
    cells of one n share its candidate space; the report lists them in
    (r, s, n) order.

    Raises ValueError before any cell is searched when the range is empty
    (rmax, smax or nmax below 1) or a cell's search would be rejected.
    """
    require_ints("rmax, smax, nmax", rmax, smax, nmax)
    opts = SearchOptions(max_solutions=1, time_budget=time_budget)
    SearchProblem(rmax, smax, nmax, p, opts)  # rejects p or n before any cell
    results = {}
    for n in range(1, nmax + 1):
        spaces: dict[tuple[int, int, bool], _Space] = {}  # the cells of one n share its space
        for r in range(1, rmax + 1):
            for s in range(1, smax + 1):
                results[r, s, n] = search(SearchProblem(r, s, n, p, opts), spaces=spaces)
    cells: list[SweepCell] = []
    violations: list[SweepCell] = []
    for (r, s, n), result in sorted(results.items()):
        admissible = hopf_admissible(r, s, n)
        if result.found:
            status = "found"
        elif not result.exhausted:
            status = "timeout"
        elif admissible:
            status = "empty-admissible"
        else:
            status = "empty-forbidden"
        cell = SweepCell(r, s, n, p, status, admissible)
        cells.append(cell)
        if status == "found" and not admissible:
            violations.append(cell)
    return SweepReport(cells, violations)
