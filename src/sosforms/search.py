"""Backtracking search for composition formulas over small odd-prime fields.

The search works on the matrix form: find B_1, ..., B_r (each n x s over
GF(p)) with B_j^T B_k + B_k^T B_j = 2 delta_{jk} I_s, filling one column at
a time and pruning on the orthogonality constraints as soon as both columns
of a constrained pair are placed.

By default B_1 is pinned to the standard frame [I_s; 0]: the columns of any
admissible B_1 are orthonormal, and Witt extension over GF(p) moves any such
frame to the standard one by an isometry acting on all matrices at once, so
existence is unaffected.  Disabling the pin recovers the full solution set
(used to test that the canonical search misses nothing on tiny instances).

A result says why the search stopped: ``exhausted`` (the whole tree was
walked), ``max_solutions`` or ``timeout``.  An empty exhausted result is a
proof of nonexistence within the searched class; timeouts never masquerade
as proofs.  Every emitted formula is re-verified by polynomial expansion
before it is returned.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .formulas import SosFormula
from .hopf import hopf_admissible
from .rings import PrimeField


@dataclass(frozen=True)
class SearchOptions:
    canonical_first_matrix: bool = True
    signed_monomial_only: bool = False
    max_solutions: int | None = None
    time_budget: float | None = None  # seconds


@dataclass(frozen=True)
class SearchProblem:
    r: int
    s: int
    n: int
    p: int
    options: SearchOptions = field(default_factory=SearchOptions)

    def __post_init__(self):
        if min(self.r, self.s, self.n) < 1:
            raise ValueError("r, s, n must be positive")
        PrimeField(self.p)  # validates p odd prime
        opts = self.options
        if opts.max_solutions is not None and opts.max_solutions < 1:
            raise ValueError("max_solutions must be at least 1")
        if opts.time_budget is not None and not opts.time_budget >= 0:  # NaN too
            raise ValueError("time_budget must be non-negative")


@dataclass
class SearchResult:
    formulas: list[SosFormula]
    stop_reason: str  # "exhausted" | "max_solutions" | "timeout"
    nodes: int = 0
    elapsed: float = 0.0

    @property
    def exhausted(self) -> bool:
        return self.stop_reason == "exhausted"

    @property
    def found(self) -> bool:
        return bool(self.formulas)


def _unit_columns(p: int, n: int, signed_only: bool, deadline: float | None) -> list[tuple[int, ...]]:
    """Candidate columns: unit vectors for the standard bilinear form.  The
    full enumeration visits p^n vectors, so it watches the deadline too."""
    if signed_only:
        cols = []
        for pos in range(n):
            for sign in (1, p - 1):
                v = [0] * n
                v[pos] = sign
                cols.append(tuple(v))
        return cols
    cols = []
    for count, v in enumerate(itertools.product(range(p), repeat=n)):
        if deadline is not None and count % 1024 == 0 and time.monotonic() >= deadline:
            raise _Timeout
        if sum(c * c for c in v) % p == 1:
            cols.append(v)
    return cols


def _watched(candidates, deadline: float):
    """The candidates, checking the deadline every 32 of them: one node's
    scan of a long candidate list must not overrun a time budget."""
    for count, v in enumerate(candidates):
        if count % 32 == 0 and time.monotonic() >= deadline:
            raise _Timeout
        yield v


def _dot(u, v, p) -> int:
    return sum(a * b for a, b in zip(u, v)) % p


class _Timeout(Exception):
    pass


def search(problem: SearchProblem) -> SearchResult:
    """All formulas of the given type over GF(p), up to the option limits.

    The formulas come sorted by tensor T[k][i][j], compared entry by entry as
    residues 0..p-1.  This is numeric order: for p < 11 it is also the order
    of their JSON text, for p >= 11 it is not (10 sorts after 9, not before 2).
    """
    r, s, n, p = problem.r, problem.s, problem.n, problem.p
    opts = problem.options
    start = time.monotonic()

    # B_1^T B_1 = I_s forces n >= s; r <-> s symmetry forces n >= r.
    if s > n or r > n:
        return SearchResult([], "exhausted", elapsed=time.monotonic() - start)

    field_ring = PrimeField(p)

    pinned = 0
    matrices: list[list[tuple[int, ...]]] = []  # per matrix: list of placed columns
    if opts.canonical_first_matrix:
        frame = [tuple(1 if row == col else 0 for row in range(n)) for col in range(s)]
        matrices.append(frame)
        pinned = 1

    solutions: list[SosFormula] = []
    state = {"nodes": 0}
    deadline = start + opts.time_budget if opts.time_budget is not None else None

    def column_ok(mi: int, ci: int, v: tuple[int, ...]) -> bool:
        cols = matrices[mi]
        # own-matrix orthonormality (norm is baked into the candidate set)
        for prior in cols:
            if _dot(v, prior, p) != 0:
                return False
        # cross constraints with every earlier matrix, for all pairs (ci, l<=ci)
        for other in matrices[:mi]:
            if len(other) <= ci:
                continue
            for l in range(ci):
                if (_dot(v, other[l], p) + _dot(other[ci], cols[l], p)) % p != 0:
                    return False
            if (2 * _dot(v, other[ci], p)) % p != 0:
                return False
        return True

    def emit():
        tensor = [
            [[matrices[i][j][k] for j in range(s)] for i in range(r)] for k in range(n)
        ]
        f = SosFormula(r, s, n, field_ring, tensor)
        if not f.verify_by_expansion():  # paranoia: constraints imply this
            raise AssertionError("search emitted a formula that fails verification")
        solutions.append(f)

    def extend(mi: int, ci: int) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise _Timeout
        state["nodes"] += 1
        if mi == r:
            emit()
            if opts.max_solutions is not None and len(solutions) >= opts.max_solutions:
                raise _Stop
            return
        for v in candidates if deadline is None else _watched(candidates, deadline):
            if column_ok(mi, ci, v):
                matrices[mi].append(v)
                if ci + 1 == s:
                    matrices.append([])
                    extend(mi + 1, 0)
                    matrices.pop()
                else:
                    extend(mi, ci + 1)
                matrices[mi].pop()

    stop_reason = "exhausted"
    matrices.append([])
    try:
        candidates = _unit_columns(p, n, opts.signed_monomial_only, deadline)
        if pinned == 1 and r == 1:
            # nothing left to search: the pinned frame is the whole solution
            matrices.pop()
            emit()
        else:
            extend(pinned, 0)
            matrices.pop()
    except _Stop:
        stop_reason = "max_solutions"
    except _Timeout:
        stop_reason = "timeout"

    solutions.sort(key=lambda f: f.tensor)
    return SearchResult(
        solutions, stop_reason, nodes=state["nodes"], elapsed=time.monotonic() - start
    )


class _Stop(Exception):
    pass


# -- consistency sweep ------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    r: int
    s: int
    n: int
    p: int
    status: str  # found | consistent-empty | timeout
    admissible: bool


@dataclass
class SweepReport:
    cells: list[SweepCell]
    violations: list[SweepCell]

    def to_csv(self) -> str:
        lines = ["r,s,n,p,status"]
        for c in self.cells:
            lines.append(f"{c.r},{c.s},{c.n},{c.p},{c.status}")
        return "\n".join(lines) + "\n"


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
    violations (and there are none).
    """
    cells: list[SweepCell] = []
    violations: list[SweepCell] = []
    for r in range(1, rmax + 1):
        for s in range(1, smax + 1):
            for n in range(1, nmax + 1):
                opts = SearchOptions(max_solutions=1, time_budget=time_budget)
                result = search(SearchProblem(r, s, n, p, opts))
                admissible = hopf_admissible(r, s, n)
                if result.found:
                    status = "found"
                elif result.exhausted:
                    status = "consistent-empty"
                else:
                    status = "timeout"
                cell = SweepCell(r, s, n, p, status, admissible)
                cells.append(cell)
                if status == "found" and not admissible:
                    violations.append(cell)
    return SweepReport(cells, violations)
