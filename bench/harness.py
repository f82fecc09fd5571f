"""Pieces shared by the workloads: operations, in-process CLI calls, and the
seeded signed permutations and orthogonal changes of coordinates."""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from refcheck import Ring


@dataclass
class Op:
    """One operation of a pass: ``fn`` calls the program and returns its
    output as plain data; ``info`` is what the checker needs to know."""

    label: str
    fn: object
    info: dict = field(default_factory=dict)


class OpFailed(Exception):
    """An operation failed: it raised, or the CLI refused it (exit code 2)."""


def run_cli(cli, argv: list) -> tuple:
    """``sosforms <argv>`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        raise OpFailed(f"sosforms {' '.join(argv)}: exit 2: {err.getvalue().strip()}")
    return code, out.getvalue(), err.getvalue()


class Workload:
    """A workload: a plan made from the seed alone, a set-up that builds the
    inputs through the package's constructors and appends the operations,
    and a checker of their outputs."""

    name = "?"

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list = []

    def add(self, label: str, fn, **info) -> None:
        self.ops.append(Op(label, fn, info))

    def setup(self, sf, cli, clock) -> None:
        raise NotImplementedError

    def check(self, op: Op, output) -> list:
        """Problems found in one operation's output (empty when correct)."""
        raise NotImplementedError


# -- seeded transformations of formula tensors (plain values) ---------------------


def signed_permutation(tensor, rng):
    """Permute and sign-flip x, y and z at random: still a formula."""
    n, r, s = len(tensor), len(tensor[0]), len(tensor[0][0])
    pk, pi, pj = rng.sample(range(n), n), rng.sample(range(r), r), rng.sample(range(s), s)
    sk = [rng.choice((1, -1)) for _ in range(n)]
    si = [rng.choice((1, -1)) for _ in range(r)]
    sj = [rng.choice((1, -1)) for _ in range(s)]
    return [
        [[sk[k] * si[i] * sj[j] * tensor[pk[k]][pi[i]][pj[j]] for j in range(s)] for i in range(r)]
        for k in range(n)
    ]


def _reflection(n: int, ring: Ring, rng):
    """A seeded reflection I - 2 v v^T / (v.v), which is orthogonal.

    Its diagonal entry a vanishes when v_a^2 = (v.v)/2, so v is drawn with no
    zero entry until every entry of the reflection is nonzero; then the
    density, and the verifiers' work, do not depend on the seed.  Where no
    such v exists, the first valid draw is taken: over GF(3) every v with no
    zero entry gives the same diagonal, and when 3 | n they all have
    v.v = 0, so v gets one zero entry.
    """
    first = None
    for attempt in range(200):
        if ring.kind == "GF":
            v = [rng.randrange(1, ring.p) for _ in range(n)]
        else:
            v = [ring.from_int(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))) for _ in range(n)]
        if attempt >= 100:
            if first is not None:
                return first
            v[rng.randrange(n)] = ring.zero()
        vv = _dot(ring, v, v)
        if ring.is_zero(vv):
            continue
        scale = Fraction(2) / vv if ring.kind == "Q" else 2 * pow(vv, -1, ring.p) % ring.p
        h = [
            [ring.sub(ring.from_int(int(a == b)), ring.mul(scale, ring.mul(v[a], v[b]))) for b in range(n)]
            for a in range(n)
        ]
        if not any(ring.is_zero(c) for row in h for c in row):
            return h
        first = first or h
    if first is None:
        raise ValueError(f"no reflection over {ring!r} in dimension {n}")
    return first


def _dot(ring: Ring, u, v):
    acc = ring.zero()
    for a, b in zip(u, v):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def dense_change(tensor, ring: Ring, rng):
    """z -> H z for a seeded reflection H over GF(p) or Q: every column of
    every B_i becomes dense, and the identity still holds.  (A product of two
    reflections cancels into a density that varies from seed to seed by up
    to 2x over GF(3), and the verifiers' work with it.)"""
    n, r, s = len(tensor), len(tensor[0]), len(tensor[0][0])
    h = _reflection(n, ring, rng)
    lifted = [[[ring.from_int(c) for c in row] for row in sl] for sl in tensor]
    return [
        [[_dot(ring, h[k], [lifted[l][i][j] for l in range(n)]) for j in range(s)] for i in range(r)]
        for k in range(n)
    ]


def corrupt(tensor, ring: Ring, rng, dense: bool):
    """A copy with one entry c of the last matrix B_r changed to c + d, which
    breaks the identity: the coefficient of x_i^2 y_j^2 in the defect moves
    by d (2c + d), which is nonzero.  Sparse copies set a zero entry to +-1,
    dense copies add d = 1 (d = 2 when 2c + 1 = 0).  Fixing the matrix keeps
    the work a verifier does before it can reject about the same for every
    seed."""
    out = [[list(row) for row in sl] for sl in tensor]
    r = len(tensor[0])
    cells = [(k, j) for k in range(len(tensor)) for j in range(len(tensor[0][0]))]
    if dense:
        k, j = rng.choice(cells)
        c = out[k][r - 1][j]
        one = ring.from_int(1)
        d = ring.from_int(2) if ring.is_zero(ring.add(ring.add(c, c), one)) else one
        out[k][r - 1][j] = ring.add(c, d)
    else:
        k, j = rng.choice([(k, j) for k, j in cells if ring.is_zero(tensor[k][r - 1][j])])
        out[k][r - 1][j] = ring.from_int(rng.choice((1, -1)))
    return out


def to_ring(tensor, ring: Ring):
    return [[[ring.from_int(c) if isinstance(c, int) else c for c in row] for row in sl] for sl in tensor]


def formula_json(tensor, ring: Ring) -> str:
    n, r, s = len(tensor), len(tensor[0]), len(tensor[0][0])
    body = [[[ring.to_json(c) for c in row] for row in sl] for sl in tensor]
    return json.dumps({"r": r, "s": s, "n": n, "field": ring.json_field(), "tensor": body})
