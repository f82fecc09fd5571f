"""Workloads ``verify-sparse`` and ``verify-dense``: formula verification.

Each job takes a formula built by the package (Hurwitz-Radon, Gauss, Euler,
Degen, trivial, or a restriction of one of these), changes its coordinates
from the seed, moves it to a coefficient ring, and verifies it through
``sosforms verify --format json`` (both verifiers) or through the API
(``verify_by_expansion``, ``verify_by_hurwitz`` or both).  Some jobs verify a
corrupted copy, which both verifiers must reject.

``verify-sparse`` keeps every entry in {0, +-1} (seeded signed permutations
of x, y and z), so the Hurwitz Gram check does most of the work.
``verify-dense`` applies a seeded orthogonal change of z (a Householder
reflection by a vector with no zero entry) over GF(p) or Q, which makes every
column dense, so polynomial expansion does most of the work.
"""

from __future__ import annotations

import json
import os
import random

from harness import Op, Workload, corrupt, dense_change, formula_json, run_cli, signed_permutation, to_ring
from refcheck import Ring, identity_witness

Z, Q, ZI = Ring("Z"), Ring("Q"), Ring("Zi")
GF3, GF5, GF7, GF13 = (Ring("GF", p) for p in (3, 5, 7, 13))

HR = "hr"
CLASSICAL = "classical"
TRIVIAL = "trivial"
RESTRICT = "restrict"

# (formula, ring, route, corrupted).  Routes: cli = `sosforms verify`, exp /
# gram / both = the API verifiers.
SPARSE_JOBS = {
    "full": [
        ((HR, 32), Z, "cli", False),
        ((HR, 32), GF13, "exp", False),
        ((HR, 32), GF5, "both", True),
        ((HR, 24), GF5, "cli", False),
        ((HR, 16), GF3, "both", False),
        ((HR, 16), GF13, "cli", False),
        ((HR, 16), Z, "cli", True),
        ((HR, 12), ZI, "cli", False),
        ((HR, 8), ZI, "both", False),
        ((HR, 8), GF3, "cli", True),
        ((HR, 4), GF5, "both", False),
        ((CLASSICAL, "eight"), Z, "both", False),
        ((CLASSICAL, "eight"), GF5, "cli", True),
        ((CLASSICAL, "four"), GF13, "cli", False),
        ((CLASSICAL, "four"), ZI, "both", False),
        ((CLASSICAL, "two"), GF3, "both", False),
        ((CLASSICAL, "two"), Z, "cli", False),
        ((TRIVIAL, 3, 5), GF5, "cli", False),
        ((TRIVIAL, 4, 4), Z, "both", False),
        ((TRIVIAL, 4, 4), GF3, "both", True),
        ((RESTRICT, (HR, 16), 5, 11), Z, "cli", False),
        ((RESTRICT, (CLASSICAL, "eight"), 5, 7), GF13, "both", False),
        ((RESTRICT, (HR, 32), 7, 20), GF3, "both", False),
    ],
    "tiny": [
        ((HR, 4), Z, "cli", False),
        ((HR, 4), GF3, "both", True),
        ((CLASSICAL, "two"), ZI, "both", False),
        ((RESTRICT, (TRIVIAL, 2, 3), 2, 2), GF5, "exp", False),
    ],
}

DENSE_JOBS = {
    "full": [
        ((HR, 16), GF5, "cli", False),
        ((HR, 12), GF7, "both", False),
        ((HR, 8), GF3, "cli", False),
        ((HR, 8), GF13, "exp", False),
        ((HR, 8), Q, "exp", False),
        ((HR, 8), GF5, "cli", True),
        ((CLASSICAL, "eight"), GF7, "both", False),
        ((CLASSICAL, "four"), Q, "cli", False),
        ((CLASSICAL, "four"), GF3, "both", True),
        ((TRIVIAL, 3, 5), GF3, "cli", False),
        ((RESTRICT, (HR, 16), 5, 11), GF13, "both", False),
        ((RESTRICT, (CLASSICAL, "eight"), 6, 6), GF7, "cli", True),
    ],
    "tiny": [
        ((HR, 4), GF5, "cli", False),
        ((CLASSICAL, "two"), Q, "both", False),
        ((TRIVIAL, 2, 2), GF3, "both", True),
    ],
}

CORRECT_TRIES = 6  # seeded points at which a correct formula's defect must vanish
WITNESS_TRIES = 400  # seeded points searched for a corrupted copy's witness


class VerifyWorkload(Workload):
    dense = False

    def __init__(self, seed: int, scale: str, workdir: str):
        super().__init__(seed, scale, workdir)
        self.jobs = (DENSE_JOBS if self.dense else SPARSE_JOBS)[scale]

    def _construct(self, sf, clock, spec):
        kind = spec[0]
        if kind == HR:
            return clock.call(sf.construct_hurwitz_radon, spec[1])
        if kind == CLASSICAL:
            return clock.call(sf.construct_classical, spec[1])
        if kind == TRIVIAL:
            return clock.call(sf.construct_trivial, spec[1], spec[2])
        base = self._construct(sf, clock, spec[1])
        return clock.call(base.restrict, spec[2], spec[3])

    def setup(self, sf, cli, clock) -> None:
        for index, (spec, ring, route, corrupted) in enumerate(self.jobs):
            base = self._construct(sf, clock, spec)
            tensor = base.to_json_dict()["tensor"]  # plain ints in {0, +-1}
            if self.dense:
                tensor = dense_change(tensor, ring, self.rng)
            else:
                tensor = to_ring(signed_permutation(tensor, self.rng), ring)
            if corrupted:
                tensor = corrupt(tensor, ring, self.rng, self.dense)
            text = formula_json(tensor, ring)
            n, r, s = len(tensor), len(tensor[0]), len(tensor[0][0])
            label = f"{spec}/{ring!r}/{route}{'/corrupted' if corrupted else ''}"
            if route == "cli":
                path = os.path.join(self.workdir, f"{self.name}-{index}.json")
                with open(path, "w") as fh:
                    fh.write(text)
                fn = _cli_verify(cli, path)
            else:
                formula = self._api_formula(sf, clock, ring, tensor, text)
                fn = _api_verify(formula, route)
            self.add(label, fn, ring=ring, tensor=tensor, corrupted=corrupted, type=[r, s, n])

    def _api_formula(self, sf, clock, ring: Ring, tensor, text):
        """Build through the constructors a user would pick for the ring."""
        n, r, s = len(tensor), len(tensor[0]), len(tensor[0][0])
        if ring.kind == "Z":
            return clock.call(sf.SosFormula, r, s, n, sf.ZZ, tensor)
        if ring.kind == "GF" and not self.dense:  # a {0, +-1} formula moved to GF(p)
            signed = [[[c if c < 2 else -1 for c in row] for row in sl] for sl in tensor]
            over_z = clock.call(sf.SosFormula, r, s, n, sf.ZZ, signed)
            field = clock.call(sf.PrimeField, ring.p)
            return clock.call(over_z.change_ring, field)
        return clock.call(sf.SosFormula.from_json, text)

    def check(self, op: Op, output) -> list:
        info = op.info
        ring, tensor = info["ring"], info["tensor"]
        rng = random.Random(f"{self.name}:{self.seed}:points:{op.label}")
        tries = WITNESS_TRIES if info["corrupted"] else CORRECT_TRIES
        witness = identity_witness(tensor, ring, rng, tries)
        problems = []
        if info["corrupted"] and witness is None:
            problems.append("reference found no defect witness for the corrupted copy")
        if not info["corrupted"] and witness is not None:
            problems.append(f"reference defect at {witness} in a formula built to hold")
        expected = witness is None
        for key in ("by_expansion", "by_hurwitz", "verified"):
            if key in output and output[key] is not expected:
                problems.append(f"{key}={output[key]}, reference says {expected}")
        if "code" in output:
            if output["code"] != (0 if expected else 1):
                problems.append(f"exit code {output['code']} for verdict {expected}")
            if output["type"] != info["type"]:
                problems.append(f"type {output['type']} != {info['type']}")
        return problems


def _cli_verify(cli, path: str):
    def fn():
        code, out, _ = run_cli(cli, ["verify", path, "--format", "json"])
        data = json.loads(out)
        return {
            "code": code,
            "type": [data["r"], data["s"], data["n"]],
            "verified": data["verified"],
            "by_expansion": data["by_expansion"],
            "by_hurwitz": data["by_hurwitz"],
        }

    return fn


def _api_verify(formula, route: str):
    def fn():
        out = {}
        if route in ("exp", "both"):
            out["by_expansion"] = formula.verify_by_expansion()
        if route in ("gram", "both"):
            out["by_hurwitz"] = formula.verify_by_hurwitz()
        return out

    return fn


class VerifySparse(VerifyWorkload):
    name = "verify-sparse"
    dense = False


class VerifyDense(VerifyWorkload):
    name = "verify-dense"
    dense = True
