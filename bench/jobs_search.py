"""Workload ``search``: backtracking search for formulas over GF(p).

Jobs: exhaustive enumerations with many solutions, exhaustive proofs of
nonexistence in Hopf-forbidden cells, first-hit searches at n = 6 and 7,
signed-monomial searches, and small consistency sweeps, half through
``sosforms search`` / ``sosforms sweep`` and half through the API.  The seed
sets the order of the jobs and the points of the identity checks.

Searches with a time budget are left out: the budget is not honoured (see
CHANGES.md), so their results would depend on the machine's speed.
"""

from __future__ import annotations

import json
import random

from harness import Op, Workload, run_cli
from refcheck import Ring, hopf_admissible_comb, hr_upper, identity_witness

# (r, s, n, p, mode, route); modes: all = exhaustive, first = max_solutions 1,
# signed-all / signed-first = the same in signed-monomial mode.
CELLS = {
    "full": [
        (3, 3, 5, 3, "all", "cli"),
        (3, 3, 4, 5, "all", "api"),
        (2, 2, 5, 3, "all", "api"),
        (5, 3, 5, 3, "all", "api"),  # Hopf-forbidden
        (2, 5, 5, 3, "all", "cli"),  # Hopf-forbidden
        (4, 5, 5, 3, "all", "api"),  # Hopf-forbidden
        (3, 3, 6, 3, "first", "api"),
        (2, 5, 6, 3, "first", "cli"),
        (3, 5, 7, 3, "first", "api"),
        (8, 8, 8, 3, "signed-first", "cli"),
        (4, 4, 5, 3, "signed-all", "api"),
    ],
    "tiny": [
        (2, 2, 3, 3, "all", "cli"),
        (2, 3, 3, 3, "all", "api"),  # Hopf-forbidden
        (2, 2, 4, 3, "signed-first", "api"),
    ],
}
SWEEPS = {"full": [(3, 3, 4, 3), (2, 2, 5, 5)], "tiny": [(2, 2, 3, 3)]}
POINTS = 16  # seeded points at which each returned formula's defect must vanish


class Search(Workload):
    name = "search"

    def setup(self, sf, cli, clock) -> None:
        for r, s, n, p, mode, route in CELLS[self.scale]:
            exhaustive = mode.endswith("all")
            signed = mode.startswith("signed")
            label = f"search {r} {s} {n} {p} {mode} {route}"
            if route == "cli":
                argv = ["search", str(r), str(s), str(n), str(p)]
                argv += ["--exhaustive"] if exhaustive else ["--max-solutions", "1"]
                argv += ["--signed-monomial"] if signed else []
                fn = _cli_search(cli, argv)
            else:
                options = clock.call(
                    sf.SearchOptions, signed_monomial_only=signed, max_solutions=None if exhaustive else 1
                )
                problem = clock.call(sf.SearchProblem, r, s, n, p, options)
                fn = _api_search(sf, problem)
            self.add(label, fn, kind="search", cell=(r, s, n, p), exhaustive=exhaustive)
        for cell in SWEEPS[self.scale]:
            argv = ["sweep", *map(str, cell), "--format", "csv"]
            self.add(f"sweep {cell}", _cli_sweep(cli, argv), kind="sweep", cell=cell)
        self.rng.shuffle(self.ops)

    def check(self, op: Op, output) -> list:
        if op.info["kind"] == "sweep":
            return _check_sweep(op.info["cell"], output)
        return self._check_search(op, output)

    def _check_search(self, op: Op, out) -> list:
        r, s, n, p = op.info["cell"]
        field = Ring("GF", p)
        found = out["formulas"]
        problems = []
        if found and not hopf_admissible_comb(r, s, n):
            problems.append(f"formula found in the Hopf-forbidden cell ({r},{s},{n})")
        if not found and (n >= hr_upper(r, s) or n >= r * s):
            problems.append(f"nothing found in ({r},{s},{n}), where a restricted formula exists")
        if op.info["exhaustive"] and not out["exhausted"]:
            problems.append("an exhaustive search did not exhaust its space")
        if not op.info["exhaustive"] and not out["exhausted"] and len(found) != 1:
            problems.append(f"stopped early with {len(found)} formulas: a timeout")
        keys = set()
        rng = random.Random(f"search:{self.seed}:points:{op.label}")
        for data in found:
            if (data["r"], data["s"], data["n"]) != (r, s, n) or data["field"] != field.json_field():
                problems.append(f"formula of type {data['r'], data['s'], data['n']} over {data['field']}")
                continue
            key = json.dumps(data["tensor"])
            if key in keys:
                problems.append("a solution appears twice")
            keys.add(key)
            witness = identity_witness(data["tensor"], field, rng, POINTS)
            if witness is not None:
                problems.append(f"returned formula fails the identity at {witness}")
        return problems


def _cli_search(cli, argv: list):
    def fn():
        code, out, err = run_cli(cli, argv)
        summary = dict(item.split("=", 1) for item in err.split())
        return {
            "code": code,
            "formulas": [json.loads(line) for line in out.splitlines() if line.strip()],
            "exhausted": summary["exhausted"] == "true",
            "nodes": int(summary["nodes"]),
        }

    return fn


def _api_search(sf, problem):
    def fn():
        result = sf.search(problem)
        return {
            "formulas": [f.to_json_dict() for f in result.formulas],
            "exhausted": result.exhausted,
            "nodes": result.nodes,
        }

    return fn


def _cli_sweep(cli, argv: list):
    def fn():
        code, out, _ = run_cli(cli, argv)
        return {"code": code, "csv": out}

    return fn


def _check_sweep(cell, out) -> list:
    rmax, smax, nmax, p = cell
    problems = [] if out["code"] == 0 else [f"exit {out['code']}"]
    rows = [line.split(",") for line in out["csv"].strip().splitlines()[1:]]
    if len(rows) != rmax * smax * nmax:
        problems.append(f"{len(rows)} cells")
    for r, s, n, cell_p, status in rows:
        r, s, n = int(r), int(s), int(n)
        if status == "timeout":
            problems.append(f"({r},{s},{n}) timed out")
        if status == "found" and not hopf_admissible_comb(r, s, n):
            problems.append(f"({r},{s},{n}) found in a Hopf-forbidden cell")
        if status != "found" and (n >= hr_upper(r, s) or n >= r * s):
            problems.append(f"({r},{s},{n}) not found, where a restricted formula exists")
        if int(cell_p) != p:
            problems.append(f"({r},{s},{n}) over GF({cell_p})")
    return problems
