"""Workload ``engines``: the Hopf side of the workbench.

Jobs: the Hopf-Stiefel lower-bound table, a small ``sosforms bounds`` table,
the two-engine agreement sweep, ``motivic`` and ``hopf`` verdicts at and just
below seeded lower bounds, powers of a in the deleted-quadric rings (rho = 0,
rho formal with eps = 0, rho formal with eps = rho), Bockstein checks on
seeded classes, and the Chow/Gysin checks.  ``hopf``, ``motivic`` and
``chow`` do most of the work; the bound table's restricted-formula checks are
a minority share.
"""

from __future__ import annotations

import json
import random

from harness import Op, Workload, run_cli
from refcheck import (
    class_bidegrees,
    expected_chow_ranks,
    expected_dq_basis,
    expected_intersection_table,
    hopf_admissible_comb,
    hopf_lower_comb,
    hopf_stiefel,
    hopf_witness_comb,
    hr_upper,
    parse_classes,
    strip_rho,
)

SIZES = {
    # table_max: lower-bound table over 1 <= r, s <= table_max
    # bounds: `sosforms bounds b b`; sweep: motivic_binomial_mismatches(*sweep)
    # verdicts: seeded (r, s) pairs, each at and just below r o s
    # powers / bocksteins / chow: seeded sample sizes
    "full": dict(table_max=100, bounds=8, sweep=(16, 16, 32), pair_max=32, verdicts=24,
                 power_n=48, powers=30, cli_powers=8, bocksteins=12, chow=8),
    "tiny": dict(table_max=8, bounds=3, sweep=(3, 3, 6), pair_max=6, verdicts=3,
                 power_n=6, powers=3, cli_powers=1, bocksteins=2, chow=2),
}
BRUTE_SAMPLE = 64  # table cells also checked by brute force with math.comb


class Engines(Workload):
    name = "engines"

    def setup(self, sf, cli, clock) -> None:
        size, rng, add = SIZES[self.scale], self.rng, self.add
        tmax = size["table_max"]
        for r in range(1, tmax + 1):
            add(f"lower-bound row {r}", _lower_row(sf, r, tmax), kind="lower-row", r=r)
        b = size["bounds"]
        add(f"bounds {b} {b}", _cli_json(cli, ["bounds", str(b), str(b), "--format", "csv"], raw=True),
            kind="bounds", rmax=b)
        add(f"mismatches {size['sweep']}", lambda: sf.motivic_binomial_mismatches(*size["sweep"]),
            kind="mismatches")

        pmax = size["pair_max"]
        for v in range(size["verdicts"]):
            r, s = rng.randint(2, pmax), rng.randint(2, pmax)
            top = hopf_stiefel(r, s)
            for n in (top, top - 1):
                if n < max(r, s):
                    continue
                if v % 2:
                    add(f"motivic {r} {s} {n}", _cli_json(cli, ["motivic", str(r), str(s), str(n), "--format", "json"]),
                        kind="motivic-cli", triple=(r, s, n))
                else:
                    add(f"hopf_via_motivic {r} {s} {n}", lambda t=(r, s, n): sf.hopf_via_motivic(*t),
                        kind="motivic-api", triple=(r, s, n))
                add(f"hopf {r} {s} {n}", _cli_json(cli, ["hopf", str(r), str(s), str(n), "--format", "json"]),
                    kind="hopf-cli", triple=(r, s, n))

        for v in range(size["powers"]):
            n = rng.randint(1, size["power_n"])
            m = rng.randint(1, 2 * n + 2)
            specs = {
                key: clock.call(sf.DQRingSpec, n, rho=rho, eps_is_rho=eps)
                for key, rho, eps in (("rho0", False, False), ("formal", True, False), ("eps", True, True))
            }
            add(f"a^{m} in DQ_{n}", _powers(sf, specs, m), kind="powers", n=n, m=m)
            if v < size["cli_powers"]:
                argv = ["ring-power", str(n), str(m), "--rho", "formal", "--epsilon", "rho", "--format", "json"]
                add(f"ring-power {n} {m}", _cli_json(cli, argv), kind="power-cli", n=n, m=m)

        for _ in range(size["bocksteins"]):
            n = rng.randint(2, size["power_n"])
            spec = clock.call(sf.DQRingSpec, n, rho=True, eps_is_rho=bool(rng.getrandbits(1)))
            x = clock.call(sf.DQClass, spec, _random_terms(sf, rng, n))
            y = clock.call(sf.DQClass, spec, _random_terms(sf, rng, n))
            add(f"bockstein on DQ_{n}", _bockstein(x, y), kind="bockstein")

        chow_ns = rng.sample(range(2, 41), size["chow"])
        for n in chow_ns:
            add(f"projection formula {n}", lambda n=n: sf.projection_formula_check(n), kind="projection")
            add(f"localization basis {n}", lambda n=n: _bidegrees(sf.dq_additive_basis_localization(n)),
                kind="dq-basis", n=n)
            add(f"ring basis {n}", lambda n=n: _bidegrees(sf.ring_additive_basis(n)), kind="dq-basis", n=n)
        for k in range(1, 2 * size["chow"] + 1):
            add(f"intersection table {k}", lambda k=k: sf.even_intersection_table(k), kind="table", k=k)
        for n in chow_ns[: max(1, len(chow_ns) // 2)]:
            add(f"chow gysin {n}", _cli_json(cli, ["chow", "gysin", str(n), "--format", "json"]), kind="gysin")
            add(f"chow {n}", _cli_json(cli, ["chow", str(n), "--format", "json"]), kind="chow", m=n)

    def check(self, op: Op, output) -> list:
        return _CHECKS[op.info["kind"]](op.info, output)


# -- operations ------------------------------------------------------------------------


def _lower_row(sf, r: int, tmax: int):
    return lambda: [sf.hopf_lower_bound(r, s) for s in range(1, tmax + 1)]


def _cli_json(cli, argv: list, raw: bool = False):
    def fn():
        code, out, _ = run_cli(cli, argv)
        return {"code": code, "data": out if raw else json.loads(out)}

    return fn


def _powers(sf, specs: dict, m: int):
    return lambda: {key: sf.dq_power_a(spec, m).to_text() for key, spec in specs.items()}


def _bockstein(x, y):
    def fn():
        bx, by = x.bockstein(), y.bockstein()
        return {
            "bbx": bx.bockstein().to_text(),
            "b(xy)": (x * y).bockstein().to_text(),
            "b(x)y": (bx * y).to_text(),
            "xb(y)": (x * by).to_text(),
        }

    return fn


def _random_terms(sf, rng, n: int) -> dict:
    """A seeded class: a few basis monomials with small tau/rho coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, 1), rng.randint(0, n // 2))
        monos = {(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 3))}
        terms[key] = sf.M2Poly(monos)
    return terms


def _bidegrees(degrees) -> list:
    return sorted((d[0], d[1]) for d in degrees)


# -- checks ---------------------------------------------------------------------------


def _check_lower_row(info, out):
    r = info["r"]
    want = [hopf_stiefel(r, s) for s in range(1, len(out) + 1)]
    problems = [f"r o {s}: {got} != {w}" for s, (got, w) in enumerate(zip(out, want), 1) if got != w]
    # brute force on a seeded sample of cells, which also cross-checks the recursion
    rng = random.Random(f"brute:{r}")
    for s in rng.sample(range(1, len(out) + 1), min(len(out), max(1, BRUTE_SAMPLE // len(out)))):
        if hopf_lower_comb(r, s) != out[s - 1]:
            problems.append(f"r o s for ({r},{s}): brute force {hopf_lower_comb(r, s)}, got {out[s - 1]}")
    return problems


def _check_bounds(info, out):
    lines = out["data"].strip().splitlines()
    problems = [] if out["code"] == 0 else [f"exit {out['code']}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != info["rmax"] ** 2:
        problems.append(f"{len(rows)} rows")
    for r, s, lower, upper, tight in rows:
        r, s, lower, upper = int(r), int(s), int(lower), int(upper)
        if lower != hopf_lower_comb(r, s) or lower != hopf_stiefel(r, s):
            problems.append(f"lower bound ({r},{s}) = {lower}")
        if upper != hr_upper(r, s) or upper < lower:
            problems.append(f"upper bound ({r},{s}) = {upper}")
        if (tight == "true") != (lower == upper):
            problems.append(f"tight flag ({r},{s})")
    return problems


def _check_mismatches(info, out):
    return [] if list(out) == [] else [f"engines disagree on {out[:5]}"]


def _check_motivic_cli(info, out):
    r, s, n = info["triple"]
    want = hopf_admissible_comb(r, s, n)
    problems = []
    if out["data"]["admissible"] is not want:
        problems.append(f"motivic ({r},{s},{n}) admissible={out['data']['admissible']}, comb says {want}")
    if out["code"] != (0 if want else 1):
        problems.append(f"exit {out['code']}")
    if want is not (n == hopf_stiefel(r, s)):  # sampled at r o s and just below
        problems.append("sample is not at or just below r o s")
    return problems


def _check_motivic_api(info, out):
    r, s, n = info["triple"]
    want = hopf_admissible_comb(r, s, n)
    return [] if out is want else [f"hopf_via_motivic({r},{s},{n}) = {out}, comb says {want}"]


def _check_hopf_cli(info, out):
    r, s, n = info["triple"]
    witness = hopf_witness_comb(r, s, n)
    data, problems = out["data"], []
    if data["admissible"] is not (witness is None) or data["witness"] != witness:
        problems.append(f"hopf ({r},{s},{n}) = {data}, comb witness {witness}")
    if out["code"] != (0 if witness is None else 1):
        problems.append(f"exit {out['code']}")
    return problems


def _check_powers(info, out):
    n, m = info["n"], info["m"]
    rho0, formal, eps = (parse_classes(out[key]) for key in ("rho0", "formal", "eps"))
    problems = []
    if bool(rho0) != (m <= n):
        problems.append(f"rho = 0: a^{m} in DQ_{n} is {'nonzero' if rho0 else 'zero'}")
    if strip_rho(formal) != rho0:
        problems.append(f"stripping rho from the formal a^{m} in DQ_{n} does not give the rho = 0 power")
    for key, terms in (("rho0", rho0), ("formal", formal), ("eps", eps)):
        if terms and class_bidegrees(terms) != {(m, m)}:
            problems.append(f"{key}: a^{m} in DQ_{n} has bidegrees {class_bidegrees(terms)}")
    return problems


def _check_power_cli(info, out):
    m = info["m"]
    terms = parse_classes(out["data"]["value"])
    problems = [] if out["code"] == 0 else [f"exit {out['code']}"]
    if out["data"]["zero"] != (not terms):
        problems.append("zero flag disagrees with the value")
    if terms and class_bidegrees(terms) != {(m, m)}:
        problems.append(f"a^{m} has bidegrees {class_bidegrees(terms)}")
    return problems


def _check_bockstein(info, out):
    problems = []
    if parse_classes(out["bbx"]):
        problems.append(f"beta(beta(x)) = {out['bbx']}")
    if parse_classes(out["b(xy)"]) != parse_classes(out["b(x)y"]) ^ parse_classes(out["xb(y)"]):
        problems.append("beta(xy) != beta(x) y + x beta(y)")
    return problems


def _check_projection(info, out):
    return [] if out is True else ["projection formula check failed"]


def _check_dq_basis(info, out):
    want = expected_dq_basis(info["n"])
    return [] if out == want else [f"DQ_{info['n']} basis {out}"]


def _check_table(info, out):
    want = expected_intersection_table(info["k"])
    got = tuple(tuple(row) for row in out)
    return [] if got == want else [f"Q_{2 * info['k']} intersection table {got}"]


def _check_gysin(info, out):
    data, problems = out["data"], []
    if data["double_cover"] is not True:
        problems.append("j_* j^* != 2")
    for row in data["rows"]:
        push, pull = row["pushforward"], row["pullback"]
        total = sum(push[0][a] * pull[a][0] for a in range(len(pull)))
        if total != 2:
            problems.append(f"codim {row['codim']}: j_* j^* = {total}")
    if len(data["rows"]) != data["n"]:
        problems.append(f"{len(data['rows'])} rows for n = {data['n']}")
    return problems


def _check_chow(info, out):
    ranks = {int(c): v for c, v in out["data"]["ranks"].items()}
    want = expected_chow_ranks(info["m"])
    return [] if ranks == want else [f"CH*(Q_{info['m']}) ranks {ranks}"]


_CHECKS = {
    "lower-row": _check_lower_row,
    "bounds": _check_bounds,
    "mismatches": _check_mismatches,
    "motivic-cli": _check_motivic_cli,
    "motivic-api": _check_motivic_api,
    "hopf-cli": _check_hopf_cli,
    "powers": _check_powers,
    "power-cli": _check_power_cli,
    "bockstein": _check_bockstein,
    "projection": _check_projection,
    "dq-basis": _check_dq_basis,
    "table": _check_table,
    "gysin": _check_gysin,
    "chow": _check_chow,
}
