"""Command-line front door.

Exit codes: 0 = success, 1 = a mathematical check came out false
(inadmissible triple, failed verification, engine disagreement, sweep
violation), 2 = usage or I/O error.  ``--format json|csv`` switches the
machine-readable renderings; default is human-readable text.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import chow as chow_mod
from . import hopf as hopf_mod
from . import motivic as motivic_mod
from .formulas import SosFormula
from .motivic import DQRingSpec, dq_power_a
from .poly import SparsePoly
from .search import SearchOptions, SearchProblem, hopf_consistency_sweep, search

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def cmd_verify(args) -> int:
    try:
        with open(args.path) as fh:
            formula = SosFormula.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load formula: {exc}", file=sys.stderr)
        return EXIT_USAGE
    r, s, n = formula.type_triple
    defect = formula.expansion_defect()
    by_expansion = defect.is_zero
    if not by_expansion:
        mono, coeff = defect.first_term()
        ring = formula.ring
        name = lambda v: f"x{v}" if v < r else f"y{v - r}"
        print(
            f"Expansion defect at {SparsePoly(ring, {mono: ring.one()}).to_text(name)}: "
            f"coefficient {ring.format_element(coeff)} in "
            "sum_k z_k^2 - (sum_i x_i^2)(sum_j y_j^2) (indices from 0)",
            file=sys.stderr,
        )
    by_hurwitz = formula.verify_by_hurwitz()
    if not by_hurwitz:
        a, b, j, k = formula.gram_defect()
        print(
            f"Gram defect at (a, b, j, k) = ({a}, {b}, {j}, {k}): entry (j, k) of "
            "B_a^T B_b + B_b^T B_a is not 2 delta_ab delta_jk (indices from 0)",
            file=sys.stderr,
        )
    verdict = by_expansion and by_hurwitz
    if args.format == "json":
        _print_json(
            {
                "r": r,
                "s": s,
                "n": n,
                "field": formula.ring.kind,
                "verified": verdict,
                "by_expansion": by_expansion,
                "by_hurwitz": by_hurwitz,
            }
        )
    else:
        word = "verified" if verdict else "NOT verified"
        print(f"{word} [{r},{s},{n}] over {formula.ring!r}")
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_hopf(args) -> int:
    r, s, n = args.r, args.s, args.n
    witness = hopf_mod.hopf_violation_witness(r, s, n)
    admissible = witness is None
    if args.format == "json":
        _print_json({"r": r, "s": s, "n": n, "admissible": admissible, "witness": witness})
    elif admissible:
        print(f"admissible: C({n},i) even for {n - r} < i < {s}")
    else:
        print(f"inadmissible: C({n},{witness}) odd")
    return EXIT_OK if admissible else EXIT_FALSE


def cmd_bounds(args) -> int:
    entries = hopf_mod.bound_table(args.rmax, args.smax)
    if args.format == "csv":
        sys.stdout.write(hopf_mod.bound_table_csv(entries))
    elif args.format == "json":
        _print_json([dataclasses.asdict(e) for e in entries])
    else:
        sys.stdout.write(hopf_mod.bound_table_text(entries))
    return EXIT_OK


def cmd_ring_power(args) -> int:
    spec = DQRingSpec(args.n, rho=args.rho == "formal", eps_is_rho=args.epsilon == "rho")
    value = dq_power_a(spec, args.m)
    if args.format == "json":
        _print_json({"n": args.n, "m": args.m, "value": value.to_text(), "zero": value.is_zero})
    else:
        print(value.to_text())
    return EXIT_OK


def cmd_motivic(args) -> int:
    r, s, n = args.r, args.s, args.n
    power = motivic_mod.diagonal_power(r, s, n)
    ring_verdict = power.is_zero
    parity_verdict = hopf_mod.hopf_admissible(r, s, n)
    if ring_verdict != parity_verdict:
        print(
            f"error: ring engine and binomial parity disagree on ({r},{s},{n})",
            file=sys.stderr,
        )
        return EXIT_FALSE
    if args.format == "json":
        _print_json(
            {
                "r": r,
                "s": s,
                "n": n,
                "admissible": ring_verdict,
                "diagonal_power": power.to_text(),
            }
        )
    elif ring_verdict:
        print(f"admissible: (a1 + a2)^{n} = 0")
    else:
        print(f"inadmissible: (a1 + a2)^{n} = {power.to_text()}")
    return EXIT_OK if ring_verdict else EXIT_FALSE


def cmd_chow(args) -> int:
    raw = args.args
    gysin = raw[0] == "gysin"
    if len(raw) != 1 + gysin:
        print("error: expected `chow M` or `chow gysin N`", file=sys.stderr)
        return EXIT_USAGE
    try:
        value = int(raw[-1])
    except ValueError:
        print("error: chow arguments must be integers", file=sys.stderr)
        return EXIT_USAGE
    if value > chow_mod.MAX_TABLE_DIM:
        raise ValueError(f"chow argument {value} exceeds the limit of {chow_mod.MAX_TABLE_DIM}")
    if gysin:
        n = value
        if n < 1:
            print("error: gysin table needs n >= 1", file=sys.stderr)
            return EXIT_USAGE
        rows = [
            {
                "codim": i,
                "pushforward": [list(r) for r in chow_mod.gysin_pushforward(n, i)],
                # at the even middle x^i = alpha + beta: one column per plane class
                "pullback": [[1], [1]] if 2 * i == n - 1
                else [[c] for c in chow_mod.gysin_pullback(n, i).terms.values()],
            }
            for i in range(n)
        ]
        double_cover = all(
            chow_mod.pushforward_class(n, chow_mod.gysin_pullback(n, i)) == {i + 1: 2}
            for i in range(n)
        )
        if args.format == "json":
            _print_json({"n": n, "rows": rows, "double_cover": double_cover})
        elif args.format == "csv":
            print("codim,pushforward,pullback")
            for row in rows:
                print(f"{row['codim']},\"{row['pushforward']}\",\"{row['pullback']}\"")
        else:
            print(f"Gysin tables for Q_{n - 1} in P^{n}")
            for row in rows:
                print(
                    f"  codim {row['codim']}: j_* = {row['pushforward']}"
                    f"  j^* = {row['pullback']}"
                )
            print(f"  j_* j^* = x2 everywhere: {double_cover}")
        return EXIT_OK

    m = value
    ranks = chow_mod.additive_ranks(m)
    degrees = chow_mod.quadric_generator_degrees(m)
    if args.format == "json":
        _print_json(
            {
                "m": m,
                "presentation": chow_mod.presentation_text(m),
                "ranks": {str(c): ranks[c] for c in sorted(ranks)},
                "generator_degrees": [[d.p, d.q] for d in degrees],
            }
        )
    elif args.format == "csv":
        print("codim,rank")
        for c in sorted(ranks):
            print(f"{c},{ranks[c]}")
    else:
        print(f"CH*(Q_{m}) = {chow_mod.presentation_text(m)}")
        print("codim ranks: " + " ".join(f"{c}:{ranks[c]}" for c in sorted(ranks)))
        print("module generators: " + " ".join(str(d) for d in degrees))
    return EXIT_OK


def cmd_search(args) -> int:
    opts = SearchOptions(
        canonical_first_matrix=not args.no_canonical,
        signed_monomial_only=args.signed_monomial,
        max_solutions=None if args.exhaustive else args.max_solutions,
        time_budget=args.budget,
    )
    try:
        problem = SearchProblem(args.r, args.s, args.n, args.p, opts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = search(problem)
    for f in result.formulas:
        print(f.to_json())
    print(
        f"found={len(result.formulas)} exhausted={str(result.exhausted).lower()} "
        f"nodes={result.nodes} stop={result.stop_reason}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    report = hopf_consistency_sweep(args.rmax, args.smax, args.nmax, args.p, time_budget=args.budget)
    if args.format == "json":
        _print_json(
            {
                "cells": [
                    {"r": c.r, "s": c.s, "n": c.n, "p": c.p, "status": c.status}
                    for c in report.cells
                ],
                "violations": len(report.violations),
            }
        )
    else:
        sys.stdout.write(report.to_csv())
    if report.violations:
        print(f"error: {len(report.violations)} Hopf violations", file=sys.stderr)
        return EXIT_FALSE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosforms",
        description="Workbench for sums-of-squares composition formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("verify", help="verify a formula JSON file")
    p.add_argument("path")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hopf", help="test the Hopf condition for (r, s, n)")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("bounds", help="lower/upper bound table for r * s")
    p.add_argument("rmax", type=int)
    p.add_argument("smax", type=int)
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("ring-power", help="normal form of a^m in the ring of DQ_n")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--rho", choices=("0", "formal"), default="0")
    p.add_argument("--epsilon", choices=("0", "rho"), default="0")
    add_format(p)
    p.set_defaults(func=cmd_ring_power)

    p = sub.add_parser("motivic", help="Hopf verdict via the ring engine")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_motivic)

    p = sub.add_parser("chow", help="Chow ring of Q_m, or Gysin tables (chow gysin N)")
    p.add_argument("args", nargs="+", metavar="m | gysin n")
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("search", help="backtracking search over GF(p)")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--exhaustive", action="store_true", help="no solution cap")
    p.add_argument("--max-solutions", type=int, default=None)
    p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p.add_argument("--signed-monomial", action="store_true")
    p.add_argument("--no-canonical", action="store_true", help="do not pin B_1")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="existence vs Hopf consistency sweep")
    p.add_argument("rmax", type=int)
    p.add_argument("smax", type=int)
    p.add_argument("nmax", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--budget", type=float, default=None, help="per-cell budget in seconds")
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, not at import, and
    reused for every later call in the process.  Parsing leaves it unchanged,
    and argparse looks up sys.stdout and sys.stderr only when it prints."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
