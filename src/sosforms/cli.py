"""Command-line front door.

Each ``cmd_*`` returns ``(holds, payload, text)``: the verdict, the JSON
object, and the text (or CSV) rendering, exactly as stdout gets it; a
rendering that costs real work is left None unless ``--format`` asks for it.
``main`` alone writes stdout, the payload for ``--format json`` and else the
text, and picks the exit code: 0 = success, 1 = a mathematical check came out
false (inadmissible triple, failed verification, engine disagreement, sweep
violation), 2 = usage or I/O error, raised as ``ValueError``.  Diagnostics go
to stderr from the command that finds them.
"""

from __future__ import annotations

import argparse
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


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def cmd_verify(args):
    try:
        with open(args.path) as fh:
            formula = SosFormula.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot load formula: {exc}") from exc
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
    witness = formula.gram_defect()
    by_hurwitz = witness is None
    if not by_hurwitz:
        a, b, j, k = witness
        print(
            f"Gram defect at (a, b, j, k) = ({a}, {b}, {j}, {k}): entry (j, k) of "
            "B_a^T B_b + B_b^T B_a is not 2 delta_ab delta_jk (indices from 0)",
            file=sys.stderr,
        )
    holds = by_expansion and by_hurwitz
    payload = dict(
        r=r, s=s, n=n, field=formula.ring.kind, verified=holds, by_expansion=by_expansion, by_hurwitz=by_hurwitz
    )
    word = "verified" if holds else "NOT verified"
    return holds, payload, _lines(f"{word} [{r},{s},{n}] over {formula.ring!r}")


def cmd_hopf(args):
    r, s, n = args.r, args.s, args.n
    witness = hopf_mod.hopf_violation_witness(r, s, n)
    holds = witness is None
    text = f"admissible: C({n},i) even for {n - r} < i < {s}" if holds else f"inadmissible: C({n},{witness}) odd"
    return holds, {"r": r, "s": s, "n": n, "admissible": holds, "witness": witness}, _lines(text)


def cmd_bounds(args):
    entries = hopf_mod.bound_table(args.rmax, args.smax)
    if args.format == "json":
        return True, [e._asdict() for e in entries], None
    render = hopf_mod.bound_table_csv if args.format == "csv" else hopf_mod.bound_table_text
    return True, None, render(entries)


def cmd_ring_power(args):
    spec = DQRingSpec(args.n, rho=args.rho == "formal", eps_is_rho=args.epsilon == "rho")
    value = dq_power_a(spec, args.m)
    text = value.to_text()
    return True, {"n": args.n, "m": args.m, "value": text, "zero": value.is_zero}, _lines(text)


def cmd_motivic(args):
    r, s, n = args.r, args.s, args.n
    power = motivic_mod.diagonal_power(r, s, n)
    holds = power.is_zero
    if holds != hopf_mod.hopf_admissible(r, s, n):
        print(f"error: ring engine and binomial parity disagree on ({r},{s},{n})", file=sys.stderr)
        return False, None, ""
    shown = power.to_text()
    text = f"admissible: (a1 + a2)^{n} = 0" if holds else f"inadmissible: (a1 + a2)^{n} = {shown}"
    return holds, {"r": r, "s": s, "n": n, "admissible": holds, "diagonal_power": shown}, _lines(text)


def cmd_chow(args):
    gysin = args.args[0] == "gysin"
    if len(args.args) != 1 + gysin:
        raise ValueError("expected `chow M` or `chow gysin N`")
    try:
        value = int(args.args[-1])
    except ValueError:
        raise ValueError("chow arguments must be integers") from None
    if value > chow_mod.MAX_TABLE_DIM:
        raise ValueError(f"chow argument {value} exceeds the limit of {chow_mod.MAX_TABLE_DIM}")
    return (_gysin_tables if gysin else _chow_ring)(value, args.format)


def _chow_ring(m: int, fmt: str):
    ranks = chow_mod.additive_ranks(m)
    degrees = chow_mod.quadric_generator_degrees(m)
    codims = sorted(ranks)
    if fmt == "csv":
        return True, None, _lines("codim,rank", *(f"{c},{ranks[c]}" for c in codims))
    presentation = chow_mod.presentation_text(m)
    payload = {
        "m": m,
        "presentation": presentation,
        "ranks": {str(c): ranks[c] for c in codims},
        "generator_degrees": [[d.p, d.q] for d in degrees],
    }
    text = _lines(
        f"CH*(Q_{m}) = {presentation}",
        "codim ranks: " + " ".join(f"{c}:{ranks[c]}" for c in codims),
        "module generators: " + " ".join(str(d) for d in degrees),
    )
    return True, payload, text


def _gysin_tables(n: int, fmt: str):
    if n < 1:
        raise ValueError("gysin table needs n >= 1")
    rows = []
    for i in range(n):
        push = [list(r) for r in chow_mod.gysin_pushforward(n, i)]
        # at the even middle x^i = alpha + beta: one column per plane class
        pull = [[1], [1]] if 2 * i == n - 1 else [[c] for c in chow_mod.gysin_pullback(n, i).terms.values()]
        rows.append((i, push, pull))
    if fmt == "csv":
        csv_rows = (f'{i},"{push}","{pull}"' for i, push, pull in rows)
        return True, None, _lines("codim,pushforward,pullback", *csv_rows)
    double_cover = all(chow_mod.pushforward_class(n, chow_mod.gysin_pullback(n, i)) == {i + 1: 2} for i in range(n))
    if fmt == "json":
        rows = [{"codim": i, "pushforward": push, "pullback": pull} for i, push, pull in rows]
        return True, {"n": n, "rows": rows, "double_cover": double_cover}, None
    text = _lines(
        f"Gysin tables for Q_{n - 1} in P^{n}",
        *(f"  codim {i}: j_* = {push}  j^* = {pull}" for i, push, pull in rows),
        f"  j_* j^* = x2 everywhere: {double_cover}",
    )
    return True, None, text


def cmd_search(args):
    cap = None if args.exhaustive else args.max_solutions
    opts = SearchOptions(not args.no_canonical, args.signed_monomial, cap, args.budget)
    result = search(SearchProblem(args.r, args.s, args.n, args.p, opts))
    print(
        f"found={len(result.formulas)} exhausted={str(result.exhausted).lower()} "
        f"nodes={result.nodes} stop={result.stop_reason}",
        file=sys.stderr,
    )
    return True, None, _lines(*(f.to_json() for f in result.formulas))


def cmd_sweep(args):
    report = hopf_consistency_sweep(args.rmax, args.smax, args.nmax, args.p, time_budget=args.budget)
    if report.violations:
        print(f"error: {len(report.violations)} Hopf violations", file=sys.stderr)
    cells = [{"r": c.r, "s": c.s, "n": c.n, "p": c.p, "status": c.status} for c in report.cells]
    payload = {"cells": cells, "violations": len(report.violations)}
    return not report.violations, payload, report.to_csv()


# name: command, help, integer positionals, --format choices (none: no --format)
_COMMANDS = {
    "verify": (cmd_verify, "verify a formula JSON file", "", "text json"),
    "hopf": (cmd_hopf, "test the Hopf condition for (r, s, n)", "r s n", "text json"),
    "bounds": (cmd_bounds, "lower/upper bound table for r * s", "rmax smax", "text json csv"),
    "ring-power": (cmd_ring_power, "normal form of a^m in the ring of DQ_n", "n m", "text json"),
    "motivic": (cmd_motivic, "Hopf verdict via the ring engine", "r s n", "text json"),
    "chow": (cmd_chow, "Chow ring of Q_m, or Gysin tables (chow gysin N)", "", "text json csv"),
    "search": (cmd_search, "backtracking search over GF(p)", "r s n p", ""),
    "sweep": (cmd_sweep, "existence vs Hopf consistency sweep", "rmax smax nmax p", "text json csv"),
}
# each command's other arguments, added after its integer positionals
_EXTRA_ARGS = {
    "verify": [("path", {})],
    "ring-power": [
        ("--rho", {"choices": ("0", "formal"), "default": "0"}),
        ("--epsilon", {"choices": ("0", "rho"), "default": "0"}),
    ],
    "chow": [("args", {"nargs": "+", "metavar": "m | gysin n"})],
    "search": [
        ("--exhaustive", {"action": "store_true", "help": "no solution cap"}),
        ("--max-solutions", {"type": int}),
        ("--budget", {"type": float, "help": "time budget in seconds"}),
        ("--signed-monomial", {"action": "store_true"}),
        ("--no-canonical", {"action": "store_true", "help": "do not pin B_1"}),
    ],
    "sweep": [("--budget", {"type": float, "help": "per-cell budget in seconds"})],
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    func, _, positionals, formats = _COMMANDS[name]
    for dest in positionals.split():
        p.add_argument(dest, type=int)
    for flag, options in _EXTRA_ARGS.get(name, ()):
        p.add_argument(flag, **options)
    if formats:
        p.add_argument("--format", choices=formats.split(), default="text")
    p.set_defaults(func=func, format="text")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser("sosforms", description="Workbench for sums-of-squares composition formulas.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, equal to its subparser in the tree: built on the
    first call for that name, not at import, and reused in the process."""
    return _add_arguments(argparse.ArgumentParser(f"sosforms {name}"), name)


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse with the command's own parser.  Build the whole tree only for a top-level option,
    an unknown or missing command, or leftover arguments, which it reports in its own usage."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        holds, payload, text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json" and payload is not None:
        text = json.dumps(payload, sort_keys=True) + "\n"
    sys.stdout.write(text)
    return EXIT_OK if holds else EXIT_FALSE


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
