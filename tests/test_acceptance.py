"""Acceptance suite: every criterion exact, each with its runtime budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion with its measured time.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

from sosforms.chow import (
    additive_ranks,
    dq_additive_basis_localization,
    even_intersection_table,
    projection_formula_check,
)
from sosforms.formulas import (
    construct_classical,
    construct_hurwitz_radon,
    construct_trivial,
    homotopy_invariance_check,
    rho,
)
from sosforms.cli import main
from sosforms.grading import BiDegree
from sosforms.hopf import (
    binom_is_odd,
    binom_parity_pascal,
    bound_table,
    hopf_lower_bound,
)
from sosforms.motivic import (
    DQClass,
    DQRingSpec,
    M2_ONE,
    M2Poly,
    motivic_binomial_mismatches,
    ring_additive_basis,
)
from sosforms.poly import hyperbolic_coordinate_change
from sosforms.rings import PrimeField
from sosforms.search import hopf_consistency_sweep


def _criterion(num: int, desc: str, budget: float, body) -> None:
    start = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"{status} criterion {num} [{elapsed:.2f}s / {budget:.0f}s]: {desc}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_two_engine_hopf_agreement():
    def body():
        assert motivic_binomial_mismatches(32, 32, 64) == []

    _criterion(1, "ring engine = binomial parity for r,s <= 32, n <= 64", 10.0, body)


def test_criterion_2_power_vanishing():
    def body():
        for n in range(0, 61):
            spec = DQRingSpec(n, rho=False)
            a = DQClass.gen_a(spec)
            power = DQClass.one(spec)
            for _ in range(n):
                power = power * a
                assert not power.is_zero
            assert (power * a).is_zero

    _criterion(2, "a^i != 0 for i <= n and a^(n+1) = 0, all n <= 60 (rho = 0)", 1.0, body)


def test_criterion_3_formula_verification_suite():
    def body():
        formulas = [
            construct_trivial(1, 1),
            construct_classical("two"),
            construct_classical("four"),
            construct_classical("eight"),
        ]
        formulas += [construct_hurwitz_radon(n) for n in (1, 2, 4, 8, 16)]
        rings = [None, PrimeField(3), PrimeField(5)]
        for f in formulas:
            for ring in rings:
                g = f if ring is None else f.change_ring(ring)
                assert g.verify_by_expansion()
                assert g.verify_by_hurwitz()
        for n in (1, 2, 4, 8, 16):
            assert construct_hurwitz_radon(n).type_triple == (rho(n), n, n)

    _criterion(3, "classical + Hurwitz-Radon formulas verify over Z and mod 3, 5", 5.0, body)


def test_criterion_4_existence_implies_hopf():
    def body():
        report = hopf_consistency_sweep(3, 3, 4, 3)
        assert report.violations == []
        status = {(c.r, c.s, c.n): c.status for c in report.cells}
        assert status[(2, 3, 3)] == "empty-forbidden"
        assert status[(2, 2, 2)] == "found"
        assert all(c.status != "timeout" for c in report.cells)

    _criterion(4, "sweep(3,3,4,GF(3)) exhaustive with zero Hopf violations", 60.0, body)


def test_criterion_5_parity_engines_agree():
    def body():
        for n in range(0, 513):
            for i in range(0, n + 1):
                assert binom_is_odd(n, i) == binom_parity_pascal(n, i)

    _criterion(5, "Lucas bit test = Pascal mod 2 for all 0 <= i <= n <= 512", 1.0, body)


def test_criterion_6_chow_appendix_suite():
    def body():
        for m in range(0, 25):
            ranks = additive_ranks(m)
            for codim in range(0, m + 1):
                expected = 2 if (m % 2 == 0 and codim == m // 2) else 1
                assert ranks[codim] == expected
        for n in range(1, 25):
            assert projection_formula_check(n)
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["chow", "gysin", str(n), "--format", "json"]) == 0
            gysin = json.loads(out.getvalue())
            assert gysin["double_cover"] is True
            for row in gysin["rows"]:
                (push,) = row["pushforward"]
                assert sum(a * b for a, (b,) in zip(push, row["pullback"], strict=True)) == 2
        for k in range(1, 11):
            table = even_intersection_table(k)
            if k % 2 == 1:
                assert table == ((0, 1), (1, 0))
            else:
                assert table == ((1, 0), (0, 1))

    _criterion(6, "Chow ranks, projection formula, intersection tables, j_*j^* = x2", 5.0, body)


def test_criterion_7_additive_basis_cross_check():
    def body():
        for n in range(1, 51):
            expected = [BiDegree(i, (i + 1) // 2) for i in range(n + 1)]
            assert dq_additive_basis_localization(n) == expected
            assert ring_additive_basis(n) == expected

    _criterion(7, "localization basis = ring basis = {(i, ceil(i/2))} for n <= 50", 1.0, body)


def test_criterion_8_bockstein():
    def body():
        for n in range(0, 21):
            spec = DQRingSpec(n, rho=True)
            for (e, j) in spec.basis_monomials():
                x = DQClass(spec, {(e, j): M2_ONE})
                assert x.bockstein().bockstein().is_zero
        spec = DQRingSpec(15)
        a, b = DQClass.gen_a(spec), DQClass.gen_b(spec)
        assert a.bockstein() == b
        for i in range(0, 7):
            assert (a * b ** i).bockstein() == b ** (i + 1)

        rng = random.Random(12345)
        spec = DQRingSpec(9, rho=True)

        def random_class():
            terms = {}
            for key in spec.basis_monomials():
                if rng.random() < 0.5:
                    monos = {(rng.randint(0, 3), rng.randint(0, 2))}
                    terms[key] = M2Poly(monos)
            return DQClass(spec, terms)

        for _ in range(500):
            x, y = random_class(), random_class()
            assert (x * y).bockstein() == x.bockstein() * y + x * y.bockstein()

    _criterion(8, "beta^2 = 0, beta(a) = b, beta(a b^i) = b^(i+1), Leibniz x500", 5.0, body)


def test_criterion_9_symbolic_coordinate_and_homotopy_checks():
    def body():
        for n in range(0, 13):
            assert hyperbolic_coordinate_change(n)
        assert homotopy_invariance_check("first")
        assert homotopy_invariance_check("second")
        assert not homotopy_invariance_check("first", omit_uv_relation=True)
        assert not homotopy_invariance_check("second", omit_uv_relation=True)

    _criterion(9, "hyperbolic change of coordinates (n <= 12) and both homotopies", 2.0, body)


def test_criterion_10_bound_table():
    def body():
        assert hopf_lower_bound(2, 2) == 2
        assert hopf_lower_bound(3, 3) == 4
        assert hopf_lower_bound(5, 5) == 8
        entries = bound_table(10, 10)
        assert len(entries) == 100
        for e in entries:
            assert e.hopf_lower <= e.construct_upper

    _criterion(10, "lower-bound spot values; bound_table(10,10) lower <= upper", 5.0, body)
