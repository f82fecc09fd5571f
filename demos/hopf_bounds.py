"""The Hopf condition and the bound table for the composition range r * s.

Run:  python demos/hopf_bounds.py
"""

from sosforms import (
    binom_parity_pascal,
    bound_table,
    hopf_admissible,
    hopf_lower_bound,
    rho,
)
from sosforms.hopf import binom_is_odd, bound_table_text, hopf_violation_witness

print("=== binomial parity, two ways ===")
print("row 10 of Pascal's triangle mod 2, Lucas vs Pascal:")
lucas = [binom_is_odd(10, i) for i in range(11)]
pascal = [binom_parity_pascal(10, i) for i in range(11)]
print("  lucas :", " ".join("1" if odd else "." for odd in lucas))
print("  pascal:", " ".join("1" if odd else "." for odd in pascal))

print("\n=== the Hopf condition: C(n,i) even for n-r < i < s ===")
for (r, s, n) in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (3, 3, 4), (5, 5, 8), (10, 10, 16)):
    verdict = hopf_admissible(r, s, n)
    witness = hopf_violation_witness(r, s, n)
    note = "" if verdict else f"  (C({n},{witness}) is odd)"
    print(f"  [{r},{s},{n}]: {'admissible' if verdict else 'inadmissible'}{note}")

print("\n=== smallest admissible n per (r, s) ===")
for (r, s) in ((2, 2), (3, 3), (5, 5), (9, 9), (10, 10)):
    print(f"  ({r},{s}) -> n >= {hopf_lower_bound(r, s)}")

print("\n=== Hurwitz-Radon function (largest r with an [r, n, n] formula) ===")
print("  n  :", " ".join(f"{n:>3}" for n in range(1, 17)))
print("  rho:", " ".join(f"{rho(n):>3}" for n in range(1, 17)))

print("\n=== bound table: Hopf lower bound vs realized upper bound ===")
print("(the upper bound restricts an actually constructed and re-verified")
print(" Hurwitz-Radon formula; `tight` marks where the two bounds meet)\n")
print(bound_table_text(bound_table(8, 8)))
