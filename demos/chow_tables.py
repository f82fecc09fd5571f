"""Chow rings of split quadrics and the Gysin bookkeeping.

Run:  python demos/chow_tables.py
"""

from sosforms import (
    ChowClass,
    dq_additive_basis_localization,
    even_intersection_table,
    gysin_pullback,
    gysin_pushforward,
    projection_formula_check,
    quadric_generator_degrees,
)
from sosforms.chow import additive_ranks, presentation_text, pushforward_class

print("=== ring presentations ===")
for m in (1, 2, 3, 4, 5, 6):
    print(f"  CH*(Q_{m}) = {presentation_text(m)}")

print("\n=== sample products ===")
print(f"  on Q_3: x*x   = {(ChowClass.x(3) * ChowClass.x(3)).to_text()}")
print(f"  on Q_2: y*y   = {(ChowClass.y(2) * ChowClass.y(2)).to_text()}")
print(f"  on Q_4: y*y   = {(ChowClass.y(4) * ChowClass.y(4)).to_text()}")
print(f"  on Q_4: x^2*y = {(ChowClass.x(4) ** 2 * ChowClass.y(4)).to_text()}  (the point class)")

print("\n=== additive ranks: 1 per codimension, 2 in the even middle ===")
for m in (3, 4):
    ranks = additive_ranks(m)
    print(f"  Q_{m}: " + " ".join(f"{c}:{ranks[c]}" for c in sorted(ranks)))

print("\n=== middle-plane intersection pairing on Q_2k ===")
for k in (1, 2, 3, 4):
    table = even_intersection_table(k)
    print(f"  k={k}: alpha.alpha={table[0][0]}[*]  alpha.beta={table[0][1]}[*]  "
          f"beta.beta={table[1][1]}[*]")

print("\n=== Gysin maps for Q_4 in P^5 ===")
for i in range(5):
    print(f"  codim {i}: j_* = {gysin_pushforward(5, i)}   j^*(t^{i}) = {gysin_pullback(5, i).to_text()}")
print("  j_* after j^* doubles everywhere:",
      all(pushforward_class(5, gysin_pullback(5, i)) == {i + 1: 2} for i in range(5)))
print(f"  j^*(t^2) on Q_4 = {gysin_pullback(5, 2).to_text()}  (alpha + beta)")
print(f"  j_*(alpha) = j_*(beta): "
      f"{pushforward_class(5, ChowClass.alpha(4)) == pushforward_class(5, ChowClass.beta(4))}")

print("\n=== projection formula j_*(a . j^* b) = (j_* a) . b ===")
print("  holds for n = 1..12:", all(projection_formula_check(n) for n in range(1, 13)))

print("\n=== localization bookkeeping for the deleted quadric ===")
print("generators of the cohomology of Q_4:",
      " ".join(str(d) for d in quadric_generator_degrees(4)))
print("derived basis for DQ_5 (kernel degrees shifted by (1,1)):")
print(" ", " ".join(str(d) for d in dq_additive_basis_localization(5)))
