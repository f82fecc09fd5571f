"""Backtracking search for composition formulas over GF(3) and GF(5), and the
sweep that cross-checks every hit against the Hopf condition.

Run:  python demos/search_small_fields.py
"""

from sosforms import (
    SearchOptions,
    SearchProblem,
    hopf_admissible,
    hopf_consistency_sweep,
    search,
)

print("=== tiny instances over GF(3) ===")
result = search(SearchProblem(1, 1, 1, 3, SearchOptions(canonical_first_matrix=False)))
# z_1 = c*x_1*y_1: the one nonzero (i, j, c) of slice 0
print(f"[1,1,1]: scalars c with c^2 = 1: {[f.nonzeros[0][0][2] for f in result.formulas]}")

result = search(SearchProblem(2, 2, 2, 3))
print(f"[2,2,2] canonical solutions: {len(result.formulas)} "
      f"(exhausted={result.exhausted})")
for f in result.formulas:
    print("   ", f.to_json())

print("\n=== a cell forbidden by the Hopf condition ===")
print(f"[2,3,3] admissible: {hopf_admissible(2, 3, 3)}")
result = search(SearchProblem(2, 3, 3, 3))
print(f"[2,3,3] over GF(3): found={result.found}, exhausted={result.exhausted}"
      f"  -> proof of nonexistence in the searched class")

print("\n=== intercalate-style restriction (signed monomial entries) ===")
result = search(SearchProblem(2, 2, 2, 5, SearchOptions(signed_monomial_only=True)))
print(f"[2,2,2] over GF(5), entries in {{-1,0,1}}: {len(result.formulas)} solutions")

print("\n=== consistency sweep: existence implies the Hopf condition ===")
report = hopf_consistency_sweep(3, 3, 4, 3)
found = sum(1 for c in report.cells if c.status == "found")
forbidden = sum(1 for c in report.cells if c.status == "empty-forbidden")
admissible = sum(1 for c in report.cells if c.status == "empty-admissible")
print(f"cells: {len(report.cells)}  found: {found}  empty-forbidden: {forbidden}  "
      f"empty-admissible: {admissible}  violations: {len(report.violations)}")
print("\nCSV report:")
print(report.to_csv())
