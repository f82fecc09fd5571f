"""Exact arithmetic in the deleted-quadric cohomology rings, and how the
vanishing of diagonal powers reproduces the Hopf condition.

Run:  python demos/motivic_pipeline.py
"""

from sosforms import (
    DQClass,
    DQRingSpec,
    M2Poly,
    diagonal_power,
    dq_power_a,
    hopf_admissible,
    hopf_via_motivic,
    motivic_binomial_mismatches,
    ring_additive_basis,
)

print("=== the ring of DQ_5 (all-squares model, rho = 0) ===")
spec = DQRingSpec(5)
print("free basis bidegrees:", " ".join(str(d) for d in ring_additive_basis(spec)))
a = DQClass.gen_a(spec)
print("powers of a (a^2 = tau*b, b^3 = 0):")
for i in range(0, 8):
    print(f"  a^{i} = {dq_power_a(spec, i).to_text()}")

print("\n=== keeping rho formal (the model for F = R) ===")
spec_r = DQRingSpec(1, rho=True)
print(f"in DQ_1 with rho formal: a^2 = {dq_power_a(spec_r, 2).to_text()}")
spec5_r = DQRingSpec(5, rho=True)
a5 = DQClass.gen_a(spec5_r)
print(f"in DQ_5 with rho formal: a^2 = {(a5 * a5).to_text()}")

print("\n=== the Bockstein: beta(a) = b, extended as a derivation ===")
spec9 = DQRingSpec(9, rho=True)
a9, b9 = DQClass.gen_a(spec9), DQClass.gen_b(spec9)
print(f"beta(a)      = {a9.bockstein().to_text()}")
print(f"beta(a*b^2)  = {(a9 * b9 * b9).bockstein().to_text()}")
tau = DQClass(spec9, {(0, 0): M2Poly.monomial(1, 0)})
print(f"beta(tau)    = {tau.bockstein().to_text()}")
print(f"beta(beta(a)) = {a9.bockstein().bockstein().to_text()}")

print("\n=== restriction DQ_(n+1) -> DQ_n sends a -> a, b -> b ===")
b7 = DQClass.gen_b(DQRingSpec(7))
cube = b7 ** 3
print(f"b^3 in DQ_7:              {cube.to_text()}")
print(f"restricted to DQ_6:        {cube.restrict().to_text()}")
abk = DQClass.gen_a(DQRingSpec(7)) * b7 ** 3
print(f"a*b^3 in DQ_7:             {abk.to_text()}")
print(f"restricted to DQ_6 (eps=0): {abk.restrict().to_text()}")

print("\n=== diagonal powers in the tensor product ===")
for (r, s, n) in ((2, 2, 2), (3, 3, 3), (3, 3, 4), (5, 5, 6), (5, 5, 8)):
    power = diagonal_power(r, s, n)
    verdict = "vanishes" if power.is_zero else f"= {power.to_text()}"
    print(f"  (a1 + a2)^{n} in DQ({r - 1}) x DQ({s - 1}) {verdict}")

print("\nthe ring verdict always matches binomial parity:")
for (r, s, n) in ((3, 3, 3), (3, 3, 4), (10, 10, 16)):
    print(f"  [{r},{s},{n}]: ring={hopf_via_motivic(r, s, n)}, "
          f"parity={hopf_admissible(r, s, n)}")

print("\nexhaustive agreement for r, s <= 10, n <= 20:",
      "OK" if motivic_binomial_mismatches(10, 10, 20) == [] else "MISMATCH")
