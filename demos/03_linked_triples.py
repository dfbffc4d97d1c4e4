"""Linked triples and the Gorenstein property of extensions.

A ring B = R/base that surjects onto both A1 = R/first and A2 = R/second,
with each kernel the colon of the other link, is Gorenstein: its Artinian
reduction has a one-dimensional socle.  This demo walks the classical
multiplicity-4 example and a verification of the statement on the fly.

Run with: python3 demos/03_linked_triples.py
"""

import random

from liaison import (
    Ideal,
    LinkedTriple,
    doubling_check,
    link,
    make_ring,
    regular_element_transfer_test,
    socle_lemma_test,
    verify_linked_triple,
)
from liaison.generators import random_ci_linked_triple

R = make_ring(["x1", "x2"], "Q", "grevlex")
x1, x2 = R.gens()

B = Ideal(R, [x1**2 + x1 * x2, x2**2])
A1 = Ideal(R, [x1, x2**2])
A2 = Ideal(R, [x1 + x2, x2**2])

print("B  = (x1^2 + x1*x2, x2^2)")
print("A1 = (x1, x2^2)      -> link(B, A1) =", list(map(str, link(B, A1).groebner())))
print("A2 = (x1 + x2, x2^2) -> link(B, A2) =", list(map(str, link(B, A2).groebner())))

triple = LinkedTriple(B, A1, A2)
report = verify_linked_triple(triple, seed=0)
print("\nlengths:", report.degrees, "additive:", report.degree_additive)
print("socle of B:", report.point_reports[0].socle_dim, "(dimension 1 means Gorenstein)")
print("triple passes:", report.passed)

# B has multiplicity 4 on the doubled line, but it is NOT a doubling of
# either link (the links are themselves doublings of the reduced line).
print("\nis B a doubling of A1?", doubling_check(B, A1))
print("is B a doubling of A2?", doubling_check(B, A2))

# The two lemmas behind the theorem, checked computationally: an element is
# regular on B iff it is regular on both links, and the socles of the two
# kernel carriers agree with the socle of B.
print("\nregular-element transfer for h = x2:",
      regular_element_transfer_test(triple, x2).as_dict())
print("socle agreement:", socle_lemma_test(triple).as_dict())

# The same property on randomly generated linked triples over F31.
print("\nrandomized check over F31:")
rng = random.Random(1)
ring = make_ring(["x", "y", "z"], "F31", "grevlex")
found = 0
while found < 3:
    t = random_ci_linked_triple(ring, rng)
    if t is None:
        continue
    r = verify_linked_triple(t, seed=rng.randrange(10**6))
    print(
        f"  degrees {r.degrees} additive={r.degree_additive} "
        f"gorenstein={r.gorenstein_ok}"
    )
    found += 1
