"""Rings, exact polynomials, and Groebner bases.

Run with: python3 demos/01_groebner_basics.py
"""

from liaison import Ideal, buchberger, make_ring, normal_form

# A polynomial ring is a context: variables, an exact coefficient field,
# and a monomial order.  Everything downstream is deterministic.
R = make_ring(["x", "y", "z"], "Q", "grevlex")
x, y, z = R.gens()

f = (x + y) * (x - y)
print("exact arithmetic:   (x+y)(x-y) =", f)

F3 = make_ring(["t"], "F3", "lex")
t = F3.variable("t")
print("freshman's dream:   (t+1)^3 over F3 =", (t + 1) ** 3)

# The reduced Groebner basis is the canonical representative of an ideal:
# permuting the generators cannot change it.
G = buchberger([x * y - z, y * z - x, x * z - y])
print("\nreduced basis of the twisted triple:")
for g in G:
    print("   ", g)

G2 = buchberger([x * z - y, x * y - z, y * z - x])
print("permuted input gives the identical basis:", G.elements == G2.elements)

# Normal forms decide ideal membership: f is in the ideal iff its normal
# form vanishes.
I = Ideal(R, [x**2 - y, y**2 - z])
member = x**4 - z
print("\nmembership by normal form:")
print(f"    NF({member}) =", normal_form(member, I.groebner()))
