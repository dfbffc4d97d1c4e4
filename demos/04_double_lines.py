"""Which pairs of double lines in P^3 are locally algebraically linked?

A double line is a multiplicity-2 structure on a line, cut out by
(f*v1 + g*v2, v1^2, v1*v2, v2^2) for coprime binary forms (f, g).  Two of
them are locally algebraically linked (l.a.l.) when a locally complete
intersection multiplicity-4 curve links the pair.  The classifier decides
this from the form data alone; the geometric oracle re-decides it by
certifying each line lci along its support and measuring the union's
local invariants at the meeting point (on a shared support, by an exact
linear search over complete intersections of two quadrics), and
`classify` insists the two answers agree.

Run with: python3 demos/04_double_lines.py
"""

from liaison import DoubleLine, classify, double_line_ideal, hilbert_data, make_ring

R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
x, y, z, u = R.gens()
X, Y, Z, U = range(4)


def show(label, L1, L2):
    v = classify(L1, L2)
    lines = [f"{label}:"]
    lines.append(f"  lal = {v.lal}   case = {v.case_tag}")
    if v.witness:
        lines.append(f"  witness: {v.witness}")
    if v.point_reports:
        mus = ", ".join(f"mu={r.mu}@{r.point}" for r in v.point_reports)
        lines.append(f"  oracle local data: {mus}")
    print("\n".join(lines) + "\n")


# Disjoint supports: always linked (the disjoint union works).
show(
    "disjoint lines",
    DoubleLine(R, (X, Y), (z, u)),
    DoubleLine(R, (Z, U), (x, y)),
)

# Supports meeting in a point, both structures transverse there: linked,
# with local union of the shape (two transversal functions, a square).
show(
    "meeting, both tangency values nonzero",
    DoubleLine(R, (X, Y), (z, u)),
    DoubleLine(R, (X, Z), (y, u)),
)

# Both tangency values zero: linked exactly when the tangent coefficients
# balance; the witness records the proportionality factor.
show(
    "meeting, tangent identity holds",
    DoubleLine(R, (X, Y), (u, z)),
    DoubleLine(R, (X, Z), (u, y)),
)
show(
    "meeting, tangent identity fails",
    DoubleLine(R, (X, Y), (2 * u, z)),
    DoubleLine(R, (X, Z), (u, y)),
)

# Same support: the pair is linked iff the second form pair is the first
# times a constant traceless matrix of nonzero determinant.  The witness
# extension for (z, u) vs (z, -u) is the complete intersection (x^2, y^2).
show(
    "same support, sign-flipped pair",
    DoubleLine(R, (X, Y), (z, u)),
    DoubleLine(R, (X, Y), (z, -u)),
)
show(
    "same support, sheared pair",
    DoubleLine(R, (X, Y), (z, u)),
    DoubleLine(R, (X, Y), (z, z + u)),
)

I1 = double_line_ideal(DoubleLine(R, (X, Y), (z, u)))
print("every double line has degree", hilbert_data(I1).degree, "and dimension 1")
