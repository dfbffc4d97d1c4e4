"""Buchberger's algorithm for polynomial ideals.

Normal-strategy pair selection with Gebauer-Moeller pruning (the systematic
form of Buchberger's product and chain criteria); the result is the reduced
Groebner basis, the unique canonical representative of the ideal for the
ring's order.  Normal forms modulo such a basis decide ideal membership and
give the local minimal generator count (see localrings.local_mu).
"""

from .polynomials import Polynomial, mono_div, mono_divides, mono_lcm, mono_mul


class GroebnerBasis:
    """A reduced Groebner basis: monic, auto-reduced, sorted by leading term."""

    __slots__ = ("ring", "elements")

    def __init__(self, ring, elements):
        self.ring = ring
        self.elements = tuple(elements)

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.elements]

    def is_unit_ideal(self):
        return len(self.elements) == 1 and self.elements[0].total_degree() == 0

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __repr__(self):
        return "GroebnerBasis[" + ", ".join(str(g) for g in self.elements) + "]"


def _reduce(f, reducers):
    """Full normal form of f against a list of (lm, lc, poly) reducers."""
    field = f.ring.field
    zero = field.zero
    key = f.ring.order.key
    work = dict(f.terms)
    result = {}
    while work:
        e = max(work, key=key)
        c = work[e]
        for lm, lc, g in reducers:
            if mono_divides(lm, e):
                factor = field.div(c, lc)
                q = mono_div(e, lm)
                for eg, cg in g.terms.items():
                    target = mono_mul(eg, q)
                    acc = work.get(target, zero)
                    acc = field.sub(acc, field.mul(cg, factor))
                    if acc == zero:
                        work.pop(target, None)
                    else:
                        work[target] = acc
                break
        else:
            result[e] = c
            del work[e]
    return Polynomial(f.ring, result)


def _reducer_list(polys):
    return [(*g.leading_term(), g) for g in polys]


def normal_form(f, basis):
    """Normal form of f modulo a Groebner basis.

    No term of the result is divisible by a leading term of the basis, and
    f minus the result lies in the ideal.  For a reduced basis the result
    is unique.
    """
    if isinstance(basis, GroebnerBasis):
        if f.ring != basis.ring:
            raise ValueError("polynomial and basis live in different rings")
        return _reduce(f, _reducer_list(basis.elements))
    raise TypeError("normal_form expects a GroebnerBasis")


def s_polynomial(f, g):
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    lcm = mono_lcm(lmf, lmg)
    field = f.ring.field
    a = f.mul_term(field.inv(lcf), mono_div(lcm, lmf))
    b = g.mul_term(field.inv(lcg), mono_div(lcm, lmg))
    return a - b


def _update_pairs(lms, P, new_index, key, use_criteria):
    """Gebauer-Moeller update of the pair set after appending generator new_index."""
    lcm = mono_lcm
    lmf = lms[new_index]
    if not use_criteria:
        return P | {(i, new_index) for i in range(new_index)}
    # prune old pairs strictly dominated by the new generator
    kept = set()
    for i, j in P:
        l = lcm(lms[i], lms[j])
        if (
            not mono_divides(lmf, l)
            or lcm(lms[i], lmf) == l
            or lcm(lms[j], lmf) == l
        ):
            kept.add((i, j))
    # group candidate new pairs by lcm, keep a minimal, non-product pair per lcm
    by_lcm = {}
    for i in range(new_index):
        by_lcm.setdefault(lcm(lms[i], lmf), []).append(i)
    minimal = []
    for l in sorted(by_lcm, key=key):
        if all(not mono_divides(m, l) for m in minimal):
            minimal.append(l)
    for l in minimal:
        coprime = any(lcm(lms[i], lmf) == mono_mul(lms[i], lmf) for i in by_lcm[l])
        if not coprime:
            kept.add((min(by_lcm[l]), new_index))
    return kept


def _minimalize(polys, key):
    out = []
    for g in sorted(polys, key=lambda h: key(h.leading_monomial())):
        lm = g.leading_monomial()
        if all(not mono_divides(h.leading_monomial(), lm) for h in out):
            out.append(g)
    return out


def _interreduce(polys):
    out = []
    for i, g in enumerate(polys):
        others = polys[:i] + polys[i + 1 :]
        out.append(_reduce(g, _reducer_list(others)).monic())
    return out


def buchberger(gens, *, use_criteria=True):
    """Reduced Groebner basis of the ideal generated by gens, for the
    monomial order of their ring.

    Deterministic: the reduced basis is unique for the order, so the output
    does not depend on the input ordering.  Zero generators are discarded.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("buchberger needs at least one generator (possibly zero)")
    if not all(isinstance(g, Polynomial) for g in gens):
        raise TypeError("generators must be polynomials")
    rings = {g.ring for g in gens}
    if len(rings) > 1:
        raise ValueError("mixed ring contexts")
    ring = gens[0].ring
    key = ring.order.key
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis(ring, [])

    G = []
    lms = []
    P = set()
    for f in gens:
        f = f.monic()
        G.append(f)
        lms.append(f.leading_monomial())
        P = _update_pairs(lms, P, len(G) - 1, key, use_criteria)

    def pair_rank(pair):
        i, j = pair
        l = mono_lcm(lms[i], lms[j])
        return (sum(l), key(l), i, j)

    while P:
        i, j = min(P, key=pair_rank)
        P.remove((i, j))
        s = s_polynomial(G[i], G[j])
        r = _reduce(s, _reducer_list(G))
        if not r.is_zero():
            r = r.monic()
            G.append(r)
            lms.append(r.leading_monomial())
            P = _update_pairs(lms, P, len(G) - 1, key, use_criteria)

    reduced = _interreduce(_minimalize(G, key))
    reduced.sort(key=lambda g: key(g.leading_monomial()))
    return GroebnerBasis(ring, reduced)
