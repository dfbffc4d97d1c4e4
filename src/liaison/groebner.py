"""Buchberger's algorithm for polynomial ideals.

Normal-strategy pair selection with Gebauer-Moeller pruning (the systematic
form of Buchberger's product and chain criteria); the result is the reduced
Groebner basis, the unique canonical representative of the ideal for the
ring's order.  Pairs wait in a heap under the lcm of their leading
monomials, computed once; a pair pruned meanwhile is skipped when popped.
S-polynomials are built from the held monic terms and that lcm.  The loop
may start from a known Groebner basis, forming no pair among its elements
(the update is incremental: Gebauer-Moeller 1988).  An elimination basis
interreduces only the part it keeps.  Normal forms modulo such a basis
decide ideal membership, and the steps of the same reduction give the
quotients of a division (divide); reducing its own S-pairs, as pruned, to
zero gives the constant parts of its syzygies, hence the local minimal
generator count (see localrings.local_mu).
"""

from heapq import heapify, heappop, heappush
from operator import le, neg

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


def _reduce(f, reducers, steps=None):
    """Full normal form of f against a list of (lm, poly) reducers, each poly
    monic with leading monomial lm.

    The terms still to be reduced live in `work`; a heap of
    (heap_key, exponent) pops them greatest first.  An exponent whose
    coefficient cancelled, or that was pushed twice, is no longer in `work`
    when popped and is skipped (lazy deletion); the remainder keeps its
    terms as they pop, so its first key is its leading monomial.  When a
    list `steps` is given, each step appends (lm, q, c): it subtracts
    c*x^q times the reducer of leading monomial lm, so f is the sum of
    those multiples plus the remainder.  Every pushed exponent lies below
    the popped one, so no exponent pops twice and no (lm, q) repeats.
    """
    ring = f.ring
    field = ring.field
    zero, mul, sub = field.zero, field.mul, field.sub
    heap_key = ring.heap_key
    work = dict(f.terms)
    heap = [(heap_key(e), e) for e in work]
    heapify(heap)
    result = {}
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        for lm, g in reducers:
            if all(map(le, lm, e)):  # mono_divides(lm, e), inlined on the hot path
                # g is monic: the factor is c itself
                q = mono_div(e, lm)
                if steps is not None:
                    steps.append((lm, q, c))
                for eg, cg in g.terms.items():
                    if eg == lm:
                        # lm * q = e cancels exactly, and e has left work
                        continue
                    target = mono_mul(eg, q)
                    acc = work.get(target)
                    if acc is None:
                        work[target] = sub(zero, mul(cg, c))
                        heappush(heap, (heap_key(target), target))
                    else:
                        acc = sub(acc, mul(cg, c))
                        if acc == zero:
                            del work[target]
                        else:
                            work[target] = acc
                break
        else:
            result[e] = c
    return Polynomial(ring, result)


def _entry(f):
    """The reducer (lm, f made monic) of a nonzero polynomial f."""
    lm, lc = f.leading_term()
    return lm, (f if lc == f.ring.field.one else f.monic())


def normal_form(f, basis):
    """Normal form of f modulo a Groebner basis.

    No term of the result is divisible by a leading term of the basis, and
    f minus the result lies in the ideal.  For a reduced basis the result
    is unique.
    """
    if isinstance(basis, GroebnerBasis):
        if f.ring != basis.ring:
            raise ValueError("polynomial and basis live in different rings")
        return _reduce(f, [_entry(g) for g in basis.elements])
    raise TypeError("normal_form expects a GroebnerBasis")


def divide(f, basis):
    """(quotients, remainder) of f by a Groebner basis (g_1..g_s):
    f = sum q_k g_k + remainder, the remainder is normal_form(f, basis), and
    no leading monomial of q_k g_k exceeds that of f.

    The quotients are read off the steps of the reduction normal_form runs,
    so a zero remainder proves membership and gives a standard
    representation at once.  The basis's leading monomials must be
    distinct, as in any reduced basis.
    """
    if not isinstance(basis, GroebnerBasis):
        raise TypeError("divide expects a GroebnerBasis")
    if f.ring != basis.ring:
        raise ValueError("polynomial and basis live in different rings")
    ring = f.ring
    entries = [_entry(g) for g in basis.elements]
    steps = []
    remainder = _reduce(f, entries, steps)
    index = {lm: k for k, (lm, _) in enumerate(entries)}
    terms = [{} for _ in entries]
    for lm, q, c in steps:
        terms[index[lm]][q] = c
    quotients = [Polynomial(ring, t) for t in terms]
    for k, ((_, monic), g) in enumerate(zip(entries, basis.elements)):
        if monic is not g:
            # the steps multiplied g / lc(g)
            quotients[k] = quotients[k].scale(ring.field.inv(g.leading_coefficient()))
    return quotients, remainder


def _s_poly(a, b, l):
    """(l/lm_f)*f - (l/lm_g)*g for held monic entries a = (lm_f, f) and
    b = (lm_g, g), l = lcm(lm_f, lm_g); the leading terms cancel and are skipped."""
    lmf, f = a
    lmg, g = b
    field = f.ring.field
    zero, neg, sub = field.zero, field.neg, field.sub
    qf, qg = mono_div(l, lmf), mono_div(l, lmg)
    out = {mono_mul(e, qf): c for e, c in f.terms.items() if e != lmf}
    for e, c in g.terms.items():
        if e == lmg:
            continue
        target = mono_mul(e, qg)
        acc = out.get(target)
        if acc is None:
            out[target] = neg(c)
        else:
            acc = sub(acc, c)
            if acc == zero:
                del out[target]
            else:
                out[target] = acc
    return Polynomial(f.ring, out)


def s_polynomial(f, g):
    """S-polynomial lcm/lt(f)*f - lcm/lt(g)*g of two nonzero polynomials."""
    f._check_ring(g)
    a, b = _entry(f), _entry(g)
    return _s_poly(a, b, mono_lcm(a[0], b[0]))


def _update_pairs(lms, P, heap, heap_key, use_criteria):
    """Gebauer-Moeller update of the pair dict P (pair -> lcm) after appending
    generator lms[-1]; each new pair is also pushed on the heap by its rank:
    degree, then the negated heap key, ascending with the lcm.

    Old pairs whose lcm the new leading monomial strictly divides are found
    in one pass, testing the seldom-true divisibility first, and deleted
    after it.  New pairs keep one pair per lcm that no other lcm properly
    divides, scanned by degree (a proper divisor has the smaller one, so any
    order extending divisibility keeps the same set), unless a pair of that
    lcm is coprime: lcm(a, b) = a*b exactly when their degrees add up.
    """
    new_index = len(lms) - 1
    lmf = lms[new_index]
    # lcm(lms[i], lmf), computed once per old generator
    lcms = [mono_lcm(lm, lmf) for lm in lms[:new_index]]
    new = enumerate(lcms)
    if use_criteria:
        doomed = [
            ij
            for ij, l in P.items()
            if all(map(le, lmf, l)) and lcms[ij[0]] != l and lcms[ij[1]] != l
        ]
        for ij in doomed:
            del P[ij]
        by_lcm = {}
        for i, l in enumerate(lcms):
            by_lcm.setdefault(l, []).append(i)
        degree = sum(lmf)
        minimal, new = [], []
        for l in sorted(by_lcm, key=sum):
            for m in minimal:
                if all(map(le, m, l)):
                    break
            else:
                minimal.append(l)
                for i in by_lcm[l]:
                    if sum(lms[i]) + degree == sum(l):
                        break
                else:
                    new.append((by_lcm[l][0], l))
    for i, l in new:
        P[i, new_index] = l
        heappush(heap, (sum(l), tuple(map(neg, heap_key(l))), i, new_index))


def _minimalize(entries, heap_key):
    """The entries whose leading monomial no other one divides (one per
    leading monomial), ascending under the order: descending by its key."""
    out = []
    for entry in sorted(entries, key=lambda en: heap_key(en[0]), reverse=True):
        lm = entry[0]
        if all(not mono_divides(kept[0], lm) for kept in out):
            out.append(entry)
    return out


def _interreduce(entries):
    """Reduce each element of a minimal monic basis, ascending, by the others.

    No other leading monomial divides an element's leading term, so it
    survives with coefficient one: the results are monic, in the same order.
    Only the elements before it can act: all it has to reduce lies below it.
    """
    return [_reduce(g, entries[:i]) for i, (_, g) in enumerate(entries)]


def reduced_basis(ring, basis):
    """Reduced Groebner basis of the ideal a Groebner basis generates, with no
    S-pairs: buchberger's last step, minimalize then interreduce."""
    entries = [_entry(f) for f in basis]
    return GroebnerBasis(ring, _interreduce(_minimalize(entries, ring.heap_key)))


def _minimal_entries(gens, use_criteria=True, basis=()):
    """(ring, entries): the S-pair loop on gens, returning the minimal monic
    (lm, poly) entries of a Groebner basis, ascending under the order.

    The elements of basis, which must already form a Groebner basis, are
    the loop's starting state: no pair among them is formed, and each
    generator is appended to them by the Gebauer-Moeller update.
    """
    basis, gens = list(basis), list(gens)
    if not basis and not gens:
        raise ValueError("a Groebner basis needs at least one generator (possibly zero)")
    if not all(isinstance(g, Polynomial) for g in basis + gens):
        raise TypeError("generators must be polynomials")
    rings = {g.ring for g in basis + gens}
    if len(rings) > 1:
        raise ValueError("mixed ring contexts")
    ring = rings.pop()
    heap_key = ring.heap_key

    # (lm, poly) of each monic element, kept from when it is appended
    G = [_entry(f) for f in basis if not f.is_zero()]
    lms = [lm for lm, _ in G]
    P = {}  # live pair (i, j) -> lcm of lms[i] and lms[j]
    heap = []  # (degree, negated key of the lcm, i, j) of every pair made; pruned ones are skipped
    for f in gens:
        if f.is_zero():
            continue
        G.append(_entry(f))
        lms.append(G[-1][0])
        _update_pairs(lms, P, heap, heap_key, use_criteria)

    while heap:
        i, j = heappop(heap)[2:]
        l = P.pop((i, j), None)
        if l is None:
            continue
        r = _reduce(_s_poly(G[i], G[j], l), G)
        if not r.is_zero():
            lm = next(iter(r.terms))  # _reduce stores the leading term first
            r = r.scale(ring.field.inv(r.terms[lm]))
            G.append((lm, r))
            lms.append(lm)
            _update_pairs(lms, P, heap, heap_key, use_criteria)

    return ring, _minimalize(G, heap_key)


def buchberger(gens, *, use_criteria=True):
    """Reduced Groebner basis of the ideal generated by gens, for the
    monomial order of their ring.

    Deterministic: the reduced basis is unique for the order, so the output
    does not depend on the input ordering.  Zero generators are discarded.
    """
    ring, entries = _minimal_entries(gens, use_criteria)
    return GroebnerBasis(ring, _interreduce(entries))


def elimination_basis(gens, basis=()):
    """Reduced Groebner basis of (basis, gens) cap k[x_(k+1)..x_n], for
    polynomials in a ring of order block(k): its elements, free of the
    first k variables, stay in that ring.

    The elements of basis must already form a Groebner basis: the pairs
    among them are not formed, and the S-pair loop appends only gens to
    them (see _minimal_entries).  By the elimination theorem the minimal
    entries whose leading monomial is free of the first k variables form a
    Groebner basis of the elimination ideal.  Under block(k) every other
    monomial is greater, so these entries come first and only they can
    reduce one another: they are interreduced in the block ring, and the
    rest is never reduced.  The result is the t-free part of
    buchberger(basis + gens).
    """
    ring, entries = _minimal_entries(gens, basis=basis)
    if ring.order.kind != "block":
        raise ValueError("elimination_basis needs a block order")
    k = ring.order.block
    kept = [entry for entry in entries if not any(entry[0][:k])]
    return GroebnerBasis(ring, _interreduce(kept))


def schreyer_constants(basis):
    """Constant parts of a generating set of the syzygies of a reduced
    Groebner basis (g_1..g_s) of an ideal vanishing at the origin: a list
    of rows of length s.

    Reducing S(g_i, g_j) to zero by the basis gives a standard
    representation sum a_k g_k, hence the syzygy m_i e_i - m_j e_j - sum
    a_k e_k, m_i = lcm/lm_i, which lifts the syzygy m_i e_i - m_j e_j of
    the leading monomials.  Lifts of a generating set of the syzygies of
    the leading monomials generate the syzygies of the basis (Schreyer;
    Eisenbud, Lemma 15.1 and Thm 15.10).  The pairs that Gebauer-Moeller
    pruning keeps (_update_pairs, the basis taken in order) give such a set
    together with the pairs whose leading monomials are coprime, as the
    chain criterion is an identity among those syzygies; a coprime pair
    lifts to the Koszul syzygy g_j e_i - g_i e_j, with no constant part,
    and is not reduced.  No leading monomial of a reduced basis divides
    another, so m_i and m_j are never constant, and the constant term of
    a_k is the factor of the one step with a constant quotient, the step
    that removes lm_k itself (see _reduce): entry k of the row, up to sign.
    """
    G = [_entry(g) for g in basis.elements]
    ring = basis.ring
    zero = ring.field.zero
    lms, pairs = [], {}
    for entry in G:
        lms.append(entry[0])
        # every kept pair is reduced, so the heap's order is not needed
        _update_pairs(lms, pairs, [], ring.heap_key, True)
    index = {lm: k for k, lm in enumerate(lms)}
    rows = []
    for (i, j), l in pairs.items():
        steps = []
        if not _reduce(_s_poly(G[i], G[j], l), G, steps).is_zero():
            raise ValueError("schreyer_constants needs a Groebner basis")
        row = [zero] * len(G)
        for lm, q, factor in steps:
            if not any(q):
                row[index[lm]] = factor
        rows.append(row)
    return rows
