"""Exact multivariate polynomial arithmetic over a ring context.

Polynomials are stored as a map from exponent tuples to nonzero field
coefficients.  All arithmetic is exact; results are canonical (no zero
coefficients, coefficients normalized by the field), so equality of
values is equality of polynomials.
"""

from decimal import Decimal
from operator import add, le, sub


def coefficient_text(c):
    """str(c); past the interpreter's limit on int-to-str digits, which
    guards reading outside input, a rational is written exactly through
    Decimal, which has no such limit."""
    try:
        return str(c)
    except ValueError:
        num = str(Decimal(c.numerator))
        return num if c.denominator == 1 else f"{num}/{Decimal(c.denominator)}"


def mono_mul(e1, e2):
    return tuple(map(add, e1, e2))


def mono_divides(e1, e2):
    """Whether x^e1 divides x^e2."""
    return all(map(le, e1, e2))


def mono_div(e1, e2):
    """Exponent of x^e1 / x^e2; requires divisibility."""
    return tuple(map(sub, e1, e2))


def mono_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def mono_gcd(e1, e2):
    return tuple(map(min, e1, e2))


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        # terms must already be normalized: no zero coefficients, field values
        self.ring = ring
        self.terms = terms

    # -- constructors --

    @classmethod
    def from_dict(cls, ring, mapping):
        field = ring.field
        n = ring.nvars
        terms = {}
        for expo, coeff in mapping.items():
            expo = tuple(expo)
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo!r}")
            c = field.normalize(coeff)
            if c != field.zero:
                terms[expo] = field.add(terms[expo], c) if expo in terms else c
        return cls(ring, {e: c for e, c in terms.items() if c != field.zero})

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, value):
        c = ring.field.normalize(value)
        if c == ring.field.zero:
            return cls(ring, {})
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def variable(cls, ring, name):
        expo = [0] * ring.nvars
        expo[ring.index(name)] = 1
        return cls(ring, {tuple(expo): ring.field.one})

    @classmethod
    def monomial(cls, ring, expo, coeff=1):
        return cls.from_dict(ring, {tuple(expo): coeff})

    # -- predicates and views --

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), self.ring.field.zero)

    def sorted_terms(self):
        """Terms as (exponent, coefficient), descending under the ring's order."""
        heap_key = self.ring.heap_key
        return sorted(self.terms.items(), key=lambda t: heap_key(t[0]))

    def leading_monomial(self):
        """Greatest exponent under the ring's order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return min(self.terms, key=self.ring.heap_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def leading_term(self):
        m = self.leading_monomial()
        return m, self.terms[m]

    # -- arithmetic --

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("mixed ring contexts")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        self._check_ring(other)
        field = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                s = field.add(acc, c)
                if s == field.zero:
                    del out[e]
                else:
                    out[e] = s
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        field = self.ring.field
        zero = field.zero
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                c = field.mul(c1, c2)
                acc = out.get(e)
                if acc is None:
                    out[e] = c
                else:
                    s = field.add(acc, c)
                    if s == zero:
                        del out[e]
                    else:
                        out[e] = s
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        field = self.ring.field
        c = field.normalize(value)
        if c == field.zero:
            return Polynomial(self.ring, {})
        return Polynomial(self.ring, {e: field.mul(k, c) for e, k in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self):
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        field = self.ring.field
        if lc == field.one:
            return self
        inv = field.inv(lc)
        return Polynomial(self.ring, {e: field.mul(c, inv) for e, c in self.terms.items()})

    # -- evaluation --

    def evaluate(self, values):
        """Evaluate at a point; values is a sequence of field elements."""
        field = self.ring.field
        if len(values) != self.ring.nvars:
            raise ValueError("wrong number of coordinates")
        values = [field.normalize(v) for v in values]
        acc = field.zero
        for e, c in self.terms.items():
            term = c
            for i, exp in enumerate(e):
                if exp:
                    term = field.mul(term, field.pow(values[i], exp))
            acc = field.add(acc, term)
        return acc

    # -- identity --

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.variables
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for name, exp in zip(names, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            mono = "*".join(factors)
            if not mono:
                pieces.append(coefficient_text(c))
            elif c == field.one:
                pieces.append(mono)
            elif field.characteristic == 0 and c == -field.one:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{coefficient_text(c)}*{mono}")
        text = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return f"Polynomial({self})"


def substitute(f, assignment, ring=None):
    """Compose f with an assignment mapping every variable of f's ring to a
    polynomial (or constant) of one target ring.

    The target ring is inferred from the polynomial images, or can be given
    explicitly when every image is a constant.  Fields must agree.
    """
    images = {}
    target = ring
    for name, value in assignment.items():
        if isinstance(value, Polynomial):
            if target is None:
                target = value.ring
            elif value.ring != target:
                raise ValueError("substitution images live in different rings")
        images[name] = value
    if target is None:
        raise ValueError("cannot infer the target ring from constant images")
    if target.field != f.ring.field:
        raise ValueError("substitution cannot change the coefficient field")
    for name in f.ring.variables:
        if name not in images:
            raise ValueError(f"assignment misses variable {name!r}")
    images = {
        name: v if isinstance(v, Polynomial) else Polynomial.constant(target, v)
        for name, v in images.items()
    }
    result = Polynomial.zero(target)
    one = Polynomial.constant(target, 1)
    # cache small powers of each image
    powers = {name: [one] for name in f.ring.variables}
    for e, c in sorted(f.terms.items()):
        term = Polynomial.constant(target, c)
        for name, exp in zip(f.ring.variables, e):
            if not exp:
                continue
            cache = powers[name]
            while len(cache) <= exp:
                cache.append(cache[-1] * images[name])
            term = term * cache[exp]
        result = result + term
    return result


# -- binary forms ------------------------------------------------------------


def binary_coefficients(form, pencil, degree):
    """[c_0, ..., c_degree] with form = sum c_k * v^k * w^(degree-k), where
    (v, w) = pencil are variable indices; the zero form gives zeros."""
    coeffs = [form.ring.field.zero] * (degree + 1)
    for e, c in form.terms.items():
        coeffs[e[pencil[0]]] = c
    return coeffs


def binary_form(ring, pencil, coeffs):
    """The form sum c_k * v^k * w^(d-k), d = len(coeffs) - 1; the inverse of
    binary_coefficients."""
    v, w = pencil
    d = len(coeffs) - 1
    terms = {}
    for k, c in enumerate(coeffs):
        if c != ring.field.zero:
            e = [0] * ring.nvars
            e[v], e[w] = k, d - k
            terms[tuple(e)] = c
    return Polynomial(ring, terms)


def _univariate_gcd_degree(a, b, field):
    """Degree of gcd of two univariate coefficient lists (may be empty)."""

    def trim(p):
        while p and p[-1] == field.zero:
            p.pop()
        return p

    a, b = trim(list(a)), trim(list(b))
    while b:
        # remainder of a mod b
        while len(a) >= len(b) and a:
            factor = field.div(a[-1], b[-1])
            shift = len(a) - len(b)
            for i, coeff in enumerate(b):
                a[i + shift] = field.sub(a[i + shift], field.mul(coeff, factor))
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def binary_forms_have_common_zero(f, g, pencil):
    """Common zero on P^1 of two binary forms in the pencil variables.

    The one coprimality test, shared by the DoubleLine constructor, whose
    refusal of a common zero makes every double line a local complete
    intersection along its support (the premise of doublelines.oracle_lal),
    and the complete-intersection certificate of ideals.hilbert_data: (1:0)
    is a common zero iff both top coefficients vanish, any other is a root
    of the Euclid gcd of the forms at w = 1.  A zero form shares every zero
    of its partner.
    """
    field = f.ring.field
    cf = binary_coefficients(f, pencil, f.total_degree())
    cg = binary_coefficients(g, pencil, g.total_degree())
    # the value at (1:0) is the top coefficient; the zero form has none
    if all(not c or c[-1] == field.zero for c in (cf, cg)):
        return True
    return _univariate_gcd_degree(cf, cg, field) >= 1
