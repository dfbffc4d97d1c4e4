"""Ring contexts: coefficient fields, monomial orders, and variable sets.

Every polynomial, ideal, and Groebner basis in this library carries a
reference to a RingContext, which fixes the variable names, the exact
coefficient field (rationals or GF(p) for an odd prime p < 2^31), and the one
monomial order used for leading terms and Groebner bases.  Contexts are
immutable and hashable; two contexts compare equal iff they have the same
variables, field, and order.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polynomials import Polynomial

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class RationalField:
    """The rationals; elements are Fraction values in lowest terms."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into the rational field")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def pow(self, a, n):
        return Fraction(a) ** n

    def random_sample(self):
        # small nonzero integers used when sampling random values
        return [Fraction(k) for k in (-3, -2, -1, 1, 2, 3)]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Q"


# PrimeField moduli stay below this bound: _is_prime trial-divides up to the
# square root, about 46000 steps here and 1.5e9 at 2^61 - 1
PRIME_BOUND = 2**31


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """GF(p) for an odd prime p below PRIME_BOUND; elements are least
    non-negative residues."""

    zero = 0
    one = 1

    def __init__(self, p):
        if isinstance(p, int) and p >= PRIME_BOUND:
            raise ValueError(f"prime modulus {p} is not below the bound 2^31")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"{p!r} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is excluded")
        self.p = p
        self.characteristic = p

    def normalize(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def pow(self, a, n):
        return pow(a, n, self.p)

    def random_sample(self):
        return list(range(1, self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


def field_from_spec(spec):
    """Accept a field object, 'Q'/'QQ', or 'F<p>' and return the field."""
    if isinstance(spec, (RationalField, PrimeField)):
        return spec
    if isinstance(spec, str):
        if spec in ("Q", "QQ"):
            return QQ
        if spec.startswith("F") and spec[1:].isdigit():
            return PrimeField(int(spec[1:]))
    raise ValueError(f"unknown field spec {spec!r}")


# Each order has one key, a flat int tuple of an exponent tuple: the smaller
# key is the greater monomial.  So `min` finds the leading monomial, an
# ascending sort lists terms greatest first, and a min-heap pops the leader.
# The grevlex and block keys are memoized: they sit on the hot path and are
# called once per distinct monomial.


def _lex_heap_key(exponents):
    return tuple(-e for e in exponents)


@lru_cache(maxsize=None)
def _grevlex_heap_key(exponents):
    return (-sum(exponents), *reversed(exponents))


@lru_cache(maxsize=None)
def _block_heap_key(b):
    """Key of the block order whose leading block is the first b variables."""

    @lru_cache(maxsize=None)
    def heap_key(exponents):
        return _grevlex_heap_key(exponents[:b]) + _grevlex_heap_key(exponents[b:])

    return heap_key


def _heap_key(order):
    """The key function of an order, the same object for equal orders."""
    if order.kind == "grevlex":
        return _grevlex_heap_key
    if order.kind == "lex":
        return _lex_heap_key
    return _block_heap_key(order.block)


@dataclass(frozen=True)
class MonomialOrder:
    """Monomial order descriptor: 'lex', 'grevlex', or 'block' with a
    leading block of the first `block` variables (eliminated before the
    rest, grevlex within each block)."""

    kind: str
    block: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if self.kind == "block" and self.block < 1:
            raise ValueError("block order needs a positive block size")

    def __str__(self):
        if self.kind == "block":
            return f"block({self.block})"
        return self.kind


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")

_BLOCK_RE = re.compile(r"block\((\d+)\)\Z")


def order_from_spec(spec):
    """Accept a MonomialOrder, 'lex', 'grevlex', or 'block(k)'."""
    if isinstance(spec, MonomialOrder):
        return spec
    if isinstance(spec, str):
        if spec == "lex":
            return LEX
        if spec == "grevlex":
            return GREVLEX
        m = _BLOCK_RE.match(spec)
        if m:
            return MonomialOrder("block", int(m.group(1)))
    raise ValueError(f"unknown order spec {spec!r}")


def monomial_compare(m1, m2, order):
    """Compare exponent vectors under an order: -1, 0, or 1."""
    if len(m1) != len(m2):
        raise ValueError("exponent vectors of different lengths")
    heap_key = _heap_key(order_from_spec(order))
    k1, k2 = heap_key(tuple(m1)), heap_key(tuple(m2))
    # the smaller key is the greater monomial
    if k1 > k2:
        return -1
    if k1 < k2:
        return 1
    return 0


class RingContext:
    """Immutable context: variable names, coefficient field, monomial order.

    `heap_key` is the order's one key, bound once so the hot paths skip
    the dispatch: the smaller key is the greater monomial.
    """

    __slots__ = ("variables", "field", "order", "heap_key", "_index", "_hash")

    def __init__(self, variables, field, order):
        self.variables = tuple(variables)
        self.field = field
        self.order = order
        self.heap_key = _heap_key(order)
        self._index = {name: i for i, name in enumerate(self.variables)}
        self._hash = hash((self.variables, self.field, self.order))

    @property
    def nvars(self):
        return len(self.variables)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    # -- convenience constructors --

    def variable(self, name):
        return Polynomial.variable(self, name)

    def zero(self):
        return Polynomial.zero(self)

    def one(self):
        return Polynomial.constant(self, 1)

    def gens(self):
        return [self.variable(v) for v in self.variables]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingContext)
            and self.variables == other.variables
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field!r}[{','.join(self.variables)}] {self.order}"


def make_ring(names, field="Q", order="grevlex"):
    """Build a RingContext from variable names, a field spec, and an order spec.

    Raises on duplicate or malformed names, non-prime or characteristic-2
    moduli, and block sizes that do not leave a trailing block.
    """
    names = list(names)
    if not names:
        raise ValueError("a ring needs at least one variable")
    seen = set()
    for name in names:
        if not isinstance(name, str) or not _IDENTIFIER.match(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate variable name {name!r}")
        seen.add(name)
    field = field_from_spec(field)
    order = order_from_spec(order)
    if order.kind == "block" and not 1 <= order.block < len(names):
        raise ValueError("block size must satisfy 1 <= k < number of variables")
    return RingContext(names, field, order)
