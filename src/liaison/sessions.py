"""Session files: a line-oriented format declaring one ring plus named
ideals, double lines, and points, with a small exact-arithmetic expression
grammar for polynomials.

    ring Q[x,y,z,u] order grevlex
    # the extension and the linked pair
    ideal Y  = x^2, y^2
    ideal I1 = z*x + u*y, x^2, x*y, y^2
    dline L1 support x,y pair (z, u)
    point P = (0:0:0:1)

Parse errors carry the line and column and an expected-token message.
Each refusal is a ParseError at its token, by one rule (_at): an integer
literal longer than the interpreter reads (sys.get_int_max_str_digits())
and a point's wrong number of coordinates included.
"""

import re
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb, lcm

from .doublelines import DoubleLine
from .ideals import Ideal
from .localrings import RationalPoint
from .polynomials import Polynomial
from .rings import field_from_spec, make_ring

# the most terms, and the most coefficient bits in all terms together, a
# power written in a session may expand to; larger powers are refused before
# expansion, which would otherwise run for minutes or exhaust memory
MAX_POWER_TERMS = 1000
MAX_POWER_BITS = 2**18
# the deepest nesting of parentheses an expression may have: each level
# takes four parser frames, so this stays well inside Python's recursion
# limit, and a deeper one is a ParseError, not a RecursionError
MAX_PAREN_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line} col {col}: {message}")
        self.line = line
        self.col = col


# one token per match, after its leading whitespace; `bad` is any other character
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<sym>[-+*^(),=:\[\]/])|(?P<bad>\S))"
)

# kind: 'name' | 'int' | one-character symbol | 'end'
_Token = namedtuple("_Token", "kind text line col")


def _tokenize_line(text, line_no):
    stripped = text.split("#", 1)[0]
    tokens = []
    for m in _TOKEN_RE.finditer(stripped):
        kind = m.lastgroup
        value = m.group(kind)
        col = m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line_no, col)
        tokens.append(_Token(value if kind == "sym" else kind, value, line_no, col))
    tokens.append(_Token("end", "", line_no, len(stripped) + 1))
    return tokens


def _at(tok, make, *args):
    """make(*args); a ValueError it raises is a ParseError at tok."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(str(exc), tok.line, tok.col) from None


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # open parentheses of the expression being parsed

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            wanted = what or kind
            raise ParseError(
                f"expected {wanted}, found {tok.text or 'end of line'!r}", tok.line, tok.col
            )
        return self.next()

    def integer(self, what):
        """The next token as an integer: (token, value)."""
        tok = self.expect("int", what)
        return tok, _at(tok, int, tok.text)

    def at_end(self):
        return self.peek().kind == "end"

    def keyword(self, word):
        tok = self.expect("name", f"'{word}'")
        if tok.text != word:
            raise ParseError(f"expected '{word}', found {tok.text!r}", tok.line, tok.col)

    def finish(self):
        if not self.at_end():
            tok = self.peek()
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)


def _parse_number(cur, field):
    sign = 1
    tok = cur.peek()
    if tok.kind in ("-", "+"):
        cur.next()
        sign = -1 if tok.kind == "-" else 1
    _, value = cur.integer("a number")
    if cur.peek().kind == "/":
        cur.next()
        den_tok, den = cur.integer("a denominator")
        if field.normalize(den) == field.zero:
            raise ParseError(f"denominator {den} is zero in {field}", den_tok.line, den_tok.col)
        return field.normalize(Fraction(sign * value, den))
    return field.normalize(sign * value)


def _parse_expression(cur, ring):
    result = _parse_term(cur, ring)
    while cur.peek().kind in ("+", "-"):
        op = cur.next().kind
        rhs = _parse_term(cur, ring)
        result = result + rhs if op == "+" else result - rhs
    return result


def _parse_term(cur, ring):
    result = _parse_factor(cur, ring)
    while cur.peek().kind == "*":
        cur.next()
        result = result * _parse_factor(cur, ring)
    return result


def _parse_factor(cur, ring):
    # a run of unary signs is read by a loop: recursion would overflow on a
    # long one
    negate = False
    while cur.peek().kind in ("-", "+"):
        negate ^= cur.next().kind == "-"
    base = _parse_atom(cur, ring)
    if cur.peek().kind == "^":
        cur.next()
        exp_tok, k = cur.integer("an integer exponent")
        terms = _power_terms_bound(base, k)
        if terms > MAX_POWER_TERMS:
            raise ParseError(
                f"power may expand to {terms} terms, more than {MAX_POWER_TERMS}",
                exp_tok.line,
                exp_tok.col,
            )
        bits = terms * _power_coefficient_bits(base, k)
        if bits > MAX_POWER_BITS:
            raise ParseError(
                f"power may expand to {bits} coefficient bits, more than {MAX_POWER_BITS}",
                exp_tok.line,
                exp_tok.col,
            )
        base = base ** k
    return -base if negate else base


def _power_terms_bound(base, k):
    """An upper bound on the number of terms of base**k, found without
    expanding.  A term of the power is a product of k of base's t terms (a
    multiset), and a monomial of degree at most D = k*deg(base) in the
    ring's variables, of degree exactly D when base is homogeneous: there
    are comb(D + m, m) of those, m the number of variables, one fewer for
    the homogeneous count."""
    t = len(base.terms)
    if t <= 1:
        return t
    m = base.ring.nvars - (1 if base.is_homogeneous() else 0)
    return min(comb(k + t - 1, t - 1), comb(k * base.total_degree() + m, m))


def _power_coefficient_bits(base, k):
    """An upper bound on the bit length of each coefficient of base**k
    (numerator plus denominator), found without expanding; 0 over a prime
    field, whose coefficients do not grow.  Over Q write base = P/D with D
    the least common denominator and P integral with t terms and largest
    coefficient M: each coefficient of P**k is at most (t*M)**k, and the
    denominator divides D**k."""
    if base.ring.field.characteristic or not base.terms:
        return 0
    coeffs = base.terms.values()
    D = lcm(*(c.denominator for c in coeffs))
    M = max(abs(c.numerator) * (D // c.denominator) for c in coeffs)
    return k * ((len(base.terms) * M - 1).bit_length() + (D - 1).bit_length()) + 2


def _parse_atom(cur, ring):
    tok = cur.peek()
    if tok.kind == "name":
        cur.next()
        return _at(tok, Polynomial.variable, ring, tok.text)
    if tok.kind == "int":
        return Polynomial.constant(ring, _parse_number(cur, ring.field))
    if tok.kind == "(":
        if cur.depth == MAX_PAREN_DEPTH:
            raise ParseError(
                f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels", tok.line, tok.col
            )
        cur.next()
        cur.depth += 1
        inner = _parse_expression(cur, ring)
        cur.expect(")", "a closing parenthesis")
        cur.depth -= 1
        return inner
    raise ParseError(
        f"expected a variable, number, or '(', found {tok.text or 'end of line'!r}",
        tok.line,
        tok.col,
    )


def parse_polynomial(text, ring):
    """Parse one polynomial expression in the ring."""
    cur = _Cursor(_tokenize_line(text, 1))
    poly = _parse_expression(cur, ring)
    cur.finish()
    return poly


@dataclass
class Session:
    ring: object = None
    ideals: dict = dc_field(default_factory=dict)
    dlines: dict = dc_field(default_factory=dict)
    points: dict = dc_field(default_factory=dict)

    def lookup_ideal(self, name):
        if name not in self.ideals:
            raise KeyError(f"unknown ideal {name!r}")
        return self.ideals[name]

    def lookup_dline(self, name):
        if name not in self.dlines:
            raise KeyError(f"unknown double line {name!r}")
        return self.dlines[name]

    def lookup_point(self, name):
        if name not in self.points:
            raise KeyError(f"unknown point {name!r}")
        return self.points[name]


def _parse_ring_line(cur):
    """The ring a `ring` line declares; make_ring's refusals point at their
    token: the field, a repeated variable, or the block size."""
    field_tok = cur.expect("name", "a field (Q or F<p>)")
    field = _at(field_tok, field_from_spec, field_tok.text)
    cur.expect("[", "'['")
    names = [cur.expect("name", "a variable name").text]
    while cur.peek().kind == ",":
        cur.next()
        name_tok = cur.expect("name", "a variable name")
        if name_tok.text in names:
            raise ParseError(f"duplicate variable name {name_tok.text!r}", name_tok.line, name_tok.col)
        names.append(name_tok.text)
    cur.expect("]", "']'")
    order = "grevlex"
    # the token make_ring's refusal points at: with the field and the names
    # checked above, only a block size is left to refuse
    blame = field_tok
    if not cur.at_end():
        cur.keyword("order")
        order_tok = cur.expect("name", "an order name")
        order = order_tok.text
        if order == "block":
            cur.expect("(", "'('")
            blame, size = cur.integer("a block size")
            cur.expect(")", "')'")
            order = f"block({size})"
        elif order not in ("lex", "grevlex"):
            raise ParseError(f"unknown order {order!r}", order_tok.line, order_tok.col)
    return _at(blame, make_ring, names, field, order)


def _require_unique(session, name_tok):
    name = name_tok.text
    if name in session.ideals or name in session.dlines or name in session.points:
        raise ParseError(f"name {name!r} already defined", name_tok.line, name_tok.col)
    return name


def parse_session(text):
    """Parse a whole session file into a Session."""
    session = Session()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        cur = _Cursor(tokens)
        if cur.at_end():
            continue
        head = cur.expect("name", "a declaration keyword")
        if head.text == "ring":
            if session.ring is not None:
                raise ParseError("a session declares a single ring", head.line, head.col)
            session.ring = _parse_ring_line(cur)
            cur.finish()
            continue
        if session.ring is None:
            raise ParseError("the ring must be declared first", head.line, head.col)
        if head.text == "ideal":
            name = _require_unique(session, cur.expect("name", "an ideal name"))
            cur.expect("=", "'='")
            gens = [_parse_expression(cur, session.ring)]
            while cur.peek().kind == ",":
                cur.next()
                gens.append(_parse_expression(cur, session.ring))
            cur.finish()
            session.ideals[name] = Ideal(session.ring, gens)
        elif head.text == "dline":
            name = _require_unique(session, cur.expect("name", "a double line name"))
            cur.keyword("support")
            v1 = cur.expect("name", "a support variable")
            cur.expect(",", "','")
            v2 = cur.expect("name", "a support variable")
            cur.keyword("pair")
            cur.expect("(", "'('")
            f = _parse_expression(cur, session.ring)
            cur.expect(",", "','")
            g = _parse_expression(cur, session.ring)
            cur.expect(")", "')'")
            cur.finish()
            support = tuple(_at(var, session.ring.index, var.text) for var in (v1, v2))
            session.dlines[name] = _at(head, DoubleLine, session.ring, support, (f, g))
        elif head.text == "point":
            name = _require_unique(session, cur.expect("name", "a point name"))
            cur.expect("=", "'='")
            cur.expect("(", "'('")
            coords = [_parse_number(cur, session.ring.field)]
            while cur.peek().kind == ":":
                cur.next()
                coords.append(_parse_number(cur, session.ring.field))
            cur.expect(")", "')'")
            cur.finish()
            session.points[name] = _at(head, RationalPoint.projective, session.ring, coords)
        else:
            raise ParseError(
                f"unknown declaration {head.text!r} (expected ring, ideal, dline, or point)",
                head.line,
                head.col,
            )
    if session.ring is None:
        raise ParseError("empty session: no ring declared", 1, 1)
    return session
