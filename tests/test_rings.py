import functools
import itertools
import time

import pytest

from liaison import PrimeField, QQ, make_ring, monomial_compare
from liaison.rings import GREVLEX, LEX, PRIME_BOUND, MonomialOrder, order_from_spec


def test_make_ring_basic():
    R = make_ring(["x", "y"], "Q", "grevlex")
    assert R.variables == ("x", "y")
    assert R.field == QQ
    assert R.order == GREVLEX


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        make_ring(["x", "x"], "Q", "lex")


def test_bad_names_rejected():
    with pytest.raises(ValueError):
        make_ring(["2x"], "Q")
    with pytest.raises(ValueError):
        make_ring([], "Q")


def test_characteristic_two_excluded():
    with pytest.raises(ValueError):
        make_ring(["x", "y", "z", "u"], "F2", "grevlex")


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        make_ring(["x"], "F15")


def test_modulus_bound_is_checked_before_primality():
    # 2^61 - 1 is prime, but trial division up to its square root would
    # take minutes: the bound refuses it first
    start = time.perf_counter()
    for p in (2**31, 2**61 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match="not below the bound 2\\^31"):
            PrimeField(p)
    with pytest.raises(ValueError, match="bound 2\\^31"):
        make_ring(["x"], "F2305843009213693951")
    assert time.perf_counter() - start < 1.0
    assert PRIME_BOUND == 2**31
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_prime_field_arithmetic():
    F = PrimeField(31)
    assert F.add(29, 5) == 3
    assert F.mul(7, 9) == 63 % 31
    assert F.mul(F.inv(12), 12) == 1
    assert F.normalize(-1) == 30


def test_random_sample_never_contains_zero():
    # the oracle's support points (t : 1) rely on t != 0 to avoid the meeting point
    for field in (QQ, PrimeField(3), PrimeField(31)):
        assert field.zero not in field.random_sample()


def test_grevlex_degree_two_textbook_order():
    # x^2 > xy > y^2 > xz > yz > z^2 on (x, y, z)
    deg2 = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
    deg2.sort(key=make_ring(["x", "y", "z"], "Q", "grevlex").heap_key)
    assert deg2 == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_monomial_compare_grevlex_tie_break():
    # xz vs y^2: equal degree, y^2 wins (smaller exponent in the last variable)
    assert monomial_compare((1, 0, 1), (0, 2, 0), "grevlex") == -1
    assert monomial_compare((0, 2, 0), (1, 0, 1), "grevlex") == 1


def test_monomial_compare_lex():
    assert monomial_compare((1, 0), (0, 5), LEX) == 1
    assert monomial_compare((1, 2), (1, 2), "lex") == 0


def test_monomial_compare_length_mismatch():
    with pytest.raises(ValueError):
        monomial_compare((1, 0), (1, 0, 0), "lex")


def test_monomial_compare_total_order():
    mons = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 3]
    for order in ("lex", "grevlex", MonomialOrder("block", 1)):
        for a in mons:
            for b in mons:
                c1 = monomial_compare(a, b, order)
                c2 = monomial_compare(b, a, order)
                assert c1 == -c2
                if a == b:
                    assert c1 == 0
                else:
                    assert c1 != 0


def test_block_order_eliminates():
    order = MonomialOrder("block", 1)
    # any monomial containing the first variable beats any without it
    assert monomial_compare((1, 0, 0), (0, 9, 9), order) == 1


def test_order_from_spec():
    assert order_from_spec("block(2)") == MonomialOrder("block", 2)
    with pytest.raises(ValueError):
        order_from_spec("weird")


def test_block_size_validated():
    with pytest.raises(ValueError):
        make_ring(["x", "y"], "Q", "block(2)")


ORDERS_4 = ["lex", "grevlex", "block(1)", "block(2)"]


def _textbook_compare(a, b, order):
    """-1, 0 or 1 as a < b, a = b or a > b, from the definitions (Cox, Little,
    O'Shea, Ch. 2 Sec. 2), independent of the library's key."""
    if order == "lex":
        # the leftmost nonzero entry of a - b is positive when a > b
        for x, y in zip(a, b):
            if x != y:
                return 1 if x > y else -1
        return 0
    if order == "grevlex":
        if sum(a) != sum(b):
            return 1 if sum(a) > sum(b) else -1
        # same degree: the rightmost nonzero entry of a - b is negative when a > b
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return 1 if x < y else -1
        return 0
    # block(k): grevlex on the first k variables, ties broken by grevlex on the rest
    k = int(order[len("block(") : -1])
    return _textbook_compare(a[:k], b[:k], "grevlex") or _textbook_compare(a[k:], b[k:], "grevlex")


@pytest.mark.parametrize("order", ORDERS_4)
def test_heap_key_sorts_descending(order):
    # a min-heap on heap_key must pop monomials greatest first
    ring = make_ring(["a", "b", "c", "d"], "F31", order)
    mons = [e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3]
    by_textbook = sorted(mons, key=functools.cmp_to_key(lambda a, b: _textbook_compare(b, a, order)))
    assert sorted(mons, key=ring.heap_key) == by_textbook
    for a in mons:
        for b in mons:
            assert monomial_compare(a, b, order) == _textbook_compare(a, b, order)
    # equal orders share one key function: the memoized block keys rely on it
    assert make_ring(["w", "x", "y", "z"], "Q", order).heap_key is ring.heap_key
