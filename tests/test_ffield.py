import math
import random
import time

import pytest

from lambda2 import ffield
from lambda2.ecurve import INVENTORY_CAP
from lambda2.ffield import (
    IncompatibleFields,
    NotASquare,
    Polynomial,
    ZeroPolynomial,
    embedding,
    factor,
    field_of_order,
    is_square,
    make_field,
    prime_power,
    roots,
    sqrt,
)
from object_reference import distinct_degree_modulus

SMALL_FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2), (3, 2), (5, 3)]


def test_make_field_is_cached_singleton():
    assert make_field(5, 2) is make_field(5, 2)
    assert make_field(7) is make_field(7, 1)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(2, 3)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError):
        make_field(3, 60)  # over the size cap


def test_prime_power_matches_trial_division():
    def reference(q):
        d = 2
        while q % d:
            d += 1
        n, m = q, 0
        while n % d == 0:
            n //= d
            m += 1
        return (d, m) if n == 1 else None

    for q in range(2, 20000):
        try:
            got = prime_power(q)
        except ValueError:
            got = None
        assert got == reference(q), q


def test_field_of_order_is_fast_on_huge_q():
    # a prime near 10^18 and a product of two primes near 10^9 are decided by
    # integer roots and Miller-Rabin, not by trial division up to 10^9
    started = time.perf_counter()
    assert field_of_order(10**18 + 3).order == 10**18 + 3
    assert time.perf_counter() - started < 1.0
    started = time.perf_counter()
    with pytest.raises(ValueError, match="not a prime power"):
        field_of_order((10**9 + 7) * (10**9 + 9))
    assert time.perf_counter() - started < 1.0


def test_canonical_modulus_is_lex_smallest():
    # frozen values, independently checked by scanning all monic irreducibles
    assert make_field(5, 2).modulus_coeffs == (2, 0, 1)  # t^2 + 2
    assert make_field(7, 2).modulus_coeffs == (1, 0, 1)  # t^2 + 1
    assert make_field(3, 2).modulus_coeffs == (1, 0, 1)
    assert make_field(5, 3).modulus_coeffs == (1, 1, 0, 1)  # t^3 + t + 1
    assert make_field(11, 2).modulus_coeffs == (1, 0, 1)
    assert make_field(13, 2).modulus_coeffs == (2, 0, 1)
    # composite degrees, where the search rejects candidates with factors of
    # several degrees
    assert make_field(7, 6).modulus_coeffs == (2, 0, 0, 0, 0, 0, 1)
    assert make_field(5, 8).modulus_coeffs == (2,) + (0,) * 7 + (1,)
    assert make_field(7, 9).modulus_coeffs == (2,) + (0,) * 8 + (1,)
    assert make_field(7, 18).modulus_coeffs == (2,) + (0,) * 17 + (1,)


def test_modulus_scan_matches_brute_force():
    # re-derive the q=25 modulus by brute force over tuples in index order
    F = make_field(5, 2)
    found = None
    for idx in range(25):
        c0, c1 = idx % 5, idx // 5
        # irreducible quadratics over F_5 have no roots
        if all((x * x * 1 + c1 * x + c0) % 5 != 0 for x in range(5)):
            found = (c0, c1, 1)
            break
    assert found == F.modulus_coeffs


def test_rabin_modulus_matches_the_distinct_degree_search():
    # Rabin's test in the candidate's ring picks the modulus that the
    # lex-first distinct-degree search picks, on every field the inventory
    # serves and on the pinned composite degrees; the cache is bypassed, so
    # every field is searched afresh
    fields = []
    for q in range(5, INVENTORY_CAP + 1, 2):
        try:
            p, m = prime_power(q)
        except ValueError:
            continue
        if p > 3:
            fields.append((p, m))
    assert len(fields) == 73
    for p, m in fields + [(5, 8), (7, 6), (7, 9), (7, 18)]:
        built = ffield._make_field.__wrapped__(p, m)
        assert built.modulus_coeffs == distinct_degree_modulus(p, m), (p, m)


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    F = make_field(p, m)
    elems = list(F.elements())
    assert len(elems) == p**m
    one, zero = F.one, F.zero
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if a:
            assert a * a.inverse() == one
    # spot-check associativity and distributivity on a deterministic sample
    rng = random.Random(42)
    for _ in range(50):
        a, b, c = (F.from_index(rng.randrange(p**m)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_element_index_round_trip():
    F = make_field(5, 2)
    for i in range(25):
        assert F.from_index(i).index == i


def test_int_coercion_in_arithmetic():
    F = make_field(7)
    a = F.element(3)
    assert a + 4 == F.zero
    assert 2 * a == F.element(6)
    assert 1 / a == F.element(5)  # 3*5 = 15 = 1 mod 7
    assert a**2 == 2


@pytest.mark.parametrize("p,m", [(7, 1), (5, 2)])
def test_zero_has_no_inverse(p, m):
    # the inverse is the power x**(q-2), which would map zero to zero
    F = make_field(p, m)
    x = F.from_index(3)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        x / F.zero
    with pytest.raises(ZeroDivisionError):
        F.zero ** -1


@pytest.mark.parametrize("p,m", [(5, 4), (7, 3)])
def test_inverse_and_negative_powers_on_a_sample(p, m):
    F = make_field(p, m)
    rng = random.Random(14)
    for _ in range(40):
        a = F.from_index(rng.randrange(1, F.order))
        assert a * a.inverse() == F.one
        k = rng.randrange(1, 3 * F.order)
        assert a**k * a**-k == F.one


def test_mixed_field_arithmetic_rejected():
    a = make_field(5).element(2)
    b = make_field(7).element(2)
    with pytest.raises(IncompatibleFields):
        _ = a + b


def test_frobenius_fixed_points():
    # x**p = x exactly on the prime subfield
    for p, m in [(5, 2), (3, 2), (5, 3)]:
        F = make_field(p, m)
        fixed = [e for e in F.elements() if e.frobenius() == e]
        assert len(fixed) == p
    F = make_field(5, 2)
    for e in F.elements():
        assert e.frobenius(2) == e


# is_square is Euler's criterion, one power on every field (the builtin pow
# on a prime field), and the table is filled from squarings on a prime field
# and from the even powers of a primitive element on an extension field, so
# each field checks both against the set of squares
@pytest.mark.parametrize("p,m", SMALL_FIELDS + [(20011, 1)])
def test_is_square_matches_squaring_table(p, m):
    F = make_field(p, m)
    squares = {(e * e).index for e in F.elements()}
    for e in F.elements():
        assert is_square(e) == (e.index in squares)
    table = F.squares_table()
    assert isinstance(table, bytes) and len(table) == F.order
    assert {i for i in range(F.order) if table[i]} == squares
    assert set(table) == {0, 1}


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_sqrt_exhaustive(p, m):
    F = make_field(p, m)
    for e in F.elements():
        if is_square(e):
            r = sqrt(e)
            assert r * r == e
            # canonical choice: the smaller of the two roots in index order
            assert r.index <= (-r).index
        else:
            with pytest.raises(NotASquare):
                sqrt(e)


def test_sqrt_frozen_values():
    F7 = make_field(7)
    assert sqrt(F7.element(2)) == F7.element(3)  # 3^2 = 9 = 2, and 3 < 4
    F13 = make_field(13)  # 13 = 1 mod 4 runs the Tonelli-Shanks loop
    assert sqrt(F13.element(4)) == F13.element(2)
    assert sqrt(F13.element(10)) == F13.element(6)  # 6^2 = 36 = 10 mod 13


def test_nonsquare_is_canonical():
    assert make_field(5).nonsquare() == make_field(5).element(2)
    assert make_field(7).nonsquare() == make_field(7).element(3)
    F25 = make_field(5, 2)
    ns = F25.nonsquare()
    assert not is_square(ns)
    for e in F25.nonzero_elements():
        if e.index >= ns.index:
            break
        assert is_square(e)


LOG_FIELDS = [(5, 2), (7, 2), (5, 3), (7, 3)]


@pytest.mark.parametrize("p,m", LOG_FIELDS)
def test_log_tables_are_inverse_bijections_on_the_units(p, m):
    F = make_field(p, m)
    n = F.order - 1
    exp, log, zech = F.log_tables()
    assert F.log_tables() is F.log_tables()
    assert len(exp) == n and len(zech) == n and len(log) == F.order
    assert len(set(exp)) == n and 0 not in exp and log[0] == -1
    assert exp[0] == F.one.index
    assert all(log[exp[k]] == k for k in range(n))
    assert all(exp[log[i]] == i for i in range(1, F.order))
    # exp really lists the powers of g, and g is the primitive element of
    # smallest index: an element is primitive exactly when its log is prime
    # to n
    g = F.from_index(exp[1])
    assert all(exp[(k + 1) % n] == (g * F.from_index(exp[k])).index for k in range(n))
    primitive = [i for i in range(1, F.order) if math.gcd(log[i], n) == 1]
    assert primitive[0] == exp[1]
    # Zech: 1 + g**k, with -1 only where it vanishes
    for k in range(n):
        total = F.one + F.from_index(exp[k])
        assert zech[k] == (log[total.index] if total else -1)
    assert list(zech).count(-1) == 1


def _zech_sum(F, i, j):
    # index of from_index(i) + from_index(j), on the tables alone
    exp, log, zech = F.log_tables()
    n = F.order - 1
    if not i or not j:
        return i or j
    li, lj = log[i], log[j]
    z = zech[(lj - li) % n]
    return 0 if z < 0 else exp[(li + z) % n]


@pytest.mark.parametrize("p,m", [(5, 2), (7, 2)])
def test_zech_addition_on_every_pair(p, m):
    F = make_field(p, m)
    elems = list(F.elements())
    for x in elems:
        for y in elems:
            assert _zech_sum(F, x.index, y.index) == (x + y).index, (x, y)


@pytest.mark.parametrize("p,m", [(5, 3), (7, 3)])
def test_zech_addition_on_a_sample(p, m):
    F = make_field(p, m)
    rng = random.Random(20150)
    for _ in range(3000):
        x = F.from_index(rng.randrange(F.order))
        y = F.from_index(rng.randrange(F.order))
        assert _zech_sum(F, x.index, y.index) == (x + y).index, (x, y)


def test_polynomial_string_round_trip():
    F = make_field(5)
    f = Polynomial(F, [1, 2, 0, 1])
    assert str(f) == "x^3+2*x+1"
    assert str(Polynomial(F, [])) == "0"


def test_polynomial_divmod_inverts_mul():
    F = make_field(7, 2)
    rng = random.Random(7)
    for _ in range(40):
        f = Polynomial(F, [F.from_index(rng.randrange(49)) for _ in range(5)])
        g = Polynomial(F, [F.from_index(rng.randrange(49)) for _ in range(3)])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()


def test_factor_frozen_example():
    F = make_field(5)
    f = Polynomial(F, [0, 1, 0, 1])  # x^3 + x
    fac = factor(f)
    assert [(str(h), e) for h, e in fac] == [("x", 1), ("x+2", 1), ("x+3", 1)]


def test_factor_with_multiplicities_and_char_p_powers():
    F = make_field(5)
    x = Polynomial.x(F)
    one = Polynomial.constant(F, F.one)
    f = (x + one) * (x + one) * x
    fac = factor(f)
    assert [(str(h), e) for h, e in fac] == [("x", 1), ("x+1", 2)]
    # a pure p-th power: derivative vanishes, exercises the p-th root path
    g = (x + one).pow_mod(5, x.pow_mod(99, x) + Polynomial(F, [0] * 6 + [1]))
    g = Polynomial(F, [1, 0, 0, 0, 0, 1])  # (x+1)^5 over F_5
    assert [(str(h), e) for h, e in factor(g)] == [("x+1", 5)]


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (5, 2), (13, 1)])
def test_factor_reconstructs_input(p, m):
    F = make_field(p, m)
    rng = random.Random(101)
    for _ in range(25):
        deg = rng.randrange(1, 7)
        coeffs = [F.from_index(rng.randrange(p**m)) for _ in range(deg)] + [F.one]
        f = Polynomial(F, coeffs)
        prod = Polynomial.constant(F, F.one)
        for h, e in factor(f):
            assert h.leading() == F.one
            for _ in range(e):
                prod = prod * h
        assert prod == f


def test_factor_is_deterministic_across_calls():
    F = make_field(11)
    f = Polynomial(F, [9, 1, 0, 0, 3, 0, 1])  # x^6 + 3*x^4 + x + 9
    first = [(str(h), e) for h, e in factor(f)]
    for _ in range(3):
        assert [(str(h), e) for h, e in factor(f)] == first


def test_factor_zero_rejected():
    F = make_field(5)
    with pytest.raises(ZeroPolynomial):
        factor(Polynomial(F, []))


def test_roots_sorted_canonically():
    F = make_field(7)
    f = Polynomial(F, [6, 5, 1])  # (x+2)(x+3): roots 4, 5
    assert [r.index for r in roots(f)] == [4, 5]


def test_embedding_preserves_operations():
    src = make_field(5, 1)
    dst = make_field(5, 2)
    phi = embedding(src, dst)
    for a in src.elements():
        for b in src.elements():
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(a * b) == phi(a) * phi(b)
    assert phi(src.one) == dst.one


def test_embedding_quadratic_into_quartic():
    src = make_field(5, 2)
    dst = make_field(5, 4)
    phi = embedding(src, dst)
    rng = random.Random(5)
    for _ in range(60):
        a = src.from_index(rng.randrange(25))
        b = src.from_index(rng.randrange(25))
        assert phi(a * b) == phi(a) * phi(b)
        assert phi(a + b) == phi(a) + phi(b)
    # the generator image satisfies the source modulus
    img = phi(src.gen)
    assert img * img + 2 == dst.zero  # t^2 + 2 = 0


def test_embedding_is_cached_and_checked():
    assert embedding(make_field(5), make_field(5, 2)) is embedding(
        make_field(5), make_field(5, 2)
    )
    with pytest.raises(IncompatibleFields):
        embedding(make_field(5, 2), make_field(5, 3))
    with pytest.raises(IncompatibleFields):
        embedding(make_field(5), make_field(7))


def test_embedding_composition_consistency():
    # F_5 -> F_25 -> F_5^4 agrees with the direct embedding on every element
    f1, f2, f4 = make_field(5), make_field(5, 2), make_field(5, 4)
    via = lambda e: embedding(f2, f4)(embedding(f1, f2)(e))
    direct = embedding(f1, f4)
    for e in f1.elements():
        assert via(e) == direct(e)
