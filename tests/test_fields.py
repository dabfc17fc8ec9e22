import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isogeny_lab.curves import WeierstrassCurve, division_polynomial
from isogeny_lab.errors import CapabilityError, FieldMismatchError
from isogeny_lab.fields import (
    ExtensionField,
    Polynomial,
    PrimeField,
    QQ,
    find_irreducible,
    is_prime,
    poly_roots,
    rational_roots,
    rational_sqrt,
)
from isogeny_lab.fields import _shift_element

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_inverse_in_f7():
    F7 = PrimeField(7)
    assert (F7.element(3).inverse()).rep == 5
    assert (F7.element(3) * F7.element(5)).rep == 1


def test_additive_inverse():
    F = PrimeField(11)
    x = F.element(4)
    assert (x + (11 - 1) * x).is_zero()


def test_extension_multiplication_reduces_by_modulus():
    F25 = ExtensionField(5, 2)
    assert F25.modulus == (2, 0, 1)  # t^2 + 2, the lexicographically first
    t = F25.gen()
    assert (t * t) == F25.element(3)  # t^2 = -2 = 3


def test_mixed_field_operands_rejected():
    a = PrimeField(5).element(1)
    b = PrimeField(7).element(1)
    with pytest.raises(FieldMismatchError):
        a + b


def test_division_by_zero():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.element(1) / F.element(0)


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms_prime(p, data):
    F = PrimeField(p)
    a = F.element(data.draw(st.integers(0, p - 1)))
    b = F.element(data.draw(st.integers(0, p - 1)))
    c = F.element(data.draw(st.integers(0, p - 1)))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert (a * a.inverse()) == F.one()
        assert a ** (p - 1) == F.one()


@given(st.sampled_from([(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]), st.data())
@settings(max_examples=40, deadline=None)
def test_field_axioms_extension(pk, data):
    p, k = pk
    F = ExtensionField(p, k)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    a = F.element(coeffs)
    if a.is_zero():
        return
    assert a * a.inverse() == F.one()
    assert a ** (p**k - 1) == F.one()


def test_poly_roots_examples():
    F5 = PrimeField(5)
    f = Polynomial(F5, [1, 0, 1])  # x^2 + 1
    assert {r.rep for r in poly_roots(f)} == {2, 3}
    g = Polynomial(F5, [2, 0, 1])  # x^2 + 2
    # oracle: 3 = -2 is a non-square mod 5 (exhaustive check)
    squares = {(y * y) % 5 for y in range(5)}
    assert 3 not in squares
    assert poly_roots(g) == set()
    h = Polynomial(F5, [0, -1, 0, 1])  # x^3 - x
    assert {r.rep for r in poly_roots(h)} == {0, 1, 4}


@given(st.sampled_from([5, 7, 11]), st.data())
@settings(max_examples=40, deadline=None)
def test_poly_roots_are_exact(p, data):
    F = PrimeField(p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    f = Polynomial(F, coeffs)
    if f.is_zero():
        return
    roots = poly_roots(f)
    assert len(roots) <= max(f.degree, 0)
    zero = F.zero()
    for x in F.iter_elements():
        assert (f(x) == zero) == (x in roots)


@pytest.mark.parametrize("pk", [(5, 2), (7, 2), (3, 3)])
def test_poly_roots_over_extension_fields_against_a_scan(pk):
    p, k = pk
    K = ExtensionField(p, k)
    Fp = PrimeField(p)
    elements = list(K.iter_elements())
    rng = random.Random(p * 10 + k)

    def scan(f):
        zero = K.zero()
        return {x for x in elements if f(x) == zero}

    for _ in range(25):
        # known roots, most of them outside F_p, times a random cofactor
        roots = rng.sample(elements, rng.randrange(1, 5))
        f = Polynomial(K, [K.one()])
        for r in roots:
            f = f * Polynomial(K, [-r, K.one()])
        f = f * Polynomial(K, [rng.choice(elements) for _ in range(rng.randrange(1, 4))] + [K.one()])
        assert poly_roots(f) == scan(f)
        # an F_p polynomial lifted into K by poly_roots itself
        g = Polynomial(Fp, [Fp.element(rng.randrange(p)) for _ in range(rng.randrange(2, 7))])
        if not g.is_zero():
            lifted = Polynomial(K, [K.element(c) for c in g.coeffs])
            assert poly_roots(g, K) == scan(lifted)


def _roots_whole_polynomial(f, K):
    """Reference roots of f in K, found without factoring over F_p: the gcd
    of f with x^|K| - x, split by gcds with (x + t)^((|K| - 1)/2) - 1 for
    the shifts t = 0, 1, 2, ... of `_shift_element`."""
    size = K.size()
    x = Polynomial.x(K)
    one = Polynomial(K, [K.one()])
    roots, stack = set(), [(x.pow_mod(size, f) - x).gcd(f)]
    while stack:
        g = stack.pop()
        if g.degree == 1:
            roots.add(-g.monic().coeffs[0])
        elif g.degree > 1:
            for t in range(512):
                d = (_shift_element(K, t).pow_mod((size - 1) // 2, g) - one).gcd(g)
                if 0 < d.degree < g.degree:
                    break
            else:
                raise AssertionError("the reference split did not converge")
            stack += [d, g // d]
    return roots


def _lift(f, K):
    return Polynomial(K, [K.element(c) for c in f.coeffs])


@pytest.mark.parametrize("pk", [(7, 2), (7, 4), (11, 2), (13, 3)])
def test_extension_roots_of_division_polynomials_match_the_whole_polynomial_path(pk):
    """psi_3 and psi_5 of short curves have F_p coefficients, so `poly_roots`
    finds their roots in F_{p^k} from their factors over F_p."""
    p, k = pk
    Fp, K = PrimeField(p), ExtensionField(p, k)
    rng = random.Random(p * 100 + k)
    curves = 0
    while curves < 3:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        curves += 1
        E = WeierstrassCurve(Fp, 0, 0, 0, a, b)
        for ell in (3, 5):
            psi = division_polynomial(E, ell)
            assert poly_roots(psi, K) == _roots_whole_polynomial(_lift(psi, K), K)
            # the same polynomial given with coefficients in K
            assert poly_roots(_lift(psi, K)) == poly_roots(psi, K)


@pytest.mark.parametrize("pk", [(7, 2), (5, 3), (3, 4), (11, 2)])
def test_extension_roots_of_products_of_fp_factors_match_the_whole_polynomial_path(pk):
    """Random products over F_p with repeated factors, each with an
    irreducible factor of degree k (split over F_{p^k}) and one of a degree
    that does not divide k (no roots there)."""
    p, k = pk
    Fp, K = PrimeField(p), ExtensionField(p, k)
    rng = random.Random(p * 1000 + k)
    irreducibles = [find_irreducible(p, d) for d in range(1, 6)]
    for _ in range(6):
        f = Polynomial(Fp, [rng.randrange(1, p)])
        for _ in range(rng.randrange(1, 4)):
            g = Polynomial(Fp, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1])
            for _ in range(rng.randrange(1, 3)):
                f = f * g
        for d in (k, rng.choice([d for d in range(2, 6) if k % d])):
            # h(x + c) is irreducible of degree d like h
            h, c = irreducibles[d - 1], rng.randrange(p)
            shifted = Polynomial.zero(Fp)
            for coeff in reversed(h.coeffs):
                shifted = shifted * Polynomial(Fp, [c, 1]) + Polynomial(Fp, [coeff])
            for _ in range(rng.randrange(1, 3)):
                f = f * shifted
        lifted = _lift(f, K)
        got = poly_roots(f, K)
        assert got == _roots_whole_polynomial(lifted, K)
        assert all(lifted(r) == K.zero() for r in got)


def test_poly_roots_rejects_characteristic_two():
    F2 = PrimeField(2)
    F4 = ExtensionField(2, 2)
    for f in (
        Polynomial(F2, [F2.one(), F2.one()]),  # x + 1
        Polynomial(F2, [F2.one(), F2.one(), F2.one()]),  # x^2 + x + 1
        Polynomial(F4, [F4.gen(), F4.one()]),  # x + t
    ):
        with pytest.raises(CapabilityError, match="odd characteristic"):
            poly_roots(f)


def test_find_irreducible_examples():
    assert find_irreducible(5, 1).int_coeffs() == [0, 1]  # x
    assert find_irreducible(5, 2).int_coeffs() == [2, 0, 1]  # x^2 + 2
    # oracle for (7, 2): lexicographic scan with exhaustive root check
    found = None
    for a1 in range(7):
        for a0 in range(7):
            if all((x * x + a1 * x + a0) % 7 for x in range(7)):
                found = [a0, a1, 1]
                break
        if found:
            break
    assert find_irreducible(7, 2).int_coeffs() == found


@given(st.sampled_from([(2, 3), (3, 2), (5, 2), (7, 2), (2, 4)]))
@settings(max_examples=20, deadline=None)
def test_find_irreducible_is_irreducible(pk):
    p, k = pk
    f = find_irreducible(p, k)
    assert f.degree == k
    assert f.leading() == PrimeField(p).one()
    # independent factor-free test: f | x^(p^k) - x, gcd(f, x^(p^j) - x) = 1
    F = PrimeField(p)
    x = Polynomial.x(F)
    assert (x.pow_mod(p**k, f) - x % f).is_zero() or ((x.pow_mod(p**k, f) - x) % f).is_zero()
    for j in range(1, k):
        g = (x.pow_mod(p**j, f) - x).gcd(f)
        assert g.degree == 0


def test_rational_roots_examples():
    f = Polynomial(QQ, [Fraction(-1), Fraction(0), Fraction(1)])  # x^2 - 1
    assert rational_roots(f) == {Fraction(1), Fraction(-1)}
    g = Polynomial(QQ, [Fraction(-3), Fraction(2)])  # 2x - 3
    assert rational_roots(g) == {Fraction(3, 2)}
    h = Polynomial(QQ, [Fraction(-2), Fraction(0), Fraction(1)])  # x^2 - 2
    assert rational_roots(h) == set()


@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=50, deadline=None)
def test_rational_roots_found_are_roots(roots):
    # build prod (x - r) and confirm every declared root is recovered
    f = Polynomial(QQ, [Fraction(1)])
    x = Polynomial.x(QQ)
    for r in roots:
        f = f * (x - Polynomial(QQ, [Fraction(r)]))
    got = rational_roots(f)
    assert got == {Fraction(r) for r in roots}


@given(st.fractions(max_denominator=20), st.fractions(max_denominator=20))
@settings(max_examples=60)
def test_fraction_normalization_invariant(a, b):
    from math import gcd

    for v in (a + b, a - b, a * b):
        assert v.denominator > 0
        assert gcd(abs(v.numerator), v.denominator) == 1


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(199) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**32)


def test_polynomial_degree_sentinel():
    F = PrimeField(5)
    z = Polynomial.zero(F)
    assert z.degree == -1 and z.is_zero()
    f = Polynomial(F, [1, 2, 0, 0])
    assert f.degree == 1  # trailing zeros trimmed


@given(st.sampled_from([5, 7]), st.data())
@settings(max_examples=40, deadline=None)
def test_poly_divmod_gcd(p, data):
    F = PrimeField(p)
    fc = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5))
    gc = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    f, g = Polynomial(F, fc), Polynomial(F, gc)
    if g.is_zero():
        return
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    assert rem.degree < g.degree
    d = f.gcd(g)
    if not f.is_zero():
        assert (f % d).is_zero() and (g % d).is_zero()
