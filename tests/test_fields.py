import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isogeny_lab import fields, intpoly, quadratic
from isogeny_lab.curves import WeierstrassCurve, division_polynomial
from isogeny_lab.errors import CapabilityError, FieldMismatchError, InternalError
from isogeny_lab.fields import (
    ExtensionField,
    Polynomial,
    PrimeField,
    QQ,
    find_irreducible_ints,
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
    t = F25.element([0, 1])
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
    irreducibles = [Polynomial(Fp, find_irreducible_ints(p, d)) for d in range(1, 6)]
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
        Polynomial(F4, [F4.element([0, 1]), F4.one()]),  # x + t
    ):
        with pytest.raises(CapabilityError, match="odd characteristic"):
            poly_roots(f)


def test_find_irreducible_examples():
    assert find_irreducible_ints(5, 1) == [0, 1]  # x
    assert find_irreducible_ints(5, 2) == [2, 0, 1]  # x^2 + 2
    # oracle for (7, 2): lexicographic scan with exhaustive root check
    found = None
    for a1 in range(7):
        for a0 in range(7):
            if all((x * x + a1 * x + a0) % 7 for x in range(7)):
                found = [a0, a1, 1]
                break
        if found:
            break
    assert find_irreducible_ints(7, 2) == found


@given(st.sampled_from([(2, 3), (3, 2), (5, 2), (7, 2), (2, 4)]))
@settings(max_examples=20, deadline=None)
def test_find_irreducible_is_irreducible(pk):
    p, k = pk
    f = Polynomial(PrimeField(p), find_irreducible_ints(p, k))
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


# --- prime-field pow_mod and gcd on intpoly against the object-layer loops -----


def _pow_mod_by_objects(f, e, m):
    """Square and multiply on Polynomial.__mul__ and __mod__."""
    result = Polynomial(f.field, [1])
    base = f % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result


def _gcd_by_objects(f, g):
    """Euclid on %, made monic."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


@pytest.mark.parametrize("q", [5, 13, 101, 113])
def test_prime_field_pow_mod_and_gcd_match_object_loops(q):
    F = PrimeField(q)
    rng = random.Random(q)

    def rand(deg):
        return Polynomial(F, [rng.randrange(q) for _ in range(deg + 1)])

    zero = Polynomial.zero(F)
    pairs = [(zero, rand(3)), (rand(4), Polynomial(F, [rng.randrange(1, q)]))]
    pairs += [(rand(rng.randrange(12)), rand(rng.randrange(1, 10))) for _ in range(12)]
    for f, m in pairs:
        for e in (0, 1, 2, (q - 1) // 2, q, q * q):
            assert f.pow_mod(e, m) == _pow_mod_by_objects(f, e, m)
        for a, b in ((f, m), (m, f), (f, zero), (zero, zero), (f * m, m * rand(2))):
            assert a.gcd(b) == _gcd_by_objects(a, b)


def _kernel_calls(monkeypatch):
    """Record whether each F_{p^k} pow_mod ran on the packed kernel."""
    taken = []
    orig = intpoly.epowmod
    monkeypatch.setattr(intpoly, "epowmod",
                        lambda *a: taken.append(r := orig(*a)) or r)
    return lambda: [r is not None for r in taken]


@pytest.mark.parametrize("pk", [(2, 2), (3, 2), (5, 3), (7, 4), (11, 2), (41, 2)])
def test_extension_pow_mod_matches_object_loop(pk, monkeypatch):
    """The packed F_{p^k} pow_mod against square and multiply on objects:
    monic and non-monic moduli of degree 0 to 4, bases of degree -1 (zero)
    to deg m + 2, and e in {0, 1, 2, (p^k - 1)/2, p^k}."""
    p, k = pk
    K = ExtensionField(p, k)
    rng = random.Random(p * 10 + k)
    packed = _kernel_calls(monkeypatch)

    def rand(deg, lead=None):
        cs = [K.element([rng.randrange(p) for _ in range(k)]) for _ in range(deg + 1)]
        if deg >= 0:
            cs[-1] = lead or K.element([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(k - 1)])
        return Polynomial(K, cs)

    for n in range(5):
        for lead in (K.one(), None):  # monic, then (almost always) not
            m = rand(n, lead)
            for b in (rand(-1), rand(0), rand(1), rand(n), rand(n + 2)):
                for e in (0, 1, 2, (p**k - 1) // 2, p**k):
                    assert b.pow_mod(e, m) == _pow_mod_by_objects(b, e, m)
    assert all(packed())


@pytest.mark.parametrize("p, packs", [(2**31 - 1, True), (2**31 + 11, False)])
def test_extension_pow_mod_on_each_side_of_the_packing_bound(p, packs, monkeypatch):
    """n k (p-1)^2 + (p-1) < 2^64 at n = k = 2 holds up to p = 2^31 - 1; the
    next prime takes the object loop.  All-(p-1) operands fill the slots."""
    K = ExtensionField(p, 2)
    packed = _kernel_calls(monkeypatch)
    top = K.element([p - 1, p - 1])
    m, b = Polynomial(K, [top] * 3), Polynomial(K, [top] * 2)
    for e in (2, 3, 1000, p**2):
        assert b.pow_mod(e, m) == _pow_mod_by_objects(b, e, m)
    assert packed() == [packs] * 4


@pytest.mark.parametrize("pk", [(3, 2), (5, 2), (3, 3), (7, 2), (5, 3), (3, 4)])
def test_extension_poly_roots_match_brute_force(pk):
    """poly_roots over F_{p^k} against evaluation at every element, for 40
    random polynomials: half with planted roots, some with F_p coefficients."""
    p, k = pk
    K = ExtensionField(p, k)
    elements = list(K.iter_elements())
    rng = random.Random(p**k)
    for i in range(40):
        f = Polynomial(K, [K.one()])
        for _ in range(rng.randrange(3) if i % 2 else 0):
            f = f * Polynomial(K, [-rng.choice(elements), K.one()])
        coeffs = [rng.choice(elements[:p] if i % 4 == 3 else elements)
                  for _ in range(rng.randrange(1, 5))]
        f = f * Polynomial(K, coeffs + [K.one()])
        assert poly_roots(f) == {a for a in elements if f(a) == K.zero()}


@pytest.mark.parametrize("field", [PrimeField(7), ExtensionField(7, 2)], ids=["F7", "F49"])
def test_pow_mod_rejects_a_negative_exponent(field):
    x = Polynomial.x(field)
    with pytest.raises(ValueError):
        x.pow_mod(-1, x * x + Polynomial(field, [field.one()]))


@pytest.mark.parametrize("q", [5, 13, 101, 113])
def test_prime_field_poly_roots_equal_roots_in_fq(q):
    F = PrimeField(q)
    rng = random.Random(7 * q)
    for _ in range(30):
        roots = [rng.randrange(q) for _ in range(rng.randrange(0, 6))]
        f = Polynomial(F, intpoly.pfrom_roots(roots, q)) * Polynomial(
            F, [rng.randrange(q) for _ in range(rng.randrange(1, 5))] + [rng.randrange(1, q)])
        got = sorted(r.rep for r in poly_roots(f))
        assert got == intpoly.roots_in_fq(f.int_coeffs(), q)


# --- F_{p^k} element arithmetic against the intpoly kernels -----------------------


def _ext_elements(K, count=None, seed=0):
    """Every element of K, or `count` seeded random ones."""
    if count is None:
        return list(K.iter_elements())
    rng = random.Random(seed)
    return [K.element([rng.randrange(K.p) for _ in range(K.k)]) for _ in range(count)]


def _arithmetic_mismatches(K, elements, pairs):
    """(what, a, b) for each product, inverse or quadratic character of K's
    elements that disagrees with the intpoly kernels: emul for a * b, einv
    (and a * a^-1 = 1) for the inverse of a nonzero a, which must not raise,
    and a^((p^k - 1)/2) = 1 by ppowmod for is_square.  Zero's inverse must
    raise ZeroDivisionError."""
    p, m = K.p, list(K.modulus)
    pad = lambda f: tuple(f + [0] * (K.k - len(f)))  # noqa: E731
    half = (K.size() - 1) // 2
    bad = []
    for a, b in pairs:
        if (a * b).rep != pad(intpoly.emul(list(a.rep), list(b.rep), m, p)):
            bad.append(("mul", a, b))
    for a in elements:
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        try:
            inv = a.inverse()
        except ValueError:  # pow(N(a), -1, p) with N(a) = 0 for a nonzero a
            inv = K.zero()
        if inv.rep != pad(intpoly.einv(intpoly.trim(list(a.rep)), m, p)) or a * inv != K.one():
            bad.append(("inverse", a, None))
        if K.is_square(a) != (intpoly.ppowmod(list(a.rep), half, m, p) == [1]):
            bad.append(("is_square", a, None))
    return bad


@pytest.mark.parametrize("pk", [(5, 2), (7, 2), (3, 4)])
def test_extension_arithmetic_matches_intpoly_exhaustively(pk):
    """Every product, inverse and quadratic character of F_{5^2}, F_{7^2}
    and F_{3^4}, and the zero inverse's ZeroDivisionError."""
    K = ExtensionField(*pk)
    els = _ext_elements(K)
    assert len(els) == K.size()
    assert _arithmetic_mismatches(K, els, [(a, b) for a in els for b in els]) == []


@pytest.mark.parametrize("pk", [(41, 2), (7, 4), (3, 5)])
def test_extension_arithmetic_matches_intpoly_on_random_elements(pk):
    """200 seeded random elements of F_{41^2}, F_{7^4} and F_{3^5}, each
    multiplied by the next and by itself, with zero added."""
    K = ExtensionField(*pk)
    els = [K.zero()] + _ext_elements(K, 200, seed=pk[0] * 10 + pk[1])
    pairs = list(zip(els, els[1:] + els[:1])) + [(a, a) for a in els]
    assert _arithmetic_mismatches(K, els, pairs) == []


def test_inverse_oracle_catches_a_corrupted_frobenius_column(monkeypatch):
    """The oracle's self-check: with one Frobenius image (t^1)^(p^2) of
    F_{7^4} changed, the Itoh-Tsujii inverse goes wrong and is caught."""
    p, k = 7, 4
    ExtensionField(p, k)
    mod, fold, frob = fields._EXT_TABLES[p, k]
    col = tuple((c + 1) % p for c in frob[1][1])
    bad = frob[:1] + ((frob[1][0], col) + frob[1][2:],) + frob[2:]
    monkeypatch.setitem(fields._EXT_TABLES, (p, k), (mod, fold, bad))
    K = ExtensionField(p, k)
    els = _ext_elements(K, 50, seed=1)
    assert any(what == "inverse" for what, _, _ in _arithmetic_mismatches(K, els, []))


def test_norm_parts_are_the_powers_r_minus_1_and_r():
    """(a^(r - 1), N(a)) with N(a) = a^r in F_p, r = (p^k - 1)/(p - 1), for
    every a of F_{3^4}."""
    K = ExtensionField(3, 4)
    r = (K.size() - 1) // (K.p - 1)
    for a in K.iter_elements():
        conj, n = K._norm_parts(a)
        assert conj == a ** (r - 1)
        assert K.from_base_int(n) == a**r


@pytest.mark.parametrize("k", [2, 3])
def test_every_element_of_a_binary_extension_is_a_square(k):
    """In F_{2^k}, a = (a^(2^(k-1)))^2 for every a, and is_square says so."""
    K = ExtensionField(2, k)
    for a in K.iter_elements():
        root = a ** (K.size() // 2)
        assert root * root == a
        assert K.is_square(a)


# --- square roots, Frobenius, conjugate roots and gcd on the per-field tables ---

# (p, k) and the number of seeded random elements, None for every element
_TABLE_FIELDS = [pytest.param(pk, count, id=f"{pk[0]}^{pk[1]}") for pk, count in
                 [((5, 2), None), ((7, 2), None), ((3, 4), None), ((7, 4), None),
                  ((41, 2), 300), ((3, 5), 120)]]


def _corrupted_field(monkeypatch, p, k):
    """F_{p^k} with the Frobenius image t^p of t changed in its constant
    coefficient, and a cold non-square cache for it."""
    ExtensionField(p, k)
    mod, fold, frob = fields._EXT_TABLES[p, k]
    col = ((frob[0][1][0] + 1) % p,) + frob[0][1][1:]
    bad = ((frob[0][0], col) + frob[0][2:],) + frob[1:]
    monkeypatch.setitem(fields._EXT_TABLES, (p, k), (mod, fold, bad))
    monkeypatch.setattr(fields, "_NONSQUARES", {})
    return ExtensionField(p, k)


def _sqrt_mismatches(K, elements):
    """The elements whose K.sqrt fails an oracle: None exactly on the
    non-squares, read off a^((p^k - 1)/2) by ppowmod; a root that squares
    back; and `_tonelli_generic`'s root up to sign.  For k = 2 sqrt goes
    through the norm and the reference is independent of it; for other k
    sqrt is `_tonelli_generic`, held by the character and the squaring.  A
    call that raises is a mismatch too."""
    p, m, half = K.p, list(K.modulus), (K.size() - 1) // 2
    bad = []
    for a in elements:
        square = a.is_zero() or intpoly.ppowmod(list(a.rep), half, m, p) == [1]
        try:
            r, ref = K.sqrt(a), fields._tonelli_generic(K, a)
        except Exception:
            bad.append(a)
            continue
        if (r is None) == square or (r is not None and (r * r != a or ref not in (r, -r))):
            bad.append(a)
    return bad


def _frobenius_mismatches(K, elements):
    """(a, i) where the table's Frob^i(a), 0 < i < k, is not a^(p^i) by
    square and multiply."""
    return [(a, i) for a in elements for i in range(1, K.k)
            if K._frobenius(a.rep, i) != (a ** K.p**i).rep]


def _irreducibles(p, d, count=None, seed=0):
    """Every monic irreducible of degree d over F_p, or `count` seeded ones."""
    out = [list(c) + [1] for c in itertools.product(range(p), repeat=d)
           if intpoly.is_irreducible(list(c) + [1], p)]
    return out if count is None else random.Random(seed).sample(out, count)


def _conjugate_mismatches(K, factors):
    """The F_p-irreducible factors h, of degree dividing k, whose roots from
    `_roots_from_base_factors` (one split root and its conjugates when
    deg h >= 3) are not deg h distinct zeros of h equal to the roots of a
    full split of h over K."""
    bad = []
    for h in factors:
        hK = Polynomial(K, h)
        try:
            got = fields._roots_from_base_factors([h], K)
            full = fields._roots_large_field(hK, K)
        except Exception:
            bad.append(h)
            continue
        if (len(set(got)) != len(h) - 1 or any(hK(r) for r in got)
                or sorted(got, key=_coeffs) != sorted(full, key=_coeffs)):
            bad.append(h)
    return bad


def _coeffs(e):
    return e.coeff_list()


def _euclid_by_powers(a, b):
    """Monic gcd by Euclid on Polynomial objects, each leading coefficient
    inverted as c^(p^k - 2) by square and multiply, not through the norm."""
    e = a.field.size() - 2
    while not b.is_zero():
        inv, r = b.leading() ** e, list(a.coeffs)
        while len(r) >= len(b.coeffs):
            c, shift = r[-1] * inv, len(r) - len(b.coeffs)
            for i, bc in enumerate(b.coeffs):
                r[shift + i] = r[shift + i] - c * bc
            while r and r[-1].is_zero():
                r.pop()
        a, b = b, Polynomial(a.field, r)
    return a if a.is_zero() else a * (a.leading() ** e)


def _gcd_mismatches(K, count, seed):
    """Seeded pairs (a, b) of polynomials over K, with and without a common
    factor, whose tuple gcd differs from `_euclid_by_powers`."""
    rng = random.Random(seed)

    def rand(deg):
        return Polynomial(K, [K.element([rng.randrange(K.p) for _ in range(K.k)])
                              for _ in range(deg + 1)])

    zero, bad = Polynomial.zero(K), []
    for _ in range(count):
        f, g, m = rand(rng.randrange(6)), rand(rng.randrange(1, 5)), rand(rng.randrange(1, 4))
        for a, b in ((f, g), (g, f), (f * m, g * m), (f, zero), (zero, zero)):
            try:
                ok = a.gcd(b) == _euclid_by_powers(a, b)
            except Exception:
                ok = False
            if not ok:
                bad.append((a, b))
    return bad


@pytest.mark.parametrize("pk,count", _TABLE_FIELDS)
def test_square_root_matches_tonelli_and_the_character(pk, count):
    """Every element of F_{5^2}, F_{7^2}, F_{3^4} and F_{7^4}, and seeded
    ones of F_{41^2} and F_{3^5}."""
    K = ExtensionField(*pk)
    assert _sqrt_mismatches(K, _ext_elements(K, count, seed=pk[0] + pk[1])) == []


@pytest.mark.parametrize("pk,count", _TABLE_FIELDS)
def test_table_frobenius_matches_the_p_power(pk, count):
    K = ExtensionField(*pk)
    assert _frobenius_mismatches(K, _ext_elements(K, count, seed=pk[0] + pk[1])) == []


@pytest.mark.parametrize("pk,count", [((3, 4), None), ((7, 4), 8), ((3, 5), 12)],
                         ids=["3^4", "7^4", "3^5"])
def test_conjugate_roots_match_a_full_split(pk, count):
    """The factors of degree d >= 2 dividing k: all of them over F_3 for
    F_{3^4}, seeded ones of degree 4 (and every quadratic) for F_{7^4}, and
    seeded quintics for F_{3^5}."""
    p, k = pk
    K = ExtensionField(p, k)
    factors = [h for d in range(2, k + 1) if k % d == 0
               for h in _irreducibles(p, d, None if d == 2 else count, seed=p * d)]
    assert _conjugate_mismatches(K, factors) == []


@pytest.mark.parametrize("pk,count", _TABLE_FIELDS)
def test_tuple_gcd_matches_object_euclid(pk, count):
    K = ExtensionField(*pk)
    assert _gcd_mismatches(K, 12, seed=pk[0] * pk[1]) == []


@pytest.mark.parametrize("pk", [(7, 2), (3, 4)], ids=["7^2", "3^4"])
def test_table_oracles_catch_a_corrupted_frobenius_column(monkeypatch, pk):
    """With t^p changed in the table, the square root, the Frobenius, the
    gcd and (for F_{3^4}; F_{7^2} has no factor of degree >= 3) the
    conjugate roots each fail their oracle."""
    K = _corrupted_field(monkeypatch, *pk)
    els = _ext_elements(K)
    assert _sqrt_mismatches(K, els)
    assert _frobenius_mismatches(K, els)
    assert _gcd_mismatches(K, 12, seed=1)
    if K.k >= 3:
        assert _conjugate_mismatches(K, _irreducibles(K.p, K.k))


# --- quadratic factors over F_p by the quadratic formula ---


@pytest.mark.parametrize("pk,count", [((5, 2), None), ((7, 2), None), ((3, 4), None),
                                      ((7, 4), None), ((41, 2), 200), ((3, 6), None)],
                         ids=["5^2", "7^2", "3^4", "7^4", "41^2", "3^6"])
def test_quadratic_formula_roots_match_a_full_split(pk, count):
    """Every monic irreducible quadratic over F_p (200 seeded ones over F_41;
    F_3 has only three), solved by the formula, against a full split."""
    p, k = pk
    K = ExtensionField(p, k)
    assert _conjugate_mismatches(K, _irreducibles(p, 2, count, seed=p * k)) == []


@pytest.mark.parametrize("pk", [(7, 2), (3, 4)], ids=["7^2", "3^4"])
def test_a_corrupted_nonresidue_root_raises(monkeypatch, pk):
    """With delta + 1 in place of delta, each quadratic's roots fail their
    check in the factor, and so (for k = 2, where sqrt reads delta) does the
    square root of a non-residue of F_p."""
    p, k = pk
    K = ExtensionField(p, k)
    c0, delta = quadratic.nonresidue_root(K)
    bad = ((delta[0] + 1) % p,) + delta[1:]
    monkeypatch.setitem(quadratic._NONRESIDUE_ROOTS, (p, K.modulus), (c0, bad))
    for h in _irreducibles(p, 2):
        with pytest.raises(InternalError):
            fields._roots_from_base_factors([h], K)
    if k == 2:
        with pytest.raises(InternalError):
            K.sqrt(K.from_base_int(c0))
