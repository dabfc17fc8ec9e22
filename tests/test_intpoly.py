import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isogeny_lab import intpoly
from isogeny_lab.fields import ExtensionField, PrimeField, Polynomial, QQ
from oracles import peval


def _random_squarefree(rng, q, count):
    out = []
    while len(out) < count:
        d = rng.randrange(1, 9)
        f = [rng.randrange(q) for _ in range(d)] + [1]
        if intpoly.deg(intpoly.pgcd(f, intpoly.pderiv(f, q), q)) == 0:
            out.append(f)
    return out


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_factor_squarefree_against_brute_force(q):
    rng = random.Random(q)
    for f in _random_squarefree(rng, q, 60):
        factors = intpoly.factor_squarefree(f, q)
        prod = [1]
        for g in factors:
            prod = intpoly.pmul(prod, g, q)
        assert prod == f
        assert all(intpoly.is_irreducible(g, q) for g in factors)
        degrees = [intpoly.deg(g) for g in factors]
        assert degrees == sorted(degrees)
        assert len({tuple(g) for g in factors}) == len(factors)
        # the linear factors are exactly the roots found by evaluation
        brute_roots = sorted(x for x in range(q) if peval(f, x, q) == 0)
        assert sorted((-g[0]) % q for g in factors if len(g) == 2) == brute_roots


@pytest.mark.parametrize("q", [5, 13, 101])
def test_pfrom_roots_is_the_product_of_linear_factors(q):
    rng = random.Random(q)
    lists = [[], [0], [0, 0, 0], [q - 1, 1, q - 1]]
    lists += [[rng.randrange(q) for _ in range(rng.randrange(1, 9))] for _ in range(30)]
    lists += [rng.choices([0, 1, q - 1], k=rng.randrange(1, 7)) for _ in range(10)]
    for roots in lists:
        want = [1]
        for r in roots:
            want = intpoly.pmul(want, [(-r) % q, 1], q)
        assert intpoly.pfrom_roots(roots, q) == want


def test_power_sums_over_fq_ints_and_elements():
    rng = random.Random(1)
    for q in (5, 7, 13, 101):
        field = PrimeField(q)
        for _ in range(20):
            roots = [rng.randrange(q) for _ in range(rng.randrange(1, 6))]
            upto = len(roots) + 2
            direct = [sum(pow(r, k, q) for r in roots) % q for k in range(1, upto + 1)]
            h = intpoly.pfrom_roots(roots, q)
            assert [p % q for p in intpoly.power_sums(h, upto)] == direct
            h_obj = Polynomial(field, [1])
            for r in roots:
                h_obj = h_obj * Polynomial(field, [-r, 1])
            got = intpoly.power_sums(h_obj.coeffs, upto)
            assert got == [field.element(v) for v in direct]


def test_power_sums_over_q():
    rng = random.Random(2)
    for _ in range(20):
        roots = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                 for _ in range(rng.randrange(1, 6))]
        upto = len(roots) + 2
        h = Polynomial(QQ, [1])
        for r in roots:
            h = h * Polynomial(QQ, [-r, 1])
        direct = [sum(r**k for r in roots) for k in range(1, upto + 1)]
        assert intpoly.power_sums(h.coeffs, upto) == direct


def _reduced(f, q):
    return intpoly.trim([c % q for c in f])


def _check_division(f, g, q):
    """quot and rem are reduced and trimmed, deg rem < deg g and f = quot g + rem
    coefficientwise mod q: this pins rem as the remainder of f mod g."""
    quot, rem = intpoly.pdivmod(f, g, q)
    for p in (quot, rem):
        assert all(0 <= c < q for c in p) and (not p or p[-1])
    assert len(rem) < len(g)
    assert intpoly.padd(intpoly.pmul(quot, g, q), rem, q) == _reduced(f, q)
    return quot, rem


def test_pdivmod_reduces_unreduced_input():
    g = [1, 0, 1]
    assert intpoly.pmod([200], g, 113) == [87]
    assert intpoly.pmod([5, 0], g, 113) == [5]
    assert intpoly.pmod([-3, 1], g, 113) == [110, 1]
    assert intpoly.pmod([226, -113], g, 113) == []
    # the loop stops with low coefficients it never subtracted from
    assert intpoly.pdivmod([300, -1, 0, 1], [0, 0, 1], 113) == ([0, 1], [74, 112])
    rng = random.Random(9)
    for q in (5, 13, 113):
        for _ in range(300):
            g = [rng.randrange(q) for _ in range(rng.randrange(0, 5))] + [rng.randrange(1, q)]
            f = [rng.randrange(-3 * q, 3 * q) for _ in range(rng.randrange(0, len(g) + 5))]
            if f and rng.random() < 0.3:
                f[-1] = q * rng.randrange(-2, 3)  # a leading coefficient that is 0 mod q
            assert _check_division(f, g, q) == intpoly.pdivmod(_reduced(f, q), g, q)


# --- root finders: roots_in_fq, factors_of_degree, equal_degree_split ---------

_ROOT_QS = [3, 5, 7, 11, 13]
_DEGREES = [1, 2, 3, 4, 6]


def _brute_irreducible(f, q):
    """No monic factor of degree 1..deg(f)//2, by trial division by all of them."""
    for k in range(1, intpoly.deg(f) // 2 + 1):
        for tail in itertools.product(range(q), repeat=k):
            if not intpoly.pmod(f, list(tail) + [1], q):
                return False
    return True


def _irreducible_pool(rng, q, d, size=3):
    """Up to `size` distinct monic irreducibles of degree d, found by brute force."""
    pool = set()
    for _ in range(60 * d):
        f = [rng.randrange(q) for _ in range(d)] + [1]
        if _brute_irreducible(f, q):
            pool.add(tuple(f))
            if len(pool) == size:
                break
    return sorted(pool)


def _product(factors, q, scale=1):
    out = [scale % q]
    for g in factors:
        out = intpoly.pmul(out, list(g), q)
    return out


def _brute_roots(f, q):
    return [x for x in range(q) if peval(f, x, q) == 0]


@pytest.mark.parametrize("q", _ROOT_QS)
def test_roots_in_fq_against_brute_force(q):
    rng = random.Random(100 + q)
    rootless = _irreducible_pool(rng, q, 2) + _irreducible_pool(rng, q, 3)
    for _ in range(40):
        a, b = rng.sample(range(q), 2)
        h = [rng.choice(rootless) for _ in range(rng.randrange(0, 3))]
        scale = rng.randrange(1, q)
        cases = {
            # exactly two rational roots (the quadratic formula's case)
            "two": [(-a % q, 1), (-b % q, 1)] + h,
            # repeated rational and rootless factors
            "repeated": [(-a % q, 1)] * 2 + [(-b % q, 1)] * 3 + h + h,
            # no rational root at all
            "none": h + h + [rng.choice(rootless)],
        }
        for kind, factors in cases.items():
            f = _product(factors, q, scale)
            got = intpoly.roots_in_fq(f, q)
            assert got == _brute_roots(f, q), (kind, f)
            assert len(got) == {"two": 2, "repeated": 2, "none": 0}[kind]
    # random polynomials of every small degree, squarefree or not
    for _ in range(100):
        f = intpoly.trim([rng.randrange(q) for _ in range(rng.randrange(1, 10))])
        if f:
            assert intpoly.roots_in_fq(f, q) == _brute_roots(f, q)


@pytest.mark.parametrize("q", _ROOT_QS)
def test_factors_of_degree_against_factor_squarefree(q):
    rng = random.Random(200 + q)
    pools = {d: _irreducible_pool(rng, q, d) for d in _DEGREES}
    for _ in range(12):
        # distinct irreducibles of mixed degrees, some of them squared
        chosen = set()
        for d in _DEGREES:
            chosen.update(rng.sample(pools[d], rng.randrange(0, min(2, len(pools[d])) + 1)))
        chosen = sorted(chosen)
        squared = [g for g in chosen if rng.random() < 0.3]
        f = _product(chosen + squared, q, rng.randrange(1, q))
        if intpoly.deg(f) <= 0:
            continue
        radical = _product(chosen, q)
        oracle = intpoly.factor_squarefree(radical, q)
        for d in _DEGREES:
            got = intpoly.factors_of_degree(f, d, q)
            want = sorted(g for g in chosen if len(g) == d + 1)
            assert sorted(tuple(g) for g in got) == want, (d, f)
            assert sorted(tuple(g) for g in oracle if intpoly.deg(g) == d) == want
            # nothing of a degree properly dividing d slips through
            assert all(intpoly.deg(g) == d for g in got)


@pytest.mark.parametrize("q", _ROOT_QS)
def test_equal_degree_split_against_brute_force(q):
    rng = random.Random(300 + q)
    for d in (1, 2, 3):
        pool = list(range(q)) if d == 1 else _irreducible_pool(rng, q, d, size=4)
        for _ in range(15):
            k = rng.randrange(1, min(len(pool), 5) + 1)
            if d == 1:
                # linear factors from brute-force roots; k = 2 is the
                # quadratic formula's case
                factors = sorted((-r % q, 1) for r in rng.sample(pool, k))
            else:
                factors = sorted(rng.sample(pool, k))
            f = _product(factors, q, rng.randrange(1, q))
            got = intpoly.equal_degree_split(f, d, q)
            assert sorted(tuple(g) for g in got) == factors
            assert all(_brute_irreducible(g, q) for g in got)


# --- ppowmod: the packed square-and-multiply against schoolbook steps ---------

# primes at the edge of the packed step's bound n^3 (q-1)^4 < 2^64: at
# q = 23167 it holds up to deg m = 4 (at 99.9 % of 2^64) and fails from
# deg m = 5 on; at q = 2^31 - 1 it fails for every deg m >= 2
_EDGE_Q = 23167
_WIDE_Q = 2**31 - 1


def _powmod_schoolbook(base, e, m, q):
    """base**e mod m by square and multiply, every step pmod(pmul(.))."""
    result = [1]
    b = intpoly.pmod(base, m, q)
    while e:
        if e & 1:
            result = intpoly.pmod(intpoly.pmul(result, b, q), m, q)
        b = intpoly.pmod(intpoly.pmul(b, b, q), m, q)
        e >>= 1
    return result


def _modulus(rng, q, n, monic):
    return [rng.randrange(q) for _ in range(n)] + [1 if monic else rng.randrange(2, q)]


@pytest.mark.parametrize("q", [3, 5, 7, 113])
def test_ppowmod_matches_schoolbook_steps(q):
    rng = random.Random(500 + q)
    for n in range(31):
        for monic in (True, False):
            m = _modulus(rng, q, n, monic)
            d = rng.randrange(1, 4)
            for e in (0, 1, 2, q**d, (q**d - 1) // 2, rng.randrange(3, 10**5)):
                for length in (0, rng.randrange(1, n + 2), n + 1 + rng.randrange(1, 8)):
                    base = [rng.randrange(q) for _ in range(length)]
                    assert intpoly.ppowmod(base, e, m, q) == _powmod_schoolbook(base, e, m, q)


def test_ppowmod_small_exponents_are_repeated_products():
    rng = random.Random(7)
    q = 113
    for n in (2, 5, 24):
        m = _modulus(rng, q, n, monic=False)
        base = [rng.randrange(q) for _ in range(n + 3)]
        acc = [1]
        for e in range(40):
            assert intpoly.ppowmod(base, e, m, q) == acc
            acc = intpoly.pmod(intpoly.pmul(acc, base, q), m, q)


@pytest.mark.parametrize("q", [_EDGE_Q, _WIDE_Q])
def test_ppowmod_at_the_slot_bound(q, monkeypatch):
    """Both sides of the packed step's bound, with all-(q-1) operands; the
    packed step is taken exactly where n^3 (q-1)^4 < 2^64."""
    packed = []
    orig = intpoly._packed_mulmod
    monkeypatch.setattr(intpoly, "_packed_mulmod",
                        lambda m, q: packed.append(len(m) - 1) or orig(m, q))
    rng = random.Random(11)
    for n in range(2, 9):
        full = [q - 1] * (n + 1)
        for m, base in ((full, full[:n]), (_modulus(rng, q, n, False), full),
                        (_modulus(rng, q, n, True), [rng.randrange(q) for _ in range(2 * n)])):
            for e in (1, 2, q, (q**2 - 1) // 2):
                assert intpoly.ppowmod(base, e, m, q) == _powmod_schoolbook(base, e, m, q)
    assert sorted(set(packed)) == ([2, 3, 4] if q == _EDGE_Q else [])


@given(
    st.sampled_from([3, 5, 7, 11, 113, _EDGE_Q, _WIDE_Q]),
    st.lists(st.integers(0, 2**40), max_size=14),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=14),
    st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_ppowmod_property(q, base, m, e):
    base = [c % q for c in base]
    m = [c % q for c in m]
    if m[-1] == 0:
        m[-1] = 1
    assert intpoly.ppowmod(base, e, m, q) == _powmod_schoolbook(base, e, m, q)


@pytest.mark.parametrize("p, k", [(5, 2), (7, 4), (3, 3)])
def test_extension_power_is_repeated_multiplication(p, k):
    F = ExtensionField(p, k)
    rng = random.Random(p * 10 + k)
    size = p**k
    elements = [F.element([rng.randrange(p) for _ in range(k)]) for _ in range(6)]
    elements.append(F.element([0] * (k - 1) + [1]))
    for a in elements:
        acc = F.one()
        for e in range(min(size, 400) + 2):
            assert a**e == acc
            acc = acc * a
        assert a ** (size - 1) == (F.one() if not a.is_zero() else F.zero())
        assert a**size == a


def test_ppowmod_rejects_a_negative_exponent():
    # -1 >> 1 == -1, so square and multiply would never end
    with pytest.raises(ValueError):
        intpoly.ppowmod([0, 1], -1, [1, 0, 1], 7)
