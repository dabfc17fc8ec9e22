import random
from fractions import Fraction

import pytest

from isogeny_lab import intpoly
from isogeny_lab.fields import PrimeField, Polynomial, QQ


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
        brute_roots = sorted(x for x in range(q) if intpoly.peval(f, x, q) == 0)
        assert sorted((-g[0]) % q for g in factors if len(g) == 2) == brute_roots


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


def test_peval_deriv_matches_pderiv_and_peval():
    rng = random.Random(3)
    for q in (5, 13, 101):
        for _ in range(40):
            f = intpoly.trim([rng.randrange(q) for _ in range(rng.randrange(0, 10))])
            for x in (0, 1, q - 1, rng.randrange(q)):
                want = (intpoly.peval(f, x, q), intpoly.peval(intpoly.pderiv(f, q), x, q))
                assert intpoly.peval_deriv(f, x, q) == want
