import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isogeny_lab import graphs as G
from isogeny_lab.curves import (
    WeierstrassCurve,
    division_polynomial,
    torsion_basis,
)
from isogeny_lab.fields import Polynomial, PrimeField, QQ, poly_roots
from isogeny_lab.isogenies import (
    family_e3,
    kernel_polynomial_from_point,
    quotient_by_kernel_polynomial,
    velu_quotient,
)
from oracles import (
    CurveIsomorphism,
    apply_to_point,
    curve_order,
    curves_isomorphic,
    dual_kernel_polynomial,
    short_form,
)


def affine_points(curve, cap=200):
    pts = []
    for x in curve.field.iter_elements():
        for y in curve.y_candidates(x):
            pts.append(curve.point(x, y))
            if len(pts) >= cap:
                return pts
    return pts


def test_family_coefficients_at_2_1():
    e3, p, e3p = family_e3(QQ, 2, 1)
    assert [c for c in e3.coefficients()] == [1, 0, 2, 0, 0]
    assert [c for c in e3p.coefficients()] == [1, 0, 2, -10, -30]
    assert p.x == 0 and p.y == 0  # (0,0) satisfies the equation
    assert p.has_order(3)


def test_family_quotient_is_the_stated_curve_over_q():
    e3, p, e3p = family_e3(QQ, 2, 1)
    phi = velu_quotient(e3, p, 3)
    assert phi.codomain == e3p
    assert phi.codomain.j_invariant() == e3p.j_invariant()


def test_family_singular_parameters_rejected():
    with pytest.raises(ValueError):
        family_e3(QQ, 0, 1)  # v = 0 is singular
    F31 = PrimeField(31)
    # w^3 = 27 v picks out the other singular locus
    with pytest.raises(ValueError):
        family_e3(F31, pow(3, -3, 31), 1)


def test_family_universal_claim_at_scale():
    # 100 random (v, w) over random primes: (0,0) has order 3 and the Velu
    # quotient is isomorphic to the stated second family member
    rng = random.Random(7)
    primes = [5, 7, 11, 13, 17, 19, 23, 29]
    done = 0
    while done < 100:
        q = rng.choice(primes)
        F = PrimeField(q)
        v, w = rng.randrange(1, q), rng.randrange(q)
        if (w**3 - 27 * v) % q == 0:
            continue
        try:
            e3, p, e3p = family_e3(F, v, w)
        except ValueError:
            continue
        assert p.has_order(3)
        phi = velu_quotient(e3, p, 3)
        assert phi.codomain == e3p  # Velu lands exactly on the family formula
        done += 1


# Short curves (q, a4, a6, ell), two per ell: the first has rational
# ell-torsion, the second full ell-torsion over F_{q^2} only.
_TORSION_CURVES = [
    (5, 1, 0, 2), (5, 0, 1, 2), (7, 0, 2, 3), (5, 0, 1, 3),
    (31, 0, 11, 5), (19, 1, 0, 5), (43, 0, 3, 7), (13, 0, 4, 7),
]


@pytest.fixture(scope="module")
def velu_cases():
    """(phi, kernel generator, sample points of the domain): the quotients
    by the lines of P, Q and P + Q for a torsion basis of each curve above,
    over F_q or F_{q^2}, and the family over Q at (v, w) = (-1, 1), which
    has the rational point R = (1, 1), by its 3-torsion point (0, 0)."""
    cases = []
    for i, (q, a4, a6, ell) in enumerate(_TORSION_CURVES):
        basis = torsion_basis(WeierstrassCurve(PrimeField(q), 0, 0, 0, a4, a6), ell)
        assert basis.k == 1 + i % 2
        pts = affine_points(basis.curve, cap=40)
        for gen in (basis.P, basis.Q, basis.P + basis.Q):
            cases.append((velu_quotient(basis.curve, gen, ell), gen, pts))
    e3, p, _ = family_e3(QQ, -1, 1)
    r = e3.point(1, 1)
    cases.append((velu_quotient(e3, p, 3), p, [r, 2 * r, -r, r + p, 3 * r]))
    return cases


def test_velu_kernel_collapses_and_translation_invariance(velu_cases):
    F13 = PrimeField(13)
    e3, p, _ = family_e3(F13, 2, 1)
    phi = velu_quotient(e3, p, 3)
    assert phi.degree == 3
    assert phi(p).infinity
    assert phi(2 * p).infinity
    for Q in affine_points(e3, cap=10):
        assert phi(Q + p) == phi(Q)
    for phi, gen, pts in velu_cases:
        assert all(phi(k * gen).infinity for k in range(1, phi.degree))
        for Q in pts[:5]:
            assert phi(Q + gen) == phi(Q)


def test_velu_homomorphism_twenty_samples(velu_cases):
    F13 = PrimeField(13)
    e3, p, _ = family_e3(F13, 2, 1)
    velu_cases = [(velu_quotient(e3, p, 3), p, affine_points(e3)), *velu_cases]
    assert {phi.degree for phi, _, _ in velu_cases} == {2, 3, 5, 7}
    rng = random.Random(0)
    for phi, _, pts in velu_cases:
        for _ in range(20):
            A, B = rng.choice(pts), rng.choice(pts)
            img = phi(A + B)
            assert img.infinity or phi.codomain.contains(img.x, img.y)
            assert img == phi(A) + phi(B)


def test_int_velu_is_the_polynomial_instance_mod_q(velu_cases):
    """velu_codomain_int and velu_x_maps_int equal quotient_by_kernel_polynomial
    reduced mod q, on short and long curves, and so does the quotient that
    enumerate_pointed_lines stores with each line."""
    prime = [(phi, gen) for phi, gen, _ in velu_cases if isinstance(phi.domain.field, PrimeField)]
    assert {phi.degree for phi, _ in prime} == {2, 3, 5, 7}
    for phi, gen in prime:
        F, ell = phi.domain.field, phi.degree
        iso = CurveIsomorphism(F, 2, 3, 4, 5)
        long_curve = iso.apply_to_curve(phi.domain)
        for E, P in [(phi.domain, gen), (long_curve, apply_to_point(iso, gen, long_curve))]:
            h = kernel_polynomial_from_point(P, ell)
            want = quotient_by_kernel_polynomial(E, h, ell)
            coeffs, kappa = [c.to_int() for c in E.coefficients()], h.int_coeffs()
            assert list(G.velu_codomain_int(coeffs, kappa, ell, F.p)) == [
                c.to_int() for c in want.codomain.coefficients()]
            num, den = G.velu_x_maps_int(coeffs, kappa, ell, F.p)
            assert (num, den) == (want.num.int_coeffs(), want.den.int_coeffs())
    lines = 0
    for q, ell in [(13, 2), (13, 3), (31, 5), (29, 7)]:
        F, tab = PrimeField(q), G.fq_tables(q)
        orders = tab.orders()
        for A, B in itertools.product(range(q), repeat=2):
            N = orders[A][B]
            if not N or N % ell:
                continue
            curve_key = G.short_class_key(A, B, q, tab)
            for w, _, key, cod in G.enumerate_pointed_lines(A, B, N, ell, q, tab, {}, curve_key):
                want = quotient_by_kernel_polynomial(
                    WeierstrassCurve(F, 0, 0, 0, A, B), Polynomial(F, list(w)), ell
                ).codomain
                assert list(cod) == [c.to_int() for c in want.coefficients()]
                assert key[1] == want.j_invariant().to_int()
                lines += 1
    assert lines > 0


def test_velu_fiber_sizes():
    F13 = PrimeField(13)
    e3, p, _ = family_e3(F13, 2, 1)
    phi = velu_quotient(e3, p, 3)
    images = {}
    for Q in affine_points(e3) + [e3.infinity()]:
        img = phi(Q)
        key = None if img.infinity else (img.x, img.y)
        images.setdefault(key, 0)
        images[key] += 1
    assert all(v == 3 for v in images.values())
    assert curve_order(e3) == curve_order(phi.codomain)


def test_velu_requires_prime_order_kernel():
    F13 = PrimeField(13)
    e3, p, _ = family_e3(F13, 2, 1)
    with pytest.raises(ValueError):
        velu_quotient(e3, p, 5)
    with pytest.raises(ValueError):
        velu_quotient(e3, e3.infinity(), 3)


def test_two_isogeny():
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 1, 0)
    P = E.point(F5.element(2), F5.element(0))
    phi = velu_quotient(E, P, 2)
    assert phi.degree == 2
    assert phi(P).infinity
    for Q in affine_points(E):
        img = phi(Q)
        assert img.infinity or phi.codomain.contains(img.x, img.y)
    assert curve_order(phi.codomain) == 4


def test_kernel_polynomial_from_point():
    F13 = PrimeField(13)
    e3, p, _ = family_e3(F13, 2, 1)
    h = kernel_polynomial_from_point(p, 3)
    assert h.int_coeffs() == [0, 1]  # x - x(P) with x(P) = 0
    psi3 = division_polynomial(e3, 3)
    assert (psi3 % h).is_zero()


def test_dual_kernel_polynomial_divides_and_quotients_back():
    F13 = PrimeField(13)
    e3, p, _ = family_e3(F13, 2, 1)
    phi = velu_quotient(e3, p, 3)
    w = dual_kernel_polynomial(phi)
    assert w.degree == 1
    psi3_cod = division_polynomial(phi.codomain, 3)
    assert (psi3_cod % w).is_zero()
    back = quotient_by_kernel_polynomial(phi.codomain, w, 3)
    assert back.codomain.j_invariant() == e3.j_invariant()


def test_isomorphism_identity_and_transform_consistency():
    F13 = PrimeField(13)
    E = WeierstrassCurve(F13, 1, 2, 3, 4, 5)
    iso = curves_isomorphic(E, E)
    assert iso is not None
    ident = CurveIsomorphism.identity(F13)
    assert ident.apply_to_curve(E) == E
    # a made-up transformation round-trips through its inverse
    tr = CurveIsomorphism(F13, 2, 3, 4, 5)
    E2 = tr.apply_to_curve(E)
    back = tr.invert().apply_to_curve(E2)
    assert back == E
    # composition law matches sequential application
    tr2 = CurveIsomorphism(F13, 3, 1, 0, 2)
    assert tr.compose(tr2).apply_to_curve(E) == tr2.apply_to_curve(E2)


def test_isomorphism_maps_points():
    F13 = PrimeField(13)
    E = WeierstrassCurve(F13, 1, 2, 3, 4, 5)
    tr = CurveIsomorphism(F13, 2, 3, 4, 5)
    E2 = tr.apply_to_curve(E)
    for P in affine_points(E, cap=8):
        img = apply_to_point(tr, P, E2)
        assert E2.contains(img.x, img.y)
    # the map is a group homomorphism
    pts = affine_points(E, cap=4)
    a, b = pts[0], pts[1]
    assert apply_to_point(tr, a + b, E2) == apply_to_point(tr, a, E2) + apply_to_point(tr, b, E2)


def test_quadratic_twist_not_isomorphic_until_extension():
    F13 = PrimeField(13)
    E = WeierstrassCurve(F13, 0, 0, 0, 1, 1)
    # twist by the non-square 2: A' = u^4 A, B' = u^6 B with u^2 = 2
    Et = WeierstrassCurve(F13, 0, 0, 0, (4 * 1) % 13, (8 * 1) % 13)
    assert E.j_invariant() == Et.j_invariant()
    assert curves_isomorphic(E, Et) is None
    from isogeny_lab.fields import ExtensionField

    K = ExtensionField(13, 2)
    assert curves_isomorphic(E.base_change(K), Et.base_change(K)) is not None


def test_distinct_j_never_isomorphic():
    F13 = PrimeField(13)
    E1 = WeierstrassCurve(F13, 0, 0, 0, 1, 1)
    E2 = WeierstrassCurve(F13, 0, 0, 0, 1, 2)
    if E1.j_invariant() != E2.j_invariant():
        assert curves_isomorphic(E1, E2) is None


@given(st.sampled_from([11, 13, 17]), st.data())
@settings(max_examples=25, deadline=None)
def test_isomorphic_twists_detected(q, data):
    F = PrimeField(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    if (4 * a**3 + 27 * b**2) % q == 0:
        return
    u = data.draw(st.integers(1, q - 1))
    E = WeierstrassCurve(F, 0, 0, 0, a, b)
    E2 = WeierstrassCurve(
        F, 0, 0, 0, a * pow(u, 4, q) % q, b * pow(u, 6, q) % q
    )
    iso = curves_isomorphic(E2, E)
    assert iso is not None
    assert iso.apply_to_curve(E2) == E


def test_short_form_reduction():
    F13 = PrimeField(13)
    E = WeierstrassCurve(F13, 1, 2, 3, 4, 5)
    S, iso = short_form(E)
    assert S.a1.is_zero() and S.a2.is_zero() and S.a3.is_zero()
    assert iso.apply_to_curve(E) == S
    assert S.j_invariant() == E.j_invariant()
