import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from isogeny_lab import curves, fields, intpoly
from isogeny_lab.curves import (
    CurvePoint,
    WeierstrassCurve,
    _frobenius_point,
    _line_value,
    _miller_shifted,
    _vertical_value,
    division_polynomial,
    frobenius_matrix,
    torsion_basis,
    torsion_field_degree,
    weil_pairing,
)
from isogeny_lab.errors import CapabilityError, InternalError
from isogeny_lab.fields import ExtensionField, PrimeField, QQ, _val_is_zero, poly_roots
from isogeny_lab.graphs import fq_tables, psi_tilde_ints, pt_mul, xmul_fraction_ints
from isogeny_lab.verify import primes_in_range
from oracles import curve_order, eager_torsion_basis, peval, rational_ell_torsion


def hasse_interval(q: int) -> tuple[int, int]:
    """[q + 1 - s, q + 1 + s] with s = ceil(2 sqrt(q)), which contains #E(F_q)."""
    s = isqrt(4 * q)
    while s * s < 4 * q:
        s += 1
    return q + 1 - s, q + 1 + s


def brute_points(curve):
    """Independent enumeration oracle: all affine points by direct check."""
    field = curve.field
    pts = []
    for x in field.iter_elements():
        for y in field.iter_elements():
            if curve.contains(x, y):
                pts.append(curve.point(x, y))
    return pts


def test_singular_curve_rejected():
    F5 = PrimeField(5)
    with pytest.raises(ValueError):
        WeierstrassCurve(F5, 0, 0, 0, 0, 0)


def test_char_2_3_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve(PrimeField(3), 0, 0, 0, 1, 1)


def test_point_plus_neg_is_infinity():
    F7 = PrimeField(7)
    E = WeierstrassCurve(F7, 1, 0, 2, 0, 1)
    for P in brute_points(E)[:6]:
        assert (P + (-P)).infinity


def test_paper_family_point_doubling_over_q():
    # tangent at (0,0) on y^2 + xy + 2y = x^3 is horizontal: 2P = (0, -2)
    E = WeierstrassCurve(QQ, 1, 0, 2, 0, 0)
    P = E.point(Fraction(0), Fraction(0))
    assert 2 * P == E.point(Fraction(0), Fraction(-2))
    assert (3 * P).infinity
    assert P.has_order(3)


def test_curve_order_example():
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 1, 0)  # y^2 = x^3 + x
    assert curve_order(E) == 4
    assert len(brute_points(E)) + 1 == 4  # oracle: (0,0), (2,0), (3,0)


@given(st.sampled_from([5, 7, 11, 13]), st.data())
@settings(max_examples=40, deadline=None)
def test_order_matches_brute_force_and_hasse(q, data):
    F = PrimeField(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    if (4 * a**3 + 27 * b**2) % q == 0:
        return
    E = WeierstrassCurve(F, 0, 0, 0, a, b)
    n = curve_order(E)
    assert n == len(brute_points(E)) + 1
    lo, hi = hasse_interval(q)
    assert lo <= n <= hi
    # Lagrange: N * P = O for sampled points
    for P in brute_points(E)[:5]:
        assert (n * P).infinity


def test_curve_order_cap():
    with pytest.raises(CapabilityError):
        curve_order(WeierstrassCurve(PrimeField(5), 0, 0, 0, 1, 0), cap=3)


def test_division_polynomial_short_form_psi3():
    # psi_3 = 3x^4 + 6a x^2 + 12b x - a^2 for y^2 = x^3 + ax + b
    q = 13
    F = PrimeField(q)
    for a, b in [(1, 1), (2, 3), (5, 0)]:
        if (4 * a**3 + 27 * b**2) % q == 0:
            continue
        E = WeierstrassCurve(F, 0, 0, 0, a, b)
        psi3 = division_polynomial(E, 3)
        expect = [(-a * a) % q, (12 * b) % q, (6 * a) % q, 0, 3]
        assert psi3.int_coeffs() == expect


def test_division_polynomial_two_torsion():
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 1, 0)
    psi2 = division_polynomial(E, 2)
    # roots are the x-coordinates of the 2-torsion: x^3 + x = x(x-2)(x-3)
    from isogeny_lab.fields import poly_roots

    assert {r.rep for r in poly_roots(psi2)} == {0, 2, 3}


def test_paper_quotient_b_invariants():
    # E3'(2,1): y^2 + xy + 2y = x^3 - 10x - 30 has b2=1, b4=-18, b6=-116, b8=-110
    E = WeierstrassCurve(QQ, 1, 0, 2, -10, -30)
    b2, b4, b6, b8 = E.b_invariants()
    assert (b2, b4, b6, b8) == (1, -18, -116, -110)
    psi3 = division_polynomial(E, 3)
    assert list(psi3.coeffs) == [
        Fraction(-110), Fraction(-348), Fraction(-54), Fraction(1), Fraction(3),
    ]


@given(st.sampled_from([(5, 2), (7, 3), (11, 3), (13, 5)]), st.data())
@settings(max_examples=25, deadline=None)
def test_division_polynomial_roots_are_torsion_x(q_ell, data):
    q, ell = q_ell
    F = PrimeField(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    if (4 * a**3 + 27 * b**2) % q == 0:
        return
    E = WeierstrassCurve(F, 0, 0, 0, a, b)
    psi = division_polynomial(E, ell)
    # oracle: brute-force the group for rational ell-torsion x-coordinates
    torsion_xs = set()
    for P in brute_points(E):
        if (ell * P).infinity:
            torsion_xs.add(P.x)
    from isogeny_lab.fields import poly_roots

    roots = poly_roots(psi)
    for x in torsion_xs:
        assert x in roots
    zero = F.zero()
    for x in roots:
        assert psi(x) == zero


def _random_long_curve(rng, q):
    while True:
        coeffs = tuple(rng.randrange(q) for _ in range(5))
        try:
            return coeffs, WeierstrassCurve(PrimeField(q), *coeffs)
        except ValueError:
            continue


@pytest.mark.parametrize("q", [13, 31, 61, 101])
def test_division_polynomial_agrees_with_the_group_law(q):
    """Oracle for the one psi recurrence, at every rational point P of random
    long-form curves: division_polynomial(E, n) vanishes at x(P) exactly when
    [n]P = O, and otherwise xmul_fraction_ints gives x([n]P)."""
    rng = random.Random(q)
    for _ in range(2):
        coeffs, E = _random_long_curve(rng, q)
        a1, a2, a3, a4, a6 = coeffs
        points = [(x, y) for x in range(q) for y in range(q)
                  if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % q == 0]
        psi, F = psi_tilde_ints(coeffs, q, 14)
        for n in range(1, 14):
            div = division_polynomial(E, n).int_coeffs()
            num, den = xmul_fraction_ints(psi, F, n, q)
            for P in points:
                nP = pt_mul(n, P, coeffs, q, fq_tables(q).inv)
                assert (peval(div, P[0], q) == 0) == (nP is None)
                if nP is not None:
                    x_num, x_den = peval(num, P[0], q), peval(den, P[0], q)
                    assert x_num == nP[0] * x_den % q and x_den


@pytest.mark.parametrize("coeffs", [
    (1, 0, 2, -10, -30),  # the counterexample's quotient E3'(2, 1)
    (1, Fraction(-1, 2), Fraction(1, 3), 2, Fraction(7, 5)),  # good reduction at each q
])
@pytest.mark.parametrize("q", [13, 31, 61, 101])
def test_division_polynomial_over_q_reduces_to_the_fq_one(coeffs, q):
    def red(c):
        return Fraction(c).numerator * pow(Fraction(c).denominator, -1, q) % q

    E_q = WeierstrassCurve(PrimeField(q), *(red(c) for c in coeffs))
    E = WeierstrassCurve(QQ, *coeffs)
    for n in range(1, 10):
        reduced = intpoly.trim([red(c) for c in division_polynomial(E, n).coeffs])
        assert reduced == division_polynomial(E_q, n).int_coeffs()


def test_torsion_basis_f5_two_torsion():
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 1, 0)
    basis = torsion_basis(E, 2)
    assert basis.k == 1
    assert (basis.P.x.rep, basis.P.y.rep) == (0, 0)
    assert (basis.Q.x.rep, basis.Q.y.rep) == (2, 0)
    assert basis.P.has_order(2) and basis.Q.has_order(2)
    z = weil_pairing(basis.P, basis.Q, 2)
    assert z.rep == 4  # the primitive square root of unity is -1


def test_torsion_basis_minimal_degree():
    # y^2 = x^3 + 2 over F5 has 6 points; trace 0 => Frobenius eigenvalues
    # +-1 mod 3, so E[3] splits over F_25 and not before
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 0, 2)
    assert curve_order(E) == 6
    assert torsion_field_degree(E, 3) == 2
    basis = torsion_basis(E, 3)
    assert basis.k == 2
    assert basis.P.has_order(3) and basis.Q.has_order(3)
    # oracle: count 3-torsion points of the base-changed curve by brute force
    count = sum(1 for P in brute_points(basis.curve) if (3 * P).infinity)
    assert count + 1 == 9


def test_weil_pairing_properties():
    F7 = PrimeField(7)
    E = WeierstrassCurve(F7, 0, 0, 0, 0, 2)  # full rational 3-torsion, N = 9
    basis = torsion_basis(E, 3)
    P, Q = basis.P, basis.Q
    one = P.curve.field.one()
    z = weil_pairing(P, Q, 3)
    assert z != one and z**3 == one
    assert weil_pairing(P, P, 3) == one
    assert weil_pairing(Q, P, 3) * z == one
    # bilinearity samples
    assert weil_pairing(2 * P, Q, 3) == z * z
    assert weil_pairing(P + Q, Q, 3) == z
    # Galois equivariance: e(pi P, pi Q) = e(P, Q)^q  (q = 7)
    assert z**7 == z  # identity Frobenius here, so this is consistency


def test_weil_pairing_galois_equivariance_over_extension():
    # basis lives over F_25; the 5-power Frobenius must act on pairing
    # values as the 5th power: e(pi P, pi Q) = e(P, Q)^q
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 0, 2)
    basis = torsion_basis(E, 3)
    assert basis.k == 2
    P, Q = basis.P, basis.Q
    piP = _frobenius_point(P)
    piQ = _frobenius_point(Q)
    z = weil_pairing(P, Q, 3)
    assert weil_pairing(piP, piQ, 3) == z**5


def test_frobenius_matrix_identity_on_full_torsion():
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 1, 0)
    basis = torsion_basis(E, 2)
    mat = frobenius_matrix(E, basis, curve_order(E))
    assert mat.is_identity()
    assert rational_ell_torsion(E, 2) == 2


def test_frobenius_det_trace_invariants():
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 0, 2)  # N = 6
    basis = torsion_basis(E, 3)
    mat = frobenius_matrix(E, basis, curve_order(E))
    assert mat.determinant() == 5 % 3
    assert mat.trace() == (5 + 1 - 6) % 3
    assert rational_ell_torsion(E, 3) == 1


def test_rational_torsion_zero_when_ell_does_not_divide():
    F7 = PrimeField(7)
    E = WeierstrassCurve(F7, 0, 0, 0, 1, 1)
    n = curve_order(E)
    for ell in (3, 5):
        if n % ell:
            assert rational_ell_torsion(E, ell) == 0


@given(st.sampled_from([5, 7, 11]), st.data())
@settings(max_examples=20, deadline=None)
def test_group_law_axioms(q, data):
    F = PrimeField(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    if (4 * a**3 + 27 * b**2) % q == 0:
        return
    E = WeierstrassCurve(F, 0, 0, 0, a, b)
    pts = brute_points(E)
    if len(pts) < 3:
        return
    idx = data.draw(st.tuples(*[st.integers(0, len(pts) - 1)] * 3))
    P, Q, R = (pts[i] for i in idx)
    assert P + Q == Q + P
    assert (P + Q) + R == P + (Q + R)
    assert (P + E.infinity()) == P


@pytest.mark.parametrize("ab, ell", [((0, 2), 3), ((0, 1), 3), ((1, 0), 5)])
def test_torsion_basis_coordinates(ab, ell):
    E = WeierstrassCurve(PrimeField(13), 0, 0, 0, *ab)
    basis = torsion_basis(E, ell)
    for a in range(ell):
        for b in range(ell):
            assert basis.coordinates(a * basis.P + b * basis.Q) == (a, b)
    # a point of E(F_13) outside E[ell] lies outside the span
    K = basis.curve.field
    points = [basis.curve.point(K.element(x), y)
              for x in range(13) for y in basis.curve.y_candidates(K.element(x))]
    outside = next(pt for pt in points if not (ell * pt).infinity)
    with pytest.raises(InternalError):
        basis.coordinates(outside)


def test_weil_pairing_is_one_on_a_multiple():
    E = WeierstrassCurve(PrimeField(13), 0, 0, 0, 1, 0)
    basis = torsion_basis(E, 5)
    P = basis.P
    one = basis.curve.field.one()
    assert weil_pairing(P, 2 * P, 5) == one
    assert weil_pairing(P, basis.curve.infinity(), 5) == one


# --- reference pairing: Miller's algorithm on shifted divisors ----------------


def _shifted_miller(P, S, ell, X1, X2):
    """f(X1) / f(X2) for the function f with divisor ell(P+S) - ell(S), or
    None when an evaluation meets a zero or a pole."""
    PS = P + S
    num = _vertical_value(PS, X1) * _line_value(P, S, X2)
    den = _vertical_value(PS, X2) * _line_value(P, S, X1)
    if _val_is_zero(num) or _val_is_zero(den):
        return None
    h_num, h_den = num, den
    Z = P
    for bit in bin(ell)[3:]:
        Z2 = Z + Z
        h_num = h_num * h_num * _line_value(Z, Z, X1) * _vertical_value(Z2, X2)
        h_den = h_den * h_den * _line_value(Z, Z, X2) * _vertical_value(Z2, X1)
        Z = Z2
        if _val_is_zero(h_num) or _val_is_zero(h_den):
            return None
        if bit == "1":
            Z1 = Z + P
            h_num = h_num * num * _line_value(Z, P, X1) * _vertical_value(Z1, X2)
            h_den = h_den * den * _line_value(Z, P, X2) * _vertical_value(Z1, X1)
            Z = Z1
            if _val_is_zero(h_num) or _val_is_zero(h_den):
                return None
    return h_num / h_den


def _shifted_divisor_pairing(P, Q, ell, cap=80):
    """f_{P+S}((Q+T) - (T)) / f_{Q+T}((P+S) - (S)) for the first auxiliary
    points S, T outside E[ell] at which no evaluation degenerates, drawn from
    the first `cap` or so affine points; None when there are none."""
    curve = P.curve
    points = []
    for x in curve.field.iter_elements():
        points.extend(curve.point(x, y) for y in curve.y_candidates(x))
        if len(points) >= cap:
            break
    aux = [S for S in points if not (ell * S).infinity]
    for S in aux:
        for T in aux:
            if T in (S, -S):
                continue
            fA = _shifted_miller(P, S, ell, Q + T, T)
            fB = _shifted_miller(Q, T, ell, P + S, S)
            if fA is not None and fB is not None:
                return fA / fB
    return None


def reference_weil_pairing(P, Q, ell):
    """The Weil pairing on shifted divisors.  Over a prime field with too
    few auxiliary points it is computed over F_{p^2} or F_{p^3}, and the
    value must come back in F_p."""
    curve = P.curve
    if P.infinity or Q.infinity or P == Q or P == -Q:
        return curve.field.one()
    value = _shifted_divisor_pairing(P, Q, ell)
    if value is not None:
        return value
    assert isinstance(curve.field, PrimeField)
    for k in (2, 3):
        K = ExtensionField(curve.field.p, k)
        curve_k = curve.base_change(K)
        lift = lambda R: curve_k.point(K.element(R.x), K.element(R.y))  # noqa: E731
        value = _shifted_divisor_pairing(lift(P), lift(Q), ell)
        if value is not None:
            assert not any(value.rep[1:])
            return curve.field.element(value.rep[0])
    raise AssertionError("no usable auxiliary points over F_p, F_p^2 or F_p^3")


def _assert_pairings_match_reference(basis):
    P, Q, ell = basis.P, basis.Q, basis.ell
    for A, B in [(P, Q), (Q, P), (P + Q, Q), (2 * P, Q)]:
        assert weil_pairing(A, B, ell) == reference_weil_pairing(A, B, ell), (A, B)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_weil_pairing_matches_reference_on_short_curves(q):
    """Every short curve over F_q with a basis of E[ell] over F_q, ell in
    {2, 3, 5}, and the first one whose basis needs F_{q^2}.  Over F_q the set
    holds the curves whose pairings the reference lifts to an extension, as
    y^2 = x^3 + 3 over F_13 at ell = 3."""
    F = PrimeField(q)
    lifted = 0
    for ell in (2, 3, 5):
        if ell == q:
            continue
        quadratic_done = False
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                E = WeierstrassCurve(F, 0, 0, 0, a, b)
                k = torsion_field_degree(E, ell)
                if k > 2 or (k == 2 and quadratic_done):
                    continue
                quadratic_done |= k == 2
                basis = torsion_basis(E, ell)
                _assert_pairings_match_reference(basis)
                if k == 1 and _shifted_divisor_pairing(basis.P, basis.Q, ell) is None:
                    lifted += 1
    assert lifted > 0


@pytest.mark.parametrize("q, ell", [(13, 3), (17, 2), (41, 5), (43, 7)])
def test_weil_pairing_matches_reference_on_order_two_targets(q, ell):
    from isogeny_lab import graphs as G
    from isogeny_lab.verify import _order_two_torsion

    F = PrimeField(q)
    torsion = _order_two_torsion(F, G.build_pointed_graphs(F, ell))
    bases = [basis for k, basis in torsion.values() if k == 1]
    assert bases
    for basis in bases:
        _assert_pairings_match_reference(basis)


@pytest.mark.parametrize("q, ell, k", [(11, 3, 2), (7, 5, 4), (19, 5, 2)])
def test_weil_pairing_matches_reference_over_extensions(q, ell, k):
    """A target of the product checks at (q, ell) whose ell-torsion splits
    over F_{q^k}."""
    from isogeny_lab import graphs as G

    F = PrimeField(q)
    for g in G.build_pointed_graphs(F, ell):
        E = g.target_curve(F)
        if torsion_field_degree(E, ell) == k:
            _assert_pairings_match_reference(torsion_basis(E, ell))
            return
    pytest.fail(f"no target with k = {k}")


@pytest.mark.parametrize("q, ab, ell", [(13, (0, 3), 3), (7, (0, 2), 3), (13, (1, 0), 5)])
def test_weil_pairing_sign_and_order_are_pinned_by_the_reference(q, ab, ell):
    """Miller's formula at odd ell: dropping the sign (-1)^ell, or swapping
    f_P and f_Q, disagrees with the reference."""
    E = WeierstrassCurve(PrimeField(q), 0, 0, 0, *ab)
    basis = torsion_basis(E, ell)
    P, Q = basis.P, basis.Q
    ref = reference_weil_pairing(P, Q, ell)
    fP, fQ = _miller_shifted(P, ell, Q), _miller_shifted(Q, ell, P)
    assert -fP / fQ == ref
    assert fP / fQ != ref
    assert -fQ / fP != ref


# --- lazy torsion bases and the table Frobenius against the eager forms -------


def _curves_with_small_k(q, ell, count, seed):
    """Up to `count` seeded long-Weierstrass curves over F_q whose E[ell]
    splits over F_{q^k} with k <= 4."""
    rng, F, out = random.Random(seed), PrimeField(q), []
    for _ in range(60):
        try:
            E = WeierstrassCurve(F, *[rng.randrange(q) for _ in range(5)])
        except ValueError:  # singular
            continue
        if torsion_field_degree(E, ell) <= 4:
            out.append(E)
            if len(out) == count:
                break
    return out


# a short curve (q, a4, a6) with E[ell] over F_q, k = 1, per ell
_FULL_TORSION_CURVE = {3: (7, 0, 2), 5: (31, 0, 11)}


@pytest.mark.parametrize("ell", [3, 5])
def test_torsion_basis_matches_the_eager_enumeration(ell):
    """At every prime 5 <= q < 60 other than ell, on two seeded curves with
    k <= 4, and on one curve with k = 1: torsion_basis, which takes y only
    at P and Q, picks the P and Q of the enumeration of every torsion point.
    The enumeration splits the whole division polynomial, so the x's of
    torsion_basis, which come from its F_q factors, are checked against
    another path at k = 1 and k > 1."""
    q1, a4, a6 = _FULL_TORSION_CURVE[ell]
    tried = [WeierstrassCurve(PrimeField(q1), 0, 0, 0, a4, a6)]
    for q in primes_in_range(5, 60):
        if q != ell:
            tried += _curves_with_small_k(q, ell, 2, seed=q * ell)
    ks = set()
    for E in tried:
        basis = torsion_basis(E, ell)
        assert (basis.P, basis.Q) == eager_torsion_basis(E, ell), E
        ks.add(basis.k)
    assert 1 in ks and max(ks) > 1


@pytest.mark.parametrize("q,ell,a4,a6,k", [(7, 3, 0, 2, 1), (31, 5, 0, 11, 1), (5, 3, 0, 2, 2)])
def test_torsion_basis_takes_its_xs_from_one_factorization(monkeypatch, q, ell, a4, a6, k):
    """torsion_basis takes its x's from the F_q factors of psi_ell at every
    k: no whole-polynomial split (poly_roots of division_polynomial), and
    psi_ell is factored once per curve object, however often its degree
    and basis are asked for."""
    calls = []
    for owner, name in ((curves, "division_polynomial"), (fields, "poly_roots"),
                        (intpoly, "factor_squarefree")):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, _o=orig, _n=name: calls.append(_n) or _o(*a))
    # a module that imported poly_roots by name calls it through its own binding
    monkeypatch.setattr(curves, "poly_roots", lambda *a: calls.append("poly_roots")
                        or fields.poly_roots(*a), raising=False)
    E = WeierstrassCurve(PrimeField(q), 0, 0, 0, a4, a6)
    first = torsion_basis(E, ell)
    assert first.k == torsion_field_degree(E, ell) == k
    second = torsion_basis(E, ell)
    assert (second.P, second.Q) == (first.P, first.Q)
    assert calls == ["factor_squarefree"]


@pytest.mark.parametrize("q", [5, 7])
def test_torsion_basis_raises_when_one_discriminant_reads_as_a_non_square(monkeypatch, q):
    """y^2 = x^3 + 2 has E[3] over F_{5^2} (k = 2) and over F_7 (k = 1).
    With is_square answering False once, for the y-discriminant of the last
    torsion x, the point count comes out two short and torsion_basis
    raises."""
    E = WeierstrassCurve(PrimeField(q), 0, 0, 0, 0, 2)
    curve_k = eager_torsion_basis(E, 3)[0].curve
    K = curve_k.field
    last = max(poly_roots(division_polynomial(E, 3), K), key=lambda e: e.coeff_list())
    target, flipped = curve_k._y_disc(last)[1], []
    orig = type(K).is_square

    def mutant(self, a):
        if a == target and not flipped:
            flipped.append(a)
            return False
        return orig(self, a)

    monkeypatch.setattr(type(K), "is_square", mutant)
    with pytest.raises(InternalError, match="found 6 nonzero 3-torsion points"):
        torsion_basis(E, 3)


@pytest.mark.parametrize("q,ell,b", [(5, 3, 2), (7, 5, 1), (7, 3, 2)])
def test_table_frobenius_point_matches_the_q_power(monkeypatch, q, ell, b):
    """Every point of E[ell] on y^2 = x^3 + x + b (b = 2: x^3 + 2) over
    F_{5^2}, F_{7^4} and F_7: the table's Frobenius point is (x^q, y^q), and
    the identity at k = 1.  With t^q changed in the table it is not."""
    E = WeierstrassCurve(PrimeField(q), 0, 0, 0, 0 if b == 2 else 1, b)
    basis = torsion_basis(E, ell)
    assert basis.k == {(5, 3): 2, (7, 5): 4, (7, 3): 1}[q, ell]
    points = [a * basis.P + c * basis.Q for a in range(ell) for c in range(ell)]

    def q_power(R):
        return R if R.infinity else CurvePoint(R.curve, R.x**q, R.y**q)

    assert all(_frobenius_point(R) == q_power(R) for R in points)
    K = basis.curve.field
    if basis.k > 1:
        col = ((K.frob[0][1][0] + 1) % q,) + K.frob[0][1][1:]
        monkeypatch.setattr(K, "frob", ((K.frob[0][0], col) + K.frob[0][2:],) + K.frob[1:])
        assert not all(_frobenius_point(R) == q_power(R) for R in points)
