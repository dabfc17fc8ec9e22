from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from isogeny_lab.curves import (
    WeierstrassCurve,
    curve_order,
    division_polynomial,
    frobenius_matrix,
    rational_ell_torsion,
    torsion_basis,
    torsion_field_degree,
    weil_pairing,
)
from isogeny_lab.errors import CapabilityError, InternalError
from isogeny_lab.fields import PrimeField, QQ


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
        assert (P + (-P)).is_infinity()


def test_paper_family_point_doubling_over_q():
    # tangent at (0,0) on y^2 + xy + 2y = x^3 is horizontal: 2P = (0, -2)
    E = WeierstrassCurve(QQ, 1, 0, 2, 0, 0)
    P = E.point(Fraction(0), Fraction(0))
    assert 2 * P == E.point(Fraction(0), Fraction(-2))
    assert (3 * P).is_infinity()
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
        assert (n * P).is_infinity()


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
        if (ell * P).is_infinity():
            torsion_xs.add(P.x)
    from isogeny_lab.fields import poly_roots

    roots = poly_roots(psi)
    for x in torsion_xs:
        assert x in roots
    zero = F.zero()
    for x in roots:
        assert psi(x) == zero


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
    count = sum(1 for P in brute_points(basis.curve) if (3 * P).is_infinity())
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
    from isogeny_lab.curves import _frobenius_point

    P, Q = basis.P, basis.Q
    piP = _frobenius_point(P, 5)
    piQ = _frobenius_point(Q, 5)
    z = weil_pairing(P, Q, 3)
    assert weil_pairing(piP, piQ, 3) == z**5


def test_frobenius_matrix_identity_on_full_torsion():
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 1, 0)
    basis = torsion_basis(E, 2)
    mat = frobenius_matrix(E, basis)
    assert mat.is_identity()
    assert rational_ell_torsion(E, 2) == 2


def test_frobenius_det_trace_invariants():
    F5 = PrimeField(5)
    E = WeierstrassCurve(F5, 0, 0, 0, 0, 2)  # N = 6
    basis = torsion_basis(E, 3)
    mat = frobenius_matrix(E, basis)
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


def test_curve_serialization_round_trip():
    F7 = PrimeField(7)
    E = WeierstrassCurve(F7, 1, 0, 2, 3, 4)
    assert WeierstrassCurve.from_json(E.to_json()) == E
    EQ = WeierstrassCurve(QQ, 1, 0, 2, -10, -30)
    assert WeierstrassCurve.from_json(EQ.to_json()) == EQ


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


def test_aux_point_stream_filters_per_ell():
    """The cached auxiliary points are filtered for the ell asked for, in
    whichever order two ells are asked for on the same curve."""
    from isogeny_lab.curves import _aux_point_stream

    # orders 20 and 15: both curves have rational points of both orders,
    # and fewer points than the stream's cap, so it holds all of them
    cases = [(WeierstrassCurve(PrimeField(13), 0, 0, 0, 1, 0), (2, 5)),
             (WeierstrassCurve(PrimeField(11), 0, 0, 0, 1, 7), (3, 5))]
    for E, ells in cases:
        affine = brute_points(E)
        for order in (ells, ells[::-1]):
            _aux_point_stream.cache_clear()
            for ell in order:
                pts = _aux_point_stream(E, ell)
                assert all(not (ell * S).infinity for S in pts)
                assert set(pts) == {S for S in affine if not (ell * S).infinity}


def _eager_aux_points(curve, ell, cap=80):
    """Reference auxiliary points: the first `cap` or so affine points in
    field order, then those with ell * S != O."""
    pts = []
    for x in curve.field.iter_elements():
        for y in curve.y_candidates(x):
            pts.append(curve.point(x, y))
        if len(pts) >= cap:
            break
    return [S for S in pts if not (ell * S).infinity]


# Over F_13 and F_11 the curves have 20 and 15 points (2-, 5- and 3-torsion);
# over F_{7^2} and F_{11^2} more points than the cap of 80.
_AUX_CURVES = [((13, 1), (1, 0)), ((11, 1), (1, 7)), ((7, 2), (1, 3)), ((11, 2), (1, 7)),
               ((5, 2), (1, 1))]


@pytest.mark.parametrize("field_pk, ab", _AUX_CURVES)
@pytest.mark.parametrize("ell", [2, 3, 5])
def test_lazy_aux_points_match_the_eager_list(field_pk, ab, ell):
    from isogeny_lab.curves import _aux_point_stream
    from isogeny_lab.fields import ExtensionField

    p, k = field_pk
    field = PrimeField(p) if k == 1 else ExtensionField(p, k)
    E = WeierstrassCurve(field, 0, 0, 0, *ab)
    for cap in (80, 7):
        expected = _eager_aux_points(E, ell, cap)
        _aux_point_stream.cache_clear()
        assert list(_aux_point_stream(E, ell, cap)) == expected
        # nested iterators, as in the pairing's double loop, and an outer
        # one resumed after an inner one has drawn further
        _aux_point_stream.cache_clear()
        stream = _aux_point_stream(E, ell, cap)
        outer = iter(stream)
        first = next(outer, None)
        inner = [T for T in stream]
        assert inner == expected
        assert ([first] + list(outer) if first is not None else []) == expected
        assert [[T for T in stream] for _ in stream] == [expected] * len(expected)


def test_aux_point_cache_counts_one_miss_per_curve_and_ell():
    """The benchmark reads the hits and misses of the auxiliary-point cache."""
    from isogeny_lab.curves import _aux_point_stream

    E = WeierstrassCurve(PrimeField(13), 0, 0, 0, 1, 0)
    basis = torsion_basis(E, 5)
    P, Q = basis.P, basis.Q
    _aux_point_stream.cache_clear()
    for A, B in [(P, Q), (Q, P), (P + Q, Q), (2 * P, Q)]:
        weil_pairing(A, B, 5)
    info = _aux_point_stream.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    assert _aux_point_stream(basis.curve, 5) is _aux_point_stream(basis.curve, 5)
