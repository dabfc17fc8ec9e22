"""Separable prime-degree isogenies via Velu's formulas, explicit curve
isomorphisms, the universal 3-isogeny family, and dual-kernel computation.

The quotient is computed from the kernel polynomial alone: the Velu sums
are symmetric functions of the kernel x-coordinates, so power sums via
Newton's identities give the codomain, and the x-map collapses to

    X = ell*x - 2*p1 - v(x) h'/h - u(x) (h'' h - h'^2) / h^2

with v = 6x^2 + b2 x + b4, u = 4x^3 + b2 x^2 + 2 b4 x + b6.  The y-map is
forced by the normalization (the pullback of the invariant differential is
the invariant differential):  Y = (X'(x) (2y + a1 x + a3) - a1 X - a3)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphs, intpoly
from .curves import CurvePoint, WeierstrassCurve, division_polynomial
from .errors import CapabilityError, FieldMismatchError, InternalError
from .fields import (
    FieldElement,
    Polynomial,
    PrimeField,
    RationalField,
    _val_inverse,
    _val_is_zero,
    is_prime,
)


class CurveIsomorphism:
    """Weierstrass change of coordinates x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""

    __slots__ = ("field", "u", "r", "s", "t")

    def __init__(self, field, u, r, s, t):
        self.field = field
        self.u = field.element(u)
        self.r = field.element(r)
        self.s = field.element(s)
        self.t = field.element(t)
        if _val_is_zero(self.u):
            raise ValueError("isomorphism scale u must be nonzero")

    @classmethod
    def identity(cls, field) -> "CurveIsomorphism":
        return cls(field, field.one(), field.zero(), field.zero(), field.zero())

    def apply_to_curve(self, curve: WeierstrassCurve) -> WeierstrassCurve:
        a1, a2, a3, a4, a6 = curve.coefficients()
        u, r, s, t = self.u, self.r, self.s, self.t
        u2 = u * u
        u3 = u2 * u
        na1 = (a1 + 2 * s) / u
        na2 = (a2 - s * a1 + 3 * r - s * s) / u2
        na3 = (a3 + r * a1 + 2 * t) / u3
        na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / (u2 * u2)
        na6 = (a6 + r * a4 + r * r * a2 + r * r * r - t * a3 - t * t - r * t * a1) / (u3 * u3)
        return WeierstrassCurve(curve.field, na1, na2, na3, na4, na6)

    def apply_to_point(self, point: CurvePoint, codomain: WeierstrassCurve) -> CurvePoint:
        if point.infinity:
            return codomain.infinity()
        u, r, s, t = self.u, self.r, self.s, self.t
        u2 = u * u
        x1 = (point.x - r) / u2
        y1 = (point.y - s * (point.x - r) - t) / (u2 * u)
        return codomain.point(x1, y1)

    def compose(self, other: "CurveIsomorphism") -> "CurveIsomorphism":
        """self then other (self: E->E1, other: E1->E2)."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return CurveIsomorphism(
            self.field,
            u1 * u2,
            u1 * u1 * r2 + r1,
            u1 * s2 + s1,
            u1 * u1 * u1 * t2 + s1 * u1 * u1 * r2 + t1,
        )

    def invert(self) -> "CurveIsomorphism":
        u, r, s, t = self.u, self.r, self.s, self.t
        ui = _val_inverse(u)
        ui2 = ui * ui
        return CurveIsomorphism(
            self.field, ui, -r * ui2, -s * ui, (s * r - t) * ui2 * ui
        )

    def to_tuple(self):
        return (self.u, self.r, self.s, self.t)

    def to_json(self):
        def enc(v):
            if isinstance(v, FieldElement):
                return v.coeff_list() if not isinstance(v.rep, int) else v.rep
            return [v.numerator, v.denominator]

        return [enc(c) for c in self.to_tuple()]

    def __repr__(self):
        return f"Iso(u={self.u!r}, r={self.r!r}, s={self.s!r}, t={self.t!r})"


@dataclass(frozen=True)
class Isogeny:
    """A separable degree-ell isogeny with explicit rational maps.

    x-map: x |-> num(x) / den(x); y-map forced by normalization.  Evaluating
    at a kernel point gives the point at infinity.
    """

    domain: WeierstrassCurve
    codomain: WeierstrassCurve
    degree: int
    kernel_poly: Polynomial
    num: Polynomial
    den: Polynomial
    kernel_point: CurvePoint | None = None

    def x_image(self, x):
        d = self.den(x)
        if _val_is_zero(d):
            return None
        return self.num(x) / d

    def evaluate(self, point: CurvePoint) -> CurvePoint:
        if point.curve != self.domain:
            raise FieldMismatchError("point is not on the isogeny domain")
        if point.infinity:
            return self.codomain.infinity()
        if _val_is_zero(self.kernel_poly(point.x)):
            return self.codomain.infinity()
        E = self.domain
        x, y = point.x, point.y
        n_val = self.num(x)
        d_val = self.den(x)
        X = n_val / d_val
        n_d = self.num.derivative()(x)
        d_d = self.den.derivative()(x)
        Xp = (n_d * d_val - n_val * d_d) / (d_val * d_val)
        Y = (Xp * (2 * y + E.a1 * x + E.a3) - E.a1 * X - E.a3) / 2
        return self.codomain.point(X, Y)

    def __call__(self, point: CurvePoint) -> CurvePoint:
        return self.evaluate(point)


def kernel_polynomial_from_point(point: CurvePoint, ell: int) -> Polynomial:
    """prod_{j=1..(ell-1)/2} (x - x(jP)) (monic; degree 1 for ell = 2)."""
    curve = point.curve
    field = curve.field
    x = Polynomial.x(field)
    if ell == 2:
        return x - Polynomial(field, [point.x])
    out = Polynomial(field, [field.one()])
    acc = point
    for _ in range((ell - 1) // 2):
        out = out * (x - Polynomial(field, [acc.x]))
        acc = acc + point
    return out


def quotient_by_kernel_polynomial(
    curve: WeierstrassCurve, h: Polynomial, ell: int
) -> Isogeny:
    """Velu quotient of `curve` by the subgroup with kernel polynomial h."""
    field = curve.field
    b2, b4, b6, _ = curve.b_invariants()
    one = field.one()
    h = h.monic()
    d = h.degree
    x = Polynomial.x(field)
    if ell == 2:
        if d != 1:
            raise ValueError("degree-2 kernel polynomial must be linear")
        x0 = -h.coeffs[0]
        t = (6 * x0 * x0 + b2 * x0 + b4) / 2
        w = x0 * t
        num = x * h + Polynomial(field, [t])
        den = h
    else:
        if d != (ell - 1) // 2:
            raise ValueError("kernel polynomial degree must be (ell-1)/2")
        p1, p2, p3 = intpoly.power_sums(h.coeffs, 3)
        t = 6 * p2 + b2 * p1 + d * b4
        w = 10 * p3 + 2 * b2 * p2 + 3 * b4 * p1 + d * b6
        v_poly = Polynomial(field, [b4, b2, 6 * one])
        u_poly = Polynomial(field, [b6, 2 * b4, b2, 4 * one])
        hp = h.derivative()
        hpp = hp.derivative()
        h2 = h * h
        num = (
            ell * x * h2
            - Polynomial(field, [2 * p1]) * h2
            - v_poly * hp * h
            - u_poly * (hpp * h - hp * hp)
        )
        den = h2
    a1, a2, a3, a4, a6 = curve.coefficients()
    codomain = WeierstrassCurve(field, a1, a2, a3, a4 - 5 * t, a6 - b2 * t - 7 * w)
    if _val_is_zero(codomain.discriminant()):
        raise InternalError("Velu codomain is singular")
    return Isogeny(
        domain=curve,
        codomain=codomain,
        degree=ell,
        kernel_poly=h,
        num=num,
        den=den,
    )


def velu_quotient(curve: WeierstrassCurve, point: CurvePoint, ell: int | None = None) -> Isogeny:
    """The isogeny E -> E/<P> for a point P of prime order ell."""
    if point.curve != curve:
        raise FieldMismatchError("kernel point is not on the curve")
    if point.infinity:
        raise ValueError("kernel point must have prime order, got infinity")
    if ell is None:
        ell = _point_prime_order(point)
    if not is_prime(ell):
        raise ValueError(f"kernel order {ell} is not prime")
    if not point.has_order(ell):
        raise ValueError(f"kernel point does not have exact order {ell}")
    ch = curve.field.characteristic()
    if ch and ch == ell:
        raise ValueError("ell must differ from the characteristic")
    h = kernel_polynomial_from_point(point, ell)
    phi = quotient_by_kernel_polynomial(curve, h, ell)
    return Isogeny(
        domain=phi.domain,
        codomain=phi.codomain,
        degree=ell,
        kernel_poly=phi.kernel_poly,
        num=phi.num,
        den=phi.den,
        kernel_point=point,
    )


def _point_prime_order(point: CurvePoint, bound: int = 200) -> int:
    acc = point
    for n in range(1, bound + 1):
        if acc.infinity:
            if not is_prime(n):
                raise ValueError(f"kernel point order {n} is not prime")
            return n
        acc = acc + point
    raise CapabilityError(f"kernel point order exceeds search bound {bound}")


# --- the universal 3-isogeny family -------------------------------------------


def family_e3(field, v, w):
    """(E3, P, E3') with E3: y^2 + w xy + v y = x^3, P = (0,0) of order 3,
    and E3' the quotient E3/<P>: y^2 + w xy + v y = x^3 - 5wv x - v(w^3 + 7v)."""
    v = field.element(v) if not isinstance(v, FieldElement) else v
    w = field.element(w) if not isinstance(w, FieldElement) else w
    try:
        e3 = WeierstrassCurve(field, w, 0, v, 0, 0)
    except ValueError as exc:
        raise ValueError(f"singular family parameters (v={v!r}, w={w!r})") from exc
    p = e3.point(field.zero(), field.zero())
    a4 = -5 * w * v
    a6 = -v * (w * w * w + 7 * v)
    try:
        e3p = WeierstrassCurve(field, w, 0, v, a4, a6)
    except ValueError as exc:
        raise ValueError(f"singular quotient parameters (v={v!r}, w={w!r})") from exc
    return e3, p, e3p


# --- isomorphism testing -------------------------------------------------------


def curves_isomorphic(E: WeierstrassCurve, E2: WeierstrassCurve):
    """An explicit isomorphism E -> E2 over their common finite base field,
    or None.  Char > 3 only."""
    if E.field != E2.field:
        raise FieldMismatchError("curves over different fields")
    field = E.field
    if isinstance(field, RationalField):
        raise CapabilityError("isomorphism testing is implemented for finite fields")
    if E.j_invariant() != E2.j_invariant():
        return None
    S1, i1 = E.short_form()
    S2, i2 = E2.short_form()
    A1, B1 = S1.a4, S1.a6
    A2, B2 = S2.a4, S2.a6
    u = None
    if not _val_is_zero(A1) and not _val_is_zero(B1):
        u_sq = (B1 / B2) * (A2 / A1)
        u = field.sqrt(u_sq)
        if u is None:
            return None
    elif _val_is_zero(B1):
        # j = 1728: u^4 = A1/A2
        c = A1 / A2
        for sgn_root in _all_sqrts(field, c):
            u = field.sqrt(sgn_root)
            if u is not None:
                break
            u = None
        if u is None:
            return None
    else:
        # j = 0: u^6 = B1/B2
        c = B1 / B2
        x = Polynomial.x(field)
        cubic = x * x * x - Polynomial(field, [c])
        from .fields import poly_roots

        u = None
        for root in sorted(poly_roots(cubic, field), key=lambda e: e.coeff_list()):
            cand = field.sqrt(root)
            if cand is not None:
                u = cand
                break
        if u is None:
            return None
    scale = CurveIsomorphism(field, u, field.zero(), field.zero(), field.zero())
    if scale.apply_to_curve(S1) != S2:
        # try the other square root branch where applicable
        scale = CurveIsomorphism(field, -u, field.zero(), field.zero(), field.zero())
        if scale.apply_to_curve(S1) != S2:
            return None
    iso = i1.compose(scale).compose(i2.invert())
    if iso.apply_to_curve(E) != E2:
        raise InternalError("isomorphism verification failed")
    return iso


def _all_sqrts(field, c):
    s = field.sqrt(c)
    if s is None:
        return []
    return [s, -s] if not _val_is_zero(s) else [s]


# --- dual kernels ---------------------------------------------------------------


def dual_kernel_polynomial(phi: Isogeny) -> Polynomial:
    """Kernel polynomial (over the base field) of the dual isogeny, i.e. the
    x-coordinates of the line phi(E_domain[ell]) in the codomain.

    Pushes one non-kernel torsion x-coordinate through the x-map inside the
    smallest extension containing it, then generates the rest of the line
    with the codomain's multiplication maps.
    """
    field = phi.domain.field
    if not isinstance(field, PrimeField):
        raise CapabilityError("dual kernels are computed over prime base fields")
    q = field.p
    ell = phi.degree
    psi = division_polynomial(phi.domain, ell).int_coeffs()
    kappa = phi.kernel_poly.int_coeffs()
    g, rem = intpoly.pdivmod(psi, kappa, q)
    if rem:
        raise InternalError("kernel polynomial does not divide the division polynomial")
    num = phi.num.int_coeffs()
    den = phi.den.int_coeffs()
    f = intpoly.factor_squarefree(g, q)[0]
    d = intpoly.deg(f)
    alpha = [(-f[0]) % q] if d == 1 else [0, 1]
    n_val = intpoly.eval_poly_ext(num, alpha, f, q)
    d_val = intpoly.eval_poly_ext(den, alpha, f, q)
    xi = intpoly.emul(n_val, intpoly.einv(d_val, f, q), f, q)
    psi_cod, F_cod = graphs.psi_tilde_ints(
        [c.to_int() for c in phi.codomain.coefficients()], q, (ell + 1) // 2
    )
    w_ints = graphs.line_poly_int(graphs.xmul_table(psi_cod, F_cod, ell, q), xi, f, q)
    if w_ints is None:
        raise InternalError("dual kernel line is not Galois-stable")
    return Polynomial(field, [field.element(c) for c in w_ints])


def dual_kernel(phi: Isogeny, target_basis) -> "object":
    """The line phi(E_domain[ell]) as a 1-dim subspace in torsion-basis
    coordinates; checked to be Frobenius-invariant."""
    from .curves import frobenius_matrix
    from .verify import _line_subspace

    ell = phi.degree
    if target_basis.ell != ell:
        raise ValueError("basis torsion level differs from the isogeny degree")
    sub = _line_subspace(target_basis, dual_kernel_polynomial(phi).int_coeffs())
    mat = frobenius_matrix(
        target_basis.curve if target_basis.k == 1 else phi.codomain,
        target_basis,
    )
    a, b = sub.rows[0]
    img = (
        (mat.entries[0][0] * a + mat.entries[0][1] * b) % ell,
        (mat.entries[1][0] * a + mat.entries[1][1] * b) % ell,
    )
    if not sub.contains_vector(list(img)):
        raise InternalError("dual kernel line is not Frobenius-invariant")
    return sub
