"""Separable prime-degree isogenies via Velu's formulas, explicit curve
isomorphisms and the universal 3-isogeny family.

The quotient is computed from the kernel polynomial alone: the Velu sums
are symmetric functions of the kernel x-coordinates, so power sums via
Newton's identities give the codomain and the x-map (graphs.velu_t_w and
graphs.velu_x_map, shared with the int layer).  The y-map is forced by the
normalization (the pullback of the invariant differential is the invariant
differential):  Y = (X'(x) (2y + a1 x + a3) - a1 X - a3)/2.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace

from . import graphs, intpoly
from .curves import CurvePoint, WeierstrassCurve
from .errors import CapabilityError, FieldMismatchError
from .fields import FieldElement, Polynomial, _val_inverse, _val_is_zero, is_prime


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
    out = Polynomial(field, [field.one()])
    acc = point
    for _ in range(max(1, (ell - 1) // 2)):
        out = out * (x - Polynomial(field, [acc.x]))
        acc = acc + point
    return out


def quotient_by_kernel_polynomial(
    curve: WeierstrassCurve, h: Polynomial, ell: int
) -> Isogeny:
    """Velu quotient of `curve` by the subgroup with kernel polynomial h: the
    Polynomial instance of graphs.velu_t_w and graphs.velu_x_map."""
    field = curve.field
    h = h.monic()
    d = 1 if ell == 2 else (ell - 1) // 2
    if h.degree != d:
        raise ValueError(f"kernel polynomial degree must be {d}")
    b = curve.b_invariants()[:3]
    sums = intpoly.power_sums(h.coeffs, 3)
    t, w = graphs.velu_t_w(b, ell, d, sums, field.one() / 2)
    num, den = graphs.velu_x_map(
        b, h, sums[0], t, ell,
        functools.partial(Polynomial, field),
        operator.mul,
        operator.sub,
        Polynomial.derivative,
    )
    a1, a2, a3, a4, a6 = curve.coefficients()
    codomain = WeierstrassCurve(field, a1, a2, a3, a4 - 5 * t, a6 - b[0] * t - 7 * w)
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
    return replace(quotient_by_kernel_polynomial(curve, h, ell), kernel_point=point)


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
