"""Separable prime-degree isogenies via Velu's formulas and the universal
3-isogeny family.

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
from .errors import FieldMismatchError
from .fields import FieldElement, Polynomial, _val_is_zero, is_prime


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


def velu_quotient(curve: WeierstrassCurve, point: CurvePoint, ell: int) -> Isogeny:
    """The isogeny E -> E/<P> for a point P of prime order ell."""
    if point.curve != curve:
        raise FieldMismatchError("kernel point is not on the curve")
    if not is_prime(ell):
        raise ValueError(f"kernel order {ell} is not prime")
    if not point.has_order(ell):
        raise ValueError(f"kernel point does not have exact order {ell}")
    ch = curve.field.characteristic()
    if ch and ch == ell:
        raise ValueError("ell must differ from the characteristic")
    h = kernel_polynomial_from_point(point, ell)
    return replace(quotient_by_kernel_polynomial(curve, h, ell), kernel_point=point)


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
