"""Object-layer helpers that only the tests use: curve isomorphisms (the
change of coordinates, short forms, isomorphism search between two curves
and the point map of an isomorphism), the objects of a graph arm, the dual
kernel of an isogeny through an F_q-extension, point counting by
enumeration, the torsion basis from every torsion point, and the rank of
the rational ell-torsion.  They
are independent routes to what the int layer of `isogeny_lab.graphs` and
the lazy paths of `isogeny_lab.curves` compute, so the tests hold the
verifier against them."""

from __future__ import annotations

from isogeny_lab import graphs, intpoly
from isogeny_lab.curves import (
    CurvePoint,
    WeierstrassCurve,
    _sort_key,
    division_polynomial,
    frobenius_matrix,
    torsion_basis,
    torsion_field_degree,
)
from isogeny_lab.errors import CapabilityError, FieldMismatchError, InternalError
from isogeny_lab.fields import (
    ExtensionField,
    FieldElement,
    Polynomial,
    PrimeField,
    RationalField,
    _val_inverse,
    _val_is_zero,
    poly_roots,
)
from isogeny_lab.graphs import xmul_fraction_ints
from isogeny_lab.isogenies import Isogeny, velu_quotient


# --- curve isomorphisms ---------------------------------------------------------


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


def short_form(curve: WeierstrassCurve):
    """(short-form curve, iso curve -> short) for char > 3 or Q.

    The iso data (u, r, s, t) follows the substitution
    x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.
    """
    field = curve.field
    two_inv = _val_inverse(field.element(2))
    s = -curve.a1 * two_inv
    t = -curve.a3 * two_inv
    e1 = CurveIsomorphism(field, field.one(), field.zero(), s, t)
    c1 = e1.apply_to_curve(curve)
    # now a1 = a3 = 0; kill a2 with r = -a2/3 (with a1 = 0, a3 stays 0)
    r = -c1.a2 * _val_inverse(field.element(3))
    e2 = CurveIsomorphism(field, field.one(), r, field.zero(), field.zero())
    return e2.apply_to_curve(c1), e1.compose(e2)


def arm_source_curve(arm, field: PrimeField) -> WeierstrassCurve:
    return WeierstrassCurve(field, *arm.source)


def arm_isogeny(arm, field: PrimeField, ell: int) -> Isogeny:
    E = arm_source_curve(arm, field)
    P = E.point(field.element(arm.kernel_point[0]), field.element(arm.kernel_point[1]))
    return velu_quotient(E, P, ell)


def arm_isomorphism(arm, field: PrimeField) -> CurveIsomorphism:
    u, r, s, t = arm.iso_to_target
    return CurveIsomorphism(field, u, r, s, t)


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
    S1, i1 = short_form(E)
    S2, i2 = short_form(E2)
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


def apply_to_point(iso: CurveIsomorphism, point: CurvePoint,
                   codomain: WeierstrassCurve) -> CurvePoint:
    """The image of point under iso (x = u^2 x' + r, y = u^3 y' + s u^2 x' + t)."""
    if point.infinity:
        return codomain.infinity()
    u, r, s, t = iso.u, iso.r, iso.s, iso.t
    u2 = u * u
    x1 = (point.x - r) / u2
    y1 = (point.y - s * (point.x - r) - t) / (u2 * u)
    return codomain.point(x1, y1)


# --- dual kernels -----------------------------------------------------------------


def xmul_table(psi, F, ell, q):
    """{j: (num, den)} with x([j]P) = num/den for j = 2..(ell - 1) // 2; the
    maps depend only on the curve, so one table serves all its lines.

    psi, F come from psi_tilde_ints up to index (ell + 1) // 2 or beyond.
    """
    return {j: xmul_fraction_ints(psi, F, j, q) for j in range(2, (ell - 1) // 2 + 1)}


def line_poly_int(xmul, xi, f, q):
    """Monic kernel x-polynomial (int coefficients) of the order-ell subgroup
    through a point whose x-coordinate is xi in F_q[z]/(f), f irreducible.

    xmul is the curve's xmul_table.  Returns None when the line is not
    Galois-stable (a coefficient leaves F_q) or when some x([j]P) has a zero
    denominator.
    """
    xs = [xi]
    for numj, denj in xmul.values():
        nv = eval_poly_ext(numj, xi, f, q)
        dv = eval_poly_ext(denj, xi, f, q)
        if not dv:
            return None
        xs.append(intpoly.emul(nv, intpoly.einv(dv, f, q), f, q))
    # w = prod (X - x_j) with coefficients in F_q[z]/(f)
    w_ext = [[1]]
    for xj in xs:
        new = [[] for _ in range(len(w_ext) + 1)]
        for i, c in enumerate(w_ext):
            new[i + 1] = intpoly.padd(new[i + 1], c, q)
            new[i] = intpoly.psub(new[i], intpoly.emul(c, xj, f, q), q)
        w_ext = new
    w = []
    for c in w_ext:
        c = intpoly.trim(c)
        if intpoly.deg(c) > 0:
            return None
        w.append(c[0] if c else 0)
    return w


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
    psi = graphs.torsion_x_poly_ints([c.to_int() for c in phi.domain.coefficients()], q, ell)
    kappa = phi.kernel_poly.int_coeffs()
    g, rem = intpoly.pdivmod(psi, kappa, q)
    if rem:
        raise InternalError("kernel polynomial does not divide the division polynomial")
    num = phi.num.int_coeffs()
    den = phi.den.int_coeffs()
    f = intpoly.factor_squarefree(g, q)[0]
    d = intpoly.deg(f)
    alpha = [(-f[0]) % q] if d == 1 else [0, 1]
    n_val = eval_poly_ext(num, alpha, f, q)
    d_val = eval_poly_ext(den, alpha, f, q)
    xi = intpoly.emul(n_val, intpoly.einv(d_val, f, q), f, q)
    psi_cod, F_cod = graphs.psi_tilde_ints(
        [c.to_int() for c in phi.codomain.coefficients()], q, (ell + 1) // 2
    )
    w_ints = line_poly_int(xmul_table(psi_cod, F_cod, ell, q), xi, f, q)
    if w_ints is None:
        raise InternalError("dual kernel line is not Galois-stable")
    return Polynomial(field, [field.element(c) for c in w_ints])


def eval_poly_ext(g: list[int], a: list[int], f: list[int], q: int) -> list[int]:
    """Evaluate g in F_q[x] at the element a of F_q[z]/(f)."""
    acc: list[int] = []
    for c in reversed(g):
        acc = intpoly.emul(acc, a, f, q) if acc else []
        if c:
            acc = intpoly.padd(acc, [c], q)
    return acc


def peval(f: list[int], x: int, q: int) -> int:
    """f(x) mod q by Horner."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % q
    return acc


# --- point counting and torsion bases ------------------------------------------

ORDER_ENUMERATION_CAP = 10**6


def curve_order(curve: WeierstrassCurve, cap: int = ORDER_ENUMERATION_CAP) -> int:
    """#E(F_q) by exhaustive enumeration over x (char != 2 trick: count y
    solutions through the quadratic discriminant)."""
    field = curve.field
    size = field.size()
    if size is None:
        raise CapabilityError("curve_order requires a finite field")
    if size > cap:
        raise CapabilityError(f"field size {size} exceeds enumeration cap {cap}")
    if isinstance(field, PrimeField):
        q = field.p
        a1, a2, a3, a4, a6 = (c.to_int() for c in curve.coefficients())
        total = 1
        half = (q - 1) // 2
        for x in range(q):
            lin = (a1 * x + a3) % q
            f = (((x + a2) * x + a4) * x + a6) % q
            disc = (lin * lin + 4 * f) % q
            if disc == 0:
                total += 1
            elif pow(disc, half, q) == 1:
                total += 2
        return total
    total = 1
    for x in field.iter_elements():
        total += len(curve.y_candidates(x))
    return total


def eager_torsion_basis(curve: WeierstrassCurve, ell: int) -> tuple:
    """(P, Q) from the enumeration of every nonzero ell-torsion point, from
    the roots of the whole division polynomial and both y's above each, in
    order of x and then y: P the first of them and Q the first outside
    {P, 2P, ..., (ell - 1)P}.  The reference for torsion_basis, which takes
    y only at P and Q."""
    q, k = curve.field.p, torsion_field_degree(curve, ell)
    K = curve.field if k == 1 else ExtensionField(q, k)
    curve_k = curve if k == 1 else curve.base_change(K)
    xs = sorted(poly_roots(division_polynomial(curve, ell), K), key=_sort_key)
    points = [curve_k.point(x, y) for x in xs for y in curve_k.y_candidates(x)]
    if len(points) != ell * ell - 1:
        raise InternalError(f"found {len(points)} nonzero {ell}-torsion points")
    P = points[0]
    span, acc = set(), curve_k.infinity()
    for _ in range(ell - 1):
        acc = acc + P
        span.add(acc)
    return P, next(R for R in points if R not in span)


# --- rational torsion --------------------------------------------------------------


def rational_ell_torsion(curve: WeierstrassCurve, ell: int) -> int:
    """dim_{F_ell} E[ell](F_q) = dim ker(Frobenius - I)."""
    basis = torsion_basis(curve, ell)
    mat = frobenius_matrix(curve, basis, curve_order(curve))
    (a, b), (c, d) = mat.entries
    m = ((a - 1) % ell, b % ell, c % ell, (d - 1) % ell)
    if all(v == 0 for v in m):
        return 2
    # rank of 2x2 over F_ell
    det = (m[0] * m[3] - m[1] * m[2]) % ell
    return 0 if det != 0 else 1
