"""Object-layer helpers that only the tests use: isomorphism search between
two curves, the point map of an isomorphism, the dual kernel of an isogeny
through an F_q-extension, and the rank of the rational ell-torsion.  They
are independent routes to what the int layer of `isogeny_lab.graphs`
computes, so the tests hold the verifier against them."""

from __future__ import annotations

from isogeny_lab import graphs, intpoly
from isogeny_lab.curves import CurvePoint, WeierstrassCurve, frobenius_matrix, torsion_basis
from isogeny_lab.errors import CapabilityError, FieldMismatchError, InternalError
from isogeny_lab.fields import Polynomial, PrimeField, RationalField, _val_is_zero, poly_roots
from isogeny_lab.graphs import xmul_fraction_ints
from isogeny_lab.isogenies import CurveIsomorphism, Isogeny


# --- curve isomorphisms ---------------------------------------------------------


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
        nv = intpoly.eval_poly_ext(numj, xi, f, q)
        dv = intpoly.eval_poly_ext(denj, xi, f, q)
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
    n_val = intpoly.eval_poly_ext(num, alpha, f, q)
    d_val = intpoly.eval_poly_ext(den, alpha, f, q)
    xi = intpoly.emul(n_val, intpoly.einv(d_val, f, q), f, q)
    psi_cod, F_cod = graphs.psi_tilde_ints(
        [c.to_int() for c in phi.codomain.coefficients()], q, (ell + 1) // 2
    )
    w_ints = line_poly_int(xmul_table(psi_cod, F_cod, ell, q), xi, f, q)
    if w_ints is None:
        raise InternalError("dual kernel line is not Galois-stable")
    return Polynomial(field, [field.element(c) for c in w_ints])


# --- rational torsion --------------------------------------------------------------


def rational_ell_torsion(curve: WeierstrassCurve, ell: int) -> int:
    """dim_{F_ell} E[ell](F_q) = dim ker(Frobenius - I)."""
    basis = torsion_basis(curve, ell)
    mat = frobenius_matrix(curve, basis)
    (a, b), (c, d) = mat.entries
    m = ((a - 1) % ell, b % ell, c % ell, (d - 1) % ell)
    if all(v == 0 for v in m):
        return 2
    # rank of 2x2 over F_ell
    det = (m[0] * m[3] - m[1] * m[2]) % ell
    return 0 if det != 0 else 1
