"""Quadratic factors over F_p solved in F_{p^k}, k even and p odd, by the
quadratic formula: x^2 + bx + c irreducible over F_p has the roots
(-b +- sqrt(D))/2 with D = b^2 - 4c a non-residue of F_p, and
sqrt(D) = sqrt(D/c0) delta for one root delta in F_{p^k} of a fixed
non-residue c0, kept per (p, modulus) like the field's fold rows and
Frobenius images.

`fields` imports this module on first use: the k = 1 sweeps never build an
extension field, and their peak memory is set while the package is
imported, so the module stays off that path.
"""

from __future__ import annotations

from . import intpoly
from .errors import InternalError
from .fields import ExtensionField, FieldElement

_NONRESIDUE_ROOTS: dict[tuple, tuple] = {}  # (p, modulus) -> (c0, delta)


def nonresidue_root(field: ExtensionField) -> tuple[int, tuple]:
    """(c0, delta) with delta^2 = c0 a non-residue of F_p, found once per
    field.  delta = w - Frob(w) for the norm w = z Frob^2(z) ... Frob^(k-2)(z)
    of z into F_{p^2}, at the first z with w outside F_p, counted from t on
    (t, t + 1, ..., 2t, ...): Frob(delta) = -delta != delta, so delta is not
    in F_p while c0 = delta^2 is.  For k = 2, z = t gives delta = 2t + b and
    c0 = b^2 - 4c for the modulus t^2 + bt + c."""
    key = (field.p, field.modulus)
    root = _NONRESIDUE_ROOTS.get(key)
    if root is not None:
        return root
    p, k, fold = field.p, field.k, field.fold
    for n in range(p, p**k):
        w = z = tuple([n // p**i % p for i in range(k)])
        for i in range(2, k, 2):
            w = intpoly.tmul(w, field._frobenius(z, i), fold, p)
        delta = tuple([(u - v) % p for u, v in zip(w, field._frobenius(w))])
        if any(delta):
            break
    c0, *high = intpoly.tmul(delta, delta, fold, p)
    if any(high) or pow(c0, (p - 1) // 2, p) != p - 1:
        raise InternalError("delta^2 is not a non-residue of F_p")
    root = _NONRESIDUE_ROOTS[key] = c0, delta
    return root


def quadratic_roots(h: list[int], field: ExtensionField) -> list[FieldElement]:
    """The two roots in `field` of h = [c, b, 1], irreducible over F_p.  The
    pair is checked: r1 + r2 = -b and r1 r2 = c, so both are roots of h."""
    c, b, _ = h
    p, (c0, delta) = field.p, nonresidue_root(field)
    r = intpoly.sqrt_mod((b * b - 4 * c) * pow(c0, -1, p), p)
    if r is None:
        raise InternalError("D/c0 is no square in F_p")
    half, low = (p + 1) // 2, (0,) * (field.k - 1)
    r1 = tuple([(r * u - (0 if i else b)) * half % p for i, u in enumerate(delta)])
    r2 = tuple([(-r * u - (0 if i else b)) * half % p for i, u in enumerate(delta)])
    if (tuple([(u + v) % p for u, v in zip(r1, r2)]) != (-b % p,) + low
            or intpoly.tmul(r1, r2, field.fold, p) != (c,) + low):
        raise InternalError("the quadratic-formula roots are not the factor's roots")
    return [FieldElement(field, r1), FieldElement(field, r2)]
