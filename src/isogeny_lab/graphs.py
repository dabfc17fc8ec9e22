"""Assembly of pointed rational ell-isogeny graphs over prime fields.

The sweep enumerates short-form curves (plus the universal 3-isogeny family
for ell = 3), finds rational order-ell subgroups through the group
structure, computes Velu quotients, groups codomains into isomorphism
classes by twist-aware canonical keys, and identifies each arm's dual
kernel with one of the target's Galois-stable pointed lines.

Everything here works on plain ints mod q for speed; the contract-level
objects (WeierstrassCurve, Isogeny, CurveIsomorphism) are reconstructed
lazily from the stored integer data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field
from math import gcd
from typing import ClassVar

from . import intpoly
from .errors import CapabilityError, InternalError
from .fields import PrimeField

DEFAULT_CURVE_LIMIT = 250_000


# --- per-field cached tables ----------------------------------------------------


class FqTables:
    """Quadratic-character and square-root tables, plus the short-curve
    order table N[a][b] (0 marks singular curves), for one prime q."""

    def __init__(self, q: int):
        self.q = q
        chi = [0] * q
        sqrt_t = [-1] * q
        for y in range(q):
            v = (y * y) % q
            if sqrt_t[v] < 0:
                sqrt_t[v] = y
        for v in range(1, q):
            chi[v] = 1 if sqrt_t[v] >= 0 else -1
        self.chi = chi
        self.sqrt = sqrt_t
        self._orders: list[list[int]] | None = None

    def orders(self) -> list[list[int]]:
        if self._orders is None:
            self._orders = self._build_orders()
        return self._orders

    def _build_orders(self) -> list[list[int]]:
        """N[a][b] = q + 1 + sum_v cnt_a[v] chi(v + b), cnt_a[v] = #{x : x^3 + ax = v}.

        Each row is one packed correlation: the reversed cnt_a and the
        doubled list chi + 1 sit in 4-byte slots (every slot of the product
        is at most 2q), and slot q - 1 + b of their product is
        sum_v cnt_a[v] (chi(v + b) + 1) = N[a][b] - 1.
        """
        q = self.q
        slots_q = struct.Struct(f"<{q}I")
        nbytes = 4 * (3 * q - 1)
        chi_plus = [c + 1 for c in self.chi]
        chi2 = int.from_bytes(struct.pack(f"<{2 * q}I", *chi_plus, *chi_plus), "little")
        cubes = [(x * x * x) % q for x in range(q)]
        table = []
        for a in range(q):
            cnt = [0] * q
            for x in range(q):
                cnt[(cubes[x] + a * x) % q] += 1
            cnt.reverse()
            corr = (int.from_bytes(slots_q.pack(*cnt), "little") * chi2).to_bytes(nbytes, "little")
            table.append([s + 1 for s in slots_q.unpack_from(corr, 4 * (q - 1))])
        # mark singular curves: 4a^3 + 27b^2 = 0
        inv27 = pow(27, -1, q) if q != 3 else None
        for a in range(q):
            c = (-4 * a * a * a * inv27) % q
            y = self.sqrt[c]
            if y >= 0:
                table[a][y] = 0
                table[a][(q - y) % q] = 0
        return table


_TABLE_CACHE: dict[int, FqTables] = {}
_ORDER_CACHE_KEEP = 3


def fq_tables(q: int) -> FqTables:
    tab = _TABLE_CACHE.get(q)
    if tab is None:
        tab = FqTables(q)
        _TABLE_CACHE[q] = tab
        # keep order tables bounded: drop the oldest heavy tables
        heavy = [k for k, v in _TABLE_CACHE.items() if v._orders is not None]
        for k in heavy[:-_ORDER_CACHE_KEEP]:
            _TABLE_CACHE[k]._orders = None
    return tab


# --- integer point arithmetic ----------------------------------------------------


def pt_add(P, Q, coeffs, q):
    """Affine addition on a long Weierstrass curve; None is infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = coeffs
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2 + a1 * x2 + a3) % q == 0:
            return None
        inv = pow(2 * y1 + a1 * x1 + a3, -1, q)
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * inv % q
        nu = (-(x1 * x1 * x1) + a4 * x1 + 2 * a6 - a3 * y1) * inv % q
    else:
        den = (x2 - x1) % q
        inv = pow(den, -1, q)
        lam = (y2 - y1) * inv % q
        nu = (y1 * x2 - y2 * x1) * inv % q
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % q
    y3 = (-(lam + a1) * x3 - nu - a3) % q
    return (x3, y3)


def pt_neg(P, coeffs, q):
    if P is None:
        return None
    a1, _, a3, _, _ = coeffs
    x, y = P
    return (x, (-y - a1 * x - a3) % q)


def pt_mul(n, P, coeffs, q):
    if n < 0:
        return pt_mul(-n, pt_neg(P, coeffs, q), coeffs, q)
    R = None
    add = P
    while n:
        if n & 1:
            R = pt_add(R, add, coeffs, q)
        add = pt_add(add, add, coeffs, q)
        n >>= 1
    return R


def curve_b_invariants_int(coeffs, q):
    a1, a2, a3, a4, a6 = coeffs
    b2 = (a1 * a1 + 4 * a2) % q
    b4 = (2 * a4 + a1 * a3) % q
    b6 = (a3 * a3 + 4 * a6) % q
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4) % q
    return b2, b4, b6, b8


def discriminant_int(coeffs, q):
    b2, b4, b6, b8 = curve_b_invariants_int(coeffs, q)
    return (-b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % q


def j_invariant_int(coeffs, q):
    b2, b4, b6, b8 = curve_b_invariants_int(coeffs, q)
    c4 = (b2 * b2 - 24 * b4) % q
    disc = (-b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % q
    return c4 * c4 * c4 * pow(disc, -1, q) % q


def short_reduce_int(coeffs, q):
    """Short form (A, B) plus the iso data (u, r, s, t) mapping the curve to
    y^2 = x^3 + Ax + B (u = 1)."""
    a1, a2, a3, a4, a6 = coeffs
    b2, b4, b6, _ = curve_b_invariants_int(coeffs, q)
    c4 = (b2 * b2 - 24 * b4) % q
    c6 = (-b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6) % q
    inv864 = pow(864, -1, q)  # 1/48, 1/2 and 1/12 are 18, 432 and 72 times it
    A = -c4 * 18 * inv864 % q
    B = -c6 * inv864 % q
    s = -a1 * 432 * inv864 % q
    t0 = -a3 * 432 * inv864 % q
    r = -b2 * 72 * inv864 % q
    t = (s * r + t0) % q
    return A, B, (1, r, s, t)


# --- division polynomials over ints -----------------------------------------------


def psi_tilde_ints(coeffs, q, upto):
    """List psi~_0..psi~_upto (y-stripped division polynomials) as int polys,
    plus F = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    b2, b4, b6, b8 = curve_b_invariants_int(coeffs, q)
    F = intpoly.trim([b6 % q, (2 * b4) % q, b2 % q, 4 % q])
    psi: list[list[int]] = [[] for _ in range(upto + 1)]
    if upto >= 1:
        psi[1] = [1]
    if upto >= 2:
        psi[2] = [1]
    if upto >= 3:
        psi[3] = intpoly.trim([b8 % q, (3 * b6) % q, (3 * b4) % q, b2 % q, 3 % q])
    if upto >= 4:
        psi[4] = intpoly.trim(
            [
                (b4 * b8 - b6 * b6) % q,
                (b2 * b8 - b4 * b6) % q,
                (10 * b8) % q,
                (10 * b6) % q,
                (5 * b4) % q,
                b2 % q,
                2 % q,
            ]
        )
    F2 = intpoly.pmul(F, F, q)
    for n in range(5, upto + 1):
        m = n // 2
        t = psi
        if n % 2 == 1:
            first = intpoly.pmul(t[m + 2], intpoly.pmul(t[m], intpoly.pmul(t[m], t[m], q), q), q)
            second = intpoly.pmul(
                t[m - 1], intpoly.pmul(t[m + 1], intpoly.pmul(t[m + 1], t[m + 1], q), q), q
            )
            if m % 2 == 0:
                psi[n] = intpoly.psub(intpoly.pmul(F2, first, q), second, q)
            else:
                psi[n] = intpoly.psub(first, intpoly.pmul(F2, second, q), q)
        else:
            inner = intpoly.psub(
                intpoly.pmul(t[m + 2], intpoly.pmul(t[m - 1], t[m - 1], q), q),
                intpoly.pmul(t[m - 2], intpoly.pmul(t[m + 1], t[m + 1], q), q),
                q,
            )
            psi[n] = intpoly.pmul(t[m], inner, q)
    return psi, F


def torsion_x_poly_ints(coeffs, q, ell):
    """The x-coordinate polynomial of the nonzero ell-torsion, over ints."""
    psi, F = psi_tilde_ints(coeffs, q, max(ell, 3))
    if ell == 2:
        return F
    if ell % 2 == 1:
        return psi[ell]
    return intpoly.pmul(F, psi[ell], q)


def xmul_fraction_ints(psi, F, j, q):
    """(num, den) int polys with x([j]P) = num/den, from cached psi~ lists."""
    if j == 1:
        return [0, 1], [1]
    tm = psi[j]
    tm2 = intpoly.pmul(tm, tm, q)
    tprod = intpoly.pmul(psi[j - 1], psi[j + 1], q)
    if j % 2 == 1:
        num = intpoly.psub(intpoly.pmul([0, 1], tm2, q), intpoly.pmul(F, tprod, q), q)
        den = tm2
    else:
        num = intpoly.psub(intpoly.pmul([0, 1], intpoly.pmul(F, tm2, q), q), tprod, q)
        den = intpoly.pmul(F, tm2, q)
    return num, den


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


# --- Velu over ints ----------------------------------------------------------------


def velu_codomain_int(coeffs, kappa, ell, q, binv=None, sums=None):
    """Codomain coefficients of the quotient by the subgroup with kernel
    polynomial kappa (monic, ints).

    binv = (b2, b4, b6) of the curve and sums = the power sums p_1..p_3 of
    kappa's roots are computed here unless the caller already has them.
    """
    a1, a2, a3, a4, a6 = coeffs
    b2, b4, b6 = binv or curve_b_invariants_int(coeffs, q)[:3]
    d = intpoly.deg(kappa)
    if ell == 2:
        x0 = (-kappa[0]) % q
        t = (6 * x0 * x0 + b2 * x0 + b4) * pow(2, -1, q) % q
        w = x0 * t % q
    else:
        p1, p2, p3 = sums or intpoly.power_sums(kappa, 3)
        t = (6 * p2 + b2 * p1 + d * b4) % q
        w = (10 * p3 + 2 * b2 * p2 + 3 * b4 * p1 + d * b6) % q
    return (a1, a2, a3, (a4 - 5 * t) % q, (a6 - b2 * t - 7 * w) % q)


def velu_x_maps_int(coeffs, kappa, ell, q):
    """(num, den) int polynomials of the quotient x-map."""
    b2, b4, b6, _ = curve_b_invariants_int(coeffs, q)
    h = kappa
    if ell == 2:
        x0 = (-h[0]) % q
        t = (6 * x0 * x0 + b2 * x0 + b4) * pow(2, -1, q) % q
        num = intpoly.padd(intpoly.pmul([0, 1], h, q), [t], q)
        return num, h[:]
    d = intpoly.deg(h)
    p1 = intpoly.power_sums(h, 1)[0]
    v = intpoly.trim([b4, b2, 6 % q])
    u = intpoly.trim([b6, (2 * b4) % q, b2, 4 % q])
    hp = intpoly.pderiv(h, q)
    hpp = intpoly.pderiv(hp, q)
    h2 = intpoly.pmul(h, h, q)
    num = intpoly.psub(
        intpoly.psub(
            intpoly.psub(
                intpoly.pscale(intpoly.pmul([0, 1], h2, q), ell, q),
                intpoly.pscale(h2, 2 * p1, q),
                q,
            ),
            intpoly.pmul(v, intpoly.pmul(hp, h, q), q),
            q,
        ),
        intpoly.pmul(u, intpoly.psub(intpoly.pmul(hpp, h, q), intpoly.pmul(hp, hp, q), q), q),
        q,
    )
    return num, h2


def velu_x_map_at(binv, kappa, p1, ell, x, q):
    """(num(x), num'(x), den(x), den'(x)) of velu_x_maps_int at x in F_q,
    without building the polynomials.

    binv = (b2, b4, b6) of the source curve and p1 the sum of kappa's roots.
    With h = kappa, den = h^2 and num = ell x h^2 - 2 p1 h^2 - v h' h
    - u (h'' h - h'^2), where v = 6x^2 + b2 x + b4 and
    u = 4x^3 + b2 x^2 + 2 b4 x + b6 (den = h and num = x h + t at ell = 2);
    one Horner pass gives h, h', h'' and h''' at x.
    """
    b2, b4, b6 = binv
    t0 = t1 = t2 = t3 = 0  # t_k = h^(k)(x) / k!
    for c in reversed(kappa):
        t3 = t3 * x + t2
        t2 = t2 * x + t1
        t1 = t1 * x + t0
        t0 = t0 * x + c
    h, hp = t0 % q, t1 % q
    if ell == 2:
        t = (6 * p1 * p1 + b2 * p1 + b4) * ((q + 1) // 2)
        return (x * h + t) % q, (h + x * hp) % q, h, hp
    hpp, hppp = 2 * t2 % q, 6 * t3 % q
    v = (6 * x + b2) * x + b4
    u = ((4 * x + b2) * x + 2 * b4) * x + b6
    lin = ell * x - 2 * p1
    w = hpp * h - hp * hp  # its derivative is h''' h - h' h''
    num = (lin * h - v * hp) * h - u * w
    nump = (
        (ell * h + 2 * lin * hp - (12 * x + b2) * hp) * h
        - v * (hpp * h + hp * hp)
        - ((12 * x + 2 * b2) * x + 2 * b4) * w
        - u * (hppp * h - hp * hpp)
    )
    return num % q, nump % q, h * h % q, 2 * h * hp % q


# --- canonical isomorphism-class keys ----------------------------------------------


def short_class_key(A, B, q, tab: FqTables):
    """Canonical key (kind, j, twist) for the F_q-isomorphism class of
    y^2 = x^3 + Ax + B; its second entry is the j-invariant."""
    A %= q
    B %= q
    if A == 0:
        g6 = gcd(6, q - 1)
        return (0, 0, pow(B, (q - 1) // g6, q))
    if B == 0:
        g4 = gcd(4, q - 1)
        return (1, 1728 % q, pow(A, (q - 1) // g4, q))
    c = 4 * A * A * A
    j = 1728 * c * pow(c + 27 * B * B, -1, q) % q
    return (2, j, tab.chi[A * B % q])


def solve_twist_scale(A1, B1, A2, B2, q, tab: FqTables):
    """u with (A1/u^4, B1/u^6) = (A2, B2), assuming the curves share a key."""
    if A1 % q and B1 % q:
        u2 = B1 * pow(B2, -1, q) * A2 % q * pow(A1, -1, q) % q
        u = tab.sqrt[u2]
        if u < 0:
            raise InternalError("same-key curves do not admit an isomorphism (generic j)")
        return u
    if A1 % q == 0:
        c = B1 * pow(B2, -1, q) % q
        # u^6 = c: cube roots of c, then square roots
        for z in intpoly.roots_in_fq([(-c) % q, 0, 0, 1], q):
            u = tab.sqrt[z]
            if u >= 0 and u:
                return u
        raise InternalError("same-key curves do not admit an isomorphism (j = 0)")
    c = A1 * pow(A2, -1, q) % q
    s = tab.sqrt[c]
    if s >= 0:
        for cand in (s, (q - s) % q):
            u = tab.sqrt[cand]
            if u >= 0 and u:
                return u
    raise InternalError("same-key curves do not admit an isomorphism (j = 1728)")


def compose_iso_int(i1, i2, q):
    """(u,r,s,t) of applying i1 then i2."""
    u1, r1, s1, t1 = i1
    u2, r2, s2, t2 = i2
    return (
        u1 * u2 % q,
        (u1 * u1 * r2 + r1) % q,
        (u1 * s2 + s1) % q,
        (u1 * u1 * u1 * t2 + s1 * u1 * u1 * r2 + t1) % q,
    )


# --- stable pointed lines of a target ----------------------------------------------


def enumerate_pointed_lines(A, B, N, ell, q, tab: FqTables):
    """All Galois-stable lines of E[ell] with trivial quotient action, for
    the short curve y^2 = x^3 + Ax + B with #E = N (ell | N required).

    Returns a list of (w, quotient_key, quotient_coeffs) with w the monic
    kernel x-polynomial of the line (int coefficients), sorted by w.

    Frobenius has eigenvalues 1 and q on E[ell], so a pointed line is a
    q-eigenline.  Its points P satisfy x(P)^q = x([a]P) with
    a = min(q mod ell, ell - q mod ell), i.e. Frob(P) = +-[q]P, so one gcd
    of psi_ell with X^q den_a - num_a (x([a]P) = num_a / den_a) holds its
    kernel polynomial, as in the Elkies step of SEA (R. Schoof, J. Theor.
    Nombres Bordeaux 7, 1995).  When q = -1 mod ell the gcd holds both
    eigenlines, and the q-eigenline is the one whose y-coordinates are not
    rational.  When q = 1 mod ell and Frobenius is the identity it holds
    all of E[ell], and every line is pointed.
    """
    if N % ell:
        raise InternalError("pointed lines require ell | #E")
    coeffs = (0, 0, 0, A % q, B % q)
    cubic = [B % q, A % q, 0, 1]
    if ell == 2:
        lines = [[(-r) % q, 1] for r in intpoly.roots_in_fq(cubic, q)]
        out = []
        for w in lines:
            cod = velu_codomain_int(coeffs, w, 2, q)
            key = short_class_key(cod[3], cod[4], q, tab)
            out.append((tuple(w), key, cod))
        return out
    psi, F = psi_tilde_ints(coeffs, q, ell)
    psi_x = psi[ell]
    qmod = q % ell
    a_star = min(qmod, ell - qmod)
    num, den = xmul_fraction_ints(psi, F, a_star, q)
    xq = intpoly.ppowmod([0, 1], q, psi_x, q)
    g = intpoly.pgcd(intpoly.psub(intpoly.pmul(xq, den, q), num, q), psi_x, q)
    if qmod == ell - 1:
        # keep the roots x at which the cubic is a non-square
        s = intpoly.ppowmod(cubic, (q - 1) // 2, g, q)
        g = intpoly.pgcd(intpoly.padd(s, [1], q), g, q)
    half = (ell - 1) // 2
    if intpoly.deg(g) == half:
        lines = [tuple(g)]
    elif qmod == 1 and intpoly.deg(g) == half * (ell + 1):
        xmul = xmul_table(psi, F, ell, q)
        roots = intpoly.equal_degree_split(g, 1, q)
        lines = sorted({tuple(line_poly_int(xmul, [(-r[0]) % q], r, q)) for r in roots})
    else:
        raise InternalError(f"q-eigenline gcd has degree {intpoly.deg(g)}")
    out = []
    for w_key in lines:
        cod = velu_codomain_int(coeffs, list(w_key), ell, q)
        if discriminant_int(cod, q) == 0:
            raise InternalError("line quotient is singular")
        key = short_class_key(cod[3], cod[4], q, tab)
        out.append((w_key, key, cod))
    return out


def _line_pointwise_rational(w, A, B, q, tab: FqTables) -> bool:
    """True iff every point of the line is F_q-rational (x's split and the
    y's are square roots of the cubic)."""
    roots = intpoly.roots_in_fq(list(w), q)
    if len(roots) != intpoly.deg(list(w)):
        return False
    for x in roots:
        rhs = (x * x * x + A * x + B) % q
        if tab.chi[rhs] < 0:
            return False
    return True


# --- arm discovery -----------------------------------------------------------------


def rational_order_ell_subgroups(A, B, N, ell, q, tab: FqTables, psi_roots=None, key=None):
    """All order-ell subgroups of y^2 = x^3 + Ax + B generated by rational
    points: list of (kernel_point, x_coords). Requires ell | N.

    psi_roots and key (the curve's short_class_key) are handed to
    _rational_ell_points."""
    coeffs = (0, 0, 0, A % q, B % q)
    if ell == 2:
        out = []
        for r in intpoly.roots_in_fq([B % q, A % q, 0, 1], q):
            out.append(((r, 0), [r]))
        return out
    v = 0
    m = N
    while m % ell == 0:
        m //= ell
        v += 1
    full_possible = v >= 2 and q % ell == 1
    if not full_possible:
        pt = _find_order_ell_point(A, B, N, m, ell, q, tab)
        if pt is None:
            raise InternalError("no rational order-ell point despite ell | N")
        return [(pt, _subgroup_xs(pt, coeffs, ell, q))]
    # possibly two-dimensional rational torsion: use division-polynomial roots
    points = _rational_ell_points(A, B, ell, q, tab, psi_roots, key)
    want_full = (ell * ell - 1) // 2
    xs_with_y = sorted({p[0] for p in points})
    if len(xs_with_y) < want_full:
        # one-dimensional: all rational order-ell points share one subgroup
        pt = points[0]
        return [(pt, _subgroup_xs(pt, coeffs, ell, q))]
    by_x = {}
    for p in points:
        by_x.setdefault(p[0], p)
    p1 = by_x[xs_with_y[0]]
    s1 = _subgroup_xs(p1, coeffs, ell, q)
    rest = [x for x in xs_with_y if x not in set(s1)]
    p2 = by_x[rest[0]]
    gens = [p1, p2]
    acc = p2
    for _ in range(ell - 1):
        acc = pt_add(acc, p1, coeffs, q)
        gens.append(acc)
    out = []
    seen = set()
    for g in gens:
        xs = _subgroup_xs(g, coeffs, ell, q)
        key = tuple(sorted(xs))
        if key in seen:
            continue
        seen.add(key)
        out.append((g, xs))
    if len(out) != ell + 1:
        raise InternalError(f"expected {ell + 1} subgroups, found {len(out)}")
    return out


def _find_order_ell_point(A, B, N, m, ell, q, tab: FqTables):
    """Deterministic scan for a rational point of exact order ell."""
    coeffs = (0, 0, 0, A, B)
    start = (7 * A + 13 * B + 1) % q
    for i in range(q):
        x = (start + i) % q
        rhs = (x * x * x + A * x + B) % q
        y = tab.sqrt[rhs]
        if y < 0:
            continue
        Q = pt_mul(m, (x, y), coeffs, q)
        if Q is None:
            continue
        while True:
            R = pt_mul(ell, Q, coeffs, q)
            if R is None:
                break
            Q = R
        return Q
    return None


def _rational_ell_points(A, B, ell, q, tab: FqTables, psi_roots=None, key=None):
    """All rational points of order ell (up to y-sign pairing both kept).

    psi_roots, when given, maps the key of each isomorphism class met so far
    to (A0, B0, roots of psi_ell in F_q for y^2 = x^3 + A0 x + B0).  A curve
    of a known class is (A, B) = (u^4 A0, u^6 B0), and (x, y) -> (u^2 x, u^3 y)
    maps the one onto the other, so its roots are u^2 times the stored ones.
    """
    hit = psi_roots.get(key) if psi_roots is not None else None
    if hit is None:
        roots = intpoly.roots_in_fq(torsion_x_poly_ints((0, 0, 0, A, B), q, ell), q)
        if psi_roots is not None:
            psi_roots[key] = (A, B, roots)
    else:
        A0, B0, roots0 = hit
        u = solve_twist_scale(A, B, A0, B0, q, tab)
        u2 = u * u % q
        roots = sorted(u2 * r % q for r in roots0)
    pts = []
    for x in roots:
        rhs = (x * x * x + A * x + B) % q
        y = tab.sqrt[rhs]
        if y < 0:
            continue
        pts.append((x, y))
    return pts


def _subgroup_xs(pt, coeffs, ell, q):
    xs = [pt[0]]
    acc = pt
    for _ in range(2, (ell - 1) // 2 + 1):
        acc = pt_add(acc, pt, coeffs, q)
        xs.append(acc[0])
    return xs


# --- graph data model ----------------------------------------------------------------


@dataclass(frozen=True)
class GraphArm:
    """One arm of a pointed graph, in integer form."""

    source: tuple[int, int, int, int, int]
    kernel_point: tuple[int, int]
    codomain: tuple[int, int, int, int, int]
    iso_to_target: tuple[int, int, int, int]
    dual_line: tuple[int, ...]

    def source_curve(self, field: PrimeField):
        from .curves import WeierstrassCurve

        return WeierstrassCurve(field, *self.source)

    def isogeny(self, field: PrimeField):
        from .isogenies import velu_quotient

        E = self.source_curve(field)
        P = E.point(field.element(self.kernel_point[0]), field.element(self.kernel_point[1]))
        return velu_quotient(E, P)

    def isomorphism(self, field: PrimeField):
        from .isogenies import CurveIsomorphism

        u, r, s, t = self.iso_to_target
        return CurveIsomorphism(field, u, r, s, t)

    def to_json(self):
        return {
            "source": list(self.source),
            "kernel_point": list(self.kernel_point),
            "codomain": list(self.codomain),
            "isomorphism": list(self.iso_to_target),
            "dual_kernel_poly": list(self.dual_line),
        }


@dataclass(frozen=True)
class PointedGraph:
    """All pointed arms into one target isomorphism class over F_q."""

    q: int
    ell: int
    target: tuple[int, int]  # short form (A, B) of the class representative
    target_order: int
    arms: tuple[GraphArm, ...]  # deduplicated by dual-kernel line
    arm_multiplicity: int  # arms found before dedup
    pointed_lines: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        distinct = len({a.dual_line for a in self.arms})
        return min(2, distinct)

    def target_curve(self, field: PrimeField | None = None):
        from .curves import WeierstrassCurve

        field = field or PrimeField(self.q)
        return WeierstrassCurve(field, 0, 0, 0, self.target[0], self.target[1])

    def to_json(self):
        return {
            "q": self.q,
            "ell": self.ell,
            "target": {"p": self.q, "k": 1, "modulus": [0, 1],
                       "a": [0, 0, 0, self.target[0], self.target[1]]},
            "target_order": self.target_order,
            "order": self.order,
            "arm_multiplicity": self.arm_multiplicity,
            "pointed_lines": [list(w) for w in self.pointed_lines],
            "arms": [a.to_json() for a in self.arms],
        }


# --- the sweep -------------------------------------------------------------------------


@dataclass
class SoundnessStats:
    """Per-isogeny engine checks accumulated over a sweep (criterion gate).

    The per-kind counters are exact; `failures` keeps the witnesses of the
    first MAX_WITNESSES failures only.
    """

    MAX_WITNESSES: ClassVar[int] = 32

    isogenies: int = 0
    homomorphism_failures: int = 0
    kernel_failures: int = 0
    singular_codomains: int = 0
    dual_j_failures: int = 0
    order_mismatches: int = 0
    failures: list = dc_field(default_factory=list)

    def record(self, counter: str, kind: str, source) -> None:
        """Count one failure under `counter`; keep its witness below the cap."""
        setattr(self, counter, getattr(self, counter) + 1)
        if len(self.failures) < self.MAX_WITNESSES:
            self.failures.append({"kind": kind, "source": list(source)})

    def ok(self) -> bool:
        return (
            self.homomorphism_failures == 0
            and self.kernel_failures == 0
            and self.singular_codomains == 0
            and self.dual_j_failures == 0
            and self.order_mismatches == 0
        )

    def to_json(self):
        return {
            "isogenies": self.isogenies,
            "homomorphism_failures": self.homomorphism_failures,
            "kernel_failures": self.kernel_failures,
            "singular_codomains": self.singular_codomains,
            "dual_j_failures": self.dual_j_failures,
            "order_mismatches": self.order_mismatches,
        }


class _TargetClass:
    __slots__ = ("key", "rep", "order", "lines", "arms", "line_index", "_dual_j")

    def __init__(self, key, rep, order, lines):
        self.key = key
        self.rep = rep  # (A, B)
        self.order = order
        self.lines = lines  # [(w, quotient_key, quotient_coeffs)]
        self.arms = []  # (GraphArm fields...) appended as tuples
        self.line_index = {}
        for w, qkey, _ in lines:
            self.line_index.setdefault(qkey, []).append(w)
        self._dual_j = {}

    def dual_quotient_j(self, w, ell, q):
        """j of the representative's quotient by the line w, or None when
        that quotient is singular; computed once per line."""
        if w not in self._dual_j:
            wq = velu_codomain_int((0, 0, 0, self.rep[0], self.rep[1]), list(w), ell, q)
            self._dual_j[w] = None if discriminant_int(wq, q) == 0 else j_invariant_int(wq, q)
        return self._dual_j[w]


def build_pointed_graphs(
    field: PrimeField,
    ell: int,
    curve_limit: int = DEFAULT_CURVE_LIMIT,
    include_family: bool | None = None,
    soundness: SoundnessStats | None = None,
) -> list[PointedGraph]:
    """Enumerate every pointed K-rational ell-isogeny graph over F_q whose
    sources are short-form curves (plus the universal 3-isogeny family when
    ell = 3).

    Targets are grouped up to F_q-isomorphism; arms are matched to the
    target's stable pointed lines and deduplicated per line.
    """
    if not isinstance(field, PrimeField):
        raise CapabilityError("graph sweeps run over prime base fields only")
    q = field.p
    if q <= 3:
        raise ValueError("base field characteristic must exceed 3")
    if ell == q:
        raise ValueError("ell must differ from the characteristic")
    n_curves = q * q * (2 if (include_family or (include_family is None and ell == 3)) else 1)
    if n_curves > curve_limit:
        raise CapabilityError(
            f"enumeration of ~{n_curves} curves exceeds the cap {curve_limit}"
        )
    tab = fq_tables(q)
    orders = tab.orders()
    classes: dict[tuple, _TargetClass] = {}
    ambiguous: list[tuple] = []

    def target_class_for(cod_short_A, cod_short_B, N) -> _TargetClass:
        key = short_class_key(cod_short_A, cod_short_B, q, tab)
        tc = classes.get(key)
        if tc is None:
            lines = enumerate_pointed_lines(cod_short_A, cod_short_B, N, ell, q, tab)
            tc = _TargetClass(key, (cod_short_A, cod_short_B), N, lines)
            classes[key] = tc
        return tc

    def add_arm(src, src_inv, kernel_pt, kernel_xs, N):
        """src_inv = (short_class_key, (b2, b4, b6)) of the source curve."""
        src_key, binv = src_inv
        kappa = intpoly.pfrom_roots(kernel_xs, q)
        sums = [sum(x**k for x in kernel_xs) % q for k in (1, 2, 3)]
        cod = velu_codomain_int(src, kappa, ell, q, binv, sums)
        if cod[0] or cod[1] or cod[2]:
            A2, B2, red_iso = short_reduce_int(cod, q)
        else:
            A2, B2, red_iso = cod[3], cod[4], (1, 0, 0, 0)
        # the short form is isomorphic with u = 1, so it keeps cod's discriminant
        if (4 * A2 * A2 * A2 + 27 * B2 * B2) % q == 0:
            if soundness is not None:
                soundness.record("singular_codomains", "singular-codomain", src)
            raise InternalError("Velu codomain is singular")
        cod_tc = target_class_for(A2, B2, N)
        u = solve_twist_scale(A2, B2, cod_tc.rep[0], cod_tc.rep[1], q, tab)
        iso = compose_iso_int(red_iso, (u, 0, 0, 0), q)
        # source class: for matching arms to target lines
        cands = cod_tc.line_index.get(src_key, [])
        if not cands:
            raise InternalError(
                "no pointed line of the target matches the arm's source class"
            )
        if len(cands) == 1:
            w = cands[0]
        else:
            w = _match_dual_line(src, kappa, ell, q, cands, iso)
        arm = GraphArm(
            source=tuple(src),
            kernel_point=kernel_pt,
            codomain=cod,
            iso_to_target=iso,
            dual_line=tuple(w),
        )
        cod_tc.arms.append(arm)
        if soundness is not None:
            _soundness_checks(soundness, src, kappa, sums[0], kernel_pt, kernel_xs,
                              cod, (A2, B2), w, cod_tc, N, ell, q, tab, orders, src_inv)
        return arm

    # short-form sources; psi_roots holds the rational ell-torsion x's per class
    psi_roots: dict[tuple, tuple] = {}
    for a in range(q):
        row = orders[a]
        for b in range(q):
            N = row[b]
            if N == 0 or N % ell:
                continue
            src = (0, 0, 0, a, b)
            key = short_class_key(a, b, q, tab)
            src_inv = (key, (0, 2 * a % q, 4 * b % q))
            for pt, xs in rational_order_ell_subgroups(a, b, N, ell, q, tab, psi_roots, key):
                add_arm(src, src_inv, pt, xs, N)

    # the universal 3-isogeny family contributes its canonical arm
    if ell == 3 and (include_family or include_family is None):
        for w_par in range(q):
            w3 = w_par * w_par * w_par % q
            for v_par in range(1, q):
                if (w3 - 27 * v_par) % q == 0:
                    continue
                src = (w_par, 0, v_par, 0, 0)
                sA, sB, _ = short_reduce_int(src, q)
                N = orders[sA][sB]
                if N == 0 or N % 3:
                    raise InternalError("family curve with order not divisible by 3")
                src_inv = (short_class_key(sA, sB, q, tab), curve_b_invariants_int(src, q)[:3])
                add_arm(src, src_inv, (0, 0), [0], N)

    graphs = []
    for key in sorted(classes):
        tc = classes[key]
        if not tc.arms:
            continue
        by_line: dict[tuple, GraphArm] = {}
        for arm in tc.arms:
            by_line.setdefault(arm.dual_line, arm)
        arms = tuple(by_line[w] for w in sorted(by_line))
        graphs.append(
            PointedGraph(
                q=q,
                ell=ell,
                target=tc.rep,
                target_order=tc.order,
                arms=arms,
                arm_multiplicity=len(tc.arms),
                pointed_lines=tuple(sorted(w for w, _, _ in tc.lines)),
            )
        )
    return graphs


def _match_dual_line(src_coeffs, kappa, ell, q, candidates, iso_to_target):
    """Select the arm's dual line among candidate target lines.

    w (in target-representative coordinates) is the dual line iff
    w(rep-image of z) vanishes identically modulo g(z), where g carries the
    non-kernel torsion x-coordinates: the image of the torsion is exactly
    the line, so exactly one monic candidate of the right degree survives.
    """
    psi = torsion_x_poly_ints(src_coeffs, q, ell)
    g, rem = intpoly.pdivmod(psi, kappa, q)
    if rem:
        raise InternalError("kernel polynomial does not divide the torsion polynomial")
    num, den = velu_x_maps_int(src_coeffs, kappa, ell, q)
    # the arm iso maps codomain -> rep: x_rep = (x_cod - r) / u^2
    u, r, _, _ = iso_to_target
    u2inv = pow(u * u % q, -1, q)
    num_rep = intpoly.pscale(intpoly.psub(num, intpoly.pscale(den, r, q), q), u2inv, q)
    n_mod = intpoly.pmod(num_rep, g, q)
    d_mod = intpoly.pmod(den, g, q)
    deg_w = 1 if ell == 2 else (ell - 1) // 2
    n_pows = [[1]]
    d_pows = [[1]]
    for _ in range(deg_w):
        n_pows.append(intpoly.pmod(intpoly.pmul(n_pows[-1], n_mod, q), g, q))
        d_pows.append(intpoly.pmod(intpoly.pmul(d_pows[-1], d_mod, q), g, q))
    matched = None
    for w in candidates:
        acc: list[int] = []
        for i, wi in enumerate(w):
            if wi:
                term = intpoly.pscale(
                    intpoly.pmod(intpoly.pmul(n_pows[i], d_pows[deg_w - i], q), g, q),
                    wi,
                    q,
                )
                acc = intpoly.padd(acc, term, q)
        if not acc:
            if matched is not None:
                raise InternalError("two candidate dual lines both match the arm")
            matched = w
    if matched is None:
        raise InternalError("no candidate dual line matches the arm")
    return matched


def _soundness_checks(
    stats: SoundnessStats, src, kappa, p1, kernel_pt, kernel_xs, cod, cod_short, w_line,
    tc, N, ell, q, tab: FqTables, orders, src_inv,
):
    """Per-isogeny engine checks: homomorphism sampling, kernel collapse,
    nonsingular codomain, dual-line quotient j, isogenous order equality.

    p1 is the sum of kappa's roots, cod_short the short form (A, B) of the
    codomain and src_inv the source's (short_class_key, (b2, b4, b6)).  The
    x-map is evaluated at each check point by velu_x_map_at."""
    stats.isogenies += 1
    src_key, binv = src_inv
    a1, _, a3, _, _ = src
    inv2 = (q + 1) // 2

    def ev(P):
        if P is None:
            return None
        x, y = P
        nv, nd, dv, dd = velu_x_map_at(binv, kappa, p1, ell, x, q)
        if dv == 0:  # den is a power of kappa: P is in the kernel
            return None
        dinv = pow(dv, -1, q)
        X = nv * dinv % q
        Xp = (nd * dv - nv * dd) * dinv % q * dinv % q
        Y = (Xp * (2 * y + a1 * x + a3) - a1 * X - a3) * inv2 % q
        return (X, Y)

    # kernel points map to infinity
    if ev(kernel_pt) is not None or any(intpoly.peval(kappa, x, q) != 0 for x in kernel_xs):
        stats.record("kernel_failures", "kernel", src)
        return
    # homomorphism on deterministic samples
    pts = _sample_points(src, q, tab, want=2, salt=kernel_pt[0])
    if len(pts) == 2:
        e0 = ev(pts[0])
        s = pt_add(pts[0], pts[1], src, q)
        if ev(s) != pt_add(e0, ev(pts[1]), cod, q):
            stats.record("homomorphism_failures", "homomorphism", src)
            return
        # kernel invariance: phi(Q + P) = phi(Q)
        s2 = pt_add(pts[0], kernel_pt, src, q)
        if ev(s2) != e0:
            stats.record("homomorphism_failures", "kernel-invariance", src)
            return
    # dual-kernel quotient returns j(source), the second entry of its class
    # key; a singular one (None) never does
    if tc.dual_quotient_j(w_line, ell, q) != src_key[1]:
        stats.record("dual_j_failures", "dual-quotient-j", src)
        return
    # isogenous curves have equal order
    if orders[cod_short[0]][cod_short[1]] != N:
        stats.record("order_mismatches", "order-mismatch", src)


def _sample_points(coeffs, q, tab: FqTables, want: int, salt: int):
    a1, a2, a3, a4, a6 = coeffs
    pts = []
    inv2 = (q + 1) // 2
    x = (salt * 5 + 3) % q
    for _ in range(q):
        lin = (a1 * x + a3) % q
        rhs = (((x + a2) * x + a4) * x + a6) % q
        disc = (lin * lin + 4 * rhs) % q
        s = tab.sqrt[disc]
        if s >= 0:
            y = (s - lin) * inv2 % q
            pts.append((x, y))
            if len(pts) == want:
                return pts
        x = (x + 1) % q
    return pts
