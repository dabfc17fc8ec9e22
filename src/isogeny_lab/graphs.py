"""Assembly of pointed rational ell-isogeny graphs over prime fields.

The sweep enumerates short-form curves (plus the universal 3-isogeny family
for ell = 3), finds rational order-ell subgroups through the group
structure, computes Velu quotients, groups codomains into isomorphism
classes by twist-aware canonical keys, one record per class, and identifies
each arm's dual kernel with one of the target's Galois-stable pointed lines.
Every arm after the first of its orbit of isomorphic arms lands from that
one, its dual line moved by the target's automorphism that relates them; a
short-form arm's codomain (A, B) and kernel are moved too, and the 3-isogeny
family's codomain has a closed form.

Everything here works on plain ints mod q for speed; a graph keeps its
curves, kernel points and isomorphisms as int tuples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from functools import cached_property
from math import gcd
from typing import ClassVar

from . import intpoly
from .errors import CapabilityError, InternalError
from .fields import PrimeField, is_prime

DEFAULT_CURVE_LIMIT = 250_000


# --- per-field cached tables ----------------------------------------------------


class FqTables:
    """Quadratic-character, square-root and inverse tables (inv[0] is None,
    so that a division by zero raises), plus the short-curve order table
    N[a][b] (0 marks singular curves), for one prime q."""

    def __init__(self, q: int):
        self.q = q
        self.inv = inv = [None, 1]
        for x in range(2, q):  # q = (q // x) x + q mod x
            inv.append(-(q // x) * inv[q % x] % q)
        self.sqrt = sqrt_t = [-1] * q
        for y in range(q):
            v = y * y % q
            if sqrt_t[v] < 0:
                sqrt_t[v] = y
        self.chi = [0] + [1 if s >= 0 else -1 for s in sqrt_t[1:]]
        self._orders: list[list[int]] | None = None

    def orders(self) -> list[list[int]]:
        """N[a][b]; building it drops every other q's table, so that one q x q
        table is alive at a time."""
        if self._orders is None:
            for tab in _TABLE_CACHE.values():
                tab._orders = None
            self._orders = self._build_orders()
        return self._orders

    @cached_property
    def sixth_root(self) -> dict[int, int]:
        """c -> sqrt[z] for the least nonzero square z with z^3 = c, so that u^6 = c."""
        return {z * z * z % self.q: s for z, s in reversed(list(enumerate(self.sqrt))) if s > 0}

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
        for a in range(q):
            c = (-4 * a * a * a * self.inv[27 % q]) % q
            y = self.sqrt[c]
            if y >= 0:
                table[a][y] = 0
                table[a][(q - y) % q] = 0
        return table


_TABLE_CACHE: dict[int, FqTables] = {}


def fq_tables(q: int) -> FqTables:
    tab = _TABLE_CACHE.get(q)
    if tab is None:
        tab = _TABLE_CACHE[q] = FqTables(q)
    return tab


# --- integer point arithmetic ----------------------------------------------------


def pt_add(P, Q, coeffs, q, inv):
    """Affine addition on a long Weierstrass curve; None is infinity, inv FqTables.inv."""
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
        d = inv[(2 * y1 + a1 * x1 + a3) % q]
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * d % q
        nu = (-(x1 * x1 * x1) + a4 * x1 + 2 * a6 - a3 * y1) * d % q
    else:
        d = inv[(x2 - x1) % q]
        lam = (y2 - y1) * d % q
        nu = (y1 * x2 - y2 * x1) * d % q
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % q
    y3 = (-(lam + a1) * x3 - nu - a3) % q
    return (x3, y3)


def pt_mul(n, P, coeffs, q, inv):
    """[n]P, n >= 0, by double and add from the low bit; nothing is doubled
    after the top bit."""
    R, add = None, P
    while n:
        if n & 1:
            R = pt_add(R, add, coeffs, q, inv)
        n >>= 1
        if n:
            add = pt_add(add, add, coeffs, q, inv)
    return R


def curve_b_invariants_int(coeffs, q):
    a1, a2, a3, a4, a6 = coeffs
    b2 = (a1 * a1 + 4 * a2) % q
    b4 = (2 * a4 + a1 * a3) % q
    b6 = (a3 * a3 + 4 * a6) % q
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4) % q
    return b2, b4, b6, b8


def short_reduce_int(coeffs, q, inv):
    """Short form (A, B) plus the (r, s, t) of the isomorphism with u = 1
    that maps the curve to y^2 = x^3 + Ax + B; inv is FqTables.inv."""
    a1, a2, a3, a4, a6 = coeffs
    b2, b4, b6, _ = curve_b_invariants_int(coeffs, q)
    c4 = (b2 * b2 - 24 * b4) % q
    c6 = (-b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6) % q
    inv864 = inv[864 % q]  # 1/48, 1/2 and 1/12 are 18, 432 and 72 times it
    A = -c4 * 18 * inv864 % q
    B = -c6 * inv864 % q
    s = -a1 * 432 * inv864 % q
    t0 = -a3 * 432 * inv864 % q
    r = -b2 * 72 * inv864 % q
    t = (s * r + t0) % q
    return A, B, (r, s, t)


# --- division polynomials over ints -----------------------------------------------


def psi_tilde(b, upto, poly, mul, sub):
    """psi~_0..psi~_upto, the y-stripped division polynomials (psi_n =
    psi~_n * (2y + a1 x + a3) for even n, psi_n = psi~_n for odd n), plus
    F = 4x^3 + b2 x^2 + 2 b4 x + b6 = (2y + a1 x + a3)^2, from the
    b-invariants b = (b2, b4, b6, b8).

    Written once for any coefficient ring: poly builds a polynomial from an
    ascending coefficient list (ring values and small ints), mul and sub are
    the polynomial product and difference.  psi_tilde_ints is the ints-mod-q
    instance and curves.division_polynomial the Polynomial one.
    """
    b2, b4, b6, b8 = b
    F = poly([b6, 2 * b4, b2, 4])
    psi = [
        poly([]),
        poly([1]),
        poly([1]),
        poly([b8, 3 * b6, 3 * b4, b2, 3]),
        poly([b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2]),
    ][: upto + 1]
    F2 = mul(F, F) if upto >= 5 else None
    for n in range(5, upto + 1):
        m = n // 2
        t = psi
        if n % 2 == 1:
            first = mul(t[m + 2], mul(t[m], mul(t[m], t[m])))
            second = mul(t[m - 1], mul(t[m + 1], mul(t[m + 1], t[m + 1])))
            if m % 2 == 0:
                psi.append(sub(mul(F2, first), second))
            else:
                psi.append(sub(first, mul(F2, second)))
        else:
            inner = sub(
                mul(t[m + 2], mul(t[m - 1], t[m - 1])),
                mul(t[m - 2], mul(t[m + 1], t[m + 1])),
            )
            psi.append(mul(t[m], inner))
    return psi, F


def psi_tilde_ints(coeffs, q, upto):
    """psi_tilde over ints mod q, for the long-form curve coeffs."""
    return psi_tilde(
        curve_b_invariants_int(coeffs, q),
        upto,
        lambda cs: intpoly.trim([c % q for c in cs]),
        lambda f, g: intpoly.pmul(f, g, q),
        lambda f, g: intpoly.psub(f, g, q),
    )


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


# --- Velu's formulas -----------------------------------------------------------------


def velu_t_w(b, ell, d, sums, half):
    """Velu's t and w for the subgroup whose kernel polynomial has degree d
    and root power sums sums = (p_1, p_2, p_3) (only p_1 at ell = 2), on a
    curve with b-invariants b = (b2, b4, b6); the quotient is
    a4 - 5t, a6 - b2 t - 7w (J. Velu, C. R. Acad. Sci. Paris 273, 1971).

    Plain operators only, so it runs on unreduced ints, FieldElements and
    Fractions alike.  half is 1/2 in the ring; only ell = 2 uses it.
    """
    b2, b4, b6 = b
    if ell == 2:
        x0 = sums[0]
        t = (6 * x0 * x0 + b2 * x0 + b4) * half
        return t, x0 * t
    p1, p2, p3 = sums
    return 6 * p2 + b2 * p1 + d * b4, 10 * p3 + 2 * b2 * p2 + 3 * b4 * p1 + d * b6


def velu_x_map(b, h, p1, t, ell, poly, mul, sub, deriv):
    """(num, den) of the quotient x-map x -> num/den for the kernel
    polynomial h with root sum p1, on a curve with b = (b2, b4, b6):

        den = h^2,  num = (ell x - 2 p1) h^2 - v h' h - u (h'' h - h'^2)

    with v = 6x^2 + b2 x + b4 and u = 4x^3 + b2 x^2 + 2 b4 x + b6; at
    ell = 2, den = h and num = x h + t with Velu's t.

    Written once for any coefficient ring, like psi_tilde: poly builds a
    polynomial from an ascending coefficient list, mul, sub and deriv are
    the product, difference and derivative.  velu_x_maps_int is the
    ints-mod-q instance and isogenies.quotient_by_kernel_polynomial the
    Polynomial one.
    """
    if ell == 2:
        return sub(mul(poly([0, 1]), h), poly([-t])), h
    b2, b4, b6 = b
    hp = deriv(h)
    h2 = mul(h, h)
    num = sub(
        sub(mul(poly([-2 * p1, ell]), h2), mul(poly([b4, b2, 6]), mul(hp, h))),
        mul(poly([b6, 2 * b4, b2, 4]), sub(mul(deriv(hp), h), mul(hp, hp))),
    )
    return num, h2


def velu_codomain_int(coeffs, kappa, ell, q):
    """Codomain coefficients of the quotient by the subgroup with kernel
    polynomial kappa (monic, ints): velu_t_w over ints mod q."""
    a1, a2, a3, a4, a6 = coeffs
    b = curve_b_invariants_int(coeffs, q)[:3]
    t, w = velu_t_w(b, ell, intpoly.deg(kappa), intpoly.power_sums(kappa, 3), (q + 1) // 2)
    return (a1, a2, a3, (a4 - 5 * t) % q, (a6 - b[0] * t - 7 * w) % q)


def velu_x_maps_int(coeffs, kappa, ell, q):
    """(num, den) int polynomials of the quotient x-map: velu_x_map over
    ints mod q."""
    b = curve_b_invariants_int(coeffs, q)[:3]
    sums = intpoly.power_sums(kappa, 3)
    t = velu_t_w(b, ell, intpoly.deg(kappa), sums, (q + 1) // 2)[0]
    return velu_x_map(
        b, kappa, sums[0], t, ell,
        lambda cs: intpoly.trim([c % q for c in cs]),
        lambda f, g: intpoly.pmul(f, g, q),
        lambda f, g: intpoly.psub(f, g, q),
        lambda f: intpoly.pderiv(f, q),
    )


def velu_x_map_at(terms, x, q, inv):
    """(X, X') of the quotient x-map num/den of velu_x_map and its derivative
    at x in F_q, or None at a kernel x.  In Velu's sum form over one term
    (x_Q, v_Q, u_Q) per kernel x, v_Q = 6 x_Q^2 + b2 x_Q + b4 and u_Q =
    4 x_Q^3 + b2 x_Q^2 + 2 b4 x_Q + b6 ((x_Q, v_Q / 2, 0) at ell = 2), and
    d = inv[x - x_Q]: X = x + sum (v_Q + u_Q d) d and X' = 1 -
    sum (v_Q + 2 u_Q d) d^2 (J. Velu, C. R. Acad. Sci. Paris 273, 1971)."""
    X, Xp = x, 1
    for xq, v, u in terms:
        if x == xq:
            return None
        d = inv[(x - xq) % q]
        X += (v + u * d) * d
        Xp -= (v + 2 * u * d) * d * d
    return X % q, Xp % q


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
    j = 1728 * c * tab.inv[(c + 27 * B * B) % q] % q
    return (2, j, tab.chi[A * B % q])


def solve_twist_scale(A1, B1, A2, B2, q, tab: FqTables):
    """u with (A1/u^4, B1/u^6) = (A2, B2), assuming the curves share a key."""
    if A1 % q and B1 % q:
        u2 = B1 * A2 * tab.inv[B2 * A1 % q] % q
        u = tab.sqrt[u2]
        if u <= 0:  # u2 = 0 when A2 = 0: a j = 0 curve against a generic one
            raise InternalError("same-key curves do not admit an isomorphism (generic j)")
        return u
    if A1 % q == 0:
        u = tab.sixth_root.get(B1 * tab.inv[B2 % q] % q)
        if u:
            return u
        raise InternalError("same-key curves do not admit an isomorphism (j = 0)")
    c = A1 * tab.inv[A2 % q] % q
    s = tab.sqrt[c]
    if s >= 0:
        for cand in (s, q - s):  # s != 0, as A1 != 0
            u = tab.sqrt[cand]
            if u > 0:
                return u
    raise InternalError("same-key curves do not admit an isomorphism (j = 1728)")


# --- stable pointed lines of a target ----------------------------------------------


def enumerate_pointed_lines(A, B, N, ell, q, tab: FqTables, records, key):
    """All Galois-stable lines of E[ell] with trivial quotient action, for
    the short curve y^2 = x^3 + Ax + B with #E = N (ell | N required).

    Returns a list of (w, x_w, quotient_key, quotient_coeffs), sorted by w,
    with w the monic kernel x-polynomial of the line (int coefficients) and
    x_w one of its F_q roots, or None when the line is found without one.

    Frobenius has eigenvalues 1 and q on E[ell], so a pointed line is a
    q-eigenline.  When q = 1 mod ell (every ell = 2 case) the trace
    q + 1 - N is 2 mod ell and the characteristic polynomial is
    X^2 - 2X + 1 = (X - 1)^2: the q-eigenlines are the lines of rational
    points, the subgroups of rational_order_ell_subgroups (records and key,
    the curve's short_class_key, are handed to class_record).  Otherwise the
    one q-eigenline has points P with x(P)^q = x([a]P) for
    a = min(q mod ell, ell - q mod ell), i.e. Frob(P) = +-[q]P, so one gcd
    of psi_ell with X^q den_a - num_a (x([a]P) = num_a / den_a) is its
    kernel polynomial, as in the Elkies step of SEA (R. Schoof, J. Theor.
    Nombres Bordeaux 7, 1995).  When q = -1 mod ell the gcd holds both
    eigenlines, and the q-eigenline is the one whose y-coordinates are not
    rational.
    """
    if N % ell:
        raise InternalError("pointed lines require ell | #E")
    coeffs = (0, 0, 0, A % q, B % q)
    if q % ell == 1:
        subgroups = rational_order_ell_subgroups(
            A, B, q, tab, *class_record(A, B, N, ell, q, tab, records, key))
        lines = sorted((tuple(intpoly.pfrom_roots(xs, q)), xs[0]) for _, xs, _ in subgroups)
    else:
        psi, F = psi_tilde_ints(coeffs, q, ell)
        psi_x = psi[ell]
        qmod = q % ell
        a_star = min(qmod, ell - qmod)
        num, den = xmul_fraction_ints(psi, F, a_star, q)
        xq = intpoly.ppowmod([0, 1], q, psi_x, q)
        g = intpoly.pgcd(intpoly.psub(intpoly.pmul(xq, den, q), num, q), psi_x, q)
        if qmod == ell - 1:
            # keep the roots x at which the cubic is a non-square
            s = intpoly.ppowmod([B % q, A % q, 0, 1], (q - 1) // 2, g, q)
            g = intpoly.pgcd(intpoly.padd(s, [1], q), g, q)
        if intpoly.deg(g) != (ell - 1) // 2:
            raise InternalError(f"q-eigenline gcd has degree {intpoly.deg(g)}")
        lines = [(tuple(g), None)]
    out = []
    for w_key, x_w in lines:
        cod = velu_codomain_int(coeffs, list(w_key), ell, q)  # short, like its source
        if (4 * cod[3] ** 3 + 27 * cod[4] ** 2) % q == 0:
            raise InternalError("line quotient is singular")
        key = short_class_key(cod[3], cod[4], q, tab)
        out.append((w_key, x_w, key, cod))
    return out


def _line_pointwise_rational(w, A, B, q, tab: FqTables) -> bool:
    """True iff every point of the line is F_q-rational (x's split and the
    y's are square roots of the cubic)."""
    roots = intpoly.roots_in_fq(list(w), q)
    if len(roots) != intpoly.deg(list(w)):
        return False
    for x in roots:
        if tab.chi[(x * x * x + A * x + B) % q] < 0:
            return False
    return True


# --- arm discovery -----------------------------------------------------------------


class _ClassRecord:
    """What a sweep keeps of one F_q-isomorphism class, under its
    short_class_key, key, which orbit bases share: anchor = (A0, B0), the
    first curve of the class to ask class_record (None until one does), with
    its subgroups and psi (_rational_ell_points); bases, the first arm of the
    orbit of each record subgroup moved to the anchor, (landing, A2, B2,
    kappa); and the target data, once an arm lands in the class (lines is
    None until then)."""

    __slots__ = ("key", "anchor", "subgroups", "psi", "bases", "rep", "order", "lines",
                 "arms", "n_arms", "dual_j")

    def __init__(self, key, anchor=None, subgroups=(), psi=None):
        self.key, self.anchor, self.subgroups, self.psi = key, anchor, subgroups, psi
        self.bases = [None] * len(subgroups)
        self.lines = None

    def land(self, rep, order, lines):
        """rep = (A, B), the short codomain of the first arm to land, its order
        and pointed lines [(w, x_w, quotient_key, quotient_coeffs)] by w; the
        j of rep's quotient by each line (dual_j), the first GraphArm on each
        dual line, the one a report shows (arms), and the count of all arms."""
        self.rep, self.order, self.lines = rep, order, lines
        self.dual_j = {w: qkey[1] for w, _, qkey, _ in lines}
        self.arms, self.n_arms = {}, 0


def class_record(A, B, N, ell, q, tab: FqTables, records, key):
    """(record, u2) of y^2 = x^3 + Ax + B, ell | N: its isomorphism class's
    _ClassRecord, anchored with _rational_ell_points' subgroups and psi, and
    u2 = u^2 for (A, B) = (u^4 A0, u^6 B0), so that (x, y) -> (u^2 x, u^3 y)
    maps the anchor (A0, B0) onto this curve.

    records holds the record of each class met so far, as a source or a
    target, under its short_class_key; key is the curve's.  The first curve
    of a class to ask anchors the record, every other one takes it with one
    solve_twist_scale."""
    record = records.get(key)
    if record is None:
        record = records[key] = _ClassRecord(key)
    if record.anchor is None:
        record.subgroups, record.psi = _rational_ell_points(A, B, N, ell, q, tab)
        record.anchor, record.bases = (A, B), [None] * len(record.subgroups)
        return record, 1
    return record, solve_twist_scale(A, B, *record.anchor, q, tab) ** 2 % q


def rational_order_ell_subgroups(A, B, q, tab: FqTables, record, u2):
    """All order-ell subgroups of y^2 = x^3 + Ax + B generated by rational
    points, from its class_record: list of (kernel_point, xs, i), ascending,
    with i the index of the subgroup in the record.

    x -> u2 x maps the record's x-lists onto the curve's.  A subgroup's
    kernel point is its point of least x, with the y of tab.sqrt."""
    out = []
    for i, xs0 in enumerate(record.subgroups):
        xs = sorted(u2 * x % q for x in xs0)
        x = xs[0]
        out.append(((x, tab.sqrt[(x * x * x + A * x + B) % q]), xs, i))
    out.sort()
    return out


def _rational_ell_points(A, B, N, ell, q, tab: FqTables):
    """(subgroups, psi) of the first curve of a class (ell | N): the x-lists
    of its rational order-ell subgroups and psi_ell (torsion_x_poly_ints)
    when they come from its roots, else None.

    The points of order ell are the F_q roots of psi_ell with rational y when
    E[ell] can be rational (ell = 2, or ell^2 | N and q = 1 mod ell).  Else
    E(F_q)[ell] is cyclic, and a deterministic scan takes the first point
    whose prime-to-ell multiple is not O and multiplies that by ell until
    the next multiple is O.  Each point whose x no earlier subgroup holds
    starts one; a cyclic E(F_q)[ell] gives 1 subgroup and a full one
    ell + 1."""
    coeffs = (0, 0, 0, A, B)
    psi = None
    if ell == 2 or (N % (ell * ell) == 0 and q % ell == 1):
        psi = torsion_x_poly_ints(coeffs, q, ell)
        pts = [(x, tab.sqrt[(x * x * x + A * x + B) % q]) for x in intpoly.roots_in_fq(psi, q)]
    else:
        m = N
        while m % ell == 0:
            m //= ell
        start = (7 * A + 13 * B + 1) % q
        pts = []
        for i in range(q):
            x = (start + i) % q
            y = tab.sqrt[(x * x * x + A * x + B) % q]
            P = pt_mul(m, (x, y), coeffs, q, tab.inv) if y >= 0 else None
            if P is not None:
                R = pt_mul(ell, P, coeffs, q, tab.inv)
                while R is not None:
                    P, R = R, pt_mul(ell, R, coeffs, q, tab.inv)
                pts = [P]
                break
    subgroups = []
    covered = set()
    for pt in pts:
        if pt[1] < 0 or pt[0] in covered:
            continue
        xs = [pt[0]]
        acc = pt
        for _ in range(2, (ell - 1) // 2 + 1):
            acc = pt_add(acc, pt, coeffs, q, tab.inv)
            xs.append(acc[0])
        covered.update(xs)
        subgroups.append(xs)
    if len(subgroups) not in (1, ell + 1):
        raise InternalError(f"expected 1 or {ell + 1} subgroups, found {len(subgroups)}")
    return subgroups, psi


def _class_psi(record, u2, q):
    """psi_ell (torsion_x_poly_ints) of the curve that takes record with u2
    (class_record): the record's psi_ell with its roots moved by x -> u2 x.

    _match_dual_line needs it only for a target with several pointed lines:
    then q = 1 mod ell and the target's E[ell] is rational, so ell^2 divides
    its order, which is the source's and that of its whole class, and the
    class's first curve took the psi_ell finder of _rational_ell_points."""
    if record.psi is None:
        raise InternalError("the source class has no stored psi_ell")
    return _scaled_roots(record.psi, u2, q)


def _scaled_roots(f, u2, q):
    """f with its roots moved by x -> u2 x and its leading coefficient kept:
    x^i takes f_i u2^(d - i)."""
    out, p = [], 1
    for c in reversed(f):
        out.append(c * p % q)
        p = p * u2 % q
    return out[::-1]


def _moved_arm(A2, B2, kappa, lam, q):
    """A short-form arm's codomain (A2, B2) and kernel polynomial kappa moved
    along the isomorphism (x, y) -> (lam^2 x, lam^3 y) of the source: to
    (lam^4 A2, lam^6 B2), with the kernel x's at lam^2 x."""
    l2 = lam * lam % q
    l4 = l2 * l2 % q
    return A2 * l4 % q, B2 * l4 * l2 % q, _scaled_roots(kappa, l2, q)


def _moved_line(w, z, q):
    """The line w of a target's representative moved by its automorphism
    (x, y) -> (z^2 x, z^3 y): its roots scaled by z^2."""
    return tuple(_scaled_roots(w, z * z % q, q))


# --- graph data model ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GraphArm:
    """One arm of a pointed graph, in integer form."""

    source: tuple[int, int, int, int, int]
    kernel_point: tuple[int, int]
    codomain: tuple[int, int, int, int, int]
    iso_to_target: tuple[int, int, int, int]
    dual_line: tuple[int, ...]

    def to_json(self):
        return {
            "source": list(self.source),
            "kernel_point": list(self.kernel_point),
            "codomain": list(self.codomain),
            "isomorphism": list(self.iso_to_target),
            "dual_kernel_poly": list(self.dual_line),
        }


@dataclass(frozen=True, slots=True)
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
        return not any(n for name, n in self.to_json().items() if name != "isogenies")

    def to_json(self):
        """The counters, in field order."""
        return {f.name: getattr(self, f.name) for f in dc_fields(self) if f.name != "failures"}


def build_pointed_graphs(
    field: PrimeField,
    ell: int,
    curve_limit: int = DEFAULT_CURVE_LIMIT,
    include_family: bool = True,
    soundness: SoundnessStats | None = None,
) -> list[PointedGraph]:
    """Enumerate every pointed K-rational ell-isogeny graph over F_q whose
    sources are short-form curves, plus the universal 3-isogeny family when
    ell = 3 and `include_family` is set.

    Targets are grouped up to F_q-isomorphism; arms are matched to the
    target's stable pointed lines and deduplicated per line.
    """
    if not isinstance(field, PrimeField):
        raise CapabilityError("graph sweeps run over prime base fields only")
    q = field.p
    if q <= 3:
        raise ValueError("base field characteristic must exceed 3")
    if not is_prime(ell):
        raise ValueError(f"ell must be a prime, not {ell}")
    if ell == q:
        raise ValueError("ell must differ from the characteristic")
    n_curves = q * q * (2 if include_family and ell == 3 else 1)
    if n_curves > curve_limit:
        raise CapabilityError(f"enumeration of ~{n_curves} curves exceeds the cap {curve_limit}")
    tab = fq_tables(q)
    orders = tab.orders()
    # the _ClassRecord of each class met so far, as a source or as a target
    records: dict[tuple, _ClassRecord] = {}

    def add_arm(src, src_inv, kernel_pt, kernel_xs, kappa, N, cod, short, landing, lam, u2=None):
        """Lands the arm of src with kernel polynomial kappa and Velu codomain
        cod, whose short form (A2, B2) is cod mapped by (1, r, s, t), short =
        (A2, B2, (r, s, t)).  src_inv = (short_class_key, (b2, b4, b6)) of the
        source; u2 is a short-form source's class_record scale, None for the
        family.  The source is (x, y) -> (lam^2 x, lam^3 y) of its orbit's
        lam = 1 curve, and landing is None or the orbit's (target key, dual
        line, u / lam), from which the arm's dual line is moved.  Returns
        landing, or this arm's when landing is None and lam != 0 (lam = 0: no
        orbit)."""
        A2, B2, rst = short
        # the short form is isomorphic with u = 1, so it keeps cod's discriminant
        if (4 * A2 * A2 * A2 + 27 * B2 * B2) % q == 0:
            if soundness is not None:
                soundness.record("singular_codomains", "singular-codomain", src)
            raise InternalError("Velu codomain is singular")
        if landing is None:
            tkey = short_class_key(A2, B2, q, tab)
            tc = records.get(tkey)
            if tc is None:
                tc = records[tkey] = _ClassRecord(tkey)
            if tc.lines is None:
                lines = enumerate_pointed_lines(A2, B2, N, ell, q, tab, records, tkey)
                tc.land((A2, B2), N, lines)
        else:
            tkey, w, u1 = landing
            tc = records[tkey]
        u = solve_twist_scale(A2, B2, *tc.rep, q, tab)
        iso = (u, *rst)
        if landing is None:
            # the lines whose quotient is the source's class, each with an F_q
            # root x_w when q = 1 mod ell, where a class can have several
            cands = [(line, x_w) for line, x_w, qkey, _ in tc.lines if qkey == src_inv[0]]
            if not cands:
                raise InternalError("no pointed line of the target matches the source class")
            if len(cands) == 1:
                w = cands[0][0]
            else:
                psi = (torsion_x_poly_ints(src, q, ell) if u2 is None  # family: long form
                       else _class_psi(records[src_inv[0]], u2, q))
                w = _match_dual_line(src, kappa, ell, q, dict(cands), iso, psi)
            if lam:
                landing = (tc.key, w, u * tab.inv[lam] % q)
        else:
            # lam u1 and u are both twist scales to the representative, so
            # they differ by an automorphism x -> z^2 x of it, z = lam u1 / u;
            # z = +-1, all there is when j is not 0 or 1728, fixes every line
            lu1 = lam * u1 % q
            if u != lu1 and u != q - lu1:
                w = _moved_line(w, lu1 * tab.inv[u] % q, q)
                if w not in tc.dual_j:
                    raise InternalError("a moved dual line is not a pointed line of the target")
        tc.n_arms += 1
        if w not in tc.arms:
            tc.arms[w] = GraphArm(
                source=src, kernel_point=kernel_pt, codomain=cod, iso_to_target=iso, dual_line=w
            )
        if soundness is not None:
            _soundness_checks(soundness, src, kappa, kernel_pt, kernel_xs,
                              cod, (A2, B2), w, tc, N, ell, q, tab, orders, src_inv)
        return landing

    # short-form sources; an orbit is a source class and the index of a
    # subgroup in its record, and lam^2 = u2; its first arm is built by Velu,
    # the later ones are moved from it
    for a in range(q):
        row = orders[a]
        for b in range(q):
            N = row[b]
            if N == 0 or N % ell:
                continue
            src = (0, 0, 0, a, b)
            key = short_class_key(a, b, q, tab)
            src_inv = (key, (0, 2 * a % q, 4 * b % q))
            record, u2 = class_record(a, b, N, ell, q, tab, records, key)
            lam = tab.sqrt[u2]
            for pt, xs, i in rational_order_ell_subgroups(a, b, q, tab, record, u2):
                base = record.bases[i]
                if base is None:
                    kappa = intpoly.pfrom_roots(xs, q)
                    A2, B2 = velu_codomain_int(src, kappa, ell, q)[3:]
                    landing = None
                else:
                    landing, *moved = base
                    A2, B2, kappa = _moved_arm(*moved, lam, q)
                landing = add_arm(src, src_inv, pt, xs, kappa, N, (0, 0, 0, A2, B2),
                                  (A2, B2, (0, 0, 0)), landing, lam, u2)
                if base is None:
                    record.bases[i] = (landing, *_moved_arm(A2, B2, kappa, tab.inv[lam], q))

    # the universal 3-isogeny family contributes its canonical arm, into
    # E3' = E3 / <(0, 0)> in closed form (Velu's t = b4 = wv and w = b6 = v^2);
    # for w != 0, (w, v) is (x, y) -> (w^2 x, w^3 y) of (1, v / w^3), kernel
    # (0, 0) kept, so its orbit is v / w^3 and lam = w; the w = 0 sources,
    # orbit 0, have none
    if ell == 3 and include_family:
        family = [None] * q  # orbit -> (source key, order, the orbit's landing)
        for w_par in range(q):
            w3 = w_par * w_par * w_par % q
            inv_w3 = tab.inv[w3] if w_par else 0
            for v_par in range(1, q):
                if (w3 - 27 * v_par) % q == 0:
                    continue
                src = (w_par, 0, v_par, 0, 0)
                orbit = v_par * inv_w3 % q
                if family[orbit] is None:
                    sA, sB, _ = short_reduce_int(src, q, tab.inv)
                    N = orders[sA][sB]
                    if N == 0 or N % 3:
                        raise InternalError("family curve with order not divisible by 3")
                    src_key, landing = short_class_key(sA, sB, q, tab), None
                else:  # isogenous curves have equal order
                    src_key, N, landing = family[orbit]
                # b2, b4, b6 of y^2 + w xy + v y = x^3
                binv = (w_par * w_par % q, w_par * v_par % q, v_par * v_par % q)
                cod = (w_par, 0, v_par, -5 * binv[1] % q, -v_par * (w3 + 7 * v_par) % q)
                landing = add_arm(src, (src_key, binv), (0, 0), [0], [0, 1], N, cod,
                                  short_reduce_int(cod, q, tab.inv), landing, w_par)
                if orbit and family[orbit] is None:
                    family[orbit] = (src_key, N, landing)

    return [PointedGraph(q=q, ell=ell, target=tc.rep, target_order=tc.order,
                         arms=tuple(tc.arms[w] for w in sorted(tc.arms)),
                         arm_multiplicity=tc.n_arms,
                         pointed_lines=tuple(w for w, _, _, _ in tc.lines))
            for tc in (records[key] for key in sorted(records)) if tc.lines is not None]


def _match_dual_line(src_coeffs, kappa, ell, q, candidates, iso_to_target, psi):
    """The arm's dual line among the candidates {w: an F_q root x_w of w},
    in target-representative coordinates, by one fiber division each of
    psi, the source's torsion_x_poly_ints.

    Let phi: E -> C be the arm with x-map num/den and x_cod = u^2 x_rep + r
    its isomorphism to the representative.  With X = u^2 x_w + r, the roots
    of f = num - X den (degree ell) are the x-coordinates of one coset P + K,
    the points phi maps to +-R for R on the line with x(R) = x_w (J. Velu,
    C. R. Acad. Sci. Paris 273, 1971).  If w is the dual line, R is in
    phi(E[ell]), so the roots are x-coordinates of E[ell] minus K and f
    divides psi = torsion_x_poly_ints (the cubic F at ell = 2); otherwise no
    point of the coset is ell-torsion and gcd(f, psi) = 1.  So psi mod f = 0
    decides each candidate exactly, as psi_ell gives kernels in the Elkies
    step of SEA (R. Schoof, J. Theor. Nombres Bordeaux 7, 1995).
    """
    if intpoly.pmod(psi, kappa, q):
        raise InternalError("kernel polynomial does not divide the torsion polynomial")
    num, den = velu_x_maps_int(src_coeffs, kappa, ell, q)
    u, r, _, _ = iso_to_target
    matched = None
    for w, x_w in candidates.items():
        fiber = intpoly.psub(num, intpoly.pscale(den, u * u * x_w + r, q), q)
        if not intpoly.pmod(psi, fiber, q):
            if matched is not None:
                raise InternalError("two candidate dual lines both match the arm")
            matched = w
    if matched is None:
        raise InternalError("no candidate dual line matches the arm")
    return matched


def _soundness_checks(
    stats: SoundnessStats, src, kappa, kernel_pt, kernel_xs, cod, cod_short, w_line,
    tc, N, ell, q, tab: FqTables, orders, src_inv,
):
    """Per-isogeny engine checks: homomorphism sampling, kernel collapse,
    nonsingular codomain, dual-line quotient j, isogenous order equality.

    cod_short is the short form (A, B) of the codomain and src_inv the
    source's (short_class_key, (b2, b4, b6)).  At the sampled points the
    x-map is velu_x_map_at, Velu's sum over one term per kernel x, while cod
    came from the power sums (velu_codomain_int), so the homomorphism check
    holds the two statements of Velu against each other; as a chord never
    reads a4 or a6, it also puts the first image on cod."""
    stats.isogenies += 1
    src_key, (b2, b4, b6) = src_inv
    a1, a2, a3, a4, a6 = src
    inv, inv2 = tab.inv, (q + 1) // 2

    def ev(P):
        m = P and velu_x_map_at(terms, P[0], q, inv)
        if not m:  # P is O or in the kernel
            return None
        X, Xp = m
        Y = (Xp * (2 * P[1] + a1 * P[0] + a3) - a1 * X - a3) * inv2 % q
        return (X, Y)

    # kernel points map to infinity: the x-map's denominator is a power of
    # kappa, so phi(K) = O exactly when kappa(x(K)) = 0
    terms = []
    for x in kernel_xs:
        acc = 0
        for c in reversed(kappa):
            acc = (acc * x + c) % q
        if acc:
            stats.record("kernel_failures", "kernel", src)
            return
        v = (6 * x + b2) * x + b4
        if ell == 2:  # Q is 2-torsion: its term is v_Q / 2 and u_Q = 0
            terms.append((x, v * inv2 % q, 0))
        else:
            terms.append((x, v % q, (((4 * x + b2) * x + 2 * b4) * x + b6) % q))
    # homomorphism on deterministic samples, the first two x from 5 x(K) + 3 on
    P0 = P1 = None
    x = (kernel_pt[0] * 5 + 3) % q
    for _ in range(q):
        lin = (a1 * x + a3) % q
        s = tab.sqrt[(lin * lin + 4 * (((x + a2) * x + a4) * x + a6)) % q]
        if s >= 0:
            P0, P1 = P1, (x, (s - lin) * inv2 % q)
            if P0:
                break
        x = (x + 1) % q
    if P0:
        e0 = ev(P0)
        if ev(pt_add(P0, P1, src, q, inv)) != pt_add(e0, ev(P1), cod, q, inv):
            stats.record("homomorphism_failures", "homomorphism", src)
            return
        # kernel invariance: phi(Q + P) = phi(Q)
        if ev(pt_add(P0, kernel_pt, src, q, inv)) != e0:
            stats.record("homomorphism_failures", "kernel-invariance", src)
            return
        if e0:
            X, Y = e0
            c1, c2, c3, c4, c6 = cod
            if (Y * (Y + c1 * X + c3) - ((X + c2) * X + c4) * X - c6) % q:
                stats.record("homomorphism_failures", "homomorphism", src)
                return
    # dual-kernel quotient returns j(source), the second entry of its class key
    if tc.dual_j[w_line] != src_key[1]:
        stats.record("dual_j_failures", "dual-quotient-j", src)
        return
    # isogenous curves have equal order
    if orders[cod_short[0]][cod_short[1]] != N:
        stats.record("order_mismatches", "order-mismatch", src)
