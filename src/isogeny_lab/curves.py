"""Long-Weierstrass elliptic curves: group law, division polynomials, point
counting, l-torsion bases over extensions, Weil pairing and Frobenius
matrices mod l.

Curves live over a prime field, an extension field, or Q.  Base fields of
characteristic 2 and 3 are rejected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import intpoly
from .errors import CapabilityError, FieldMismatchError, InternalError
from .fields import (
    ExtensionField,
    FieldElement,
    Polynomial,
    PrimeField,
    QQ,
    RationalField,
    _val_inverse,
    _val_is_zero,
    poly_roots,
)

ORDER_ENUMERATION_CAP = 10**6
TORSION_DEGREE_BOUND = lambda ell: ell * (ell - 1) * (ell + 1)  # noqa: E731


class WeierstrassCurve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over a field handle."""

    __slots__ = ("field", "a1", "a2", "a3", "a4", "a6", "_cache")

    def __init__(self, field, a1, a2, a3, a4, a6):
        ch = field.characteristic()
        if ch in (2, 3):
            raise ValueError("base fields of characteristic 2 or 3 are unsupported")
        self.field = field
        self.a1 = field.element(a1)
        self.a2 = field.element(a2)
        self.a3 = field.element(a3)
        self.a4 = field.element(a4)
        self.a6 = field.element(a6)
        self._cache = {}
        if _val_is_zero(self.discriminant()):
            raise ValueError("singular curve (discriminant is zero)")

    # invariants ---------------------------------------------------------
    def b_invariants(self):
        if "b" not in self._cache:
            a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
            b2 = a1 * a1 + 4 * a2
            b4 = 2 * a4 + a1 * a3
            b6 = a3 * a3 + 4 * a6
            b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
            self._cache["b"] = (b2, b4, b6, b8)
        return self._cache["b"]

    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
        return c4, c6

    def discriminant(self):
        if "disc" not in self._cache:
            b2, b4, b6, b8 = self.b_invariants()
            self._cache["disc"] = (
                -(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
            )
        return self._cache["disc"]

    def j_invariant(self):
        c4, _ = self.c_invariants()
        return (c4 * c4 * c4) / self.discriminant()

    # points ---------------------------------------------------------------
    def infinity(self) -> "CurvePoint":
        return CurvePoint(self, None, None, True)

    def point(self, x, y) -> "CurvePoint":
        x = self.field.element(x)
        y = self.field.element(y)
        if not self.contains(x, y):
            raise ValueError(f"({x!r}, {y!r}) is not on the curve")
        return CurvePoint(self, x, y, False)

    def contains(self, x, y) -> bool:
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x * x * x + self.a2 * x * x + self.a4 * x + self.a6
        return lhs == rhs

    def rhs_cubic(self, x):
        return x * x * x + self.a2 * x * x + self.a4 * x + self.a6

    def y_candidates(self, x) -> list:
        """Points above x: solve the y-quadratic (char != 2)."""
        lin = self.a1 * x + self.a3
        disc = lin * lin + 4 * self.rhs_cubic(x)
        field = self.field
        if isinstance(field, RationalField):
            from .fields import rational_sqrt

            s = rational_sqrt(disc)
            if s is None:
                return []
            ys = {(-lin + s) / 2, (-lin - s) / 2}
        else:
            s = field.sqrt(field.element(disc))
            if s is None:
                return []
            inv2 = field.element(2).inverse()
            ys = {(-lin + s) * inv2, (-lin - s) * inv2}
        return sorted(ys, key=_sort_key)

    def base_change(self, new_field) -> "WeierstrassCurve":
        emb = lambda a: new_field.element(a)  # noqa: E731
        return WeierstrassCurve(
            new_field, emb(self.a1), emb(self.a2), emb(self.a3), emb(self.a4), emb(self.a6)
        )

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def short_form(self):
        """(short-form curve, iso self->short) for char > 3 or Q.

        The iso data (u, r, s, t) follows the substitution
        x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.
        """
        from .isogenies import CurveIsomorphism

        two_inv = _val_inverse(self.field.element(2))
        s = -self.a1 * two_inv
        t = -self.a3 * two_inv
        e1 = CurveIsomorphism(self.field, self.field.one(), self.field.zero(), s, t)
        c1 = e1.apply_to_curve(self)
        # now a1 = a3 = 0; kill a2 with r = -a2/3
        three_inv = _val_inverse(self.field.element(3))
        r = -c1.a2 * three_inv
        e2 = CurveIsomorphism(c1.field, c1.field.one(), r, c1.field.zero(), c1.field.zero())
        c2 = e2.apply_to_curve(c1)
        # then a3 may have reappeared? (no: r-shift with a1=0 gives a3' = a3 + r*a1 = 0)
        iso = e1.compose(e2)
        return c2, iso

    def to_json(self) -> dict:
        f = self.field
        if isinstance(f, PrimeField):
            return {
                "p": f.p,
                "k": 1,
                "modulus": [0, 1],
                "a": [c.to_int() for c in self.coefficients()],
            }
        if isinstance(f, ExtensionField):
            return {
                "p": f.p,
                "k": f.k,
                "modulus": list(f.modulus),
                "a": [c.coeff_list() for c in self.coefficients()],
            }
        # rational curve: coefficients as [num, den] pairs, p = 0 marks Q
        return {
            "p": 0,
            "k": 1,
            "modulus": [0, 1],
            "a": [[c.numerator, c.denominator] for c in self.coefficients()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeierstrassCurve":
        p, k = data["p"], data.get("k", 1)
        if p == 0:
            coeffs = [Fraction(n, d) for n, d in data["a"]]
            return cls(QQ, *coeffs)
        if k == 1:
            field = PrimeField(p)
            return cls(field, *[field.element(c) for c in data["a"]])
        field = ExtensionField(p, k, data["modulus"])
        return cls(field, *[field.element(c) for c in data["a"]])

    def __eq__(self, other):
        return (
            isinstance(other, WeierstrassCurve)
            and self.field == other.field
            and self.coefficients() == other.coefficients()
        )

    def __hash__(self):
        return hash((self.field, self.coefficients()))

    def __repr__(self):
        a = ", ".join(repr(c) for c in self.coefficients())
        return f"WeierstrassCurve({self.field!r}; {a})"


class CurvePoint:
    """A point on a WeierstrassCurve: infinity or an (x, y) pair."""

    __slots__ = ("curve", "x", "y", "infinity")

    def __init__(self, curve, x, y, infinity=False):
        self.curve = curve
        self.x = x
        self.y = y
        self.infinity = infinity

    def is_infinity(self) -> bool:
        return self.infinity

    def __neg__(self):
        if self.infinity:
            return self
        c = self.curve
        return CurvePoint(c, self.x, -self.y - c.a1 * self.x - c.a3, False)

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.curve != other.curve:
            raise FieldMismatchError("points on different curves")
        if self.infinity:
            return other
        if other.infinity:
            return self
        c = self.curve
        a1, a2, a3, a4, a6 = c.coefficients()
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if _val_is_zero(y1 + y2 + a1 * x2 + a3):
                return c.infinity()
            den = 2 * y1 + a1 * x1 + a3
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
            nu = (-(x1 * x1 * x1) + a4 * x1 + 2 * a6 - a3 * y1) / den
        else:
            den = x2 - x1
            lam = (y2 - y1) / den
            nu = (y1 * x2 - y2 * x1) / den
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = -(lam + a1) * x3 - nu - a3
        return CurvePoint(c, x3, y3, False)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n: int) -> "CurvePoint":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (-n) * (-self)
        result = self.curve.infinity()
        addend = self
        while n:
            if n & 1:
                result = result + addend
            n >>= 1
            if n:
                addend = addend + addend
        return result

    def __mul__(self, n: int) -> "CurvePoint":
        return self.__rmul__(n)

    def has_order(self, n: int) -> bool:
        """Exact order n (n a prime in our uses, so check n*P = O, P != O)."""
        if self.infinity:
            return False
        acc = n * self
        if not acc.infinity:
            return False
        # rule out proper divisors
        d = 2
        m = n
        while d * d <= m:
            if m % d == 0:
                if (n // d * self).infinity:
                    return False
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1 and m != n and (n // m * self).infinity:
            return False
        return True

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.curve != other.curve:
            return False
        if self.infinity or other.infinity:
            return self.infinity and other.infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.infinity:
            return hash((self.curve, "inf"))
        return hash((self.curve, self.x, self.y))

    def coords_json(self):
        if self.infinity:
            return None
        def enc(v):
            if isinstance(v, FieldElement):
                return v.coeff_list() if not isinstance(v.rep, int) else v.rep
            return [v.numerator, v.denominator]
        return [enc(self.x), enc(self.y)]

    def __repr__(self):
        if self.infinity:
            return "O"
        return f"({self.x!r}, {self.y!r})"


# --- division polynomials ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _psi_tilde(curve: WeierstrassCurve, n: int) -> Polynomial:
    """y-stripped division polynomial: psi_n = psi~_n * psi_2^(n even)."""
    field = curve.field
    b2, b4, b6, b8 = curve.b_invariants()
    if n == 0:
        return Polynomial.zero(field)
    if n in (1, 2):
        return Polynomial(field, [field.one()])
    if n == 3:
        return Polynomial(field, [b8, 3 * b6, 3 * b4, b2, 3 * field.one()])
    if n == 4:
        return Polynomial(
            field,
            [
                b4 * b8 - b6 * b6,
                b2 * b8 - b4 * b6,
                10 * b8,
                10 * b6,
                5 * b4,
                b2,
                2 * field.one(),
            ],
        )
    F = _two_torsion_poly(curve)
    m = n // 2
    t = lambda k: _psi_tilde(curve, k)  # noqa: E731
    if n % 2 == 1:
        # n = 2m+1
        first = t(m + 2) * t(m) * t(m) * t(m)
        second = t(m - 1) * t(m + 1) * t(m + 1) * t(m + 1)
        if m % 2 == 0:
            return F * F * first - second
        return first - F * F * second
    # n = 2m
    inner = t(m + 2) * t(m - 1) * t(m - 1) - t(m - 2) * t(m + 1) * t(m + 1)
    return t(m) * inner


@functools.lru_cache(maxsize=None)
def _two_torsion_poly(curve: WeierstrassCurve) -> Polynomial:
    """F(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 = (2y + a1 x + a3)^2 on the curve."""
    b2, b4, b6, _ = curve.b_invariants()
    field = curve.field
    return Polynomial(field, [b6, 2 * b4, b2, 4 * field.one()])


def division_polynomial(curve: WeierstrassCurve, n: int) -> Polynomial:
    """Univariate polynomial whose roots are the x-coordinates of the
    nonzero n-torsion points: psi~_n for odd n, F * psi~_n for even n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 1:
        return _psi_tilde(curve, n)
    return _two_torsion_poly(curve) * _psi_tilde(curve, n)


# --- point counting -----------------------------------------------------------


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


# --- torsion bases over extensions --------------------------------------------


@dataclass(frozen=True)
class TorsionBasis:
    ell: int
    k: int
    base_q: int
    curve: WeierstrassCurve  # base-changed to the splitting field when k > 1
    P: CurvePoint
    Q: CurvePoint

    @functools.cached_property
    def _coordinate_table(self) -> dict:
        table = {}
        for a in range(self.ell):
            for b in range(self.ell):
                pt = a * self.P + b * self.Q
                table[None if pt.infinity else (pt.x, pt.y)] = (a, b)
        return table

    def coordinates(self, point: CurvePoint) -> tuple[int, int]:
        """(a, b) with point = a*P + b*Q, from a table of all ell^2 points
        built on first use."""
        key = None if point.infinity else (point.x, point.y)
        coords = self._coordinate_table.get(key)
        if coords is None:
            raise InternalError("point is not in the span of the torsion basis")
        return coords

    @functools.cached_property
    def zeta(self):
        """The Weil pairing e(P, Q), computed once; `torsion_basis` checks
        that it is a primitive ell-th root of unity."""
        return weil_pairing(self.P, self.Q, self.ell)


def _x_poly_ints(curve: WeierstrassCurve, ell: int) -> list[int]:
    return division_polynomial(curve, ell).int_coeffs()


@functools.lru_cache(maxsize=64)
def torsion_field_degree(curve: WeierstrassCurve, ell: int) -> int:
    """Minimal k with E[ell] contained in E(F_{q^k}); q prime.

    Works entirely over F_q: factor the torsion x-polynomial, then decide
    for each irreducible factor whether the y-coordinates live in F_{q^d}
    or its quadratic extension.  The splitting degree is the lcm of the
    point degrees (the Galois group is cyclic, so compositum degree = lcm).
    """
    field = curve.field
    if not isinstance(field, PrimeField):
        raise CapabilityError("torsion bases are built over prime base fields")
    q = field.p
    if ell == q:
        raise ValueError("ell must differ from the characteristic")
    psi = _x_poly_ints(curve, ell)
    factors = intpoly.factor_squarefree(psi, q)
    a1, a2, a3, a4, a6 = (c.to_int() for c in curve.coefficients())
    rhs_coeffs = [a6, a4, a2, 1]
    k = 1
    for f in factors:
        d = intpoly.deg(f)
        if ell == 2:
            k = _lcm(k, d)
            continue
        # disc(alpha) = (a1*alpha + a3)^2 + 4*rhs(alpha) in F_q[z]/(f)
        alpha = [(-f[0]) % q] if d == 1 else [0, 1]
        lin = intpoly.padd(intpoly.pscale(alpha, a1, q), [a3], q)
        rhs = intpoly.eval_poly_ext(rhs_coeffs, alpha, f, q)
        disc = intpoly.padd(intpoly.emul(lin, lin, f, q), intpoly.pscale(rhs, 4, q), q)
        if not disc:
            raise InternalError("2-torsion x among odd-ell torsion roots")
        sq = intpoly.epow(disc, (q**d - 1) // 2, f, q)
        y_deg = d if sq == [1] else 2 * d
        k = _lcm(k, y_deg)
    bound = TORSION_DEGREE_BOUND(ell)
    if k > bound:
        raise InternalError(f"torsion degree {k} exceeds the bound {bound}")
    return k


def torsion_basis(curve: WeierstrassCurve, ell: int) -> TorsionBasis:
    """A basis (P, Q) of E[ell] over the minimal extension F_{q^k}.

    P, Q have exact order ell and their Weil pairing is a primitive ell-th
    root of unity.
    """
    field = curve.field
    if not isinstance(field, PrimeField):
        raise CapabilityError("torsion bases are built over prime base fields")
    q = field.p
    k = torsion_field_degree(curve, ell)
    if k == 1:
        K = field
        curve_k = curve
    else:
        K = ExtensionField(q, k)
        curve_k = curve.base_change(K)
    xs = sorted(poly_roots(division_polynomial(curve, ell), K), key=_sort_key)
    points = []
    for x in xs:
        for y in curve_k.y_candidates(x):
            points.append(curve_k.point(x, y))
    expected = ell * ell - 1
    if len(points) != expected:
        raise InternalError(
            f"found {len(points)} nonzero {ell}-torsion points over F_{q}^{k}, expected {expected}"
        )
    P = points[0]
    if not P.has_order(ell):
        raise InternalError("division polynomial root gave a point of wrong order")
    span = set()
    acc = curve_k.infinity()
    for _ in range(ell - 1):
        acc = acc + P
        span.add(acc)
    Q = None
    for cand in points:
        if cand not in span:
            Q = cand
            break
    if Q is None:
        raise InternalError("no independent second basis point found")
    basis = TorsionBasis(ell=ell, k=k, base_q=q, curve=curve_k, P=P, Q=Q)
    one = curve_k.field.one()
    if basis.zeta == one or not _val_is_zero(basis.zeta**ell - one):
        raise InternalError("basis pairing is not a primitive ell-th root of unity")
    return basis


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


# --- Weil pairing (Miller's algorithm on shifted divisors) --------------------


def _line_value(A: CurvePoint, B: CurvePoint, X: CurvePoint):
    """Evaluate at X a line function with divisor (A)+(B)+(-A-B)-3(O),
    i.e. the chord/tangent through A and B (vertical when B = -A)."""
    curve = A.curve
    a1, a2, a3, a4, a6 = curve.coefficients()
    if A.infinity and B.infinity:
        return X.curve.field.one()
    if A.infinity:
        return X.x - B.x
    if B.infinity:
        return X.x - A.x
    if A.x == B.x and _val_is_zero(A.y + B.y + a1 * B.x + a3):
        return X.x - A.x
    if A == B:
        den = 2 * A.y + a1 * A.x + a3
        lam = (3 * A.x * A.x + 2 * a2 * A.x + a4 - a1 * A.y) / den
    else:
        lam = (B.y - A.y) / (B.x - A.x)
    return (X.y - A.y) - lam * (X.x - A.x)


def _vertical_value(A: CurvePoint, X: CurvePoint):
    if A.infinity:
        return X.curve.field.one()
    return X.x - A.x


def _miller_shifted(P: CurvePoint, S: CurvePoint, ell: int, X1: CurvePoint, X2: CurvePoint):
    """Evaluate at (X1)-(X2) the function with divisor ell(P+S) - ell(S).

    Uses partial functions h_m with divisor m(P+S) - m(S) - ([m]P) + (O);
    h_1 = v_{P+S} / l_{P,S}.  Raises ZeroDivisionError on degenerate
    evaluations (caller retries with fresh auxiliary points).
    """
    PS = P + S
    num = _vertical_value(PS, X1) * _line_value(P, S, X2)
    den = _vertical_value(PS, X2) * _line_value(P, S, X1)
    if _val_is_zero(num) or _val_is_zero(den):
        raise ZeroDivisionError("degenerate auxiliary point in Miller loop")
    h_num, h_den = num, den
    Z = P
    bits = bin(ell)[3:]
    for bit in bits:
        # double
        lv_n = _line_value(Z, Z, X1)
        lv_d = _line_value(Z, Z, X2)
        Z2 = Z + Z
        vv_n = _vertical_value(Z2, X2)
        vv_d = _vertical_value(Z2, X1)
        h_num = h_num * h_num * lv_n * vv_n
        h_den = h_den * h_den * lv_d * vv_d
        Z = Z2
        if _val_is_zero(h_num) or _val_is_zero(h_den):
            raise ZeroDivisionError("degenerate auxiliary point in Miller loop")
        if bit == "1":
            lv_n = _line_value(Z, P, X1)
            lv_d = _line_value(Z, P, X2)
            Z1 = Z + P
            vv_n = _vertical_value(Z1, X2)
            vv_d = _vertical_value(Z1, X1)
            h_num = h_num * num * lv_n * vv_n
            h_den = h_den * den * lv_d * vv_d
            Z = Z1
            if _val_is_zero(h_num) or _val_is_zero(h_den):
                raise ZeroDivisionError("degenerate auxiliary point in Miller loop")
    if not Z.infinity:
        raise ValueError("point is not ell-torsion")
    return h_num / h_den


def weil_pairing(P: CurvePoint, Q: CurvePoint, ell: int):
    """Weil pairing e_ell(P, Q); bilinear, alternating, nondegenerate.

    Miller's algorithm on shifted divisors.  When the base curve has too few
    points to supply generic auxiliary points (tiny fields), the computation
    is lifted to a small extension; the value always lies in the original
    field and is coerced back.
    """
    if P.curve != Q.curve:
        raise FieldMismatchError("pairing arguments on different curves")
    curve = P.curve
    if not (ell * P).infinity or not (ell * Q).infinity:
        raise ValueError("pairing arguments must be ell-torsion")
    one = curve.field.one()
    if P.infinity or Q.infinity or P == Q or P == -Q:
        # e(P, +-P) = 1 by the alternating property
        return one
    got = _weil_attempt(P, Q, ell)
    if got is not None:
        return got
    field = curve.field
    if isinstance(field, PrimeField):
        for k in (2, 3):
            K = ExtensionField(field.p, k)
            curve_k = curve.base_change(K)
            Pk = curve_k.point(K.element(P.x), K.element(P.y))
            Qk = curve_k.point(K.element(Q.x), K.element(Q.y))
            got = _weil_attempt(Pk, Qk, ell)
            if got is not None:
                rep = got.rep
                if any(rep[1:]):
                    raise InternalError("pairing value escaped the base field")
                return field.element(rep[0])
    raise InternalError("Weil pairing failed to find usable auxiliary points")


def _weil_attempt(P: CurvePoint, Q: CurvePoint, ell: int, max_tries: int = 512):
    aux = _aux_point_stream(P.curve, ell)
    tries = 0
    for S in aux:
        for T in aux:
            if T in (S, -S):
                continue
            tries += 1
            if tries > max_tries:
                return None
            try:
                fA = _miller_shifted(P, S, ell, Q + T, T)
                fB = _miller_shifted(Q, T, ell, P + S, S)
                return fA / fB
            except ZeroDivisionError:
                continue
    return None


@functools.lru_cache(maxsize=64)
def _aux_point_stream(curve: WeierstrassCurve, ell: int, cap: int = 80):
    """Auxiliary points for the Miller loops of an ell-pairing: the points
    outside E[ell] among the first `cap` or so affine points of the curve,
    in a deterministic order.  Points outside E[ell] keep the evaluations
    away from the functions' zeros and poles in all but thin coincidences.

    The points are found only as far as an iteration reaches (a pairing
    mostly needs the first two or three), and every iteration, nested ones
    included, sees the same sequence.  An affine S lies in E[ell] iff the
    division polynomial vanishes at x(S); for ell = 2 that polynomial is
    (2y + a1 x + a3)^2."""
    return _LazySequence(_aux_points(curve, ell, cap))


def _aux_points(curve: WeierstrassCurve, ell: int, cap: int):
    psi = division_polynomial(curve, ell)
    seen = 0
    for x in curve.field.iter_elements():
        ys = curve.y_candidates(x)
        if ys and not _val_is_zero(psi(x)):
            yield from (curve.point(x, y) for y in ys)
        seen += len(ys)
        if seen >= cap:
            return


class _LazySequence:
    """The items of a generator, drawn from it only as far as some
    iteration has reached and kept for every later iteration."""

    def __init__(self, source):
        self._items = []
        self._source = source

    def __iter__(self):
        i = 0
        while i < len(self._items) or self._draw():
            yield self._items[i]
            i += 1

    def _draw(self) -> bool:
        for item in self._source:
            self._items.append(item)
            return True
        return False


# --- Frobenius matrices -------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusMatrix:
    """Matrix of the q-power Frobenius on a torsion basis (P, Q) mod ell.

    Columns are the coordinates of (Frob P, Frob Q) in the basis.
    """

    ell: int
    q: int
    entries: tuple[tuple[int, int], tuple[int, int]]

    def determinant(self) -> int:
        (a, b), (c, d) = self.entries
        return (a * d - b * c) % self.ell

    def trace(self) -> int:
        return (self.entries[0][0] + self.entries[1][1]) % self.ell

    def is_identity(self) -> bool:
        return self.entries == ((1, 0), (0, 1))


def _frobenius_point(point: CurvePoint, q: int) -> CurvePoint:
    if point.infinity:
        return point
    return CurvePoint(point.curve, point.x**q, point.y**q, False)


def frobenius_matrix(
    curve: WeierstrassCurve, basis: TorsionBasis, order: int | None = None
) -> FrobeniusMatrix:
    """Matrix of the base-field Frobenius acting on (P, Q), solved by
    enumerating all ell^2 coordinate pairs."""
    ell, q = basis.ell, basis.base_q
    colP = basis.coordinates(_frobenius_point(basis.P, q))
    colQ = basis.coordinates(_frobenius_point(basis.Q, q))
    entries = ((colP[0], colQ[0]), (colP[1], colQ[1]))
    mat = FrobeniusMatrix(ell=ell, q=q, entries=entries)
    if mat.determinant() != q % ell:
        raise InternalError("Frobenius determinant != q mod ell")
    if order is None:
        if curve.field.size() <= ORDER_ENUMERATION_CAP:
            order = curve_order(curve)
    if order is not None and mat.trace() != (q + 1 - order) % ell:
        raise InternalError("Frobenius trace != q + 1 - #E mod ell")
    return mat


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


# --- misc helpers --------------------------------------------------------------


def _sort_key(v):
    if isinstance(v, FieldElement):
        return v.coeff_list()
    return [v]
