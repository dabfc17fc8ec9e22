"""Long-Weierstrass elliptic curves: group law, division polynomials, point
counting, l-torsion bases over extensions, the Weil pairing by Miller's
formula and Frobenius matrices mod l.

Curves live over a prime field, an extension field, or Q.  Base fields of
characteristic 2 and 3 are rejected.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import graphs, intpoly
from .errors import CapabilityError, FieldMismatchError, InternalError
from .fields import (
    ExtensionField,
    FieldElement,
    Polynomial,
    PrimeField,
    QQ,
    RationalField,
    _roots_from_base_factors,
    _val_is_zero,
)

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

    def _y_disc(self, x):
        """(a1 x + a3, disc) with disc = (a1 x + a3)^2 + 4 rhs(x), the
        discriminant of the y-quadratic above x: 0, 1 or 2 points lie above x
        as disc is a non-square, zero or a nonzero square (char != 2)."""
        lin = self.a1 * x + self.a3
        return lin, lin * lin + 4 * self.rhs_cubic(x)

    def y_candidates(self, x) -> list:
        """Points above x: solve the y-quadratic (char != 2)."""
        lin, disc = self._y_disc(x)
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
            half = (field.characteristic() + 1) // 2  # 1/2 in F_p
            ys = {(-lin + s) * half, (-lin - s) * half}
        return sorted(ys, key=_sort_key)

    def base_change(self, new_field) -> "WeierstrassCurve":
        emb = lambda a: new_field.element(a)  # noqa: E731
        return WeierstrassCurve(
            new_field, emb(self.a1), emb(self.a2), emb(self.a3), emb(self.a4), emb(self.a6)
        )

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

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

    def __neg__(self):
        if self.infinity:
            return self
        c = self.curve
        return CurvePoint(c, self.x, -self.y - c.a1 * self.x - c.a3, False)

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if not isinstance(other, CurvePoint):
            return NotImplemented
        c = self.curve
        if other.curve is not c and c != other.curve:
            raise FieldMismatchError("points on different curves")
        if self.infinity:
            return other
        if other.infinity:
            return self
        a1, a2, a3 = c.a1, c.a2, c.a3
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if _val_is_zero(y1 + y2 + a1 * x2 + a3):
                return c.infinity()
            lam = (3 * x1 * x1 + 2 * a2 * x1 + c.a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
        else:
            lam = (y2 - y1) / (x2 - x1)
        nu = y1 - lam * x1  # the chord or tangent y = lam x + nu passes through (x1, y1)
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

    def __repr__(self):
        if self.infinity:
            return "O"
        return f"({self.x!r}, {self.y!r})"


# --- division polynomials ----------------------------------------------------


def division_polynomial(curve: WeierstrassCurve, n: int) -> Polynomial:
    """Univariate polynomial whose roots are the x-coordinates of the
    nonzero n-torsion points: psi~_n for odd n, F * psi~_n for even n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    psi, F = graphs.psi_tilde(
        curve.b_invariants(),
        n,
        functools.partial(Polynomial, curve.field),
        operator.mul,
        operator.sub,
    )
    return psi[n] if n % 2 == 1 else F * psi[n]


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
        row_start = self.curve.infinity()  # b * Q
        for b in range(self.ell):
            pt = row_start  # a * P + b * Q
            for a in range(self.ell):
                table[None if pt.infinity else (pt.x, pt.y)] = (a, b)
                pt = pt + self.P
            row_start = row_start + self.Q
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


def _torsion_x_factors(curve: WeierstrassCurve, ell: int) -> list[list[int]]:
    """The monic irreducible factors over F_q of division_polynomial(curve,
    ell), kept on the curve: torsion_field_degree and torsion_basis factor
    it once per curve."""
    key = ("x_factors", ell)
    if key not in curve._cache:
        if not isinstance(curve.field, PrimeField):
            raise CapabilityError("torsion bases are built over prime base fields")
        q = curve.field.p
        if ell == q:
            raise ValueError("ell must differ from the characteristic")
        coeffs = [c.to_int() for c in curve.coefficients()]
        curve._cache[key] = intpoly.factor_squarefree(graphs.torsion_x_poly_ints(coeffs, q, ell), q)
    return curve._cache[key]


def torsion_field_degree(curve: WeierstrassCurve, ell: int) -> int:
    """Minimal k with E[ell] contained in E(F_{q^k}); q prime; kept on the curve.

    Works entirely over F_q: factor the torsion x-polynomial, then decide
    for each irreducible factor f whether the y-coordinates live in F_{q^d}
    or its quadratic extension: whether the y-discriminant F = 4x^3 + b2 x^2
    + 2 b4 x + b6 is a square at a root, F mod f in F_q[z]/(f).  The
    splitting degree is the lcm of the point degrees (the Galois group is
    cyclic, so compositum degree = lcm).
    """
    key = ("k", ell)
    if key in curve._cache:
        return curve._cache[key]
    factors = _torsion_x_factors(curve, ell)
    q = curve.field.p
    b2, b4, b6, _ = graphs.curve_b_invariants_int([c.to_int() for c in curve.coefficients()], q)
    k = 1
    for f in factors:
        d = intpoly.deg(f)
        if ell == 2:
            k = lcm(k, d)
            continue
        disc = intpoly.pmod([b6, 2 * b4, b2, 4], f, q)
        if not disc:
            raise InternalError("2-torsion x among odd-ell torsion roots")
        sq = intpoly.ppowmod(disc, (q**d - 1) // 2, f, q)
        y_deg = d if sq == [1] else 2 * d
        k = lcm(k, y_deg)
    bound = TORSION_DEGREE_BOUND(ell)
    if k > bound:
        raise InternalError(f"torsion degree {k} exceeds the bound {bound}")
    curve._cache[key] = k
    return k


def torsion_basis(curve: WeierstrassCurve, ell: int) -> TorsionBasis:
    """A basis (P, Q) of E[ell] over the minimal extension F_{q^k}; q prime.

    P, Q have exact order ell and their Weil pairing is a primitive ell-th
    root of unity.  The x's are the roots in F_{q^k} of the F_q factors of
    the division polynomial (all linear when k = 1).
    """
    k = torsion_field_degree(curve, ell)
    q = curve.field.p
    K = curve.field if k == 1 else ExtensionField(q, k)
    curve_k = curve if k == 1 else curve.base_change(K)
    xs = sorted(_roots_from_base_factors(_torsion_x_factors(curve, ell), K), key=_sort_key)
    found = 0  # nonzero points, 0, 1 or 2 above each x
    for x in xs:
        disc = curve_k._y_disc(x)[1]
        found += 1 if _val_is_zero(disc) else 2 if K.is_square(disc) else 0
    expected = ell * ell - 1
    if found != expected:
        raise InternalError(
            f"found {found} nonzero {ell}-torsion points over F_{q}^{k}, expected {expected}"
        )
    # P, Q: the first point by (x, y), and the first outside <P>, which lies
    # above the first x of no iP (above that x lie +-iP)
    P = curve_k.point(xs[0], curve_k.y_candidates(xs[0])[0])
    if not P.has_order(ell):
        raise InternalError("division polynomial root gave a point of wrong order")
    span_xs, acc = {P.x}, P
    for _ in range(ell // 2 - 1):  # iP for 0 < i <= ell/2 meet every x of <P>
        acc = acc + P
        span_xs.add(acc.x)
    x_q = next((x for x in xs if x not in span_xs), None)
    if x_q is None:
        raise InternalError("no independent second basis point found")
    Q = curve_k.point(x_q, curve_k.y_candidates(x_q)[0])
    basis = TorsionBasis(ell=ell, k=k, base_q=q, curve=curve_k, P=P, Q=Q)
    one = curve_k.field.one()
    if basis.zeta == one or not _val_is_zero(basis.zeta**ell - one):
        raise InternalError("basis pairing is not a primitive ell-th root of unity")
    return basis


# --- Weil pairing (Miller's normalized functions) ------------------------------


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


def _miller_shifted(P: CurvePoint, ell: int, X: CurvePoint):
    """f_{ell,P}(X) for the normalized Miller function with divisor
    ell(P) - ell(O), by double-and-add on
    f_{i+j} = f_i f_j l_{iP,jP} / v_{(i+j)P}.

    Every line and vertical is monic in y or x, so f is normalized at O.
    Their zeros are multiples of P, so the value is defined and nonzero for
    X outside <P>.  The name is kept because `perfbench/layers.py` traces it.
    """
    num = den = X.curve.field.one()
    Z = P
    for bit in bin(ell)[3:]:
        Z2 = Z + Z
        num = num * num * _line_value(Z, Z, X)
        den = den * den * _vertical_value(Z2, X)
        Z = Z2
        if bit == "1":
            Z1 = Z + P
            num = num * _line_value(Z, P, X)
            den = den * _vertical_value(Z1, X)
            Z = Z1
    return num / den


def weil_pairing(P: CurvePoint, Q: CurvePoint, ell: int):
    """Weil pairing e_ell(P, Q) for a prime ell; bilinear, alternating,
    nondegenerate.

    Miller's formula e_ell(P, Q) = (-1)^ell f_{ell,P}(Q) / f_{ell,Q}(P) with
    normalized Miller functions (V. S. Miller, J. Cryptology 17, 2004).  When
    Q is O or a multiple of P the value is 1; otherwise P and Q are
    independent, and neither loop meets a zero or a pole of its functions.
    """
    if P.curve != Q.curve:
        raise FieldMismatchError("pairing arguments on different curves")
    if not (ell * P).infinity or not (ell * Q).infinity:
        raise ValueError("pairing arguments must be ell-torsion")
    one = P.curve.field.one()
    if P.infinity or Q.infinity:
        return one
    multiple = P
    for _ in range(ell - 1):
        if multiple == Q:
            return one
        multiple = multiple + P
    value = _miller_shifted(P, ell, Q) / _miller_shifted(Q, ell, P)
    return -value if ell % 2 else value


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


def _frobenius_point(point: CurvePoint) -> CurvePoint:
    """The p-power Frobenius of a point over F_p or F_{p^k}."""
    field = point.curve.field
    if point.infinity or not isinstance(field, ExtensionField):
        return point
    x, y = (FieldElement(field, field._frobenius(c.rep)) for c in (point.x, point.y))
    return CurvePoint(point.curve, x, y, False)


def frobenius_matrix(curve: WeierstrassCurve, basis: TorsionBasis, order: int) -> FrobeniusMatrix:
    """Matrix of the base-field Frobenius acting on (P, Q), checked against
    q mod ell (determinant) and q + 1 - order mod ell (trace)."""
    ell, q = basis.ell, basis.base_q
    colP = basis.coordinates(_frobenius_point(basis.P))
    colQ = basis.coordinates(_frobenius_point(basis.Q))
    entries = ((colP[0], colQ[0]), (colP[1], colQ[1]))
    mat = FrobeniusMatrix(ell=ell, q=q, entries=entries)
    if mat.determinant() != q % ell:
        raise InternalError("Frobenius determinant != q mod ell")
    if mat.trace() != (q + 1 - order) % ell:
        raise InternalError("Frobenius trace != q + 1 - #E mod ell")
    return mat


# --- misc helpers --------------------------------------------------------------


def _sort_key(v):
    if isinstance(v, FieldElement):
        return v.coeff_list()
    return [v]
