"""Exact arithmetic substrate: prime fields, small extension fields, dense
univariate polynomials over any of them, and helpers for exact rationals.

Finite-field elements are immutable and stored in canonical reduced form:
an int residue for prime fields, a coefficient tuple of length k for
F_{p^k} = F_p[t]/(modulus).  Rational arithmetic rides on
:class:`fractions.Fraction`, which already maintains the reduced-form
invariants (positive denominator, coprime parts).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from . import intpoly
from .errors import CapabilityError, FieldMismatchError


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64 bits."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for a prime p. Hashable, compared by p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    # field protocol -----------------------------------------------------
    def element(self, v) -> "FieldElement":
        if isinstance(v, FieldElement):
            if v.field != self:
                raise FieldMismatchError("element from a different field")
            return v
        return FieldElement(self, int(v) % self.p)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def characteristic(self) -> int:
        return self.p

    def size(self) -> int:
        return self.p

    def iter_elements(self) -> Iterator["FieldElement"]:
        for v in range(self.p):
            yield FieldElement(self, v)

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(self, rng.randrange(self.p))

    def sqrt(self, a: "FieldElement") -> "FieldElement | None":
        r = intpoly.sqrt_mod(a.rep, self.p)
        return None if r is None else FieldElement(self, r)

    def is_square(self, a: "FieldElement") -> bool:
        return a.rep == 0 or pow(a.rep, (self.p - 1) // 2, self.p) == 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class ExtensionField:
    """F_{p^k} = F_p[t]/(modulus), modulus monic irreducible of degree k."""

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p: int, k: int, modulus: Iterable[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = find_irreducible_ints(p, k)
        mod = [c % p for c in modulus]
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not intpoly.is_irreducible(mod, p):
            raise ValueError("modulus is reducible over F_p")
        self.p = p
        self.k = k
        self.modulus = tuple(mod)

    def element(self, v) -> "FieldElement":
        if isinstance(v, FieldElement):
            if v.field == self:
                return v
            if isinstance(v.field, PrimeField) and v.field.p == self.p:
                return self.from_base_int(v.rep)
            raise FieldMismatchError("element from a different field")
        if isinstance(v, int):
            return self.from_base_int(v)
        coeffs = [int(c) % self.p for c in v]
        coeffs = intpoly.pmod(coeffs, list(self.modulus), self.p)
        return FieldElement(self, tuple(coeffs + [0] * (self.k - len(coeffs))))

    def from_base_int(self, v: int) -> "FieldElement":
        rep = [v % self.p] + [0] * (self.k - 1)
        return FieldElement(self, tuple(rep))

    def embed(self, a: "FieldElement") -> "FieldElement":
        """Embed an F_p element (or coerce an int) into this field."""
        return self.element(a)

    def gen(self) -> "FieldElement":
        if self.k == 1:
            return self.element(intpoly.pmod([0, 1], list(self.modulus), self.p))
        return FieldElement(self, tuple([0, 1] + [0] * (self.k - 2)))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def characteristic(self) -> int:
        return self.p

    def size(self) -> int:
        return self.p**self.k

    def iter_elements(self) -> Iterator["FieldElement"]:
        def rec(prefix):
            if len(prefix) == self.k:
                yield FieldElement(self, tuple(prefix))
                return
            for c in range(self.p):
                yield from rec(prefix + [c])

        yield from rec([])

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    def is_square(self, a: "FieldElement") -> bool:
        if a.is_zero():
            return True
        return (a ** ((self.size() - 1) // 2)).rep == self.one().rep

    def sqrt(self, a: "FieldElement") -> "FieldElement | None":
        return _tonelli_generic(self, a)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtensionField", self.p, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.k}"


class RationalField:
    """The rationals, as a field handle whose elements are Fractions."""

    __slots__ = ()

    def element(self, v) -> Fraction:
        if isinstance(v, tuple):
            return Fraction(v[0], v[1])
        return Fraction(v)

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def characteristic(self) -> int:
        return 0

    def size(self) -> None:
        return None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"


QQ = RationalField()


class FieldElement:
    """An element of a PrimeField or ExtensionField, in canonical form."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def is_zero(self) -> bool:
        return self.rep == 0 if isinstance(self.rep, int) else not any(self.rep)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                if (
                    isinstance(self.field, ExtensionField)
                    and isinstance(other.field, PrimeField)
                    and other.field.p == self.field.p
                ):
                    return self.field.from_base_int(other.rep)
                raise FieldMismatchError(
                    f"mixed fields: {self.field!r} and {other.field!r}"
                )
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if isinstance(self.rep, int):
            return FieldElement(self.field, (self.rep + o.rep) % self.field.p)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.rep, o.rep)))

    __radd__ = __add__

    def __neg__(self):
        if isinstance(self.rep, int):
            return FieldElement(self.field, (-self.rep) % self.field.p)
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.rep))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if isinstance(self.rep, int):
            return FieldElement(self.field, (self.rep * o.rep) % self.field.p)
        f = self.field
        prod = intpoly.pmul(list(self.rep), list(o.rep), f.p)
        if len(prod) > f.k:  # a shorter product is already reduced
            prod = intpoly.pmod(prod, list(f.modulus), f.p)
        return FieldElement(f, tuple(prod + [0] * (f.k - len(prod))))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if isinstance(self.rep, int):
            return FieldElement(self.field, pow(self.rep, -1, self.field.p))
        f = self.field
        inv = intpoly.einv(intpoly.trim(list(self.rep)), list(f.modulus), f.p)
        return FieldElement(f, tuple(inv + [0] * (f.k - len(inv))))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if isinstance(self.rep, int):
            return FieldElement(self.field, pow(self.rep, e, self.field.p))
        f = self.field
        out = intpoly.ppowmod(list(self.rep), e, list(f.modulus), f.p)
        return FieldElement(f, tuple(out + [0] * (f.k - len(out))))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.rep == other.rep
        if isinstance(other, int):
            return self == self.field.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rep))

    def __bool__(self):
        return not self.is_zero()

    def to_int(self) -> int:
        if not isinstance(self.rep, int):
            raise TypeError("extension element has no single int form")
        return self.rep

    def coeff_list(self) -> list[int]:
        return [self.rep] if isinstance(self.rep, int) else list(self.rep)

    def __repr__(self):
        return f"{self.rep}:{self.field!r}"


_NONRESIDUE_CACHE: dict = {}


def _tonelli_generic(field, a: FieldElement) -> FieldElement | None:
    """Square root in any odd finite field via Tonelli-Shanks on elements."""
    if a.is_zero():
        return field.zero()
    size = field.size()
    if not field.is_square(a):
        return None
    if size % 4 == 3:
        return a ** ((size + 1) // 4)
    s, m = size - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = _NONRESIDUE_CACHE.get(field)
    if z is None:
        for cand in field.iter_elements():
            if not cand.is_zero() and not field.is_square(cand):
                z = cand
                break
        _NONRESIDUE_CACHE[field] = z
    if z is None:
        return None
    c = z**s
    t = a**s
    r = a ** ((s + 1) // 2)
    one = field.one()
    while t != one:
        i, tt = 0, t
        while tt != one:
            tt = tt * tt
            i += 1
        b = c ** (1 << (m - i - 1))
        m = i
        c = b * b
        t = t * c
        r = r * b
    return r


class Polynomial:
    """Dense univariate polynomial over a field handle.

    Coefficients are stored ascending with trailing zeros trimmed; the zero
    polynomial has degree -1.  Works over finite fields (FieldElement
    coefficients) and over Q (Fraction coefficients).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        els = [field.element(c) if not _is_field_value(c, field) else c for c in coeffs]
        while els and _val_is_zero(els[-1]):
            els.pop()
        self.field = field
        self.coeffs = tuple(els)

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls(field, [field.zero(), field.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _val_is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dg = other.degree
        inv_lc = _val_inverse(other.leading())
        quot = [self.field.zero()] * max(0, len(rem) - dg)
        while len(rem) - 1 >= dg and rem:
            c = rem[-1] * inv_lc
            k = len(rem) - 1 - dg
            quot[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            while rem and _val_is_zero(rem[-1]):
                rem.pop()
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = _val_inverse(self.leading())
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Polynomial":
        out = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                continue
            out.append(c * i)
        return Polynomial(self.field, out)

    def __call__(self, x):
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pow_mod(self, e: int, modulus: "Polynomial") -> "Polynomial":
        result = Polynomial(self.field, [self.field.one()])
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def int_coeffs(self) -> list[int]:
        """Ascending int coefficients (prime-field polynomials only)."""
        return [c.to_int() for c in self.coeffs]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"({c!r})*x^{i}" for i, c in enumerate(self.coeffs) if not _val_is_zero(c)]
        return "Poly(" + " + ".join(terms) + ")"


def _is_field_value(c, field) -> bool:
    if isinstance(field, RationalField):
        return isinstance(c, Fraction)
    return isinstance(c, FieldElement) and c.field == field


def _val_is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, FieldElement) else c == 0


def _val_inverse(c):
    return c.inverse() if isinstance(c, FieldElement) else 1 / c


def find_irreducible_ints(p: int, k: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates are ordered by the coefficient tuple (a_{k-1}, ..., a_0).
    Deterministic for fixed (p, k).
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k == 1:
        return [0, 1]

    def rec(upper: list[int]):
        # upper holds (a_{k-1}, ..., a_{j}) chosen so far
        if len(upper) == k:
            cand = list(reversed(upper)) + [1]
            if intpoly.is_irreducible(cand, p):
                return cand
            return None
        for c in range(p):
            got = rec(upper + [c])
            if got is not None:
                return got
        return None

    out = rec([])
    if out is None:
        raise RuntimeError("no irreducible found (impossible)")
    return out


def find_irreducible(p: int, k: int) -> Polynomial:
    field = PrimeField(p)
    return Polynomial(field, [field.element(c) for c in find_irreducible_ints(p, k)])


def poly_roots(f: Polynomial, field=None) -> set:
    """All roots of nonzero f in the given finite field (default: its own),
    by distinct-degree / equal-degree splitting; odd characteristic only.

    An f over a subfield is lifted into `field` first.  When `field` is
    F_{p^k} and f has F_p coefficients, f is factored over F_p first.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has every element as a root")
    if field is None:
        field = f.field
    if field != f.field:
        f = Polynomial(field, [field.element(c) for c in f.coeffs])
    if f.degree == 0:
        return set()
    if field.size() is None:
        raise CapabilityError("poly_roots requires a finite field; use rational_roots")
    if field.characteristic() == 2:
        raise CapabilityError("poly_roots requires odd characteristic")
    if isinstance(field, ExtensionField) and not any(any(c.rep[1:]) for c in f.coeffs):
        return set(_roots_from_base_factors([c.rep[0] for c in f.coeffs], field))
    return set(_roots_large_field(f, field))


def _roots_from_base_factors(f: list[int], field: ExtensionField) -> list:
    """Roots in F_{p^k} of an f with F_p coefficients, from its factors over
    F_p: only the irreducible factors whose degree divides k have roots
    there, and gcd(x^(p^k) - x, f) is their squarefree product.  A linear
    factor gives its root directly; a longer one is split over F_{p^k}."""
    roots = []
    for h in intpoly.factor_squarefree(intpoly.frobenius_gcd(f, field.k, field.p), field.p):
        if len(h) == 2:
            roots.append(field.from_base_int(-h[0]))
        else:
            roots.extend(_roots_large_field(Polynomial(field, h), field))
    return roots


def _roots_large_field(f: Polynomial, field) -> list:
    """Roots of f in a finite field of odd characteristic: the gcd with
    x^|field| - x, split by gcds with (x + t)^((|field| - 1)/2) - 1 for
    shifts t running through the field from the (p+1)-th element on (see
    `_shift_element`)."""
    size, p = field.size(), field.characteristic()
    x = Polynomial.x(field)
    xq = x.pow_mod(size, f)
    lin = (xq - x).gcd(f)
    roots = []
    stack = [lin]
    while stack:
        g = stack.pop()
        if g.degree <= 0:
            continue
        if g.degree == 1:
            g = g.monic()
            roots.append(-g.coeffs[0])
            continue
        half = (size - 1) // 2
        split = None
        for t in range(p, p + 512):
            # shifts must range over the whole field, and the counter starts
            # at p, past the constants of F_p: for t in F_p and a root a,
            # chi(sigma(a) + t) = sigma(chi(a + t)) = chi(a + t), so such a
            # shift never separates Frobenius-conjugate roots, which are all
            # the roots of an F_p-irreducible g.  Over F_p itself the
            # counter mod p runs through 0, 1, 2, ...
            h = _shift_element(field, t).pow_mod(half, g) - Polynomial(
                field, [field.one()]
            )
            d = h.gcd(g)
            if 0 < d.degree < g.degree:
                split = d
                break
        if split is None:
            raise CapabilityError("root splitting failed to converge (cap 512 shifts)")
        stack.append(split)
        stack.append(g // split)
    return roots


def _shift_element(field, counter: int) -> Polynomial:
    """Deterministic trial linear polynomial x + t with t running through
    the field (digits of the counter in base p across the power basis)."""
    if isinstance(field, ExtensionField):
        p = field.p
        digits = []
        c = counter
        for _ in range(field.k):
            digits.append(c % p)
            c //= p
        t = field.element(digits)
    else:
        t = field.element(counter)
    return Polynomial(field, [t, field.one()])


def rational_roots(f: Polynomial) -> set[Fraction]:
    """All rational roots of nonzero f with Fraction coefficients.

    Clears denominators and applies the rational root theorem to the
    integer candidates.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has every rational as a root")
    if f.degree == 0:
        return set()
    denom_lcm = 1
    for c in f.coeffs:
        denom_lcm = denom_lcm * c.denominator // _gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in f.coeffs]
    low = 0
    while ints[low] == 0:
        low += 1
    roots = {Fraction(0)} if low > 0 else set()
    ints = ints[low:]
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if f(cand) == 0:
                    roots.add(cand)
    return roots


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if irrational/negative."""
    if x < 0:
        return None
    from math import isqrt

    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)
