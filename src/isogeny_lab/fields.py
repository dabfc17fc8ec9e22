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
from itertools import chain, product
from math import isqrt, lcm
from typing import Iterable, Iterator

from . import intpoly
from .errors import CapabilityError, FieldMismatchError, InternalError


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
    """F_{p^k} = F_p[t]/(modulus), modulus monic irreducible of degree k.

    Each field handle carries its (p, modulus)'s entry of `_EXT_TABLES`
    (see `_ext_tables`): `fold`, the rows t^(k+i) mod modulus that reduce a
    product inline, and `frob`, the Frobenius images of the power basis."""

    __slots__ = ("p", "k", "modulus", "fold", "frob")

    def __init__(self, p: int, k: int, modulus: Iterable[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            mod = _DEFAULT_MODULI.get((p, k))
            if mod is None:
                mod = _DEFAULT_MODULI[p, k] = tuple(find_irreducible_ints(p, k))
        else:
            mod = tuple(c % p for c in modulus)
            if len(mod) != k + 1 or mod[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
        tables = _EXT_TABLES.get((p, mod))
        if tables is None:  # a default modulus is irreducible by construction
            if modulus is not None and not intpoly.is_irreducible(list(mod), p):
                raise ValueError("modulus is reducible over F_p")
            tables = _EXT_TABLES[p, mod] = _ext_tables(p, mod)
        self.p = p
        self.k = k
        self.modulus = mod
        self.fold, self.frob = tables

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

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def characteristic(self) -> int:
        return self.p

    def size(self) -> int:
        return self.p**self.k

    def iter_elements(self) -> Iterator["FieldElement"]:
        for rep in product(range(self.p), repeat=self.k):
            yield FieldElement(self, rep)

    def is_square(self, a: "FieldElement") -> bool:
        """a^((p^k - 1)/2) = N(a)^((p - 1)/2) = 1, read off the norm; for p = 2
        the exponent is 0 and every element is a square."""
        return a.is_zero() or pow(self._norm_parts(a)[1], (self.p - 1) // 2, self.p) == 1

    def _frobenius(self, a: tuple, i: int = 1) -> tuple:
        """Frob^i(a) = sum_j a_j (t^j)^(p^i) for a rep a, 0 < i < k."""
        return intpoly.tlin(a, self.frob[i - 1], self.p)

    def _norm_parts(self, a: "FieldElement") -> "tuple[FieldElement, int]":
        """(a^(r - 1), N(a)), r = (p^k - 1)/(p - 1), with N(a) = a a^(r - 1) = a^r
        an int in [0, p) and a^(r - 1) = Frob^1(a) ... Frob^(k-1)(a)."""
        out, fold, p = (1,) + (0,) * (self.k - 1), self.fold, self.p
        for i in range(1, self.k):
            conj = self._frobenius(a.rep, i)
            out = conj if i == 1 else intpoly.tmul(out, conj, fold, p)
        return FieldElement(self, out), intpoly.tmul(a.rep, out, fold, p)[0]

    def sqrt(self, a: "FieldElement") -> "FieldElement | None":
        """A square root of a, or None (odd p).  For k = 2 through the norm
        (G. Adj and F. Rodriguez-Henriquez, IEEE Trans. Comput. 63, 2014): if
        x^2 = a, m = N(x) = +-sqrt(N(a)) and s = Tr(x) have s^2 = Tr(a) + 2m
        and x = (a + m)/s.  Both signs fail only for a non-residue a of F_p,
        and then x is a root of x^2 - a (`quadratic.quadratic_roots`).  Other
        k take `_tonelli_generic`."""
        if self.k != 2:
            return _tonelli_generic(self, a)
        if a.is_zero():
            return a
        p, rep = self.p, a.rep
        conj = self._frobenius(rep)
        m = intpoly.sqrt_mod(intpoly.tmul(rep, conj, self.fold, p)[0], p)
        if m is None:  # N(a) is a non-residue of F_p
            return None
        tr = rep[0] + conj[0]
        for n in (m, p - m):
            s = intpoly.sqrt_mod(tr + 2 * n, p)
            if s:
                s_inv = pow(s, -1, p)
                root = ((rep[0] + n) * s_inv % p, rep[1] * s_inv % p)
                break
        else:
            from .quadratic import quadratic_roots
            root = quadratic_roots([-rep[0] % p, 0, 1], self)[0].rep
        if intpoly.tmul(root, root, self.fold, p) != rep:
            raise InternalError("square root through the norm does not square back")
        return FieldElement(self, root)

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
            if other.field is self.field:
                return other
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
        p = self.field.p
        if isinstance(self.rep, int):
            return FieldElement(self.field, (self.rep + o.rep) % p)
        return FieldElement(self.field, tuple([(a + b) % p for a, b in zip(self.rep, o.rep)]))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        if isinstance(self.rep, int):
            return FieldElement(self.field, (-self.rep) % p)
        return FieldElement(self.field, tuple([(-a) % p for a in self.rep]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        if isinstance(self.rep, int):
            return FieldElement(self.field, (self.rep - o.rep) % p)
        return FieldElement(self.field, tuple([(a - b) % p for a, b in zip(self.rep, o.rep)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        if isinstance(self.rep, int):
            return FieldElement(f, (self.rep * o.rep) % f.p)
        return FieldElement(f, intpoly.tmul(self.rep, o.rep, f.fold, f.p))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """a^-1 = a^(r - 1) N(a)^-1, r = (p^k - 1)/(p - 1) (T. Itoh and S. Tsujii,
        Inform. and Comput. 78, 1988): the norm N(a) = a a^(r - 1) lies in F_p,
        so the one inversion left is an int one."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        if isinstance(self.rep, int):
            return FieldElement(f, pow(self.rep, -1, f.p))
        conj, n = f._norm_parts(self)
        p = f.p
        n_inv = pow(n, -1, p)
        return FieldElement(f, tuple([u * n_inv % p for u in conj.rep]))

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
            f, g = self.field, other.field
            return self.rep == other.rep and (f is g or f == g)
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


_NONSQUARES: dict = {}  # field -> a non-square, found once per field


def _tonelli_generic(field: ExtensionField, a: FieldElement) -> FieldElement | None:
    """Square root in F_{p^k}, p odd, by Tonelli-Shanks; its non-square is
    the first t + c, c in F_p (then any element) whose norm is a non-residue."""
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
    z = _NONSQUARES.get(field)
    if z is None:
        lines = (field.element([c, 1]) for c in range(field.p))
        z = next(c for c in chain(lines, field.iter_elements()) if c and not field.is_square(c))
        _NONSQUARES[field] = z
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
            rem.pop()  # the leading term cancels
            for i, b in enumerate(other.coeffs[:-1]):
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
        if isinstance(self.field, PrimeField):  # the same Euclid, on the int kernel
            g = intpoly.pgcd(self.int_coeffs(), other.int_coeffs(), self.field.p)
            return Polynomial(self.field, g)
        f = self.field
        if isinstance(f, ExtensionField):  # the same Euclid, on the rep tuples
            g = intpoly.tgcd([c.rep for c in self.coeffs], [c.rep for c in other.coeffs],
                             f.fold, f.p, lambda c: FieldElement(f, c).inverse().rep)
            return Polynomial(f, [FieldElement(f, c) for c in g])
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Polynomial":
        return Polynomial(self.field, [c * i for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pow_mod(self, e: int, modulus: "Polynomial") -> "Polynomial":
        if e < 0:
            raise ValueError("pow_mod needs a nonnegative exponent")
        if isinstance(self.field, PrimeField):  # square and multiply on the int kernel
            r = intpoly.ppowmod(self.int_coeffs(), e, modulus.int_coeffs(), self.field.p)
            return Polynomial(self.field, r)
        base, f = self % modulus, self.field
        if isinstance(f, ExtensionField):  # the packed kernel, where it is exact
            r = intpoly.epowmod([list(c.rep) for c in base.coeffs], e,
                                [list(c.rep) for c in modulus.coeffs], list(f.modulus), f.p)
            if r is not None:
                return Polynomial(f, [FieldElement(f, tuple(c)) for c in r])
        result = Polynomial(self.field, [self.field.one()])
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


_DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {}  # (p, k) -> modulus
_EXT_TABLES: dict[tuple, tuple] = {}  # (p, modulus) -> (fold, frob), one per field


def _ext_tables(p: int, mod: tuple[int, ...]) -> tuple:
    """(fold, frob) for F_p[t]/(mod), k = deg mod, as coefficient tuples of
    length k: fold[i] = t^(k+i) mod mod for 0 <= i < k - 1, and
    frob[i-1][j] = (t^j)^(p^i) for 1 <= i < k and 0 <= j < k, from one
    t^(p^i) = (t^(p^(i-1)))^p per i."""
    k, m = len(mod) - 1, list(mod)

    def padded(f: list[int]) -> tuple[int, ...]:
        return tuple(f + [0] * (k - len(f)))

    fold = tuple(padded(intpoly.pmod([0] * (k + i) + [1], m, p)) for i in range(k - 1))
    frob, t_pi = [], [0, 1]
    for _ in range(1, k):
        t_pi = intpoly.ppowmod(t_pi, p, m, p)
        images, power = [], [1]
        for _ in range(k):
            images.append(padded(power))
            power = intpoly.emul(power, t_pi, m, p)
        frob.append(tuple(images))
    return fold, tuple(frob)


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


def poly_roots(f: Polynomial, field=None) -> set:
    """All roots of nonzero f in the given finite field (default: its own);
    odd characteristic only.

    An f over a subfield is lifted into `field` first.  When `field` is
    F_{p^k} and f has F_p coefficients, f is factored over F_p first and
    only its factors of degree >= 3 are split; otherwise gcd(x^|field| - x,
    f), the product of f's distinct linear factors, is split.
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
        base, p = [c.rep[0] for c in f.coeffs], field.p
        factors = intpoly.factor_squarefree(intpoly.frobenius_gcd(base, field.k, p), p)
        return set(_roots_from_base_factors(factors, field))
    x = Polynomial.x(field)
    return set(_roots_large_field((x.pow_mod(field.size(), f) - x).gcd(f), field))


def _roots_from_base_factors(factors: list[list[int]], field) -> list:
    """Roots in F_{p^k} (or F_p, k = 1) of an F_p polynomial from its distinct
    monic irreducible factors over F_p; those of degree d dividing k have d
    roots.  A quadratic's two come from the quadratic formula; a longer factor
    is split only until a root r turns up, and the rest are Frob^i(r),
    0 < i < d (J. von zur Gathen and V. Shoup, Comput. Complexity 2, 1992)."""
    roots = []
    for h in factors:
        d = len(h) - 1
        if getattr(field, "k", 1) % d:
            continue
        if d == 1:
            roots.append(field.element(-h[0]))
        elif d == 2:
            from .quadratic import quadratic_roots
            roots += quadratic_roots(h, field)
        else:
            r = _roots_large_field(Polynomial(field, h), field, one=True)[0].rep
            for _ in range(d):
                roots.append(FieldElement(field, r))
                r = field._frobenius(r)
    return roots


def _roots_large_field(f: Polynomial, field, one: bool = False) -> list:
    """Roots of a squarefree f that splits into linear factors over a finite
    field of odd characteristic (with `one`, only the first root found): f
    is split by gcds with (x + t)^((|field| - 1)/2) - 1 for shifts t running
    through the field from the (p+1)-th element on (see `_shift_element`)."""
    size, p = field.size(), field.characteristic()
    roots = []
    stack = [f]
    while stack and not (one and roots):
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
            # the counter starts past F_p: for t in F_p, chi(sigma(a) + t) =
            # chi(a + t), so such a shift never separates the Frobenius-conjugate
            # roots of an F_p-irreducible g.  Over F_p it runs through 0, 1, ...
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
        counter = [counter // field.p**i % field.p for i in range(field.k)]
    return Polynomial(field, [field.element(counter), field.one()])


def rational_roots(f: Polynomial) -> set[Fraction]:
    """All rational roots of nonzero f with Fraction coefficients.

    Clears denominators and applies the rational root theorem to the
    integer candidates.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has every rational as a root")
    if f.degree == 0:
        return set()
    denom_lcm = lcm(*(c.denominator for c in f.coeffs))
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
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


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
