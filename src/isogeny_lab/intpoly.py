"""Dense univariate polynomial arithmetic over F_q with plain int coefficients.

Polynomials are Python lists of ints in [0, q), ascending degree, with no
trailing zeros (the zero polynomial is the empty list).  This module is the
arithmetic workhorse for extension-field elements and for the curve sweeps,
where object-per-coefficient arithmetic would be too slow.
"""

from __future__ import annotations

import struct
from operator import mul

from .errors import InternalError


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: list[int]) -> int:
    return len(f) - 1


def padd(f: list[int], g: list[int], q: int) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = f[:]
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % q
    return trim(out)


def psub(f: list[int], g: list[int], q: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = (a - b) % q
    return trim(out)


def pscale(f: list[int], c: int, q: int) -> list[int]:
    c %= q
    if c == 0:
        return []
    return trim([(a * c) % q for a in f])


def pmul(f: list[int], g: list[int], q: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([c % q for c in out])


def pdivmod(f: list[int], g: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder; g need not be monic.

    f may be unreduced (coefficients outside [0, q), trailing zeros mod q);
    both results are reduced and trimmed.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = f[:]
    dg = deg(g)
    inv_lc = pow(g[-1], -1, q)
    quot = [0] * max(0, len(f) - dg)
    k = len(r)
    while len(r) - 1 >= dg and r:
        c = (r[-1] * inv_lc) % q
        k = len(r) - 1 - dg
        quot[k] = c
        for i, b in enumerate(g):
            r[k + i] = (r[k + i] - c * b) % q
        trim(r)
    if k:  # r[:k] was never subtracted from, so never reduced
        r = trim([c % q for c in r])
    return trim(quot), r


def pmod(f: list[int], g: list[int], q: int) -> list[int]:
    return pdivmod(f, g, q)[1]


def pmonic(f: list[int], q: int) -> list[int]:
    if not f:
        return []
    if f[-1] == 1:
        return f[:]
    return pscale(f, pow(f[-1], -1, q), q)


def pgcd(f: list[int], g: list[int], q: int) -> list[int]:
    a, b = f[:], g[:]
    while b:
        a, b = b, pmod(a, b, q)
    return pmonic(a, q)


def pxgcd(f: list[int], g: list[int], q: int) -> tuple[list[int], list[int], list[int]]:
    """Returns (d, u, v) with u*f + v*g = d, d monic (or zero)."""
    r0, r1 = f[:], g[:]
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        quot, rem = pdivmod(r0, r1, q)
        r0, r1 = r1, rem
        u0, u1 = u1, psub(u0, pmul(quot, u1, q), q)
        v0, v1 = v1, psub(v0, pmul(quot, v1, q), q)
    if r0:
        c = pow(r0[-1], -1, q)
        r0, u0, v0 = pscale(r0, c, q), pscale(u0, c, q), pscale(v0, c, q)
    return r0, u0, v0


def peval(f: list[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % q
    return acc


def peval_deriv(f: list[int], x: int, q: int) -> tuple[int, int]:
    """(f(x), f'(x)) in one Horner pass."""
    acc = 0
    dacc = 0
    for c in reversed(f):
        dacc = (dacc * x + acc) % q
        acc = (acc * x + c) % q
    return acc, dacc


def pderiv(f: list[int], q: int) -> list[int]:
    return trim([(i * c) % q for i, c in enumerate(f)][1:])


def pfrom_roots(roots: list[int], q: int) -> list[int]:
    out = [1]
    for r in roots:
        out = pmul(out, [(-r) % q, 1], q)
    return out


def ppowmod(base: list[int], e: int, m: list[int], q: int) -> list[int]:
    """base**e mod (m, q) by square and multiply.

    With n = deg m >= 2 and n^3 (q-1)^4 < 2^64, every step is Kronecker-packed
    (Harvey, J. Symbolic Comput. 44, 2009); otherwise a step is
    pmod(pmul(.)).
    """
    b = pmod(base, m, q)
    if e == 0:
        return [1]
    n = len(m) - 1
    if n <= 1 or n**3 * (q - 1) ** 4 >= 1 << 64:
        pack = unpack = list

        def mulmod(u, v):
            return pmod(pmul(u, v, q), m, q)
    else:
        pack, mulmod, unpack = _packed_mulmod(m, q)
    bp, rp = pack(b), None
    while True:
        if e & 1:
            rp = bp if rp is None else mulmod(rp, bp)
        e >>= 1
        if not e:
            return unpack(rp)
        bp = mulmod(bp, bp)


def _packed_mulmod(m: list[int], q: int):
    """(pack, mulmod, unpack) for F_q[x]/(m) with n = deg m >= 2 and
    n^3 (q-1)^4 < 2^64.

    An operand is one int holding n coefficients in 64-bit slots.  mulmod
    makes one big-int product, reduces its 2n-1 slots mod q and folds the
    slots x^n..x^(2n-2) back with rows x^(n+i) mod m, packed the same way
    (row i+1 is x * row i folded back with row 0, which holds the inverse
    of m's leading coefficient).  Its result is left unreduced: each slot
    is at most (q-1) + (n-1)(q-1)^2 <= n(q-1)^2, so the 2n-1 slots of the
    next product, at most n * (n(q-1)^2)^2, stay exact.  unpack reduces.
    """
    n = len(m) - 1
    slots_n = struct.Struct(f"<{n}Q")
    unpack_2n = struct.Struct(f"<{2 * n - 1}Q").unpack
    nbytes, nbytes_2n = 8 * n, 8 * (2 * n - 1)
    inv_lc = pow(m[-1], -1, q)
    row0 = [(-c * inv_lc) % q for c in m[:-1]]
    rows = [row0]
    for _ in range(n - 2):
        prev = rows[-1]
        top = prev[-1]
        rows.append([(a + top * c) % q for a, c in zip([0] + prev[:-1], row0)])
    packed_rows = [int.from_bytes(slots_n.pack(*r), "little") for r in rows]

    def pack(f: list[int]) -> int:
        return int.from_bytes(slots_n.pack(*f, *[0] * (n - len(f))), "little")

    def mulmod(u: int, v: int) -> int:
        c = [x % q for x in unpack_2n((u * v).to_bytes(nbytes_2n, "little"))]
        return pack(c[:n]) + sum(map(mul, c[n:], packed_rows))

    def unpack(u: int) -> list[int]:
        return trim([x % q for x in slots_n.unpack(u.to_bytes(nbytes, "little"))])

    return pack, mulmod, unpack


def power_sums(h, upto: int) -> list:
    """Power sums p_1..p_upto of the roots of monic h, via Newton's identities.

    h is an ascending coefficient list over any commutative ring: ints (the
    sums come back unreduced; the caller reduces mod q), FieldElement or
    Fraction.  With h = x^d + c_1 x^(d-1) + ... + c_d and c_i = 0 for i > d,
    p_k = -(c_1 p_(k-1) + ... + c_(k-1) p_1 + k c_k).
    """
    d = len(h) - 1
    c = [h[d - i] if i <= d else 0 for i in range(upto + 1)]
    ps: list = []
    for k in range(1, upto + 1):
        acc = k * c[k]
        for i in range(1, k):
            acc = acc + c[i] * ps[k - i - 1]
        ps.append(-acc)
    return ps


def frobenius_gcd(h: list[int], e: int, q: int) -> list[int]:
    """gcd(x^(q^e) - x, h): the product of the distinct monic irreducible
    factors of h whose degree divides e."""
    return pgcd(psub(ppowmod([0, 1], q**e, h, q), [0, 1], q), h, q)


def roots_in_fq(f: list[int], q: int) -> list[int]:
    """All distinct roots of f in F_q (f nonzero), ascending."""
    return sorted((-g[0]) % q for g in factors_of_degree(f, 1, q))


def _trial_polys(q: int):
    """Deterministic stream of small nonconstant polynomials for CZ splits."""
    t = 0
    while True:
        yield [t % q, 1 + (t // q) % (q - 1)]
        yield [t % q, (t * 3 + 1) % q, 1]
        t += 1


def equal_degree_split(f: list[int], d: int, q: int) -> list[list[int]]:
    """Factor f into monic irreducibles, all known to have degree d (q odd)."""
    f = pmonic(f, q)
    if deg(f) == d:
        return [f]
    if d == 1 and deg(f) == 2:
        # two distinct roots: the quadratic formula
        b, c = f[1], f[0]
        s = sqrt_mod(b * b - 4 * c, q)
        if s is None:
            raise ValueError("quadratic does not split")
        inv2 = pow(2, -1, q)
        return [[(b - s) * inv2 % q, 1], [(b + s) * inv2 % q, 1]]
    half = (q**d - 1) // 2
    for tries, a in enumerate(_trial_polys(q)):
        g = ppowmod(a, half, f, q)
        g = pgcd(psub(g, [1], q), f, q)
        if 0 < deg(g) < deg(f):
            rest = pdivmod(f, g, q)[0]
            return equal_degree_split(g, d, q) + equal_degree_split(rest, d, q)
        if tries > 64 * q:
            raise ValueError("equal-degree splitting failed to converge")
    raise AssertionError("unreachable")


def factors_of_degree(f: list[int], d: int, q: int) -> list[list[int]]:
    """The distinct monic irreducible factors of degree d of nonzero f.

    f need not be squarefree: the gcd with x^(q^d) - x keeps each factor of
    degree dividing d once, and those of degree properly dividing d are
    then divided out.
    """
    if deg(f) <= 0:
        return []
    prod = frobenius_gcd(f, d, q)
    for e in range(1, d):
        if d % e == 0 and deg(prod) > 0:
            smaller = frobenius_gcd(prod, e, q)
            if deg(smaller) > 0:
                prod = pdivmod(prod, smaller, q)[0]
    if deg(prod) <= 0:
        return []
    return equal_degree_split(prod, d, q)


def factor_squarefree(f: list[int], q: int) -> list[list[int]]:
    """Full irreducible factorization of a squarefree polynomial: monic
    factors in non-decreasing degree (distinct-degree, then equal-degree)."""
    out = []
    rem = pmonic(f, q)
    d = 1
    while deg(rem) > 0:
        if d > deg(rem):
            raise InternalError("factorization ran past the degree (f is not squarefree)")
        g = frobenius_gcd(rem, d, q)
        if deg(g) > 0:
            out.extend(equal_degree_split(g, d, q))
            rem = pdivmod(rem, g, q)[0]
        d += 1
    return out


def sqrt_mod(n: int, q: int) -> int | None:
    """A square root of n modulo odd prime q, or None."""
    n %= q
    if n == 0:
        return 0
    if pow(n, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(n, (q + 1) // 4, q)
    # Tonelli-Shanks
    s, m = q - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c = pow(z, s, q)
    t = pow(n, s, q)
    r = pow(n, (s + 1) // 2, q)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = (tt * tt) % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        m = i
        c = (b * b) % q
        t = (t * c) % q
        r = (r * b) % q
    return r


# --- arithmetic in F_q[z]/(f), elements as int lists of length < deg f ---


def emul(a: list[int], b: list[int], f: list[int], q: int) -> list[int]:
    return pmod(pmul(a, b, q), f, q)


def einv(a: list[int], f: list[int], q: int) -> list[int]:
    d, u, _ = pxgcd(a, f, q)
    if deg(d) != 0:
        raise ZeroDivisionError("element not invertible in F_q[z]/(f)")
    return pmod(u, f, q)


def epow(a: list[int], e: int, f: list[int], q: int) -> list[int]:
    return ppowmod(a, e, f, q)


def eval_poly_ext(g: list[int], a: list[int], f: list[int], q: int) -> list[int]:
    """Evaluate g in F_q[x] at the element a of F_q[z]/(f)."""
    acc: list[int] = []
    for c in reversed(g):
        acc = emul(acc, a, f, q) if acc else []
        if c:
            acc = padd(acc, [c], q)
    return acc


def is_irreducible(f: list[int], q: int) -> bool:
    """Rabin irreducibility test for monic f over F_q."""
    k = deg(f)
    if k <= 0:
        return False
    if k == 1:
        return True
    if deg(frobenius_gcd(f, k, q)) != k:
        return False  # f does not divide x^(q^k) - x
    primes = set()
    kk = k
    d = 2
    while d * d <= kk:
        while kk % d == 0:
            primes.add(d)
            kk //= d
        d += 1
    if kk > 1:
        primes.add(kk)
    for r in primes:
        if deg(frobenius_gcd(f, k // r, q)) != 0:
            return False
    return True
