import contextlib
import inspect
import random
import sys
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from isogeny_lab import graphs as graphs_mod, intpoly
from isogeny_lab.curves import WeierstrassCurve, division_polynomial, torsion_basis
from isogeny_lab.errors import CapabilityError, InternalError
from isogeny_lab.fields import ExtensionField, PrimeField, Polynomial
from isogeny_lab.graphs import (
    FqTables,
    SoundnessStats,
    build_pointed_graphs,
    class_record,
    enumerate_pointed_lines,
    fq_tables,
    psi_tilde_ints,
    pt_add,
    pt_mul,
    rational_order_ell_subgroups,
    short_class_key,
    short_reduce_int,
    solve_twist_scale,
    velu_codomain_int,
)
from isogeny_lab.verify import primes_in_range
from oracles import (
    arm_isogeny,
    arm_isomorphism,
    arm_source_curve,
    curve_order,
    curves_isomorphic,
    dual_kernel_polynomial,
    eval_poly_ext,
    line_poly_int,
    peval,
    rational_ell_torsion,
    xmul_table,
)


def transport_line_poly(w, iso, q):
    """Transport a kernel x-polynomial through x = u^2 x' + r (monic out)."""
    u, r, _, _ = iso
    lin = [r % q, u * u % q]
    out = []
    for c in reversed(w):
        out = intpoly.padd(intpoly.pmul(out, lin, q), [c], q)
    return intpoly.pmonic(out, q)


def test_integer_point_ops_match_object_layer():
    from isogeny_lab.curves import WeierstrassCurve

    q = 13
    F = PrimeField(q)
    coeffs = (1, 0, 2, 0, 0)
    E = WeierstrassCurve(F, *coeffs)
    pts = []
    for x in range(q):
        for y in range(q):
            if E.contains(F.element(x), F.element(y)):
                pts.append((x, y))
    for P in pts[:5]:
        for Q in pts[:5]:
            got = pt_add(P, Q, coeffs, q, fq_tables(q).inv)
            obj = E.point(*P) + E.point(*Q)
            expect = None if obj.infinity else (obj.x.rep, obj.y.rep)
            assert got == expect
    P = pts[0]
    obj = 5 * E.point(*P)
    expect = None if obj.infinity else (obj.x.rep, obj.y.rep)
    assert pt_mul(5, P, coeffs, q, fq_tables(q).inv) == expect


def _affine_points(coeffs, q):
    """Every affine point of the long Weierstrass curve, by brute force."""
    a1, a2, a3, a4, a6 = coeffs
    return [(x, y) for x in range(q) for y in range(q)
            if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % q == 0]


@pytest.mark.parametrize("q, coeffs", [
    (11, (0, 0, 0, 1, 3)),
    (13, (0, 0, 0, 2, 0)),  # j = 1728
    (13, (0, 0, 0, 0, 5)),  # j = 0
    (13, (1, 0, 2, 0, 0)),  # family curves y^2 + w xy + v y = x^3
    (11, (3, 0, 5, 0, 0)),
])
def test_pt_mul_is_repeated_addition(q, coeffs):
    pts = _affine_points(coeffs, q)
    order = len(pts) + 1
    inv = fq_tables(q).inv
    for P in pts:
        acc = None  # [n]P
        for n in range(3 * order + 1):
            assert pt_mul(n, P, coeffs, q, inv) == acc
            acc = pt_add(acc, P, coeffs, q, inv)


@pytest.mark.parametrize("q", [13, 23, 101])
def test_solve_twist_scale_maps_same_key_curves(q):
    """(A1/u^4, B1/u^6) = (A2, B2) for random pairs of curves with one key,
    j = 0 and j = 1728 included."""
    tab = fq_tables(q)
    by_key = {}
    for A in range(q):
        for B in range(q):
            if (4 * A**3 + 27 * B * B) % q:
                by_key.setdefault(short_class_key(A, B, q, tab), []).append((A, B))
    assert {key[0] for key in by_key} == {0, 1, 2}
    rng = random.Random(q)
    for key in sorted(by_key):
        for _ in range(3):
            (A1, B1), (A2, B2) = rng.choice(by_key[key]), rng.choice(by_key[key])
            u = solve_twist_scale(A1, B1, A2, B2, q, tab)
            assert u % q
            assert (A1 - pow(u, 4, q) * A2) % q == 0
            assert (B1 - pow(u, 6, q) * B2) % q == 0


@pytest.mark.parametrize("q", [5, 7, 13, 89, 113, 499])
def test_inverse_table_inverts_every_unit(q):
    inv = FqTables(q).inv
    assert len(inv) == q and inv[0] is None
    assert all(x * inv[x] % q == 1 for x in range(1, q))


def test_zero_divisor_raises():
    """A division by zero raises, as pow(0, -1, q) did, instead of reading
    as an inverse: B2 = 0 against a curve of generic j (A1 B1 != 0) has no
    twist scale, and a singular curve no class key."""
    q = 13
    tab = fq_tables(q)
    with pytest.raises((TypeError, ValueError)):
        solve_twist_scale(2, 3, 1, 0, q, tab)
    A, B = next((A, B) for A in range(1, q) for B in range(1, q)
                if (4 * A**3 + 27 * B * B) % q == 0)
    with pytest.raises((TypeError, ValueError)):
        short_class_key(A, B, q, tab)


def test_twist_scale_into_a_j0_curve_raises():
    """A generic-j curve (A1 B1 != 0) against a j = 0 curve (A2 = 0) has no
    twist scale: u^2 = B1 A2 / (B2 A1) = 0 must not read as u = 0."""
    with pytest.raises(InternalError, match="generic j"):
        solve_twist_scale(2, 3, 0, 5, 13, fq_tables(13))


def test_sixth_root_table_matches_the_cube_root_search():
    """The j = 0 twist scale: the table's u for c is the square root of the
    least cube root z of c that is a nonzero square, as the old search over
    roots_in_fq(X^3 - c) found it, for every c at every prime 5 <= q < 200."""
    for q in primes_in_range(5, 200):
        tab = fq_tables(q)
        for c in range(1, q):
            want = next((tab.sqrt[z] for z in intpoly.roots_in_fq([(-c) % q, 0, 0, 1], q)
                         if tab.sqrt[z] > 0), None)
            assert tab.sixth_root.get(c) == want


@pytest.mark.parametrize("q", [5, 7, 13, 31, 61])
def test_order_table_matches_curve_order(q):
    F = PrimeField(q)
    orders = FqTables(q).orders()
    for a in range(q):
        for b in range(q):
            if (4 * a**3 + 27 * b**2) % q == 0:
                assert orders[a][b] == 0
            else:
                E = WeierstrassCurve(F, 0, 0, 0, a, b)
                assert orders[a][b] == curve_order(E)


def test_class_keys_separate_exactly_isomorphism_classes():
    q = 13
    tab = fq_tables(q)
    from isogeny_lab.curves import WeierstrassCurve

    F = PrimeField(q)
    curves = []
    for a in range(q):
        for b in range(q):
            if (4 * a**3 + 27 * b**2) % q:
                curves.append((a, b))
    # the key's second entry is the j-invariant
    for a, b in curves:
        j = WeierstrassCurve(F, 0, 0, 0, a, b).j_invariant().rep
        assert short_class_key(a, b, q, tab)[1] == j
    # same key <=> isomorphic, on a modest sample
    sample = curves[::7]
    for a1, b1 in sample[:12]:
        for a2, b2 in sample[:12]:
            k1 = short_class_key(a1, b1, q, tab)
            k2 = short_class_key(a2, b2, q, tab)
            E1 = WeierstrassCurve(F, 0, 0, 0, a1, b1)
            E2 = WeierstrassCurve(F, 0, 0, 0, a2, b2)
            iso = curves_isomorphic(E1, E2)
            assert (k1 == k2) == (iso is not None)


def object_layer_subgroups(E, ell):
    """The x-sets of the rational order-ell subgroups of E, by enumerating
    its points and adding each point of order ell to itself."""
    subgroups = set()
    for x in E.field.iter_elements():
        for y in E.y_candidates(x):
            P = E.point(x, y)
            if P.has_order(ell):
                xs, acc = {P.x.rep}, P
                for _ in range(2, (ell - 1) // 2 + 1):
                    acc = acc + P
                    xs.add(acc.x.rep)
                subgroups.add(frozenset(xs))
    return subgroups


def subgroups_of(a, b, N, ell, q, tab, records=None):
    """rational_order_ell_subgroups of y^2 = x^3 + ax + b from its
    class_record, taken from or made in records when it is given (else in a
    new store), without the record indices."""
    key = short_class_key(a, b, q, tab)
    records = {} if records is None else records
    return [(pt, xs) for pt, xs, _ in rational_order_ell_subgroups(
        a, b, q, tab, *class_record(a, b, N, ell, q, tab, records, key))]


def lines_of(a, b, N, ell, q, tab, enumerate_lines=enumerate_pointed_lines):
    """enumerate_pointed_lines of y^2 = x^3 + ax + b with a new record store."""
    return enumerate_lines(a, b, N, ell, q, tab, {}, short_class_key(a, b, q, tab))


@pytest.mark.parametrize("q, ell", [(7, 3), (13, 3), (19, 3), (13, 2), (11, 5), (31, 5),
                                    (29, 7), (43, 7)])
def test_rational_subgroups_match_object_layer_enumeration(q, ell):
    """Arm discovery in sweep order with one class cache, so both finders
    and the transport run, against the object layer on every short curve
    with ell | N."""
    F = PrimeField(q)
    tab = fq_tables(q)
    orders = tab.orders()
    records = {}
    for a in range(q):
        for b in range(q):
            N = orders[a][b]
            if not N or N % ell:
                continue
            E = WeierstrassCurve(F, 0, 0, 0, a, b)
            got = subgroups_of(a, b, N, ell, q, tab, records)
            assert len({frozenset(xs) for _, xs in got}) == len(got)
            assert {frozenset(xs) for _, xs in got} == object_layer_subgroups(E, ell)
            for pt, xs in got:
                assert pt[0] in xs
                assert E.point(*pt).has_order(ell)


def test_rational_subgroups_structure():
    q = 7
    tab = fq_tables(q)
    orders = tab.orders()
    # y^2 = x^3 + 2 over F_7 has N = 9 and full 3-torsion: 4 subgroups
    assert orders[0][2] == 9
    subs = subgroups_of(0, 2, 9, 3, q, tab)
    assert len(subs) == 4
    for pt, xs in subs:
        assert pt_mul(3, pt, (0, 0, 0, 0, 2), q, tab.inv) is None
        assert len(xs) == 1
    # a curve with 3 | N but not full torsion gives one subgroup
    for a in range(q):
        for b in range(q):
            N = orders[a][b]
            if N and N % 3 == 0 and not (N % 9 == 0 and q % 3 == 1):
                subs = subgroups_of(a, b, N, 3, q, tab)
                assert len(subs) == 1


def test_pointed_lines_divide_division_polynomial():
    q = 13
    tab = fq_tables(q)
    orders = tab.orders()
    from isogeny_lab.curves import WeierstrassCurve

    F = PrimeField(q)
    count = 0
    for a in range(q):
        for b in range(q):
            N = orders[a][b]
            if not N or N % 3:
                continue
            lines = lines_of(a, b, N, 3, q, tab)
            E = WeierstrassCurve(F, 0, 0, 0, a, b)
            psi = division_polynomial(E, 3)
            for w, _, _, quot in lines:
                wpoly = Polynomial(F, list(w))
                assert (psi % wpoly).is_zero()
                count += 1
    assert count > 0


# --- pointed lines: the eigenline gcd against factor-and-test ------------------


def pointed_lines_by_factoring(A, B, N, ell, q, tab):
    """Oracle for enumerate_pointed_lines at odd ell: every irreducible
    factor of psi_ell of degree e* (the order of q in (Z/ell)*/{+-1}) spans
    a candidate line; keep the Galois-stable ones on which Frobenius acts
    by q mod ell."""
    a = q % ell
    e_star, acc = 1, a
    while acc != 1 and acc != ell - 1:
        acc = acc * a % ell
        e_star += 1
    coeffs = (0, 0, 0, A % q, B % q)
    psi, F = psi_tilde_ints(coeffs, q, ell + 1)
    factors = intpoly.factors_of_degree(psi[ell], e_star, q)
    a_star = min(a, ell - a)
    xmul = xmul_table(psi, F, ell, q)
    lines = {}
    for f in factors:
        d = intpoly.deg(f)
        xi = [(-f[0]) % q] if d == 1 else [0, 1]
        w = line_poly_int(xmul, xi, f, q)
        if w is None or tuple(w) in lines:
            continue
        if a == 1:
            pointed = True
        elif a == ell - 1:
            pointed = not graphs_mod._line_pointwise_rational(w, A, B, q, tab)
        elif d == 1:
            # rational x: Frobenius fixes x, so x(aR) must equal x(R)
            pointed = a_star == 1
        else:
            frob_xi = intpoly.ppowmod(xi, q, f, q)
            numa, dena = xmul[a_star]
            nv = eval_poly_ext(numa, xi, f, q)
            dv = eval_poly_ext(dena, xi, f, q)
            if not dv:
                pointed = False
            else:
                target = intpoly.emul(nv, intpoly.einv(dv, f, q), f, q)
                pointed = intpoly.trim(list(frob_xi)) == intpoly.trim(list(target))
        if pointed:
            lines[tuple(w)] = None
    out = []
    for w in sorted(lines):
        cod = velu_codomain_int(coeffs, list(w), ell, q)
        out.append((w, short_class_key(cod[3], cod[4], q, tab), cod))
    return out


@pytest.fixture(scope="module")
def pointed_line_cases():
    """(curve, ell, q, tab, oracle lines) for one curve of every target class
    with ell | N: ell in {3, 5, 7} at q < 60 and ell = 11 at q < 40."""
    cases = []
    for ell, q_max in [(3, 60), (5, 60), (7, 60), (11, 40)]:
        for q in primes_in_range(5, q_max):
            if q == ell:
                continue
            tab = fq_tables(q)
            orders = tab.orders()
            reps = {}
            for a in range(q):
                for b in range(q):
                    N = orders[a][b]
                    if N and N % ell == 0:
                        reps.setdefault(short_class_key(a, b, q, tab), (a, b, N))
            for a, b, N in reps.values():
                cases.append(((a, b, N), ell, q, tab,
                              pointed_lines_by_factoring(a, b, N, ell, q, tab)))
    return cases


def _without_roots(lines):
    """enumerate_pointed_lines' (w, x_w, key, coeffs) in the oracle's shape."""
    return [(w, key, cod) for w, _, key, cod in lines]


def _oracle_mismatches(enumerate_lines, cases):
    """How many cases enumerate_lines answers differently from the oracle;
    a call that finds no consistent eigenline counts as a mismatch."""
    bad = 0
    for (a, b, N), ell, q, tab, want in cases:
        try:
            bad += _without_roots(lines_of(a, b, N, ell, q, tab, enumerate_lines)) != want
        except InternalError:
            bad += 1
    return bad


def test_pointed_lines_equal_factoring_oracle(pointed_line_cases):
    branches = Counter()
    for (a, b, N), ell, q, tab, want in pointed_line_cases:
        assert _without_roots(lines_of(a, b, N, ell, q, tab)) == want
        qmod = q % ell
        if qmod == 1:
            assert len(want) in (1, ell + 1)
            branches["q = 1, all lines" if len(want) > 1 else "q = 1, one line"] += 1
        else:
            assert len(want) == 1
            branches["q = -1" if qmod == ell - 1 else "a* > 1"] += 1
    assert set(branches) == {"q = 1, all lines", "q = 1, one line", "q = -1", "a* > 1"}


def test_pointed_lines_at_ell_2_are_the_rational_roots_of_the_cubic():
    """ell = 2 oracle: on every short curve with 2 | N at q < 60 the pointed
    lines are X - r, one for each r in F_q with r^3 + Ar + B = 0 (found by a
    scan), with x_w = r."""
    sizes = Counter()
    for q in primes_in_range(5, 60):
        tab = fq_tables(q)
        orders = tab.orders()
        cubes = [r * r * r % q for r in range(q)]
        for a in range(q):
            for b in range(q):
                N = orders[a][b]
                if not N or N % 2:
                    continue
                roots = [r for r in range(q) if (cubes[r] + a * r + b) % q == 0]
                got = lines_of(a, b, N, 2, q, tab)
                assert [(w, x_w) for w, x_w, _, _ in got] == sorted(
                    (((-r) % q, 1), r) for r in roots)
                sizes[len(roots)] += 1
    assert set(sizes) == {1, 3}


def test_line_root_given_exactly_at_q_1(pointed_line_cases):
    """x_w is an F_q root of w when q = 1 mod ell, and None otherwise."""
    for (a, b, N), ell, q, tab, _ in pointed_line_cases:
        for w, x_w, _, _ in lines_of(a, b, N, ell, q, tab):
            if q % ell == 1:
                assert peval(list(w), x_w, q) == 0
            else:
                assert x_w is None


# (old, new) source edits of enumerate_pointed_lines; the oracle must tell
# each mutant apart.  Keeping the first subgroup alone drops all but one
# line of a full-torsion target.
_LINE_MUTATIONS = {
    "a* off by one": ("a_star = min(qmod, ell - qmod)", "a_star = min(qmod, ell - qmod) + 1"),
    "y-test sign flipped": ("intpoly.padd(s, [1], q)", "intpoly.psub(s, [1], q)"),
    "first subgroup only": ("*class_record(A, B, N, ell, q, tab, records, key))",
                            "*class_record(A, B, N, ell, q, tab, records, key))[:1]"),
}


@pytest.mark.parametrize("mutation", sorted(_LINE_MUTATIONS))
def test_pointed_lines_differential_catches_mutation(mutation, pointed_line_cases):
    old, new = _LINE_MUTATIONS[mutation]
    src = inspect.getsource(graphs_mod.enumerate_pointed_lines)
    assert src.count(old) == 1
    namespace = dict(vars(graphs_mod))
    exec(compile(src.replace(old, new), graphs_mod.__file__, "exec"), namespace)
    assert _oracle_mismatches(namespace["enumerate_pointed_lines"], pointed_line_cases) > 0


def test_build_pointed_graphs_7_3():
    F7 = PrimeField(7)
    stats = SoundnessStats()
    gs = build_pointed_graphs(F7, 3, soundness=stats)
    assert stats.ok()
    order2 = [g for g in gs if g.order >= 2]
    assert len(order2) == 1
    g = order2[0]
    # the only multiple of 9 in the Hasse interval [3, 13] is 9
    assert g.target_order == 9
    assert len(g.arms) == 4  # ell + 1 lines, all realized
    for graph in gs:
        assert len(graph.arms) <= 4
        assert graph.target_order % 3 == 0


def test_arm_invariants_object_level():
    F13 = PrimeField(13)
    gs = build_pointed_graphs(F13, 3)
    for g in gs:
        target = g.target_curve(F13)
        for arm in g.arms:
            E = arm_source_curve(arm, F13)
            P = E.point(
                F13.element(arm.kernel_point[0]), F13.element(arm.kernel_point[1])
            )
            assert P.has_order(3)
            phi = arm_isogeny(arm, F13, g.ell)
            assert phi.degree == 3
            iso = arm_isomorphism(arm, F13)
            assert iso.apply_to_curve(phi.codomain) == target
            # transported dual line agrees with the contract-layer route
            w = dual_kernel_polynomial(phi).int_coeffs()
            assert tuple(transport_line_poly(w, arm.iso_to_target, 13)) == arm.dual_line


def test_graphs_deterministic():
    F = PrimeField(31)
    a = build_pointed_graphs(F, 3)
    b = build_pointed_graphs(F, 3)
    assert [(g.target, g.arms) for g in a] == [(g.target, g.arms) for g in b]


def test_no_order_two_when_q_not_1_mod_ell():
    for q, ell in [(11, 3), (13, 5), (13, 7)]:
        gs = build_pointed_graphs(PrimeField(q), ell)
        assert all(g.order <= 1 for g in gs)


def hurwitz_class_number(D):
    """H(D) for D > 0: the reduced forms (a, b, c) of discriminant -D,
    primitive or not, with a(x^2 + y^2) counted 1/2 and a(x^2 + xy + y^2)
    counted 1/3."""
    total = Fraction(0)
    a = 1
    while 3 * a * a <= D:
        for b in range(-a + 1, a + 1):
            c, rem = divmod(b * b + D, 4 * a)
            if rem or c < a or (c == a and b < 0):
                continue
            total += Fraction(1, 2) if c == a and b == 0 else Fraction(1, 3) if c == a == b else 1
        a += 1
    return total


@pytest.mark.parametrize("q, ell", [(61, 3), (109, 3), (101, 5), (71, 5), (43, 7), (97, 2),
                                    (103, 2), (157, 13)])
def test_order_two_targets_count_hurwitz_class_numbers(q, ell):
    """The order-two targets are the classes with E[ell] rational, i.e. with
    (pi - 1) / ell in End(E): weighted by 2 / #Aut, they number the sum of
    H((4q - t^2) / ell^2) over the traces t with ell^2 | q + 1 - t and
    ell^2 | 4q - t^2 (R. Schoof, J. Combin. Theory Ser. A 46, 1987;
    H. W. Lenstra, Ann. of Math. 126, 1987), the supersingular t = 0
    included (it counts at (103, 2)).  Each has an arm on every one of its
    ell + 1 lines."""
    weighted = Fraction(0)
    for g in build_pointed_graphs(PrimeField(q), ell):
        if g.order == 2:
            A, B = g.target
            n_aut = 6 if A == 0 and q % 3 == 1 else 4 if B == 0 and q % 4 == 1 else 2
            weighted += Fraction(2, n_aut)
            assert len(g.arms) == ell + 1
    traces = [t for t in range(-2 * q, 2 * q + 1) if t * t < 4 * q
              and (q + 1 - t) % ell**2 == 0 and (4 * q - t * t) % ell**2 == 0]
    assert weighted == sum(hurwitz_class_number((4 * q - t * t) // ell**2) for t in traces) > 0


def arm_census(q, ell):
    """{N: the number of arms of the short-form sources of order N}, for each
    N = q + 1 - t with ell | N.  (q - 1) / 2 * H(4q - t^2) curves y^2 = x^3 +
    Ax + B have trace t (H. W. Lenstra, Ann. of Math. 126, 1987), each with
    one rational order-ell subgroup, or ell + 1 when E[ell] is rational,
    which (q - 1) / 2 * H((4q - t^2) / ell^2) of them are when ell^2 divides
    both q + 1 - t and 4q - t^2 (R. Schoof, J. Combin. Theory Ser. A 46,
    1987); an arm's target has its source's order."""
    census = {}
    for t in range(-isqrt(4 * q), isqrt(4 * q) + 1):
        N, D = q + 1 - t, 4 * q - t * t
        if N % ell:
            continue
        arms = hurwitz_class_number(D)
        if N % ell**2 == 0 and D % ell**2 == 0:
            arms += ell * hurwitz_class_number(D // ell**2)
        census[N] = (q - 1) * arms / 2
    return census


_CENSUS_SWEEPS = [(61, 3), (43, 7), (101, 5), (97, 2), (13, 3), (109, 3), (31, 2), (73, 2),
                  (157, 13)]


def _arms_per_order(q, ell, include_family=False):
    arms = Counter()
    for g in build_pointed_graphs(PrimeField(q), ell, include_family=include_family):
        arms[g.target_order] += g.arm_multiplicity
    return arms


@pytest.mark.parametrize("q, ell", _CENSUS_SWEEPS)
def test_arms_per_target_order_count_hurwitz_class_numbers(q, ell):
    """Every arm of every source, by target order; at ell = 3 the family
    adds one arm for each of its (q - 1)^2 nonsingular (w, v)."""
    census = arm_census(q, ell)
    assert dict(_arms_per_order(q, ell)) == census
    if ell == 3:
        assert sum(_arms_per_order(q, ell, True).values()) == sum(census.values()) + (q - 1)**2


@pytest.mark.parametrize("q, ell", _CENSUS_SWEEPS[:4])
def test_arm_census_catches_a_dropped_subgroup(q, ell, monkeypatch):
    """Self-check: sources that lose the last of their ell + 1 subgroups,
    while the targets keep all their lines, break the census."""
    orig = graphs_mod.rational_order_ell_subgroups

    def drop_last(*args):
        out = orig(*args)
        by_source = sys._getframe(1).f_code.co_name == "build_pointed_graphs"
        return out[:-1] if by_source and len(out) > 1 else out

    monkeypatch.setattr(graphs_mod, "rational_order_ell_subgroups", drop_last)
    assert dict(_arms_per_order(q, ell)) != arm_census(q, ell)


def test_order_two_targets_exist_with_ell_squared_order():
    # q = 1 mod ell and some curve with ell^2 | N: order-2 graphs appear
    gs = build_pointed_graphs(PrimeField(31), 3)
    order2 = [g for g in gs if g.order >= 2]
    assert order2
    for g in order2:
        assert g.target_order % 9 == 0
        E = g.target_curve(PrimeField(31))
        assert rational_ell_torsion(E, 3) == 2


def test_family_contributes_extra_multiplicity():
    F7 = PrimeField(7)
    with_family = build_pointed_graphs(F7, 3, include_family=True)
    without = build_pointed_graphs(F7, 3, include_family=False)
    # identical graph structure after dedup, more raw arms with the family
    assert [(g.target, g.arms) for g in with_family] == [
        (g.target, g.arms) for g in without
    ]
    assert sum(g.arm_multiplicity for g in with_family) > sum(
        g.arm_multiplicity for g in without
    )


def test_ell2_graphs():
    gs = build_pointed_graphs(PrimeField(13), 2)
    assert gs
    for g in gs:
        assert g.target_order % 2 == 0
        assert len(g.arms) <= 3
        for arm in g.arms:
            assert arm.kernel_point[1] == 0  # 2-torsion on a short curve
            phi = arm_isogeny(arm, PrimeField(13), g.ell)
            assert phi.degree == 2


def test_extension_base_rejected():
    with pytest.raises(CapabilityError):
        build_pointed_graphs(ExtensionField(5, 2), 3)  # type: ignore[arg-type]


def test_curve_limit_cap():
    with pytest.raises(CapabilityError):
        build_pointed_graphs(PrimeField(199), 3, curve_limit=1000)


def test_graph_serialization():
    gs = build_pointed_graphs(PrimeField(7), 3)
    assert all(g.q == 7 and g.ell == 3 for g in gs)
    o2 = [g for g in gs if g.order >= 2]
    assert len(o2) == 1 and len(o2[0].arms) == 4


@pytest.mark.parametrize(
    "ell, curves",
    [(3, [(0, 3), (0, 2), (0, 1), (1, 0), (0, 5)]), (5, [(1, 0), (1, 6)])],
)
def test_line_poly_int_matches_subgroup_enumeration(ell, curves):
    """Oracle: for every nonzero R in E[ell] over the splitting field, the
    kernel polynomial of <R> from object-layer point arithmetic; the int
    builder, fed the irreducible factor of psi_ell through x(R), must return
    it when its coefficients lie in F_q and None otherwise."""
    q = 13
    field = PrimeField(q)
    seen = {"stable": 0, "unstable": 0}
    for a, b in curves:
        basis = torsion_basis(WeierstrassCurve(field, 0, 0, 0, a, b), ell)
        K = basis.curve.field
        psi, F = psi_tilde_ints((0, 0, 0, a, b), q, ell + 1)
        factors = intpoly.factor_squarefree(psi[ell], q)
        X = Polynomial.x(K)
        for i in range(ell):
            for j in range(ell):
                R = i * basis.P + j * basis.Q
                if R.infinity:
                    continue
                w = Polynomial(K, [K.one()])
                acc = R
                for _ in range((ell - 1) // 2):
                    w = w * (X - Polynomial(K, [acc.x]))
                    acc = acc + R
                coeffs = [c.coeff_list() for c in w.coeffs]
                rational = all(not any(c[1:]) for c in coeffs)
                expected = [c[0] for c in coeffs] if rational else None
                f = next(f for f in factors
                         if Polynomial(K, [K.element(c) for c in f])(R.x).is_zero())
                xi = [(-f[0]) % q] if len(f) == 2 else [0, 1]
                assert line_poly_int(xmul_table(psi, F, ell, q), xi, f, q) == expected
                seen["stable" if rational else "unstable"] += 1
    assert seen["stable"] and seen["unstable"]


# --- mutation tests: each soundness check must fire when its input is wrong ----


def _corrupt_x_maps(monkeypatch):
    """Shift every Velu x-map by one at the check points: x(phi(P)) + 1 is
    no homomorphism."""
    orig = graphs_mod.velu_x_map_at

    def shifted(terms, x, q, inv):
        m = orig(terms, x, q, inv)
        return m if m is None else ((m[0] + 1) % q, m[1])

    monkeypatch.setattr(graphs_mod, "velu_x_map_at", shifted)


def _wrap_checks(monkeypatch, change):
    """Run the soundness checks with the arguments that `change` returns."""
    orig = graphs_mod._soundness_checks
    monkeypatch.setattr(graphs_mod, "_soundness_checks",
                        lambda *args: orig(*change(list(args))))


# positions of the arguments of graphs._soundness_checks
_KAPPA, _COD, _W_LINE, _TC, _N, _ELL, _Q = 2, 5, 7, 8, 9, 10, 11


def test_soundness_corrupted_x_map_fails_homomorphism(monkeypatch):
    _corrupt_x_maps(monkeypatch)
    stats = SoundnessStats()
    build_pointed_graphs(PrimeField(11), 3, soundness=stats)
    assert stats.isogenies == 150
    assert stats.homomorphism_failures > 0
    assert not stats.ok()
    assert {f["kind"] for f in stats.failures} <= {"homomorphism", "kernel-invariance"}


def test_soundness_wrong_dual_line_fails_every_arm_on_it(monkeypatch):
    q, ell = 13, 3
    seen = []  # (target class, dual line) of every checked arm
    _wrap_checks(monkeypatch, lambda a: seen.append((a[_TC], a[_W_LINE])) or a)
    build_pointed_graphs(PrimeField(q), ell, soundness=SoundnessStats())
    monkeypatch.undo()
    # a line carrying several arms, and another line of its target whose
    # quotient has a different j
    per_line = Counter((tc.rep, w) for tc, w in seen)
    rep, w1, w2 = next(
        (tc.rep, w1, w2)
        for tc in sorted({tc for tc, _ in seen}, key=lambda tc: tc.rep)
        for w1, _, _, _ in tc.lines if per_line[tc.rep, w1] >= 2
        for w2, _, _, _ in tc.lines
        if tc.dual_j[w2] != tc.dual_j[w1]
    )

    def redirect(a):
        if (a[_TC].rep, a[_W_LINE]) == (rep, w1):
            a[_W_LINE] = w2
        return a

    _wrap_checks(monkeypatch, redirect)
    stats = SoundnessStats()
    build_pointed_graphs(PrimeField(q), ell, soundness=stats)
    assert stats.dual_j_failures == per_line[rep, w1]
    assert stats.isogenies == len(seen)
    assert stats.homomorphism_failures == stats.order_mismatches == 0


def test_soundness_wrong_order_fails_order_check(monkeypatch):
    def wrong_order(a):
        a[_N] += 3
        return a

    _wrap_checks(monkeypatch, wrong_order)
    stats = SoundnessStats()
    build_pointed_graphs(PrimeField(11), 3, soundness=stats)
    assert stats.order_mismatches == stats.isogenies == 150
    assert {f["kind"] for f in stats.failures} == {"order-mismatch"}


@pytest.mark.parametrize("q, ell", [(11, 3), (13, 2), (11, 5)])
def test_soundness_shifted_kernel_polynomial_fails_kernel_check(q, ell, monkeypatch):
    """kappa + 1 vanishes at no kernel x-coordinate, so every arm fails the
    kernel check."""
    def shifted(a):
        a[_KAPPA] = [a[_KAPPA][0] + 1, *a[_KAPPA][1:]]
        return a

    _wrap_checks(monkeypatch, shifted)
    stats = SoundnessStats()
    build_pointed_graphs(PrimeField(q), ell, soundness=stats)
    assert stats.kernel_failures == stats.isogenies > 0
    assert {f["kind"] for f in stats.failures} == {"kernel"}


def test_soundness_witnesses_capped_counters_exact(monkeypatch):
    _corrupt_x_maps(monkeypatch)
    capped = SoundnessStats()
    build_pointed_graphs(PrimeField(17), 3, soundness=capped)
    cap = SoundnessStats.MAX_WITNESSES
    monkeypatch.setattr(SoundnessStats, "MAX_WITNESSES", 10**9)
    uncapped = SoundnessStats()
    build_pointed_graphs(PrimeField(17), 3, soundness=uncapped)
    # every failure is counted, only the first `cap` witnesses are kept
    assert len(uncapped.failures) == uncapped.homomorphism_failures > cap
    assert capped.to_json() == uncapped.to_json()
    assert capped.failures == uncapped.failures[:cap]


# --- the x-map in Velu's sum form against the x-map polynomial ------------------

_DIFF_SWEEPS = [(q, ell) for ell in (2, 3, 5, 7) for q in (5, 7, 11, 13, 17, 19, 23, 29, 31)
                if q != ell] + [(23, 11), (43, 11), (29, 13), (53, 13)]


@pytest.fixture(scope="module")
def check_point_calls():
    """[source, kappa, ell, q, kernel point, terms, xs] of every arm that
    the soundness checks see in the sweeps of _DIFF_SWEEPS: the Velu terms
    handed to velu_x_map_at (None if it is not called) and the x of each of
    its calls, i.e. of the sampled points of the arm and of their sums with
    each other and with the kernel point."""
    arms = []
    orig_checks = graphs_mod._soundness_checks
    orig_at = graphs_mod.velu_x_map_at

    def checks(*args):
        arms.append([args[1], tuple(args[_KAPPA]), args[_ELL], args[_Q], args[3], None, []])
        return orig_checks(*args)

    def at(terms, x, q, inv):
        arms[-1][5] = tuple(terms)
        arms[-1][6].append(x)
        return orig_at(terms, x, q, inv)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs_mod, "_soundness_checks", checks)
        mp.setattr(graphs_mod, "velu_x_map_at", at)
        for q, ell in _DIFF_SWEEPS:
            stats = SoundnessStats()
            build_pointed_graphs(PrimeField(q), ell, soundness=stats)
            assert stats.ok()
    return arms


def peval_deriv(f, x, q):
    """(f(x), f'(x)) in one Horner pass."""
    acc = 0
    dacc = 0
    for c in reversed(f):
        dacc = (dacc * x + acc) % q
        acc = (acc * x + c) % q
    return acc, dacc


def test_peval_deriv_matches_pderiv_and_peval():
    rng = random.Random(3)
    for q in (5, 13, 101):
        for _ in range(40):
            f = intpoly.trim([rng.randrange(q) for _ in range(rng.randrange(0, 10))])
            for x in (0, 1, q - 1, rng.randrange(q)):
                want = (peval(f, x, q), peval(intpoly.pderiv(f, q), x, q))
                assert peval_deriv(f, x, q) == want


def _x_map_mismatches(arms, every_x=False):
    """How many points x velu_x_map_at answers differently from num/den of
    the velu_x_maps_int polynomials and its derivative, None where den(x) = 0:
    at each arm's check points, or at every x in F_q."""
    bad = 0
    for src, kappa, ell, q, _, terms, xs in arms:
        if terms is None:
            continue
        num, den = graphs_mod.velu_x_maps_int(src, list(kappa), ell, q)
        for x in (range(q) if every_x else xs):
            nv, nd = peval_deriv(num, x, q)
            dv, dd = peval_deriv(den, x, q)
            dinv = pow(dv, -1, q) if dv else 0
            want = (nv * dinv % q, (nd * dv - nv * dd) * dinv * dinv % q) if dv else None
            bad += graphs_mod.velu_x_map_at(terms, x, q, fq_tables(q).inv) != want
    return bad


def test_x_map_at_check_points_equals_polynomial(check_point_calls):
    assert {arm[2] for arm in check_point_calls} == {2, 3, 5, 7, 11, 13}
    # an arm evaluates no x-map only when it has fewer than two sample
    # points, i.e. its source has affine points at fewer than two x
    for src, _, _, q, _, terms, _ in check_point_calls:
        if terms is None:
            assert len({x for x, _ in _affine_points(src, q)}) < 2
    assert _x_map_mismatches(check_point_calls) == 0


def test_x_map_at_every_x_equals_polynomial(check_point_calls):
    """Not only the check points: every x in F_q, kernel x's (None) included."""
    assert sum(arm[5] is not None for arm in check_point_calls) == 9244
    assert _x_map_mismatches(check_point_calls, every_x=True) == 0


def _mutate_terms(terms, where, q):
    """One wrong statement of the sum form: x_Q, v_Q or u_Q off by one, the
    ell = 2 halving left out (only 2-torsion Q have u_Q = 0), or a term lost."""
    if where == 3:
        return [(xq, 2 * v if u == 0 else v, u) for xq, v, u in terms]
    if where == 4:
        return terms[:-1]
    return [tuple((c + (i == where)) % q for i, c in enumerate(t)) for t in terms]


_POLY, _POINT = "velu_x_maps_int", "velu_x_map_at"


@pytest.mark.parametrize("attr, where", [
    (_POLY, (0, 0)),  # constant coefficient of num
    (_POLY, (0, -1)),  # leading coefficient of num
    (_POLY, (1, 0)),  # constant coefficient of den
    (_POINT, 0),  # x_Q
    (_POINT, 1),  # v_Q
    (_POINT, 2),  # u_Q
    (_POINT, 3),  # the ell = 2 halving of v_Q
    (_POINT, 4),  # one kernel x's term
])
def test_x_map_differential_catches_a_wrong_coefficient(attr, where, check_point_calls,
                                                        monkeypatch):
    orig = getattr(graphs_mod, attr)
    if attr == _POLY:
        def mutated(*args):
            maps = [list(p) for p in orig(*args)]
            maps[where[0]][where[1]] += 1
            return tuple(maps)
    else:
        def mutated(terms, x, q, inv):
            return orig(_mutate_terms(list(terms), where, q), x, q, inv)
    monkeypatch.setattr(graphs_mod, attr, mutated)
    small = [arm for arm in check_point_calls if arm[3] <= 13]
    assert _x_map_mismatches(small) > 0
    if where == 3:
        assert _x_map_mismatches([arm for arm in small if arm[2] != 2]) == 0


# (arms with several candidate lines, those matched); the others are moved
_MULTI_CANDIDATE_ARMS = {(11, 3): (0, 0), (13, 3): (54, 6), (13, 2): (24, 4),
                         (31, 5): (30, 2)}


@pytest.mark.parametrize("q, ell", [(11, 3), (13, 3), (13, 2), (31, 5)])
def test_x_map_polynomial_built_once_per_multi_candidate_arm(q, ell, monkeypatch):
    """velu_x_maps_int is built once for each arm that _match_dual_line
    decides, and those are arms with several candidate lines: the first of
    each orbit.  The later arms of the orbit are moved and build none."""
    built, matched = [], []
    orig = graphs_mod.velu_x_maps_int
    monkeypatch.setattr(graphs_mod, "velu_x_maps_int",
                        lambda *a: built.append((tuple(a[0]), tuple(a[1]))) or orig(*a))
    orig_match = graphs_mod._match_dual_line
    monkeypatch.setattr(graphs_mod, "_match_dual_line",
                        lambda *a: matched.append((tuple(a[0]), tuple(a[1]))) or orig_match(*a))
    checked = []
    _wrap_checks(monkeypatch, lambda a: checked.append(a) or a)
    build_pointed_graphs(PrimeField(q), ell, soundness=SoundnessStats())
    tab = fq_tables(q)
    multi = []
    for a in checked:
        src, kappa, tc = a[1], a[2], a[_TC]
        sA, sB, _ = short_reduce_int(src, q, tab.inv)
        src_key = short_class_key(sA, sB, q, tab)
        if sum(qkey == src_key for _, _, qkey, _ in tc.lines) > 1:
            multi.append((tuple(src), tuple(kappa)))
    assert sorted(built) == sorted(matched)
    assert set(matched) <= set(multi)
    assert (len(multi), len(matched)) == _MULTI_CANDIDATE_ARMS[q, ell]


def scanned_subgroups(a, b, ell, q, tab):
    """Oracle for rational_order_ell_subgroups, with no class record: scan
    x = 0, 1, ..., q - 1; a point (x, tab.sqrt y) of order ell whose x no
    earlier subgroup holds starts one, so its kernel point has the least x."""
    coeffs = (0, 0, 0, a, b)
    out, covered = [], set()
    for x in range(q):
        y = tab.sqrt[(x**3 + a * x + b) % q]
        if y < 0 or x in covered or pt_mul(ell, (x, y), coeffs, q, tab.inv) is not None:
            continue
        xs, acc = {x}, (x, y)
        for _ in range(2, (ell - 1) // 2 + 1):
            acc = pt_add(acc, (x, y), coeffs, q, tab.inv)
            xs.add(acc[0])
        covered |= xs
        out.append(((x, y), sorted(xs)))
    return out


_RECORD_SWEEPS = [(13, 2), (31, 2), (37, 2), (11, 3), (13, 3), (37, 3), (61, 3), (13, 5),
                  (31, 5), (41, 5), (29, 7), (43, 7)]


def test_rational_ell_points_transport_equals_direct():
    """Every short curve with ell | N takes its subgroups from one class
    cache, shared as build_pointed_graphs shares it, and they equal the
    scan oracle and an uncached discovery, kernel points included.  At
    q = 1 mod ell every other class is met first as a target: its last curve
    goes through enumerate_pointed_lines before any source of its class.
    Records taken from another curve cover j = 0, j = 1728 and generic
    classes under both finders, made by a source and by a target."""
    taken = Counter()  # (key kind, psi finder, record made by a target)
    for q, ell in _RECORD_SWEEPS:
        tab = fq_tables(q)
        orders = tab.orders()
        curves = [(a, b, orders[a][b], short_class_key(a, b, q, tab))
                  for a in range(q) for b in range(q)
                  if orders[a][b] and orders[a][b] % ell == 0]
        records = {}
        target_made = set()
        if q % ell == 1:
            last = {key: (a, b, N) for a, b, N, key in curves}
            for key in sorted(last)[::2]:
                a, b, N = last[key]
                lines = enumerate_pointed_lines(a, b, N, ell, q, tab, records, key)
                assert lines == lines_of(a, b, N, ell, q, tab)
                target_made.add(key)
            assert set(records) == target_made
        for a, b, N, key in curves:
            if key in records:
                psi_finder = ell == 2 or (N % (ell * ell) == 0 and q % ell == 1)
                taken[key[0], psi_finder, key in target_made] += 1
            got = subgroups_of(a, b, N, ell, q, tab, records)
            assert got == scanned_subgroups(a, b, ell, q, tab)
            assert got == subgroups_of(a, b, N, ell, q, tab)
    # targets are met first only at q = 1 mod ell, where ell | N forces
    # ell^2 | N on j = 1728 (pi - 1 is divisible by ell in Z[i]), so a
    # target-made j = 1728 record always comes from the psi_ell finder
    assert set(taken) == {(kind, finder, by_target) for kind in (0, 1, 2)
                          for finder in (True, False) for by_target in (True, False)
                          } - {(1, False, True)}


@pytest.mark.parametrize("q, ell, n_classes", [(113, 7, 33), (43, 7, 11)])
def test_one_twist_solve_per_arm_and_per_curve_taking_a_record(q, ell, n_classes,
                                                               monkeypatch):
    """Each class key is discovered once per build_pointed_graphs, and
    solve_twist_scale runs once per arm (its target isomorphism) and once per
    curve, source or target, that takes a record another curve made; never
    for psi_ell alone."""
    calls = Counter()
    found = []  # (A, B) of each first-curve discovery
    tab = fq_tables(q)
    for name in ("solve_twist_scale", "rational_order_ell_subgroups"):
        orig = getattr(graphs_mod, name)
        monkeypatch.setattr(graphs_mod, name,
                            lambda *a, _o=orig, _n=name: calls.update([_n]) or _o(*a))
    orig_find = graphs_mod._rational_ell_points
    monkeypatch.setattr(graphs_mod, "_rational_ell_points",
                        lambda *a: found.append(a[:2]) or orig_find(*a))
    graphs = build_pointed_graphs(PrimeField(q), ell)
    arms = sum(g.arm_multiplicity for g in graphs)
    assert len({short_class_key(A, B, q, tab) for A, B in found}) == len(found) == n_classes
    taking = calls["rational_order_ell_subgroups"] - len(found)
    assert calls["solve_twist_scale"] == arms + taking


# --- the dual-line match: one fiber division against the composition oracle ---


def match_by_composition(src_coeffs, kappa, ell, q, candidates, iso_to_target, _psi=None):
    """Oracle for _match_dual_line: the candidates w (target-representative
    coordinates) with w(x_rep(z)) = 0 modulo g = psi / kappa, which carries
    the x-coordinates of the torsion outside the kernel; x_rep = (num/den -
    r) / u^2, so w(x_rep) is taken as sum w_i num_rep^i den^(deg w - i).
    It builds psi itself and ignores the matcher's."""
    psi = graphs_mod.torsion_x_poly_ints(src_coeffs, q, ell)
    g, rem = intpoly.pdivmod(psi, kappa, q)
    assert not rem
    num, den = graphs_mod.velu_x_maps_int(src_coeffs, kappa, ell, q)
    u, r, _, _ = iso_to_target
    u2inv = pow(u * u % q, -1, q)
    num_rep = intpoly.pscale(intpoly.psub(num, intpoly.pscale(den, r, q), q), u2inv, q)
    deg_w = 1 if ell == 2 else (ell - 1) // 2
    n_pows, d_pows = [[1]], [[1]]
    for _ in range(deg_w):
        n_pows.append(intpoly.pmod(intpoly.pmul(n_pows[-1], num_rep, q), g, q))
        d_pows.append(intpoly.pmod(intpoly.pmul(d_pows[-1], den, q), g, q))
    matches = []
    for w in candidates:
        acc = []
        for i, wi in enumerate(w):
            term = intpoly.pmod(intpoly.pmul(n_pows[i], d_pows[deg_w - i], q), g, q)
            acc = intpoly.padd(acc, intpoly.pscale(term, wi, q), q)
        if not acc:
            matches.append(w)
    return matches


_MATCH_SWEEPS = [(13, 2), (31, 2), (13, 3), (37, 3), (61, 3), (31, 5), (41, 5), (43, 7)]


@pytest.fixture(scope="module")
def dual_line_matches():
    """(decisions, calls) in the sweeps of _MATCH_SWEEPS.  decisions holds
    (arguments, answer, the arm's dual line) of _match_dual_line on every arm
    with more than one candidate line, moved from the first arm of its orbit
    or not: a spy on _soundness_checks calls the matcher itself, with the
    arm's isomorphism (u, r, s, t), u the arm's twist scale (the last
    solve_twist_scale result before its checks) and (r, s, t) the reduction
    of its recomputed Velu codomain, and psi_ell built from scratch.  calls
    holds the arguments of the build's own _match_dual_line calls."""
    decisions, calls = [], []
    orig_match, orig_checks = graphs_mod._match_dual_line, graphs_mod._soundness_checks
    orig_solve = graphs_mod.solve_twist_scale
    last_u = [None]

    def solve(*args):
        last_u[0] = orig_solve(*args)
        return last_u[0]

    def checks(*args):
        src, kappa, w_line, tc, ell, q, src_inv = (args[1], args[_KAPPA], args[_W_LINE],
                                                   args[_TC], args[_ELL], args[_Q], args[-1])
        cands = {w: x_w for w, x_w, qkey, _ in tc.lines if qkey == src_inv[0]}
        if len(cands) > 1:
            psi = graphs_mod.torsion_x_poly_ints(src, q, ell)
            cod = velu_codomain_int(src, list(kappa), ell, q)
            iso = (last_u[0], *short_reduce_int(cod, q, fq_tables(q).inv)[2])
            call = (src, list(kappa), ell, q, cands, iso, psi)
            decisions.append((call, orig_match(*call), w_line))
        return orig_checks(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs_mod, "_match_dual_line",
                   lambda *a: calls.append(a) or orig_match(*a))
        mp.setattr(graphs_mod, "_soundness_checks", checks)
        mp.setattr(graphs_mod, "solve_twist_scale", solve)
        for q, ell in _MATCH_SWEEPS:
            build_pointed_graphs(PrimeField(q), ell, soundness=SoundnessStats())
    return decisions, calls


def _into_j_0_or_1728(args):
    """Whether the arm of _match_dual_line's arguments has a target with j = 0
    or 1728."""
    src, kappa, ell, q = args[:4]
    A, B, _ = short_reduce_int(velu_codomain_int(src, kappa, ell, q), q, fq_tables(q).inv)
    return short_class_key(A, B, q, fq_tables(q))[0] in (0, 1)


def test_dual_line_fiber_division_equals_composition_oracle(dual_line_matches):
    """The fiber division decides every multi-candidate arm as the oracle
    does, and its answer is the arm's dual line, moved or matched.  The
    build matches only the first arm of each orbit, with the psi_ell it takes
    from the class record, which equals psi_ell built from scratch."""
    decisions, calls = dual_line_matches
    for args, got, w_line in decisions:
        assert match_by_composition(*args) == [got] == [w_line]
    assert {args[2] for args, _, _ in decisions} == {2, 3, 5, 7}
    assert len(decisions) == 1274
    assert sum(_into_j_0_or_1728(args) for args, _, _ in decisions) == 686
    decided = [args for args, _, _ in decisions]
    assert all(call in decided for call in calls)
    assert len(calls) == 54
    assert sum(_into_j_0_or_1728(args) for args in calls) == 34


def test_dual_line_oracle_tells_the_first_candidate_apart(dual_line_matches):
    """Self-check: a matcher that always answers its first candidate
    disagrees with the oracle."""
    assert any(match_by_composition(*args) != [next(iter(args[4]))]
               for args, _, _ in dual_line_matches[0])


@pytest.mark.parametrize("q, ell", [(13, 2), (13, 3), (31, 5), (43, 7)])
def test_shifted_line_root_fails_the_match(q, ell, monkeypatch):
    """x_w + 1 is no root of w: an arm whose dual line is w, the first one
    _match_dual_line decides, finds no matching candidate."""
    answers = []
    orig_match = graphs_mod._match_dual_line
    monkeypatch.setattr(graphs_mod, "_match_dual_line",
                        lambda *a: answers.append(orig_match(*a)) or answers[-1])
    build_pointed_graphs(PrimeField(q), ell)
    monkeypatch.undo()
    w0 = answers[0]
    orig = graphs_mod._ClassRecord.land

    def shifted(self, *args):
        orig(self, *args)
        if len(self.lines) > 1:
            self.lines = [(w, (x_w + 1) % q if w == w0 else x_w, *rest)
                          for w, x_w, *rest in self.lines]

    monkeypatch.setattr(graphs_mod._ClassRecord, "land", shifted)
    with pytest.raises(InternalError, match="candidate dual line"):
        build_pointed_graphs(PrimeField(q), ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11])
def test_class_psi_scales_the_stored_psi_by_u_squared(ell):
    """psi_ell of (u^4 A0, u^6 B0) is c_i u^(2(d - i)) for psi_ell(A0, B0) =
    sum c_i x^i, the same as building it, with the u^2 that class_record
    takes for the curve from the record of (A0, B0)."""
    rng = random.Random(ell)
    for q in (13, 61, 101):
        tab = fq_tables(q)
        for _ in range(8):
            A0, B0 = rng.randrange(q), rng.randrange(q)
            if (4 * A0**3 + 27 * B0**2) % q == 0:
                continue
            psi0 = graphs_mod.torsion_x_poly_ints((0, 0, 0, A0, B0), q, ell)
            u = rng.randrange(1, q)
            A, B = u**4 * A0 % q, u**6 * B0 % q
            key = short_class_key(A0, B0, q, tab)
            records = {key: graphs_mod._ClassRecord(key, (A0, B0), [], psi0)}
            record, u2 = class_record(A, B, 0, ell, q, tab, records, key)
            got = graphs_mod._class_psi(record, u2, q)
            assert got == graphs_mod.torsion_x_poly_ints((0, 0, 0, A, B), q, ell)
    with pytest.raises(InternalError, match="no stored psi"):
        graphs_mod._class_psi(graphs_mod._ClassRecord(None, (1, 1), [], None), 1, 13)


def test_dual_line_match_builds_no_psi(monkeypatch):
    """Every psi_ell build of the (113, 7) sweep is a class's first curve in
    _rational_ell_points; of its 224 multi-candidate arms, four are the first
    of their orbits and are matched, and they build none."""
    q, ell = 113, 7
    finding = [False]
    built, matched = Counter(), []  # psi builds by "inside the finder"
    orig_psi = graphs_mod.torsion_x_poly_ints
    orig_find, orig_match = graphs_mod._rational_ell_points, graphs_mod._match_dual_line

    def find(*args, **kwargs):
        finding[0] = True
        try:
            return orig_find(*args, **kwargs)
        finally:
            finding[0] = False

    monkeypatch.setattr(graphs_mod, "torsion_x_poly_ints",
                        lambda *a: built.update([finding[0]]) or orig_psi(*a))
    monkeypatch.setattr(graphs_mod, "_rational_ell_points", find)
    monkeypatch.setattr(graphs_mod, "_match_dual_line",
                        lambda *a: matched.append(a[0]) or orig_match(*a))
    build_pointed_graphs(PrimeField(q), ell)
    tab = fq_tables(q)
    assert len(matched) == len(set(matched)) == 4
    assert len({short_class_key(s[3], s[4], q, tab) for s in matched}) == 4
    assert built[True] > 0 and built[False] == 0


# --- every arm against its recomputation from scratch ---------------------------

_ARM_ORACLE_SWEEPS = [(q, ell) for ell in (2, 3, 5, 7) for q in primes_in_range(5, 60)
                      if q != ell]


def arm_oracle_mismatches(sweeps, bad=None):
    """Build each (q, ell) of sweeps, the 3-isogeny family included, with a
    spy on _soundness_checks, which sees every arm, moved from the first arm
    of its orbit or not, and recompute the arm from scratch: kappa from its
    kernel x's, the codomain by velu_codomain_int, its short form and class
    key, the isomorphism to the target's representative and the dual line
    by match_by_composition among all the target's lines.  The arm's own
    twist scale u is the last solve_twist_scale result before its checks, and
    its isomorphism (u, r, s, t) with the reduction (r, s, t) of the
    recomputed codomain.  Each arm a report shows must carry the recomputed
    codomain and isomorphism, each target's arms are counted against its
    arm_multiplicity, and the soundness checks must pass.  The codomain is
    also checked as the arm lands, at add_arm's first lookup of its target
    (its class key or its twist solve), before the build can raise on it.
    Returns (q, ell, what) for each disagreement, appended to bad when it is
    given, so that what was found before a raise is kept."""
    bad = [] if bad is None else bad
    orig_checks, orig_solve = graphs_mod._soundness_checks, graphs_mod.solve_twist_scale
    orig_key = graphs_mod.short_class_key
    last_u = [None]
    arms = Counter()
    recomputed = {}  # (source, kernel point) -> (codomain, isomorphism)

    def landing(frame):
        if frame.f_code.co_name == "add_arm":
            arm = frame.f_locals
            q, ell = arm["q"], arm["ell"]
            kappa = intpoly.pfrom_roots(arm["kernel_xs"], q)
            if arm["cod"] != velu_codomain_int(arm["src"], kappa, ell, q):
                bad.append((q, ell, "codomain"))

    def key(*args):
        landing(sys._getframe(1))
        return orig_key(*args)

    def solve(*args):
        landing(sys._getframe(1))
        last_u[0] = orig_solve(*args)
        return last_u[0]

    def checks(*args):
        src, kappa, kernel_pt, kernel_xs, cod, cod_short, w_line, tc, N, ell, q, tab, orders, \
            src_inv = args[1:]
        want_kappa = intpoly.pfrom_roots(kernel_xs, q)
        want_cod = velu_codomain_int(src, want_kappa, ell, q)
        A, B, rst = short_reduce_int(want_cod, q, tab.inv)
        u = orig_solve(A, B, *tc.rep, q, tab)
        want_iso = (u, *rst)
        recomputed[src, kernel_pt] = (want_cod, want_iso)
        lines = [w for w, _, _, _ in tc.lines]
        want_w = lines if len(lines) == 1 else match_by_composition(
            src, want_kappa, ell, q, lines, want_iso)
        sA, sB, _ = short_reduce_int(src, q, tab.inv)
        for what, got, want in [
            ("kernel polynomial", list(kappa), want_kappa),
            ("codomain", cod, want_cod),
            ("short codomain", cod_short, (A, B)),
            ("target class", short_class_key(*tc.rep, q, tab), short_class_key(A, B, q, tab)),
            ("isomorphism", (last_u[0], *rst), want_iso),
            ("dual line", [w_line], want_w),
            ("source", (src_inv[0], N), (short_class_key(sA, sB, q, tab), orders[sA][sB])),
        ]:
            if got != want:
                bad.append((q, ell, what))
        arms[tc.rep] += 1
        return orig_checks(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs_mod, "_soundness_checks", checks)
        mp.setattr(graphs_mod, "solve_twist_scale", solve)
        mp.setattr(graphs_mod, "short_class_key", key)
        for q, ell in sweeps:
            arms.clear()
            stats = SoundnessStats()
            graphs = graphs_mod.build_pointed_graphs(PrimeField(q), ell, soundness=stats)
            if not stats.ok():
                bad.append((q, ell, "soundness checks"))
            if {g.target: g.arm_multiplicity for g in graphs} != dict(arms):
                bad.append((q, ell, "arm multiplicity"))
            if any((arm.codomain, arm.iso_to_target) != recomputed[arm.source, arm.kernel_point]
                   for g in graphs for arm in g.arms):
                bad.append((q, ell, "report arm"))
    return bad


def test_every_arm_equals_its_recomputation():
    assert arm_oracle_mismatches(_ARM_ORACLE_SWEEPS) == []


_moved_arm = graphs_mod._moved_arm


def _moved_a2_by_lam6(A2, B2, kappa, lam, q):
    """u2^3 in place of u2^2 (lam^6 in place of lam^4) on A2."""
    A2, B2, kappa = _moved_arm(A2, B2, kappa, lam, q)
    return A2 * lam * lam % q, B2, kappa


def _moved_kappa_by_lam(A2, B2, kappa, lam, q):
    """kappa's roots moved by u (lam) in place of u^2."""
    return (*_moved_arm(A2, B2, kappa, lam, q)[:2], graphs_mod._scaled_roots(kappa, lam, q))


def _family_a6_minus_7v():
    """build_pointed_graphs with the family's closed-form a6 = -v(w^3 - 7v)
    in place of -v(w^3 + 7v)."""
    old, new = "-v_par * (w3 + 7 * v_par)", "-v_par * (w3 - 7 * v_par)"
    src = inspect.getsource(graphs_mod.build_pointed_graphs)
    assert src.count(old) == 1
    namespace = {}  # the mutant reads the module's globals, spies included
    exec(compile(src.replace(old, new), graphs_mod.__file__, "exec"), vars(graphs_mod), namespace)
    mutant = namespace["build_pointed_graphs"]
    mutant.__name__ = _family_a6_minus_7v.__name__
    return mutant


def _line_keeps_its_roots(w, z, q):
    """The moved line keeps its base's roots, as if Aut(target) were {+-1}."""
    return w


def _line_scaled_by_z(w, z, q):
    """The line's roots scaled by z in place of z^2."""
    return tuple(graphs_mod._scaled_roots(w, z, q))


@pytest.mark.parametrize("owner, name, mutant, sweeps, caught_as", [
    (graphs_mod, "_moved_arm", _moved_a2_by_lam6, [(7, 2), (7, 3)], "codomain"),
    (graphs_mod, "_moved_arm", _moved_kappa_by_lam, [(7, 2), (7, 3)], "kernel polynomial"),
    # every family arm takes its codomain from the closed form
    (graphs_mod, "build_pointed_graphs", _family_a6_minus_7v(), [(13, 3)], "codomain"),
    # arms into j = 0 or 1728 targets keep their orbit's first dual line
    (graphs_mod, "_moved_line", _line_keeps_its_roots, [(7, 3), (13, 2), (13, 3)],
     "dual line"),
    # x -> z x is no automorphism of the target when z^2 != 1
    (graphs_mod, "_moved_line", _line_scaled_by_z, [(7, 3), (13, 2), (13, 3)], InternalError),
])
def test_arm_oracle_catches_a_wrong_move(owner, name, mutant, sweeps, caught_as, monkeypatch):
    """The every-arm oracle reports each mutant, also when the build raises
    InternalError on it after the arm landed; a line moved by no
    automorphism must raise."""
    monkeypatch.setattr(owner, name, mutant)
    if caught_as is InternalError:
        with pytest.raises(InternalError, match="moved dual line"):
            arm_oracle_mismatches(sweeps)
        return
    bad = []
    with contextlib.suppress(InternalError):
        arm_oracle_mismatches(sweeps, bad)
    assert caught_as in {what for _, _, what in bad}


@pytest.mark.parametrize("q, ell", [(11, 3), (13, 3), (31, 5), (43, 7)])
def test_soundness_checks_catch_a_wrong_moved_codomain(q, ell, monkeypatch):
    """The homomorphism check puts the first sample's image on the codomain,
    so an arm not landed in full whose codomain a4 (the moved A2 of a
    short-form source) reaches the checks off by one fails it unless that
    image has x = 0 or is O, or the source has fewer than two sample points:
    more than three quarters of those arms fail, where the image of a sum
    against the sum of the images, a chord, caught at most a fifth.  The
    arms landed in full keep their codomain and pass.  A moved A2 that is
    wrong before the landing already breaks the twist solve to the target."""
    landed, full = [False], [0]  # whether the arm looked up its target key
    orig_key = graphs_mod.short_class_key

    def key(*args):
        landed[0] = landed[0] or sys._getframe(1).f_code.co_name == "add_arm"
        return orig_key(*args)

    def a4_plus_one(a):
        if landed[0]:
            full[0] += 1
        else:
            a[_COD] = (*a[_COD][:3], (a[_COD][3] + 1) % q, a[_COD][4])
        landed[0] = False
        return a

    monkeypatch.setattr(graphs_mod, "short_class_key", key)
    _wrap_checks(monkeypatch, a4_plus_one)
    stats = SoundnessStats()
    build_pointed_graphs(PrimeField(q), ell, soundness=stats)
    moved = stats.isogenies - full[0]
    assert full[0] == len(_built_in_full(q, ell, True, monkeypatch)[0])
    assert 3 * moved < 4 * stats.homomorphism_failures <= 4 * moved
    assert {f["kind"] for f in stats.failures} == {"homomorphism"}


def test_arm_loop_calls_no_pow_per_arm(monkeypatch):
    """Every inversion on the per-arm path, short_reduce_int's 1/864
    included, is an FqTables.inv lookup and every power a running product,
    so in the (89, 3) build with its soundness checks only short_class_key
    calls pow, at j = 0 and 1728, a number of times that does not grow with
    its 11,616 arms; with one pow per inversion it made 135,963 calls, and
    with short_reduce_int's 1/864 by pow 620."""
    callers = Counter()

    def counting_pow(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return pow(*args)

    monkeypatch.setattr(graphs_mod, "pow", counting_pow, raising=False)
    stats = SoundnessStats()
    build_pointed_graphs(PrimeField(89), 3, soundness=stats)
    assert stats.isogenies == 11616 and stats.ok()
    assert set(callers) == {"short_class_key"}
    assert callers["short_class_key"] < 300


def _built_in_full(q, ell, include_family, monkeypatch):
    """(landed, velu): the sources of the arms that build_pointed_graphs lands
    in full, i.e. whose target class key add_arm looks up, and of those whose
    Velu codomain the arm loop computes, in build order."""
    landed, velu = [], []
    with monkeypatch.context() as mp:
        for name, caller, out in [("short_class_key", "add_arm", landed),
                                  ("velu_codomain_int", "build_pointed_graphs", velu)]:
            def spy(*args, _orig=getattr(graphs_mod, name), _caller=caller, _out=out):
                frame = sys._getframe(1)
                if frame.f_code.co_name == _caller:
                    _out.append(frame.f_locals["src"])
                return _orig(*args)

            mp.setattr(graphs_mod, name, spy)
        build_pointed_graphs(PrimeField(q), ell, include_family=include_family)
    return landed, velu


@pytest.mark.parametrize("q, ell, orbits", [(113, 7, 40), (101, 5, 52)])
def test_one_full_arm_per_source_class_and_record_subgroup(q, ell, orbits, monkeypatch):
    """The short-form loop builds one arm in full per (source class, record
    subgroup), whatever the target's j: its Velu codomain, target class key
    and dual line; it moves every other arm.  As many as the first curves of
    the classes found subgroups."""
    found = []
    orig_find = graphs_mod._rational_ell_points
    monkeypatch.setattr(graphs_mod, "_rational_ell_points",
                        lambda *a: found.append(orig_find(*a)) or found[-1])
    landed, velu = _built_in_full(q, ell, False, monkeypatch)
    assert landed == velu
    assert len(landed) == sum(len(subgroups) for subgroups, _ in found) == orbits


@pytest.mark.parametrize("q", [13, 31])
def test_family_builds_one_full_arm_per_orbit_and_per_w0_source(q, monkeypatch):
    """The 3-isogeny family lands in full (a target key lookup and a line
    match) one arm per orbit v / w^3 of its w != 0 sources, and every w = 0
    source: (q - 2) + (q - 1) arms.  Every family arm takes its codomain from
    the closed form, none from velu_codomain_int."""
    landed, velu = _built_in_full(q, 3, True, monkeypatch)
    family = [src for src in landed if src[2]]  # a3 = v
    w0 = [src for src in family if src[0] == 0]
    orbits = {src[2] * pow(src[0], -3, q) % q for src in family if src[0]}
    assert len(w0) == q - 1
    assert len(family) - len(w0) == len(orbits) == q - 2
    assert not any(src[2] for src in velu)
