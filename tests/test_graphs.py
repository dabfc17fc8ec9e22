from collections import Counter

import pytest

from isogeny_lab import graphs as graphs_mod, intpoly
from isogeny_lab.curves import WeierstrassCurve, curve_order, division_polynomial, torsion_basis
from isogeny_lab.errors import CapabilityError
from isogeny_lab.fields import ExtensionField, PrimeField, Polynomial
from isogeny_lab.graphs import (
    FqTables,
    SoundnessStats,
    build_pointed_graphs,
    enumerate_pointed_lines,
    fq_tables,
    j_invariant_int,
    line_poly_int,
    psi_tilde_ints,
    pt_add,
    pt_mul,
    rational_order_ell_subgroups,
    short_class_key,
    short_reduce_int,
    xmul_table,
)
from isogeny_lab.isogenies import curves_isomorphic, dual_kernel_polynomial


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
            got = pt_add(P, Q, coeffs, q)
            obj = E.point(*P) + E.point(*Q)
            expect = None if obj.is_infinity() else (obj.x.rep, obj.y.rep)
            assert got == expect
    P = pts[0]
    obj = 5 * E.point(*P)
    expect = None if obj.is_infinity() else (obj.x.rep, obj.y.rep)
    assert pt_mul(5, P, coeffs, q) == expect


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


def test_rational_subgroups_structure():
    q = 7
    tab = fq_tables(q)
    orders = tab.orders()
    # y^2 = x^3 + 2 over F_7 has N = 9 and full 3-torsion: 4 subgroups
    assert orders[0][2] == 9
    subs = rational_order_ell_subgroups(0, 2, 9, 3, q, tab)
    assert len(subs) == 4
    for pt, xs in subs:
        assert pt_mul(3, pt, (0, 0, 0, 0, 2), q) is None
        assert len(xs) == 1
    # a curve with 3 | N but not full torsion gives one subgroup
    for a in range(q):
        for b in range(q):
            N = orders[a][b]
            if N and N % 3 == 0 and not (N % 9 == 0 and q % 3 == 1):
                subs = rational_order_ell_subgroups(a, b, N, 3, q, tab)
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
            lines = enumerate_pointed_lines(a, b, N, 3, q, tab)
            E = WeierstrassCurve(F, 0, 0, 0, a, b)
            psi = division_polynomial(E, 3)
            for w, _, quot in lines:
                wpoly = Polynomial(F, list(w))
                assert (psi % wpoly).is_zero()
                count += 1
    assert count > 0


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
            E = arm.source_curve(F13)
            P = E.point(
                F13.element(arm.kernel_point[0]), F13.element(arm.kernel_point[1])
            )
            assert P.has_order(3)
            phi = arm.isogeny(F13)
            assert phi.degree == 3
            iso = arm.isomorphism(F13)
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


def test_order_two_targets_exist_with_ell_squared_order():
    # q = 1 mod ell and some curve with ell^2 | N: order-2 graphs appear
    gs = build_pointed_graphs(PrimeField(31), 3)
    order2 = [g for g in gs if g.order >= 2]
    assert order2
    for g in order2:
        assert g.target_order % 9 == 0
        from isogeny_lab.curves import WeierstrassCurve, rational_ell_torsion

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
            assert arm.kernel_point[1] == 0 or True  # kernel is 2-torsion
            phi = arm.isogeny(PrimeField(13))
            assert phi.degree == 2


def test_extension_base_rejected():
    with pytest.raises(CapabilityError):
        build_pointed_graphs(ExtensionField(5, 2), 3)  # type: ignore[arg-type]


def test_curve_limit_cap():
    with pytest.raises(CapabilityError):
        build_pointed_graphs(PrimeField(199), 3, curve_limit=1000)


def test_graph_serialization():
    gs = build_pointed_graphs(PrimeField(7), 3)
    data = [g.to_json() for g in gs]
    assert all(d["q"] == 7 and d["ell"] == 3 for d in data)
    o2 = [d for d in data if d["order"] >= 2]
    assert len(o2) == 1 and len(o2[0]["arms"]) == 4


def test_j_invariant_int_matches_object():
    from isogeny_lab.curves import WeierstrassCurve

    q = 13
    F = PrimeField(q)
    for coeffs in [(1, 0, 2, 0, 0), (0, 0, 0, 1, 1), (1, 2, 3, 4, 5)]:
        E = WeierstrassCurve(F, *coeffs)
        assert j_invariant_int(coeffs, q) == E.j_invariant().rep


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

    def shifted(*args):
        nv, nd, dv, dd = orig(*args)
        q = args[-1]
        return (nv + dv) % q, (nd + dd) % q, dv, dd

    monkeypatch.setattr(graphs_mod, "velu_x_map_at", shifted)


def _wrap_checks(monkeypatch, change):
    """Run the soundness checks with the arguments that `change` returns."""
    orig = graphs_mod._soundness_checks
    monkeypatch.setattr(graphs_mod, "_soundness_checks",
                        lambda *args: orig(*change(list(args))))


# positions of the arguments of graphs._soundness_checks
_W_LINE, _TC, _N = 8, 9, 10


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
        for w1, _, _ in tc.lines if per_line[tc.rep, w1] >= 2
        for w2, _, _ in tc.lines
        if tc.dual_quotient_j(w2, ell, q) != tc.dual_quotient_j(w1, ell, q)
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


# --- the x-map at the check points against the x-map polynomial -----------------

_DIFF_SWEEPS = [(q, ell) for ell in (2, 3, 5, 7) for q in (5, 7, 11, 13, 17, 19, 23, 29, 31)
                if q != ell]


@pytest.fixture(scope="module")
def check_point_calls():
    """(source, b-invariants, kappa, p1, ell, x, q) of every velu_x_map_at
    call that the soundness checks make on every arm of the sweeps with
    q <= 31: the kernel point and the sampled points of each arm."""
    calls = []
    src = []
    orig_checks = graphs_mod._soundness_checks
    orig_at = graphs_mod.velu_x_map_at

    def checks(*args):
        src[:] = [args[1]]
        return orig_checks(*args)

    def at(binv, kappa, p1, ell, x, q):
        calls.append((src[0], binv, tuple(kappa), p1, ell, x, q))
        return orig_at(binv, kappa, p1, ell, x, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs_mod, "_soundness_checks", checks)
        mp.setattr(graphs_mod, "velu_x_map_at", at)
        for q, ell in _DIFF_SWEEPS:
            stats = SoundnessStats()
            build_pointed_graphs(PrimeField(q), ell, soundness=stats)
            assert stats.ok()
    return calls


def _x_map_mismatches(calls):
    """How many calls velu_x_map_at answers differently from peval_deriv of
    the velu_x_maps_int polynomials at the same point."""
    bad = 0
    for src, binv, kappa, p1, ell, x, q in calls:
        num, den = graphs_mod.velu_x_maps_int(src, list(kappa), ell, q)
        want = (*intpoly.peval_deriv(num, x, q), *intpoly.peval_deriv(den, x, q))
        bad += graphs_mod.velu_x_map_at(binv, list(kappa), p1, ell, x, q) != want
    return bad


def test_x_map_at_check_points_equals_polynomial(check_point_calls):
    assert {c[4] for c in check_point_calls} == {2, 3, 5, 7}
    assert _x_map_mismatches(check_point_calls) == 0


_POLY, _POINT = "velu_x_maps_int", "velu_x_map_at"


@pytest.mark.parametrize("attr, where", [
    (_POLY, (0, 0)),  # constant coefficient of num
    (_POLY, (0, -1)),  # leading coefficient of num
    (_POLY, (1, 0)),  # constant coefficient of den
    (_POINT, 0),  # b2
    (_POINT, 1),  # b4
    (_POINT, 2),  # b6
    (_POINT, 3),  # p1
    (_POINT, 4),  # ell
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
        def mutated(binv, kappa, p1, ell, x, q):
            v = [*binv, p1, ell]
            v[where] += 2  # keeps an odd ell odd
            return orig(tuple(v[:3]), kappa, v[3], v[4], x, q)
    monkeypatch.setattr(graphs_mod, attr, mutated)
    assert _x_map_mismatches([c for c in check_point_calls if c[6] <= 13]) > 0


@pytest.mark.parametrize("q, ell", [(11, 3), (13, 3), (13, 2), (31, 5)])
def test_x_map_polynomial_built_once_per_multi_candidate_arm(q, ell, monkeypatch):
    built = []
    orig = graphs_mod.velu_x_maps_int
    monkeypatch.setattr(graphs_mod, "velu_x_maps_int",
                        lambda *a: built.append((tuple(a[0]), tuple(a[1]))) or orig(*a))
    checked = []
    _wrap_checks(monkeypatch, lambda a: checked.append(a) or a)
    build_pointed_graphs(PrimeField(q), ell, soundness=SoundnessStats())
    tab = fq_tables(q)
    multi = []
    for a in checked:
        src, kappa, tc = a[1], a[2], a[_TC]
        sA, sB, _ = short_reduce_int(src, q)
        if len(tc.line_index[short_class_key(sA, sB, q, tab)]) > 1:
            multi.append((tuple(src), tuple(kappa)))
    assert sorted(built) == sorted(multi)
    # at (11, 3) every arm has a single candidate line
    assert bool(multi) == ((q, ell) != (11, 3))


def test_rational_ell_points_transport_equals_direct():
    """Transported roots against the direct psi_ell computation on every
    short curve with ell^2 | N; transport covers j = 0, j = 1728 and
    generic classes."""
    transported = Counter()
    curves = 0
    for q, ell in [(13, 3), (31, 3), (37, 3), (31, 5), (41, 5), (29, 7), (43, 7)]:
        tab = fq_tables(q)
        orders = tab.orders()
        psi_roots = {}
        for a in range(q):
            for b in range(q):
                N = orders[a][b]
                if not N or N % (ell * ell):
                    continue
                curves += 1
                key = short_class_key(a, b, q, tab)
                if key in psi_roots:
                    transported[key[0]] += 1
                got = graphs_mod._rational_ell_points(a, b, ell, q, tab, psi_roots, key)
                assert got == graphs_mod._rational_ell_points(a, b, ell, q, tab)
    assert set(transported) == {0, 1, 2}
    assert sum(transported.values()) < curves
