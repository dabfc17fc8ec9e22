"""Verification harnesses binding curves, isogenies and Galois modules:
finite-field sweeps for the order-two full-torsion theorem and the lattice
lemmas, product checks for the constructive theorem, the exact-rational
counterexample reproduction, and the abstract necessity witness.

Over a finite field the Galois image is generated by Frobenius alone, so
every module here is cyclic and the single-generator rank law makes the
constructive theorem's conclusion unconditional; the semisimplicity-
sensitive content lives in the abstract random suites and in the rational
counterexample.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import graphs as G
from .curves import (
    WeierstrassCurve,
    division_polynomial,
    frobenius_matrix,
    torsion_basis,
    torsion_field_degree,
    weil_pairing,
)
from .errors import (
    CapabilityError, InternalError, NotPointedError, NotSemisimpleError, TheoremViolationError,
)
from .fields import Polynomial, PrimeField, QQ, poly_roots, rational_roots
from .galois_modules import (
    GaloisModule,
    PointedConfiguration,
    Subspace,
    fixed_subspace,
    graph_order,
    is_semisimple,
    mat_rank,
    necessity_witness_config,
    nullspace,
    pointedness_check,
    product_module,
    random_cyclic_pointed_config,
    random_semisimple_pointed_config,
    subspace_lattice,
    theorem2_construct,
)
from .isogenies import family_e3, velu_quotient
from .reports import (
    CLAIM_COUNTEREXAMPLE,
    CLAIM_LEM32,
    CLAIM_LEM42,
    CLAIM_NECESSITY,
    CLAIM_THM1,
    CLAIM_THM2,
    NOT_APPLICABLE,
    VERIFIED,
    VerificationReport,
    merge_reports,
)


# --- theorem 1: order-two graphs force full rational torsion -------------------


def verify_theorem1(
    q: int,
    ell: int,
    curve_limit: int = G.DEFAULT_CURVE_LIMIT,
    include_family: bool = True,
    _prebuilt=None,
) -> VerificationReport:
    """Sweep all pointed graphs over F_q; every target of order two must
    carry full rational ell-torsion with identity Frobenius, and the
    generators of its dual-kernel lines must be rational.  `include_family`
    adds the universal 3-isogeny family when ell = 3."""
    t0 = time.time()
    field = PrimeField(q)
    if _prebuilt is None:
        stats = G.SoundnessStats()
        graph_list = G.build_pointed_graphs(
            field, ell, curve_limit=curve_limit, include_family=include_family,
            soundness=stats,
        )
        torsion = _order_two_torsion(field, graph_list)
    else:
        graph_list, stats, torsion = _prebuilt
    family = include_family and ell == 3
    rep = VerificationReport(
        parameters={"q": q, "ell": ell, "curve_limit": curve_limit,
                    "family_included": family}
    )
    order2 = [g for g in graph_list if g.order >= 2]
    rep.counts = {
        "curves_scanned": q * q * (2 if family else 1),
        "graphs_found": len(graph_list),
        "graphs_order_2": len(order2),
        "arms_total": sum(g.arm_multiplicity for g in graph_list),
        "arms_distinct": sum(len(g.arms) for g in graph_list),
    }
    rep.counts["soundness"] = stats.to_json()
    if not stats.ok():
        for f in stats.failures:
            rep.add_violation(CLAIM_THM1, {"kind": "isogeny-soundness", **f, "q": q, "ell": ell})
    checked_bases = 0
    for g in order2:
        ok, witness = _check_full_torsion_target(q, ell, g.target, g.target_order,
                                                 *torsion[g.target])
        if not ok:
            rep.add_violation(CLAIM_THM1, witness)
            continue
        checked_bases += 1
        # the generators of every transported dual-kernel line must be
        # rational points
        tab = G.fq_tables(q)
        for arm in g.arms:
            if not G._line_pointwise_rational(list(arm.dual_line), g.target[0], g.target[1], q, tab):
                rep.add_violation(
                    CLAIM_THM1,
                    {"kind": "dual-line-generator-not-rational", "q": q, "ell": ell,
                     "target": list(g.target), "line": list(arm.dual_line)},
                )
    rep.counts["torsion_bases_checked"] = checked_bases
    if CLAIM_THM1 not in rep.paper_claims:
        rep.paper_claims[CLAIM_THM1] = VERIFIED if order2 else NOT_APPLICABLE
    return rep.finish(time.time() - t0)


def _order_two_torsion(field: PrimeField, graph_list) -> dict:
    """{target: (k, basis)} for every graph with two or more arms (the
    order-two targets): the degree k of the field of its ell-torsion and,
    when k = 1, its torsion basis (else None).

    Theorem 1 and the lemma sweep check the same targets, so one sweep task
    builds these once and hands them to both."""
    out = {}
    for g in graph_list:
        if len(g.arms) >= 2:
            E = g.target_curve(field)
            k = torsion_field_degree(E, g.ell)
            out[g.target] = (k, torsion_basis(E, g.ell) if k == 1 else None)
    return out


def _check_full_torsion_target(q: int, ell: int, target, order: int, k: int, basis):
    """Honest check on the target y^2 = x^3 + Ax + B of #E = order: E[ell]
    splits at k = 1 and the Frobenius matrix is the identity; also runs the
    pairing suite on the constructed basis."""
    if k != 1:
        return False, {"kind": "torsion-not-rational", "q": q, "ell": ell,
                       "target": list(target), "splitting_degree": k}
    mat = frobenius_matrix(basis.curve, basis, order=order)
    if not mat.is_identity():
        return False, {"kind": "frobenius-not-identity", "q": q, "ell": ell,
                       "target": list(target), "matrix": [list(r) for r in mat.entries]}
    if not _pairing_suite(basis):
        return False, {"kind": "pairing-suite", "q": q, "ell": ell, "target": list(target)}
    return True, None


def _pairing_suite(basis) -> bool:
    """Bilinear, alternating, primitive on the basis."""
    P, Q, ell = basis.P, basis.Q, basis.ell
    one = P.curve.field.one()
    z = basis.zeta
    if z == one or z**ell != one:
        return False
    if weil_pairing(P, P, ell) != one or weil_pairing(Q, Q, ell) != one:
        return False
    if weil_pairing(Q, P, ell) * z != one:
        return False
    # bilinearity sample: e(P+Q, Q) = e(P, Q) e(Q, Q)
    if weil_pairing(P + Q, Q, ell) != z:
        return False
    if weil_pairing(2 * P, Q, ell) != z * z:
        return False
    return True


# --- lemma sweep: distinct kernels and exact lattice dimensions -----------------


def lemma_sweep(
    q: int,
    ell: int,
    curve_limit: int = G.DEFAULT_CURVE_LIMIT,
    include_family: bool = True,
    _prebuilt=None,
) -> VerificationReport:
    """For every multi-arm target: deduplicated arms have pairwise distinct
    dual-kernel lines, and the intersection lattice of the lines (as
    subspaces in torsion-basis coordinates) has the exact dimensions."""
    t0 = time.time()
    field = PrimeField(q)
    if _prebuilt is None:
        graph_list = G.build_pointed_graphs(
            field, ell, curve_limit=curve_limit, include_family=include_family
        )
        torsion = _order_two_torsion(field, graph_list)
    else:
        graph_list, _, torsion = _prebuilt
    rep = VerificationReport(parameters={"q": q, "ell": ell, "curve_limit": curve_limit})
    multi = [g for g in graph_list if len(g.arms) >= 2]
    rep.counts = {
        "graphs_found": len(graph_list),
        "multi_arm_targets": len(multi),
        "lattices_checked": 0,
    }
    for g in graph_list:
        lines = [a.dual_line for a in g.arms]
        if len(set(lines)) != len(lines):
            rep.add_violation(
                CLAIM_LEM32,
                {"kind": "coincident-dedup", "q": q, "ell": ell, "target": list(g.target)},
            )
    for g in multi:
        k, basis = torsion[g.target]
        if k != 1:
            # multi-arm targets with distinct lines must be full-torsion;
            # that failure belongs to theorem 1, re-flag here as lattice data
            rep.add_violation(
                CLAIM_LEM42,
                {"kind": "lattice-base-not-rational", "q": q, "ell": ell,
                 "target": list(g.target)},
            )
            continue
        subs = [_line_subspace(basis, list(a.dual_line)) for a in g.arms]
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                if subs[i].rows == subs[j].rows:
                    rep.add_violation(
                        CLAIM_LEM32,
                        {"kind": "coincident-lines", "q": q, "ell": ell,
                         "target": list(g.target)},
                    )
                inter = subs[i].intersect(subs[j])
                if inter.dim != 0:
                    rep.add_violation(
                        CLAIM_LEM42,
                        {"kind": "lattice-dimension", "q": q, "ell": ell,
                         "target": list(g.target),
                         "lines": [list(g.arms[i].dual_line), list(g.arms[j].dual_line)]},
                    )
        rep.counts["lattices_checked"] += 1
    for claim in (CLAIM_LEM32, CLAIM_LEM42):
        if claim not in rep.paper_claims:
            rep.paper_claims[claim] = VERIFIED if multi else NOT_APPLICABLE
    return rep.finish(time.time() - t0)


def _line_subspace(basis, w_ints: list[int]) -> Subspace:
    """The 1-dim subspace of F_ell^2 spanned by a point of the line with the
    given kernel x-polynomial, in torsion-basis coordinates."""
    K = basis.curve.field
    wK = Polynomial(K, [K.element(c) for c in w_ints])
    roots = sorted(poly_roots(wK), key=lambda e: e.coeff_list())
    if not roots:
        raise InternalError("line kernel polynomial has no roots over the basis field")
    ys = basis.curve.y_candidates(roots[0])
    if not ys:
        raise InternalError("line kernel x-coordinate has no y over the basis field")
    R = basis.curve.point(roots[0], ys[0])
    return Subspace.from_vectors(basis.ell, 2, [list(basis.coordinates(R))])


# --- theorem 2 on products -------------------------------------------------------


def _check_theorem2_config(mod: GaloisModule, hyps: tuple) -> tuple[dict | None, bool | None]:
    """The product sweep's check of one configuration, in order:
    pointedness, order, fixed dimension, then the construction (handed that
    order and fixed space), the one semisimplicity decision.  Returns
    (violation, semisimple): the violation's kind (and error) or None, and
    whether the module is semisimple, None when the construction did not
    run."""
    try:
        cfg = PointedConfiguration(module=mod, hyperplanes=hyps)
    except NotPointedError:
        return {"kind": "product-not-pointed"}, None
    if (order := graph_order(hyps)) != len(hyps):
        return {"kind": "product-order"}, None
    if (fixed := fixed_subspace(mod)).dim < len(hyps):
        return {"kind": "fixed-dim"}, None
    try:
        theorem2_construct(cfg, order=order, fixed=fixed)
    except NotSemisimpleError:
        return None, False
    except TheoremViolationError as exc:
        return {"kind": "construction-failed", "error": str(exc)}, True
    return None, True


def verify_theorem2_products(
    q: int,
    ell: int,
    max_pairs: int = 6,
    splitting_degree_cap: int = 6,
    curve_limit: int = G.DEFAULT_CURVE_LIMIT,
) -> VerificationReport:
    """Form rank-4 product configurations of order n = 2 from pairs of
    elliptic arms and check the constructive theorem's machinery on them.

    Every module here is generated by the single (block-diagonal) Frobenius,
    so the fixed space has dimension >= 2 with or without semisimplicity;
    the construction then decides semisimplicity and, on semisimple
    instances, builds the vectors.
    """
    t0 = time.time()
    field = PrimeField(q)
    graph_list = G.build_pointed_graphs(field, ell, curve_limit=curve_limit)
    rep = VerificationReport(
        parameters={"q": q, "ell": ell, "n": 2, "max_pairs": max_pairs,
                    "splitting_degree_cap": splitting_degree_cap}
    )
    arms = [(g, arm) for g in graph_list for arm in g.arms]
    rep.counts = {"arms_available": len(arms), "pairs_checked": 0,
                  "pairs_skipped_large_splitting": 0,
                  "semisimple_instances": 0, "non_semisimple_instances": 0}
    factor_cache: dict = {}
    line_cache: dict = {}

    def line_data(g, arm):
        key = (g.target, arm.dual_line)
        if key not in line_cache:
            line_cache[key] = _line_subspace(factor_data(g)[0], list(arm.dual_line))
        return line_cache[key]

    def factor_data(g):
        key = g.target
        if key not in factor_cache:
            E = g.target_curve(field)
            k = torsion_field_degree(E, ell)
            if k > splitting_degree_cap:
                factor_cache[key] = None
            else:
                basis = torsion_basis(E, ell)
                mat = frobenius_matrix(E, basis, order=g.target_order)
                factor_cache[key] = (basis, mat)
        return factor_cache[key]

    for (g1, a1), (g2, a2) in itertools.combinations_with_replacement(arms, 2):
        if rep.counts["pairs_checked"] >= max_pairs:
            break
        d1 = factor_data(g1)
        d2 = factor_data(g2)
        if d1 is None or d2 is None:
            rep.counts["pairs_skipped_large_splitting"] += 1
            continue
        rep.counts["pairs_checked"] += 1
        l1 = line_data(g1, a1)
        l2 = line_data(g2, a2)
        mod = product_module(
            GaloisModule.from_matrices(ell, [[list(r) for r in d1[1].entries]]),
            GaloisModule.from_matrices(ell, [[list(r) for r in d2[1].entries]]),
        )
        (l1a, l1b) = l1.rows[0]
        (l2a, l2b) = l2.rows[0]
        h1 = Subspace.from_vectors(ell, 4, [(l1a, l1b, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        h2 = Subspace.from_vectors(ell, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, l2a, l2b)])
        violation, semisimple = _check_theorem2_config(mod, (h1, h2))
        if semisimple is not None:
            rep.counts["semisimple_instances" if semisimple else "non_semisimple_instances"] += 1
        if violation:
            rep.add_violation(CLAIM_THM2, {
                **violation, "q": q, "ell": ell,
                "targets": [list(g1.target), list(g2.target)],
                "module": mod.to_json(),
                "hyperplanes": [h1.to_json(), h2.to_json()],
            })
    if CLAIM_THM2 not in rep.paper_claims:
        rep.paper_claims[CLAIM_THM2] = (
            VERIFIED if rep.counts["pairs_checked"] else NOT_APPLICABLE
        )
    return rep.finish(time.time() - t0)


# --- the exact counterexample over Q ---------------------------------------------


def reproduce_paper_counterexample() -> VerificationReport:
    """Bit-exact reproduction of the rational counterexample at
    (v, w) = (2, 1): the source curve has the rational 3-torsion point
    (0, 0), its quotient is y^2 + xy + 2y = x^3 - 10x - 30, and that
    quotient has no rational 3-torsion, so the product graph built from two
    copies of the quotient is an order-2 pointed graph whose target carries
    no rational 2-dimensional torsion subspace."""
    t0 = time.time()
    rep = VerificationReport(parameters={"v": 2, "w": 1, "ell": 3, "field": "Q"})
    e3, p, e3p = family_e3(QQ, 2, 1)
    checks = {}
    checks["e3_coefficients"] = [c == Fraction(v) for c, v in
                                 zip(e3.coefficients(), (1, 0, 2, 0, 0))]
    checks["e3p_coefficients"] = [c == Fraction(v) for c, v in
                                  zip(e3p.coefficients(), (1, 0, 2, -10, -30))]
    order3 = (not p.infinity) and (3 * p).infinity and not (2 * p).infinity
    checks["kernel_point_order_3"] = order3
    phi = velu_quotient(e3, p, 3)
    checks["quotient_equals_family"] = phi.codomain == e3p
    checks["quotient_j_match"] = phi.codomain.j_invariant() == e3p.j_invariant()
    # no rational 3-torsion on the quotient: every rational root of its
    # 3-division polynomial fails to lift to a rational point
    psi3 = division_polynomial(e3p, 3)
    roots = sorted(rational_roots(psi3))
    lifts = [bool(e3p.y_candidates(x)) for x in roots]
    checks["psi3_rational_roots"] = [[r.numerator, r.denominator] for r in roots]
    checks["rational_lift_exists"] = lifts
    no_torsion = not any(lifts)
    checks["quotient_has_no_rational_3_torsion"] = no_torsion
    ok = (
        all(checks["e3_coefficients"])
        and all(checks["e3p_coefficients"])
        and order3
        and checks["quotient_equals_family"]
        and no_torsion
    )
    rep.counts = {"checks": checks}
    if ok:
        rep.paper_claims[CLAIM_COUNTEREXAMPLE] = VERIFIED
        # recorded consequence, not a computation: the product graph
        # (quotient x quotient with the two evident arms) is an order-2
        # pointed graph whose target has no rational 3-torsion points,
        # so the semisimplicity hypothesis cannot be dropped.
        rep.counts["consequence"] = (
            "order-2 pointed product graph with torsion-free target; "
            "semisimplicity necessary"
        )
    else:
        rep.add_violation(CLAIM_COUNTEREXAMPLE, {"kind": "counterexample-checks", **checks})
    return rep.finish(time.time() - t0)


# --- the abstract necessity witness ------------------------------------------------


def abstract_necessity_witness() -> VerificationReport:
    """The F_3, dimension-4, two-generator configuration: pointed, order 2,
    not semisimple, fixed subspace zero."""
    t0 = time.time()
    rep = VerificationReport(parameters={"ell": 3, "dim": 4, "generators": 2})
    cfg = necessity_witness_config()
    order = graph_order(cfg.hyperplanes)
    pointed = all(pointedness_check(cfg.module, h) for h in cfg.hyperplanes)
    ss = is_semisimple(cfg.module)
    fixed = fixed_subspace(cfg.module)
    rep.counts = {
        "order": order,
        "pointed": pointed,
        "semisimple": ss,
        "fixed_dimension": fixed.dim,
        "configuration": cfg.to_json(),
    }
    if pointed and order == 2 and not ss and fixed.dim == 0:
        rep.paper_claims[CLAIM_NECESSITY] = VERIFIED
    else:
        rep.add_violation(
            CLAIM_NECESSITY,
            {"kind": "witness-checks", "order": order, "pointed": pointed,
             "semisimple": ss, "fixed_dimension": fixed.dim},
        )
    return rep.finish(time.time() - t0)


# --- random property suites (module level) ------------------------------------------


def lemma42_trial(rng: random.Random, brute_cap: int = 3**6):
    """One random independent-hyperplane family; returns None or a failure
    witness.  Checks dim H_J = 2g - |J| for every nonempty J and, when
    ell^(2g) is small enough, that H_J is the common solution space of the
    functionals in J that brute vector enumeration finds."""
    ell = rng.choice([2, 3, 5])
    g = rng.choice([1, 2, 3])
    dim = 2 * g
    n = rng.randrange(1, dim + 1)
    # independent functionals
    while True:
        rows = [tuple(rng.randrange(ell) for _ in range(dim)) for _ in range(n)]
        if mat_rank(rows, ell) == n:
            break
    hyps = [Subspace.from_vectors(ell, dim, nullspace([row], ell, dim)) for row in rows]
    lattice = subspace_lattice(hyps)
    for key, sub in lattice.items():
        if sub.dim != dim - len(key):
            return {"ell": ell, "g": g, "functionals": [list(r) for r in rows],
                    "J": sorted(key), "dim": sub.dim}
    if ell**dim <= brute_cap:
        for key, sub in lattice.items():
            sols = set(_brute_solutions([rows[j] for j in key], ell, dim))
            if len(sols) != ell ** (dim - len(key)) or not sols.issuperset(sub.rows):
                return {"ell": ell, "g": g, "functionals": [list(r) for r in rows],
                        "J": sorted(key), "count": len(sols)}
    return None


def theorem2_trial(rng: random.Random):
    """One random semisimple pointed configuration; returns None or a
    failure witness.  The construction must produce exactly n independent
    vectors inside the brute-force fixed space."""
    ell = rng.choice([2, 3, 5])
    g = rng.choice([1, 2, 3])
    n = rng.randrange(1, min(4, 2 * g) + 1)
    cfg = random_semisimple_pointed_config(rng, ell, g, n)
    data = {"ell": ell, "g": g, "n": n, "config": cfg.to_json()}
    try:
        qs = theorem2_construct(cfg)
    except NotSemisimpleError:
        return {"kind": "generator-not-semisimple", **data}
    except CapabilityError:  # an undecided module is not a failure witness
        raise
    except Exception as exc:  # noqa: BLE001 - recorded as witness
        return {"kind": "construction-error", "error": str(exc), **data}
    if len(qs) != n or mat_rank(qs, ell) != n:
        return {"kind": "wrong-rank", **data}
    fixed_brute = _brute_fixed_vectors(cfg.module)
    for qvec in qs:
        if qvec not in fixed_brute:
            return {"kind": "not-in-brute-fixed-space", "vector": list(qvec), **data}
    return None


def _brute_fixed_vectors(module: GaloisModule) -> set:
    ell = module.ell
    g_minus_1 = [tuple((x - (i == j)) % ell for j, x in enumerate(row))
                 for gm in module.generators for i, row in enumerate(gm)]
    return set(_brute_solutions(g_minus_1, ell, module.dim))


def _brute_solutions(rows, ell: int, dim: int) -> list[tuple]:
    """Every v in F_ell^dim with r . v = 0 mod ell for all rows r, by a walk
    over all ell^dim vectors v = a + b (a on the first dim // 2 coordinates,
    b on the rest) that keeps a pair iff the tabulated tuples (r . a) and
    (-r . b) mod ell are equal.  Uses none of `galois_modules`' algebra."""
    k = dim // 2
    heads = list(itertools.product(range(ell), repeat=k))
    tails = list(itertools.product(range(ell), repeat=dim - k))
    h_img = [tuple(sum(x * y for x, y in zip(r, a)) % ell for r in rows) for a in heads]
    t_img = [tuple(-sum(x * y for x, y in zip(r[k:], b)) % ell for r in rows) for b in tails]
    return [a + b for a, ha in zip(heads, h_img) for b, hb in zip(tails, t_img) if ha == hb]


def cyclic_law_trial(rng: random.Random):
    """One random cyclic pointed configuration of order n: the fixed space
    must have dimension >= n even without semisimplicity (rank argument),
    cross-checked by enumeration."""
    ell = rng.choice([2, 3, 5])
    g = rng.choice([1, 2, 3])
    n = rng.randrange(1, min(4, 2 * g) + 1)
    cfg = random_cyclic_pointed_config(rng, ell, g, n)
    data = {"ell": ell, "g": g, "n": n, "config": cfg.to_json()}
    fixed = fixed_subspace(cfg.module)
    if fixed.dim < n:
        return {"kind": "fixed-dim-below-order", "fixed_dim": fixed.dim, **data}
    if ell ** (2 * g) <= 3**6:
        brute = _brute_fixed_vectors(cfg.module)
        if len(brute) != ell**fixed.dim:
            return {"kind": "brute-mismatch", "fixed_dim": fixed.dim,
                    "brute_count": len(brute), **data}
    return None


def run_trials(trial_fn, count: int, seed: int):
    """Run a trial function `count` times with per-instance derived seeds;
    returns the list of failure witnesses."""
    failures = []
    for i in range(count):
        rng = random.Random((seed * 1_000_003 + i) & 0x7FFFFFFF)
        w = trial_fn(rng)
        if w is not None:
            w["trial"] = i
            failures.append(w)
    return failures


# --- aggregated sweeps -----------------------------------------------------------


def primes_in_range(lo: int, hi: int):
    from .fields import is_prime

    return [p for p in range(lo, hi) if is_prime(p)]


def _sweep_task(args):
    q, ell, curve_limit, include_family = args
    field = PrimeField(q)
    stats = G.SoundnessStats()
    graph_list = G.build_pointed_graphs(
        field, ell, curve_limit=curve_limit, include_family=include_family,
        soundness=stats,
    )
    prebuilt = (graph_list, stats, _order_two_torsion(field, graph_list))
    thm = verify_theorem1(
        q, ell, curve_limit=curve_limit, include_family=include_family, _prebuilt=prebuilt,
    )
    lem = lemma_sweep(
        q, ell, curve_limit=curve_limit, include_family=include_family,
        _prebuilt=prebuilt,
    )
    return merge_reports({"q": q, "ell": ell}, [thm, lem])


def run_sweep(
    ell_list,
    *,
    q_min: int = 5,
    q_max: int = 200,
    threads: int = 1,
    curve_limit: int = G.DEFAULT_CURVE_LIMIT,
    include_family: bool = True,
) -> VerificationReport:
    """Theorem-1 plus lemma sweeps over all primes q_min <= q < q_max with
    q != ell, merged into a single deterministic report.  An empty range
    (q_min >= q_max) raises ValueError."""
    if q_min >= q_max:
        raise ValueError(f"empty sweep range: q_min = {q_min} >= q_max = {q_max}")
    t0 = time.time()
    tasks = []
    for ell in ell_list:
        for q in primes_in_range(q_min, q_max):
            if q == ell:
                continue
            tasks.append((q, ell, curve_limit, include_family))
    if threads > 1:
        import multiprocessing as mp

        with mp.Pool(threads) as pool:
            reports = pool.map(_sweep_task, tasks)
    else:
        reports = [_sweep_task(t) for t in tasks]
    out = merge_reports(
        {"ell_list": list(ell_list), "q_min": q_min, "q_max": q_max,
         "threads": threads, "curve_limit": curve_limit},
        reports,
    )
    out.timing = {"seconds": round(time.time() - t0, 6)}
    return out


# --- witness replay -----------------------------------------------------------------


def replay_witness(witness: dict) -> bool:
    """Re-execute the check a violation witness came from.  Returns True if
    the check passes now (no violation), False if it still fails; raises
    ValueError on a witness that is not a JSON object or lacks a field."""
    if not isinstance(witness, dict):
        raise ValueError(f"a witness is a JSON object, not {type(witness).__name__}")

    def need(name):
        if name not in witness:
            raise ValueError(f"witness of claim {claim!r} lacks the field {name!r}")
        return witness[name]
    claim = witness.get("claim")
    kind = witness.get("kind", "")
    if claim == CLAIM_THM1:
        q, ell = need("q"), need("ell")
        G.check_graph_parameters(q, ell)
        field = PrimeField(q)
        if kind == "isogeny-soundness":
            rep = verify_theorem1(q, ell)
            return not any(
                v.get("kind") == "isogeny-soundness" for v in rep.violations
            )
        A, B = (c % q for c in need("target"))
        E = WeierstrassCurve(field, 0, 0, 0, A, B)
        k = torsion_field_degree(E, ell)
        basis = torsion_basis(E, ell) if k == 1 else None
        tab = G.fq_tables(q)
        if not _check_full_torsion_target(q, ell, (A, B), tab.orders()[A][B], k, basis)[0]:
            return False
        if kind == "dual-line-generator-not-rational":
            return G._line_pointwise_rational(list(need("line")), A, B, q, tab)
        return True
    if claim == CLAIM_LEM32 or claim == CLAIM_LEM42:
        if "hyperplanes" in witness and "ell" in witness and "dim" in witness:
            ell, dim = witness["ell"], witness["dim"]
            hyps = [
                Subspace.from_vectors(ell, dim, rows) for rows in witness["hyperplanes"]
            ]
            lattice = subspace_lattice(hyps)
            return all(sub.dim == dim - len(k) for k, sub in lattice.items())
        return lemma_sweep(need("q"), need("ell")).clean
    if claim == CLAIM_THM2:
        if "module" in witness:
            mod = GaloisModule.from_json(witness["module"])
            hyps = tuple(
                Subspace.from_vectors(mod.ell, mod.dim, rows)
                for rows in need("hyperplanes")
            )
            try:
                return _check_theorem2_config(mod, hyps)[0] is None
            except ValueError:
                return False
        return verify_theorem2_products(need("q"), need("ell")).clean
    if claim == CLAIM_COUNTEREXAMPLE:
        return reproduce_paper_counterexample().clean
    if claim == CLAIM_NECESSITY:
        return abstract_necessity_witness().clean
    raise ValueError(f"unknown witness claim: {claim!r}")
