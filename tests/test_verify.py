import hashlib
import itertools
import json
import random
import sys
from collections import Counter

import pytest

from isogeny_lab import curves, fields, galois_modules as GM, graphs as G, intpoly, verify as V
from isogeny_lab.curves import division_polynomial
from isogeny_lab.errors import InternalError
from isogeny_lab.fields import PrimeField
from isogeny_lab.reports import (
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
from isogeny_lab.verify import (
    abstract_necessity_witness,
    cyclic_law_trial,
    lemma42_trial,
    lemma_sweep,
    replay_witness,
    reproduce_paper_counterexample,
    run_sweep,
    run_trials,
    theorem2_trial,
    verify_theorem1,
    verify_theorem2_products,
)


def test_theorem1_7_3():
    rep = verify_theorem1(7, 3)
    assert rep.clean
    assert rep.paper_claims[CLAIM_THM1] == VERIFIED
    assert rep.counts["graphs_order_2"] == 1
    assert rep.counts["soundness"]["homomorphism_failures"] == 0


def test_theorem1_no_order2_when_q_2_mod_3():
    rep = verify_theorem1(11, 3)
    assert rep.clean
    assert rep.counts["graphs_order_2"] == 0
    assert rep.paper_claims[CLAIM_THM1] == NOT_APPLICABLE


def test_theorem1_family_flag_is_ignored_away_from_ell_3():
    """The universal family is a 3-isogeny family: asking for it at ell = 5
    neither adds curves nor marks the report."""
    with_flag = json.loads(verify_theorem1(13, 5, include_family=True).to_json())
    default = json.loads(verify_theorem1(13, 5).to_json())
    with_flag.pop("timing")
    default.pop("timing")
    assert with_flag == default
    assert default["parameters"]["family_included"] is False
    assert default["counts"]["curves_scanned"] == 13 * 13


def test_lemma_sweep_7_3():
    rep = lemma_sweep(7, 3)
    assert rep.clean
    assert rep.paper_claims[CLAIM_LEM32] == VERIFIED
    assert rep.paper_claims[CLAIM_LEM42] == VERIFIED
    assert rep.counts["lattices_checked"] == 1


def test_theorem2_products_small():
    rep = verify_theorem2_products(7, 3, max_pairs=3)
    assert rep.clean
    assert rep.paper_claims[CLAIM_THM2] in (VERIFIED, NOT_APPLICABLE)
    assert rep.counts["pairs_checked"] > 0


def test_semisimplicity_decided_once_per_configuration(monkeypatch):
    """theorem2_construct is the one semisimplicity decision of a trial and
    of each product configuration."""
    calls = []
    orig = GM.is_semisimple
    for mod in (GM, V):
        monkeypatch.setattr(mod, "is_semisimple", lambda m: calls.append(m) or orig(m))
    assert run_trials(theorem2_trial, 20, seed=2) == []
    assert len(calls) == 20
    calls.clear()
    rep = verify_theorem2_products(7, 3, max_pairs=3)
    assert len(calls) == rep.counts["pairs_checked"] > 0


def test_product_configuration_checked_once(monkeypatch):
    """The product sweep runs pointedness once per hyperplane: the
    configuration's own validation is the pointedness step."""
    calls = Counter()
    for name in ("pointedness_check", "is_invariant"):
        orig = getattr(GM, name)
        wrapped = (lambda *a, _o=orig, _n=name: calls.update([_n]) or _o(*a))
        for mod in (GM, V):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    rep = verify_theorem2_products(11, 3)
    assert rep.counts["pairs_checked"] == 6
    assert calls["pointedness_check"] == 12
    # one per pointedness check, and three in each of the two complement
    # solves of each of the six semisimple configurations
    assert calls["is_invariant"] == 48


def test_product_check_extension_work_is_done_once(monkeypatch):
    """At (41, 3) the six factor targets split E[3] over F_{41^2}.  No
    FieldElement.inverse calls intpoly.einv (the extended-gcd inverse made
    342 calls), the default modulus of F_{41^2} is found once from a cold
    start (once per torsion basis, 6 times, with the Rabin test rerun on it),
    and each of the six arms' lines is built once (12 calls, once per pair
    side, with the first arm's line rebuilt in every pair)."""
    einv_callers, found, lines = Counter(), Counter(), []
    orig_einv, orig_find, orig_line = intpoly.einv, fields.find_irreducible_ints, V._line_subspace

    def spy_einv(*args):
        einv_callers[sys._getframe(1).f_code.co_name] += 1
        return orig_einv(*args)

    monkeypatch.setattr(intpoly, "einv", spy_einv)
    monkeypatch.setattr(fields, "find_irreducible_ints",
                        lambda p, k: found.update([(p, k)]) or orig_find(p, k))
    monkeypatch.setattr(fields, "_DEFAULT_MODULI", {})  # cold, as in a fresh process
    monkeypatch.setattr(V, "_line_subspace", lambda basis, w: lines.append(
        (basis.curve, tuple(w))) or orig_line(basis, w))
    rep = verify_theorem2_products(41, 3)
    assert rep.counts["pairs_checked"] == 6
    assert einv_callers["inverse"] == 0
    assert found == {(41, 2): 1}
    assert len(lines) == len(set(lines)) == 6


def test_product_check_torsion_bases_take_no_general_powers(monkeypatch):
    """At (41, 3) the six torsion bases over F_{41^2} take their square
    roots through the norm (no _tonelli_generic call), their Frobenius
    points from the table and y only at P and Q.  FieldElement.__pow__ runs
    for the six zeta^3 checks alone (169 calls when every root and Frobenius
    point was a power); y_candidates runs twice per basis and once per line,
    18 times (30 when every torsion x had its y's); and psi_3 of each target
    is factored over F_41 once, 12 factorizations with the lines' (18 when
    torsion_basis factored it again).  Every F_41-factor of psi_3 and of a
    line is linear or quadratic, and a quadratic's roots come from the
    quadratic formula: no _roots_large_field split (6 when quadratics were
    split) and so no Polynomial.pow_mod or epowmod (21 each)."""
    calls = Counter()
    for owner, name in ((fields, "_tonelli_generic"), (fields.FieldElement, "__pow__"),
                        (curves.WeierstrassCurve, "y_candidates"), (intpoly, "factor_squarefree"),
                        (fields, "_roots_large_field"), (fields.Polynomial, "pow_mod"),
                        (intpoly, "epowmod")):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, _o=orig, _n=name, **kw: calls.update([_n]) or _o(*a, **kw))
    rep = verify_theorem2_products(41, 3)
    assert rep.counts["pairs_checked"] == 6
    assert calls["_tonelli_generic"] == 0
    assert calls["__pow__"] < 20
    assert calls["y_candidates"] == 18
    assert calls["factor_squarefree"] == 12
    assert calls["_roots_large_field"] == 0
    assert calls["pow_mod"] == 0
    assert calls["epowmod"] == 0


def test_product_configuration_order_and_fixed_space_computed_once(monkeypatch):
    """The product sweep hands its order and fixed space to the
    construction, so each is computed once per configuration; a caller
    that hands in nothing (the trials, the CLI) still gets both computed."""
    calls = Counter()
    for name in ("graph_order", "fixed_subspace"):
        orig = getattr(GM, name)
        wrapped = (lambda *a, _o=orig, _n=name: calls.update([_n]) or _o(*a))
        for mod in (GM, V):
            monkeypatch.setattr(mod, name, wrapped)
    rep = verify_theorem2_products(11, 3)
    assert rep.counts["pairs_checked"] == rep.counts["semisimple_instances"] == 6
    assert calls == {"graph_order": 6, "fixed_subspace": 6}
    calls.clear()
    cfg = GM.PointedConfiguration.from_json({
        "ell": 3, "generators": [[[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]],
        "hyperplanes": [[[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]],
    })
    assert GM.theorem2_construct(cfg) == [(0, 1, 0, 0), (0, 0, 0, 1)]
    assert calls == {"graph_order": 1, "fixed_subspace": 1}


# reports of run_sweep([ell], q_min=5, q_max=32) without "timing", as
# sha256 of their sorted-key JSON; a report change must show up here
_SWEEP_DIGESTS = {
    2: "348b45138f5ce29e7aeb5e95b6799562d67b38ca68df01668f02c75923cd8cfc",
    3: "501fdf491ac79c869d62c8131d469521b4a4f75aa1572e4824081ca08a6b60c9",
    5: "b331dbc41136a41c9d03d24bba08f7dedc260b580a85c2951a67f279ce25a232",
    7: "4f34e903c54b1fcab3742910b69ab4ed7ec59b34dcf48985e0a5282b6a5fe854",
    11: "d03c852f8e6986fb30b7fd13f0907365862e915126bc48f1d907396a463b5f1d",
    13: "056c6bef6599ee776f9c6d6701e53ff58e968d7cd7a22c9bf06e303f5195b41e",
}


# run_sweep([7], q_min=29, q_max=50): its q = 43 = 1 mod 7 task has a target
# with full rational 7-torsion, so ell + 1 pointed lines
_SWEEP_DIGEST_7_FULL_TORSION = "ecaf46de8cd71dbea5742f9553e73c94f4db1d0dbe7e92eadfb9b490b1ff46bd"


# reports of verify_theorem2_products(q, ell) without "timing", digested
# like the sweeps: each builds graphs and takes torsion bases over F_{q^k}
_PRODUCT_DIGESTS = {
    (7, 5): "572a26cdd4d224657ef540c9c05ddf3cc781020f150fa0a5f844053e3b510ada",
    (11, 3): "aac0e69eec794b45eea86f3ac33053330bbc984f94b1b0e652a320e8270e8d10",
    (13, 3): "623a373cd8d61bf0a593262b3fd7c7e1114538c0c3e64826b6052ce68067cdd0",
}


def _report_digest(report):
    data = json.loads(report.to_json())
    del data["timing"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _sweep_digest(ells, q_min, q_max):
    return _report_digest(run_sweep(ells, q_min=q_min, q_max=q_max))


@pytest.mark.parametrize("ell", sorted(_SWEEP_DIGESTS))
def test_sweep_report_digest_pinned(ell):
    assert _sweep_digest([ell], 5, 32) == _SWEEP_DIGESTS[ell]


def test_sweep_report_digest_pinned_full_7_torsion():
    assert _sweep_digest([7], 29, 50) == _SWEEP_DIGEST_7_FULL_TORSION


@pytest.mark.parametrize("q, ell", sorted(_PRODUCT_DIGESTS))
def test_product_check_report_digest_pinned(q, ell):
    assert _report_digest(verify_theorem2_products(q, ell)) == _PRODUCT_DIGESTS[q, ell]


def test_counterexample_report():
    rep = reproduce_paper_counterexample()
    assert rep.clean
    assert rep.paper_claims[CLAIM_COUNTEREXAMPLE] == VERIFIED
    checks = rep.counts["checks"]
    assert checks["quotient_equals_family"]
    assert checks["psi3_rational_roots"] == [[-1, 3]]
    assert checks["rational_lift_exists"] == [False]
    assert rep.timing["seconds"] < 1.0


def test_necessity_witness_report():
    rep = abstract_necessity_witness()
    assert rep.clean
    assert rep.paper_claims[CLAIM_NECESSITY] == VERIFIED
    assert rep.counts["order"] == 2
    assert rep.counts["semisimple"] is False
    assert rep.counts["fixed_dimension"] == 0


def test_report_round_trip_and_determinism():
    rep1 = verify_theorem1(13, 3)
    rep2 = verify_theorem1(13, 3)
    j1 = json.loads(rep1.to_json())
    j2 = json.loads(rep2.to_json())
    j1.pop("timing")
    j2.pop("timing")
    assert j1 == j2
    back = VerificationReport.from_json(rep1.to_json())
    assert back.paper_claims == rep1.paper_claims
    assert back.counts == rep1.counts


def test_merge_reports_statuses():
    a = VerificationReport(parameters={}, paper_claims={CLAIM_THM1: VERIFIED},
                           counts={"x": 1}, timing={"seconds": 0.0})
    b = VerificationReport(parameters={}, paper_claims={CLAIM_THM1: NOT_APPLICABLE},
                           counts={"x": 2}, timing={"seconds": 0.0})
    m = merge_reports({}, [a, b])
    assert m.paper_claims[CLAIM_THM1] == VERIFIED
    assert m.counts["x"] == 3


def test_mini_sweep_runs_clean():
    rep = run_sweep([3, 5], q_max=20, q_min=5)
    assert rep.clean
    assert rep.paper_claims[CLAIM_THM1] in (VERIFIED, NOT_APPLICABLE)


def test_sweep_range_is_keyword_only_and_nonempty():
    """run_sweep([2], 5, 60) once read as q_max = 5, q_min = 60 and swept
    nothing; the bounds are keyword-only and an empty range raises."""
    with pytest.raises(TypeError):
        run_sweep([2], 5, 60)
    for q_min, q_max in ((60, 5), (7, 7)):
        with pytest.raises(ValueError, match="empty sweep range"):
            run_sweep([2], q_min=q_min, q_max=q_max)


def test_random_trial_suites_small():
    assert run_trials(lemma42_trial, 40, seed=1) == []
    assert run_trials(theorem2_trial, 40, seed=2) == []
    assert run_trials(cyclic_law_trial, 40, seed=3) == []


def test_lemma42_brute_step_checks_the_subspaces_themselves(monkeypatch):
    """Coordinate subspaces of the right dimensions are wrong subspaces: only
    the rows of H_J against the brute solutions catch them."""
    assert run_trials(lemma42_trial, 200, seed=42) == []

    def coordinate_lattice(hyps):
        ell, dim = hyps[0].ell, hyps[0].ambient
        return {frozenset(J): GM.Subspace.from_vectors(
                    ell, dim, [[int(i == j) for i in range(dim)] for j in range(len(J), dim)])
                for size in range(1, len(hyps) + 1)
                for J in itertools.combinations(range(len(hyps)), size)}

    monkeypatch.setattr(V, "subspace_lattice", coordinate_lattice)
    failures = run_trials(lemma42_trial, 200, seed=42)
    assert failures and all("count" in w for w in failures)


def test_replay_passing_witnesses():
    # a witness built from a passing configuration replays clean
    w = {"claim": CLAIM_COUNTEREXAMPLE}
    assert replay_witness(w)
    w2 = {"claim": CLAIM_NECESSITY}
    assert replay_witness(w2)
    w3 = {"claim": CLAIM_THM1, "q": 7, "ell": 3, "target": [0, 2]}
    assert replay_witness(w3)


def test_replay_runs_the_pairing_suite(monkeypatch):
    """A pairing-suite witness replays through the sweep's own target check,
    so a failing suite keeps it failing."""
    w = {"claim": CLAIM_THM1, "kind": "pairing-suite", "q": 7, "ell": 3, "target": [0, 2]}
    assert replay_witness(w)
    monkeypatch.setattr(V, "_pairing_suite", lambda basis: False)
    assert replay_witness(w) is False


def test_replay_synthetic_violation():
    # two equal hyperplanes claimed independent: the lattice check must fail
    w = {
        "claim": CLAIM_LEM42,
        "ell": 3,
        "dim": 4,
        "hyperplanes": [
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ],
    }
    assert replay_witness(w) is False
    # theorem-2 witness with a non-semisimple but pointed configuration of
    # order 2 and zero fixed space: still violated on replay
    from isogeny_lab.galois_modules import necessity_witness_config

    cfg = necessity_witness_config()
    data = cfg.to_json()
    w2 = {"claim": CLAIM_THM2, "module": data,
          "hyperplanes": data["hyperplanes"]}
    assert replay_witness(w2) is False


def test_theorem2_trial_structure():
    rng = random.Random(5)
    for _ in range(10):
        assert theorem2_trial(rng) is None


# --- the shared per-target pass of a sweep task --------------------------------

_PAIRS_WITH_ORDER_TWO = [(13, 3), (41, 5), (17, 2)]


def _without_timing(rep):
    data = json.loads(rep.to_json())
    data.pop("timing")
    return data


@pytest.mark.parametrize("q, ell", _PAIRS_WITH_ORDER_TWO)
def test_sweep_task_matches_independent_runs(q, ell):
    """Oracle: one sweep task, which builds the graphs and the torsion bases
    once, reports exactly what independent theorem-1 and lemma runs do."""
    task = V._sweep_task((q, ell, G.DEFAULT_CURVE_LIMIT, True))
    assert task.counts["graphs_order_2"] > 0
    alone = merge_reports({"q": q, "ell": ell},
                          [verify_theorem1(q, ell), lemma_sweep(q, ell)])
    assert _without_timing(task) == _without_timing(alone)


@pytest.mark.parametrize("q, ell", _PAIRS_WITH_ORDER_TWO)
def test_sweep_task_one_torsion_basis_per_target(q, ell, monkeypatch):
    targets = []
    orig = V.torsion_basis
    monkeypatch.setattr(V, "torsion_basis",
                        lambda E, ell: targets.append(E) or orig(E, ell))
    factored = []
    orig_factor = intpoly.factor_squarefree
    monkeypatch.setattr(intpoly, "factor_squarefree",
                        lambda f, q: factored.append(tuple(f)) or orig_factor(f, q))
    rep = V._sweep_task((q, ell, G.DEFAULT_CURVE_LIMIT, True))
    bases = [(E.a4, E.a6) for E in targets]
    assert len(bases) == len(set(bases)) == rep.counts["graphs_order_2"]
    assert rep.counts["torsion_bases_checked"] == rep.counts["lattices_checked"] == len(bases)
    # psi_ell of each target is factored once: torsion_basis reuses the
    # degree that _order_two_torsion has just computed
    psis = [tuple(division_polynomial(E, ell).int_coeffs()) for E in targets]
    assert sorted(factored) == sorted(psis)


@pytest.mark.parametrize("q, ell", _PAIRS_WITH_ORDER_TWO)
def test_sweep_task_six_pairings_per_target(q, ell, monkeypatch):
    """torsion_basis computes e(P, Q) once and the pairing suite starts from
    it: five more Miller pairs per order-two target, six in all."""
    calls = []
    orig = curves.weil_pairing

    def counting(P, Q, ell):
        calls.append((P, Q))
        return orig(P, Q, ell)

    monkeypatch.setattr(curves, "weil_pairing", counting)
    monkeypatch.setattr(V, "weil_pairing", counting)
    rep = V._sweep_task((q, ell, G.DEFAULT_CURVE_LIMIT, True))
    assert rep.counts["torsion_bases_checked"] == rep.counts["graphs_order_2"] > 0
    assert len(calls) == 6 * rep.counts["graphs_order_2"]


def test_line_subspace_without_a_point_is_internal_error():
    q, ell = 13, 3
    field = PrimeField(q)
    g = next(g for g in G.build_pointed_graphs(field, ell) if len(g.arms) >= 2)
    basis = V.torsion_basis(g.target_curve(field), ell)
    assert basis.k == 1
    # x^2 + 2: -2 is not a square mod 13, so no x lies over F_13
    with pytest.raises(InternalError, match="no roots"):
        V._line_subspace(basis, [2, 0, 1])
    x0 = next(x for x in range(q) if not basis.curve.y_candidates(field.element(x)))
    with pytest.raises(InternalError, match="no y"):
        V._line_subspace(basis, [(-x0) % q, 1])


_SOUND = {"dual_j_failures": 0, "homomorphism_failures": 0, "kernel_failures": 0,
          "order_mismatches": 0, "singular_codomains": 0}
_CLAIMS_ORDER_TWO = {CLAIM_THM1: VERIFIED, CLAIM_LEM32: VERIFIED, CLAIM_LEM42: VERIFIED}
_CLAIMS_NONE = {CLAIM_THM1: NOT_APPLICABLE, CLAIM_LEM32: NOT_APPLICABLE,
                CLAIM_LEM42: NOT_APPLICABLE}


@pytest.mark.parametrize("q, ell, counts, claims", [
    (113, 7, dict(arms_distinct=40, arms_total=2016, curves_scanned=12769, graphs_found=66,
                  graphs_order_2=1, lattices_checked=1, multi_arm_targets=1,
                  torsion_bases_checked=1), _CLAIMS_ORDER_TWO),
    (107, 7, dict(arms_distinct=35, arms_total=1855, curves_scanned=11449, graphs_found=70,
                  graphs_order_2=0, lattices_checked=0, multi_arm_targets=0,
                  torsion_bases_checked=0), _CLAIMS_NONE),
    (67, 3, dict(arms_distinct=70, arms_total=6534, curves_scanned=8978, graphs_found=104,
                 graphs_order_2=6, lattices_checked=6, multi_arm_targets=6,
                 torsion_bases_checked=6), _CLAIMS_ORDER_TWO),
])
def test_sweep_task_counts_and_claims_are_fixed(q, ell, counts, claims, monkeypatch):
    """Fixed reports of three sweep tasks: ell = 7 with q = 1 mod 7 (psi_7
    splits) and with q != 1 mod 7, and ell = 3.  A kernel change that moves
    a verdict fails here.  Every task finds its arms through
    _rational_ell_points."""
    calls = []
    orig = G._rational_ell_points
    monkeypatch.setattr(G, "_rational_ell_points",
                        lambda *args: calls.append(args) or orig(*args))
    rep = V._sweep_task((q, ell, G.DEFAULT_CURVE_LIMIT, True))
    arms = counts["arms_total"]
    assert rep.counts == {**counts, "soundness": {**_SOUND, "isogenies": arms}}
    assert rep.paper_claims == claims
    assert rep.violations == []
    assert calls


# --- the module suites' exhaustive oracle ---------------------------------------


def _plain_solutions(rows, ell, dim):
    """The reference: every vector, tested against every row's dot
    product."""
    out = []
    for vec in itertools.product(range(ell), repeat=dim):
        if all(sum(a * b for a, b in zip(row, vec)) % ell == 0 for row in rows):
            out.append(vec)
    return out


@pytest.mark.parametrize("ell", [2, 3, 5])
@pytest.mark.parametrize("dim", range(7))
def test_brute_solutions_match_the_plain_loop(ell, dim):
    """Every dim from 0 to 6 (odd dims split unevenly), no rows (every
    vector is a solution), 1 to dim + 1 random rows, and a repeated row of
    unreduced entries."""
    rng = random.Random(ell * 10 + dim)
    cases = [[]]
    for n in range(1, dim + 2):
        cases.append([tuple(rng.randrange(ell) for _ in range(dim)) for _ in range(n)])
    if dim:
        cases.append([tuple(rng.randrange(-2 * ell, 2 * ell) for _ in range(dim))] * 2)
    for rows in cases:
        assert V._brute_solutions(rows, ell, dim) == _plain_solutions(rows, ell, dim), rows
    assert len(V._brute_solutions([], ell, dim)) == ell**dim


def _mat_vec_fixed(module):
    """Fixed vectors by applying every generator to every vector."""
    out = set()
    for vec in itertools.product(range(module.ell), repeat=module.dim):
        if all(GM.mat_vec(g, vec, module.ell) == vec for g in module.generators):
            out.add(vec)
    return out


def test_brute_fixed_vectors_match_mat_vec_on_the_suites_draws():
    """The modules that theorem2_trial and cyclic_law_trial draw at the
    acceptance seeds 42-44 (1000 trials each, with run_trials' per-trial
    seeds), wherever ell^dim <= 3^6; ell = 5, dim 6 is covered row by row
    above."""
    checked = 0
    for seed in (42, 43, 44):
        for draw in (GM.random_semisimple_pointed_config, GM.random_cyclic_pointed_config):
            for i in range(1000):
                rng = random.Random((seed * 1_000_003 + i) & 0x7FFFFFFF)
                ell = rng.choice([2, 3, 5])
                g = rng.choice([1, 2, 3])
                n = rng.randrange(1, min(4, 2 * g) + 1)
                if ell ** (2 * g) > 3**6:
                    continue
                module = draw(rng, ell, g, n).module
                assert V._brute_fixed_vectors(module) == _mat_vec_fixed(module), module
                checked += 1
    assert checked > 5000
