import json
import random

import pytest

from isogeny_lab import curves, graphs as G, intpoly, verify as V
from isogeny_lab.curves import division_polynomial, torsion_field_degree
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


def test_random_trial_suites_small():
    assert run_trials(lemma42_trial, 40, seed=1) == []
    assert run_trials(theorem2_trial, 40, seed=2) == []
    assert run_trials(cyclic_law_trial, 40, seed=3) == []


def test_replay_passing_witnesses():
    # a witness built from a passing configuration replays clean
    w = {"claim": CLAIM_COUNTEREXAMPLE}
    assert replay_witness(w)
    w2 = {"claim": CLAIM_NECESSITY}
    assert replay_witness(w2)
    w3 = {"claim": CLAIM_THM1, "q": 7, "ell": 3, "target": [0, 2]}
    assert replay_witness(w3)


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
    task = V._sweep_task((q, ell, G.DEFAULT_CURVE_LIMIT, None, True))
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
    torsion_field_degree.cache_clear()
    rep = V._sweep_task((q, ell, G.DEFAULT_CURVE_LIMIT, None, True))
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
    rep = V._sweep_task((q, ell, G.DEFAULT_CURVE_LIMIT, None, True))
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
    splits and _rational_ell_points runs) and with q != 1 mod 7, and ell = 3.
    A kernel change that moves a verdict fails here."""
    calls = []
    orig = G._rational_ell_points
    monkeypatch.setattr(G, "_rational_ell_points",
                        lambda *args: calls.append(args) or orig(*args))
    rep = V._sweep_task((q, ell, G.DEFAULT_CURVE_LIMIT, None, True))
    arms = counts["arms_total"]
    assert rep.counts == {**counts, "soundness": {**_SOUND, "isogenies": arms}}
    assert rep.paper_claims == claims
    assert rep.violations == []
    assert bool(calls) == (q % ell == 1)
