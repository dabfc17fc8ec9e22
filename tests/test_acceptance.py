"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 2 runs the full sweep (all primes 5 <= q < 200, ell in {3, 5, 7})
single-threaded and is the long pole (a few minutes).  Everything here is
exact: zero tolerance on every comparison.
"""

import time

import pytest

from isogeny_lab.cli import main as cli_main
from isogeny_lab.reports import (
    CLAIM_LEM32,
    CLAIM_LEM42,
    CLAIM_THM1,
    NOT_APPLICABLE,
    VERIFIED,
)
from isogeny_lab.verify import (
    _sweep_task,
    abstract_necessity_witness,
    cyclic_law_trial,
    lemma42_trial,
    primes_in_range,
    reproduce_paper_counterexample,
    run_trials,
    theorem2_trial,
    verify_theorem2_products,
)


def _announce(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_counterexample_reproduction(capsys):
    t0 = time.time()
    rep = reproduce_paper_counterexample()
    dt = time.time() - t0
    checks = rep.counts["checks"]
    ok = (
        rep.clean
        and checks["kernel_point_order_3"]
        and checks["quotient_equals_family"]
        and checks["quotient_has_no_rational_3_torsion"]
        and dt < 1.0
    )
    with capsys.disabled():
        _announce(
            "criterion-1 (rational counterexample, v=2 w=1)",
            ok,
            f"runtime {dt:.3f}s, psi3 rational roots {checks['psi3_rational_roots']}",
        )
    # the CLI surface agrees
    assert cli_main(["counterexample", "--paper", "--output", "/dev/null"]) == 0


@pytest.mark.slow
def test_criterion_2_and_7_theorem1_sweep(capsys):
    t0 = time.time()
    violations = []
    soundness_totals = {
        "isogenies": 0,
        "homomorphism_failures": 0,
        "kernel_failures": 0,
        "singular_codomains": 0,
        "dual_j_failures": 0,
        "order_mismatches": 0,
    }
    order2_at_q1 = 0
    order2_total = 0
    bases_checked = 0
    tasks = 0
    for ell in (3, 5, 7):
        for q in primes_in_range(5, 200):
            if q % ell == 0:
                continue
            rep = _sweep_task((q, ell, 250_000, True))
            tasks += 1
            violations.extend(rep.violations)
            order2 = rep.counts.get("graphs_order_2", 0)
            order2_total += order2
            bases_checked += rep.counts.get("torsion_bases_checked", 0)
            if q % ell == 1 and order2:
                order2_at_q1 += order2
            if q % ell != 1 and order2:
                violations.append({"kind": "order2-without-q-1-mod-ell", "q": q, "ell": ell})
            snd = rep.counts.get("soundness")
            if snd:
                for k in soundness_totals:
                    soundness_totals[k] += snd.get(k, 0)
    dt = time.time() - t0
    ok2 = not violations and order2_at_q1 > 0 and dt < 600.0
    with capsys.disabled():
        _announce(
            "criterion-2 (theorem-1 sweep, ell in {3,5,7}, 5 <= q < 200)",
            ok2,
            f"{tasks} (q, ell) pairs, {order2_total} order-2 targets "
            f"(all Frobenius = I), runtime {dt:.1f}s",
        )
    ok7 = (
        soundness_totals["isogenies"] > 0
        and soundness_totals["homomorphism_failures"] == 0
        and soundness_totals["kernel_failures"] == 0
        and soundness_totals["singular_codomains"] == 0
        and soundness_totals["dual_j_failures"] == 0
        and soundness_totals["order_mismatches"] == 0
        and bases_checked == order2_total
    )
    with capsys.disabled():
        _announce(
            "criterion-7 (isogeny engine soundness across the sweep)",
            ok7,
            f"{soundness_totals['isogenies']} isogenies checked, "
            f"{bases_checked} torsion bases with full pairing suite",
        )


def test_criterion_3_lattice_dimension_law(capsys):
    failures = run_trials(lemma42_trial, 1000, seed=42)
    with capsys.disabled():
        _announce(
            "criterion-3 (lattice dimension law, 1000 random families)",
            not failures,
            f"failures: {len(failures)}",
        )


def test_criterion_4_construction_on_random_semisimple(capsys):
    failures = run_trials(theorem2_trial, 1000, seed=43)
    with capsys.disabled():
        _announce(
            "criterion-4 (constructive theorem, 1000 random semisimple configs)",
            not failures,
            f"failures: {len(failures)}",
        )


def test_criterion_5_necessity_witness(capsys):
    rep = abstract_necessity_witness()
    ok = (
        rep.clean
        and rep.counts["order"] == 2
        and rep.counts["pointed"] is True
        and rep.counts["semisimple"] is False
        and rep.counts["fixed_dimension"] == 0
    )
    with capsys.disabled():
        _announce(
            "criterion-5 (non-semisimple order-2 witness with zero fixed space)",
            ok,
            f"order={rep.counts['order']}, semisimple={rep.counts['semisimple']}, "
            f"fixed dim={rep.counts['fixed_dimension']}",
        )


def test_criterion_6_single_generator_law(capsys):
    failures = run_trials(cyclic_law_trial, 1000, seed=44)
    # consequence: finite-field product checks report zero violations even
    # on non-semisimple instances
    rep73 = verify_theorem2_products(7, 3, max_pairs=4)
    rep133 = verify_theorem2_products(13, 3, max_pairs=4)
    ok = not failures and rep73.clean and rep133.clean
    with capsys.disabled():
        _announce(
            "criterion-6 (cyclic rank law, 1000 random configs + product sweeps)",
            ok,
            f"failures: {len(failures)}, product checks clean: "
            f"{rep73.clean and rep133.clean}",
        )
