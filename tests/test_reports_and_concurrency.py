import json

import pytest

from isogeny_lab.cli import main
from isogeny_lab.errors import InternalError
from isogeny_lab.reports import CLAIM_THM1, VIOLATED, VerificationReport
from isogeny_lab.verify import run_sweep


def test_threaded_sweep_matches_sequential():
    r1 = run_sweep([3], q_max=14, q_min=5, threads=1)
    r2 = run_sweep([3], q_max=14, q_min=5, threads=2)
    a, b = json.loads(r1.to_json()), json.loads(r2.to_json())
    for d in (a, b):
        d.pop("timing")
        d["parameters"].pop("threads")
    assert a == b


def test_report_invariant_enforced():
    rep = VerificationReport(parameters={})
    rep.paper_claims[CLAIM_THM1] = VIOLATED  # status says violated...
    with pytest.raises(InternalError):
        rep.validate()  # ...but the violations list is empty
    rep2 = VerificationReport(parameters={})
    rep2.add_violation(CLAIM_THM1, {"kind": "x"})
    rep2.validate()
    assert not rep2.clean


def test_theorem2_cli_exit_zero(capsys):
    code = main(["theorem2", "--q", "7", "--ell", "3", "--max-pairs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["pairs_checked"] == 2


def test_zero_polynomial_root_queries_rejected():
    from isogeny_lab.fields import Polynomial, PrimeField, QQ, poly_roots, rational_roots

    with pytest.raises(ValueError):
        poly_roots(Polynomial.zero(PrimeField(5)))
    with pytest.raises(ValueError):
        rational_roots(Polynomial.zero(QQ))


def test_pairing_rejects_non_torsion():
    from isogeny_lab.curves import WeierstrassCurve, weil_pairing
    from isogeny_lab.fields import PrimeField

    F = PrimeField(7)
    E = WeierstrassCurve(F, 0, 0, 0, 0, 2)  # N = 9
    pts = []
    for x in F.iter_elements():
        for y in E.y_candidates(x):
            pts.append(E.point(x, y))
    P = pts[0]
    with pytest.raises(ValueError):
        weil_pairing(P, pts[1], 2)  # 9 points, nothing has order 2
