import json

import pytest

from isogeny_lab import cli
from isogeny_lab.cli import main
from isogeny_lab.errors import TheoremViolationError
from isogeny_lab.galois_modules import necessity_witness_config


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_counterexample_paper_exit_zero(capsys):
    code, out = run_cli(["counterexample", "--paper"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["claims"]["counterexample-v2-w1"] == "verified"
    assert data["version"]
    assert data["parameters"]["v"] == 2 and data["parameters"]["w"] == 1


def test_counterexample_abstract(capsys):
    code, out = run_cli(["counterexample", "--abstract"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["claims"]["necessity-abstract"] == "verified"


def test_theorem1_7_3_exit_zero(capsys):
    code, out = run_cli(["theorem1", "--q", "7", "--ell", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert data["counts"]["graphs_order_2"] == 1
    assert data["parameters"]["family_included"] is True
    code, out = run_cli(["theorem1", "--q", "7", "--ell", "3", "--no-family"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["parameters"]["family_included"] is False
    assert data["counts"]["curves_scanned"] == 7 * 7


def test_module_fixed_on_identity(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({
        "ell": 3, "dim": 2,
        "generators": [[[1, 0], [0, 1]]],
        "hyperplanes": [],
    }))
    code, out = run_cli(["module", "--input", str(path), "--op", "fixed"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["fixed_subspace"] == [[1, 0], [0, 1]]


def test_module_semisimple_and_construct(capsys, tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({
        "ell": 3, "dim": 4,
        "generators": [[[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]],
        "hyperplanes": [
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        ],
    }))
    code, out = run_cli(["module", "--input", str(path), "--op", "semisimple"], capsys)
    assert code == 0 and json.loads(out)["semisimple"] is True
    code, out = run_cli(["module", "--input", str(path), "--op", "order"], capsys)
    assert code == 0 and json.loads(out)["order"] == 2
    code, out = run_cli(["module", "--input", str(path), "--op", "construct"], capsys)
    assert code == 0
    assert json.loads(out)["vectors"] == [[0, 1, 0, 0], [0, 0, 0, 1]]


def test_lemmas_command(capsys):
    code, out = run_cli(["lemmas", "--q", "7", "--ell", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["claims"]["lem32-distinct-kernels"] == "verified"


def test_usage_error_exit_one(capsys):
    assert main(["theorem1", "--q", "notanumber", "--ell", "3"]) == 1
    assert main(["nonsense"]) == 1


def test_capability_error_exit_one(capsys):
    # enumeration cap exceeded -> capability error, exit 1, message names cap
    code = main(["theorem1", "--q", "199", "--ell", "3", "--max-curves", "10"])
    assert code == 1


def test_replay_round_trip(capsys, tmp_path):
    # synthetic violating witness: replay exits 2 and echoes the claim id
    witness = {
        "claim": "lem42-lattice-dims",
        "ell": 3,
        "dim": 4,
        "hyperplanes": [
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness))
    code, out = run_cli(["replay", str(path)], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["witness"]["claim"] == "lem42-lattice-dims"
    assert data["passes_now"] is False
    # a passing witness replays to exit 0
    good = {"claim": "counterexample-v2-w1"}
    path2 = tmp_path / "g.json"
    path2.write_text(json.dumps(good))
    code, _ = run_cli(["replay", str(path2)], capsys)
    assert code == 0


def test_output_file_and_text_format(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["counterexample", "--paper", "--output", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["claims"]["counterexample-v2-w1"] == "verified"
    code, out = run_cli(["counterexample", "--paper", "--format", "text"], capsys)
    assert code == 0
    assert "verified" in out


@pytest.mark.parametrize("command", ["module", "replay"])
def test_output_file_holds_the_stdout_bytes(command, capsys, tmp_path):
    """module and replay write to --output exactly what they print, with the
    same exit code."""
    path = tmp_path / "in.json"
    if command == "module":
        path.write_text(json.dumps({
            "ell": 3, "dim": 2,
            "generators": [[[1, 0], [0, 1]]],
            "hyperplanes": [[[1, 0]]],
        }))
        argv = ["module", "--input", str(path), "--op", "construct"]
    else:
        path.write_text(json.dumps({"claim": "counterexample-v2-w1"}))
        argv = ["replay", str(path)]
    code = main(argv)
    printed = capsys.readouterr().out
    out_path = tmp_path / "out.json"
    assert main([*argv, "--output", str(out_path)]) == code == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == printed.encode()


@pytest.mark.parametrize("command", ["module", "replay"])
def test_format_is_a_usage_error_where_no_report_is_printed(command, capsys, tmp_path):
    """module and replay print a JSON payload, not a report: --format is not
    an option of theirs, so passing it is a usage error (exit 1), and their
    output without it is the sorted-key JSON payload."""
    path = tmp_path / "in.json"
    if command == "module":
        path.write_text(json.dumps({
            "ell": 3, "dim": 2,
            "generators": [[[1, 0], [0, 1]]],
            "hyperplanes": [[[1, 0]]],
        }))
        argv = ["module", "--input", str(path), "--op", "construct"]
        payload = {"dim": 2, "ell": 3, "op": "construct", "vectors": [[0, 1]]}
    else:
        path.write_text(json.dumps({"claim": "counterexample-v2-w1"}))
        argv = ["replay", str(path)]
        payload = {"passes_now": True, "witness": {"claim": "counterexample-v2-w1"}}
    for fmt in ("text", "json"):
        assert main([*argv, "--format", fmt]) == 1
        assert capsys.readouterr().out == ""
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_sweep_command_small(capsys):
    code, out = run_cli(
        ["sweep", "--ell-list", "2,3", "--q-min", "5", "--q-max", "12",
         "--threads", "1"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["parameters"]["ell_list"] == [2, 3]
    assert data["violations"] == []


def test_json_schema_stability(capsys):
    _, out = run_cli(["theorem1", "--q", "7", "--ell", "3"], capsys)
    data = json.loads(out)
    assert set(data) == {"version", "parameters", "counts", "claims",
                         "violations", "timing"}


def test_suites_deterministic_exit_zero(capsys):
    first = run_cli(["suites", "--trials", "20", "--seed", "1"], capsys)
    second = run_cli(["suites", "--trials", "20", "--seed", "1"], capsys)
    assert first[0] == 0
    assert first == second
    assert "semisimple-construction: 20/20 ok" in first[1]


def test_module_construct_not_semisimple_is_plain_error(capsys, tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(necessity_witness_config().to_json()))
    code = main(["module", "--input", str(path), "--op", "construct"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("row", [[1, 0, 0], [1]])
def test_module_malformed_hyperplane_is_plain_error(row, capsys, tmp_path):
    # a hyperplane vector of the wrong length used to give order 1 and a
    # constructed vector (too long) or an IndexError traceback (too short)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "ell": 3, "dim": 2,
        "generators": [[[1, 0], [0, 1]]],
        "hyperplanes": [[row]],
    }))
    for op in ("order", "construct"):
        code = main(["module", "--input", str(path), "--op", op])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def test_theorem_violation_exits_two(capsys, tmp_path, monkeypatch):
    def violate(cfg):
        raise TheoremViolationError("synthetic violation")

    monkeypatch.setattr(cli, "theorem2_construct", violate)
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({
        "ell": 3, "dim": 2,
        "generators": [[[1, 0], [0, 1]]],
        "hyperplanes": [[[1, 0]]],
    }))
    code = main(["module", "--input", str(path), "--op", "construct"])
    assert code == 2
    assert "synthetic violation" in capsys.readouterr().err
