"""Command-line interface: outputs, formats, exit codes."""

import json

import pytest

from rookbound.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kappa_text_and_json(capsys):
    code, out, _ = run(capsys, "kappa", "[1,3,3,4,5,5]", "-d", "4")
    assert code == 0 and "kappa([1,3,3,4,5,5], 4) = 5" in out
    code, out, _ = run(capsys, "--format", "json", "kappa", "[1,3,3,4,5,5]", "-d", "4")
    payload = json.loads(out)
    assert payload["kappa"] == 5 and payload["kappa_vector"] == [7, 7, 7, 5]


def test_mds_check(capsys):
    code, out, _ = run(capsys, "mds-check", "[2,3,3,3,4,5]", "-d", "4")
    assert code == 0 and "MDS-constructible: True" in out
    code, out, _ = run(capsys, "--format", "json", "mds-check", "[5,5,5,5,5,5]", "-d", "4")
    payload = json.loads(out)
    assert payload["mds_constructible"] is False
    assert payload["kappa"] == 12 and payload["diag_sum_all"] == 6


def test_profile(capsys):
    code, out, _ = run(capsys, "--format", "json", "profile", "[1,3,3,4,6,6,6]")
    payload = json.loads(out)
    assert code == 0
    assert payload["counts"] == [1, 2, 3, 4, 5, 6, 6, 2, 0, 0, 0, 0]
    assert payload["n"] == 6 and payload["m"] == 7


def test_rookpoly_and_tau(capsys):
    code, out, _ = run(capsys, "rookpoly", "[1,3,3,4,5]", "-r", "3")
    assert code == 0 and "6*q^3" in out and "q^10" in out
    code, out, _ = run(capsys, "tau", "[1,3,3,4,5]", "-r", "3")
    assert code == 0 and "3" in out


def test_tau_hypothesis_exit_code(capsys):
    code, _, err = run(capsys, "tau", "[1,1,3]", "-r", "3")
    assert code == 2 and "hypothesis violation" in err
    code, out, _ = run(capsys, "tau", "[1,1,3]", "-r", "3", "--force")
    assert code == 0 and "-inf" in out and "raw diagonal sum" in out


def test_census_modes(capsys):
    code, out, _ = run(capsys, "--format", "json", "census", "[2,2]", "-q", "2", "--oracle")
    payload = json.loads(out)
    assert code == 0 and payload["counts"] == [1, 9, 6]
    code, out, _ = run(capsys, "--format", "json", "census", "[2,2]", "-q", "2")
    assert json.loads(out)["counts"] == [1, 9, 6]
    code, out, _ = run(capsys, "--format", "json", "census", "[2,2]", "-r", "1")
    assert json.loads(out)["polynomials"]["1"] == {"0": -1, "1": -1, "2": 1, "3": 1}


def test_census_budget_exit_code(capsys):
    code, _, err = run(capsys, "census", "[3,3,3,3]", "-q", "3", "--oracle",
                       "--max-enum", "10")
    assert code == 3 and "budget refusal" in err


def test_census_jobs_zero_exit_code(capsys):
    code, _, err = run(capsys, "census", "[2,2]", "-q", "2", "--oracle", "--jobs", "0")
    assert code == 2 and "jobs=0" in err


def test_census_negative_max_enum_exit_code(capsys):
    code, _, err = run(capsys, "census", "[2,2]", "-q", "2", "--oracle", "--max-enum", "-5")
    assert code == 2 and "-5" in err


def test_density_negative_max_combos_exit_code(capsys):
    code, _, err = run(capsys, "density", "[2,2]", "-d", "2", "-k", "1", "-q", "2",
                       "--max-combos", "-1")
    assert code == 2 and "-1" in err


def test_construct_verify_refusal_names_both_ways_out(capsys):
    code, _, err = run(capsys, "construct", "[5,5,5,5,5,5]", "-d", "2", "-q", "9", "--verify")
    assert code == 3
    assert "--max-combos" in err and "max_combinations" in err
    assert "verify_space(..., sample=N)" in err


def test_ball_and_exist_bound(capsys):
    code, out, _ = run(capsys, "ball", "[2,3,3,3,4,5]", "-r", "3", "-q", "3")
    assert code == 0 and "243679185" in out
    code, out, _ = run(capsys, "exist-bound", "[2,3,3,3,4,5]", "-d", "4", "-k", "3", "-q", "2")
    assert code == 0 and out.strip() == "-6510288900541266"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "[5,5,5,5,5,5]", "-d", "4", "-k", "12")
    assert code == 0 and "SPARSE" in out


def test_construct_verify_round(capsys):
    code, out, _ = run(capsys, "--format", "json", "construct", "[2,3,3,3,4,5]",
                       "-d", "4", "-q", "4", "--verify")
    payload = json.loads(out)
    assert code == 0
    assert payload["dimension"] == 3 and payload["optimal"] is True
    assert payload["verified"] is True and payload["checked_combinations"] == 21
    from rookbound import space_from_json, verify_space

    assert verify_space(space_from_json(payload)).ok


def test_count_mds(capsys):
    code, out, _ = run(capsys, "count-mds", "-n", "4", "-m", "4", "-d", "2")
    assert code == 0 and "formula=5" in out and "enumerated=5" in out
    code, _, err = run(capsys, "count-mds", "-n", "3", "-m", "4", "-d", "3")
    assert code == 2


def test_density_seeded(capsys):
    code, out, _ = run(capsys, "--format", "json", "density", "[2,2]", "-d", "2",
                       "-k", "1", "-q", "2", "--trials", "300", "--seed", "5")
    payload = json.loads(out)
    assert code == 0
    assert payload["trials"] == 300 and payload["seed"] == 5
    assert payload["prng"] == "python-random/MT19937"
    code, out2, _ = run(capsys, "--format", "json", "density", "[2,2]", "-d", "2",
                        "-k", "1", "-q", "2", "--trials", "300", "--seed", "5")
    assert json.loads(out2) == payload


def test_density_max_combos_raises_the_budget(capsys, monkeypatch):
    # 511 points per trial: over the environment's budget, under the flag's
    monkeypatch.setenv("ROOKBOUND_MAX_COMBOS", "100")
    code, _, err = run(capsys, "density", "[3,3,3]", "-d", "2", "-k", "9", "-q", "2",
                       "--trials", "3", "--max-combos", "1000")
    assert code == 0, err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "kappa", "[3,1]", "-d", "1")
    assert code == 1
    code, _, _ = run(capsys, "kappa")
    assert code == 1
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1


def test_verify_golden_all_pass(capsys):
    code, out, _ = run(capsys, "verify-golden")
    assert code == 0
    assert "FAIL" not in out
    assert "golden values verified" in out


def test_verify_golden_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify-golden")
    records = json.loads(out)
    assert code == 0 and all(r["ok"] for r in records)


def test_golden_mismatch_exit_code(capsys, monkeypatch):
    # a wrong stored value must surface as a failure and exit code 4
    import rookbound.golden as golden_module

    data = golden_module.load_golden_data()
    data["kappa"][0]["value"] = 99
    monkeypatch.setattr(golden_module, "load_golden_data", lambda: data)
    results = golden_module.run_golden_suite()
    assert any(not r.ok for r in results)
    code, out, _ = run(capsys, "verify-golden")
    assert code == 4
    assert "FAIL" in out


def test_mds_check_density_class_field(capsys):
    code, out, _ = run(capsys, "--format", "json", "mds-check", "[2,3,3,3,4,5]",
                       "-d", "4", "--at-k", "3,4,5")
    payload = json.loads(out)
    assert payload["density_class_at"] == {
        "3": "DENSE",
        "4": "NOT_DENSE_AT_MOST_HALF",
        "5": "SPARSE",
    }
    code, out, _ = run(capsys, "--format", "json", "mds-check", "[2,3,3,3,4,5]", "-d", "4")
    assert json.loads(out)["density_class_at"] == {"3": "DENSE"}


def test_exist_table(capsys):
    code, out, _ = run(capsys, "--format", "json", "exist-table")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 5
    assert all(r["digits_match"] and r["mds_constructible"] for r in rows)
    assert [r["kappa"] for r in rows] == [3, 15, 2, 3, 3]


def test_rounded_bounds_helper():
    from rookbound.golden import rounded_bounds

    lo, hi = rounded_bounds("1.06e33")
    assert lo == 1055 * 10**30 and hi == 1065 * 10**30
    lo, hi = rounded_bounds("1.1e79")
    assert lo == 105 * 10**77 and hi == 115 * 10**77


@pytest.mark.parametrize("command", [
    ["construct", "[2,2]", "-d", "2"],
    ["density", "[2,2]", "-d", "2", "-k", "1"],
])
def test_huge_prime_q_exit_code(capsys, command):
    import time

    start = time.perf_counter()
    code, _, err = run(capsys, *command, "-q", str(2**61 - 1))
    assert code == 1 and "2^16" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", [
    ["ball", "[2,2]", "-r", "1"],
    ["exist-bound", "[2,2]", "-d", "2", "-k", "1"],
])
def test_polynomial_route_at_huge_prime_q(capsys, command):
    import time

    start = time.perf_counter()
    code, out, _ = run(capsys, *command, "-q", str(2**61 - 1))
    assert code == 0 and out.strip()
    assert time.perf_counter() - start < 1.0


def test_parser_carries_no_state_between_calls(capsys):
    from rookbound.cli import build_parser

    calls = [
        ["--format", "json", "census", "[2,3,3]", "-q", "3"],
        ["census", "[2,3,3]", "-q", "3"],
        ["kappa", "[1,3]"],
        ["census", "[2,3,3]", "-q", "3"],
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert alone[2][0] == 1
    assert [run(capsys, *argv) for argv in calls] == alone
