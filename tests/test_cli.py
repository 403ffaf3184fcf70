import csv
import io
import json
import re

import pytest

from entangler.cli import EX_BUDGET, EX_ERROR, EX_OK, EX_PARSE, EX_USAGE, main


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


# --- evaluate ------------------------------------------------------------------


def test_evaluate_catalog_state_json(capsys):
    status, out, _ = run_cli(capsys, "evaluate", "--catalog", "psi6a", "--format", "json")
    assert status == EX_OK
    record = json.loads(out)
    assert record["total"] == 60.5
    assert record["nonzero_coefficients"] == 32
    assert len(record["per_cut"]) == 31


def test_evaluate_circuit_file(tmp_path, capsys):
    path = tmp_path / "ghz3.qc"
    path.write_text("H(2); CNOT(2,1); CNOT(2,0)\n")
    status, out, _ = run_cli(capsys, "evaluate", "--circuit", str(path))
    assert status == EX_OK
    assert "total entanglement: 1.5" in out
    assert "nonzero coefficients: 2" in out


def test_evaluate_validate_mode(capsys):
    status, out, _ = run_cli(capsys, "evaluate", "--catalog", "psi5a", "--validate", "--format", "json")
    assert status == EX_OK
    assert json.loads(out)["total"] == 17.5


def test_evaluate_state_dump(capsys):
    status, out, _ = run_cli(capsys, "evaluate", "--catalog", "ghz3", "--state")
    assert status == EX_OK
    assert "000" in out and "111" in out


def test_evaluate_parse_error_gives_65_with_position(tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_text("H(2); CNOT(1)\n")
    status, _, err = run_cli(capsys, "evaluate", "--circuit", str(path))
    assert status == EX_PARSE
    assert "CNOT(1)" in err
    assert "line 1" in err
    path.write_text("H(" + "9" * 5000 + ")\n")
    status, _, err = run_cli(capsys, "evaluate", "--circuit", str(path))
    assert status == EX_PARSE
    assert "line 1, column 3: qubit label of 5000 digits" in err


def test_evaluate_requires_exactly_one_source(capsys):
    status, _, err = run_cli(capsys, "evaluate")
    assert status == EX_USAGE
    assert "exactly one" in err


def test_evaluate_unknown_catalog_name(capsys):
    status, _, err = run_cli(capsys, "evaluate", "--catalog", "psi99")
    assert status == EX_USAGE
    assert "unknown catalog name" in err
    status, _, err = run_cli(capsys, "evaluate", "--catalog", "ghz40")
    assert status == EX_ERROR
    assert err.startswith("entangler: error: GHZ qubit count")
    # Past int()'s 4300-digit limit: the same range error, without the digits.
    status, _, err = run_cli(capsys, "evaluate", "--catalog", "ghz" + "9" * 5000)
    assert status == EX_ERROR
    assert err.startswith("entangler: error: GHZ qubit count must be in [2, 16]")
    assert len(err) < 200


def test_evaluate_csv_per_cut_table(capsys):
    status, out, _ = run_cli(capsys, "evaluate", "--catalog", "psi4a", "--format", "csv")
    assert status == EX_OK
    rows = read_csv(out)
    assert rows[0] == ["cut_mask", "size", "contribution"]
    assert len(rows) == 1 + 7
    contributions = sorted(float(r[2]) for r in rows[1:])
    assert contributions == [0.5] * 5 + [1.5] * 2


# --- trace ---------------------------------------------------------------------


def test_trace_ghz6_increments(capsys):
    status, out, _ = run_cli(capsys, "trace", "--catalog", "circuit_ghz6")
    assert status == EX_OK
    rows = read_csv(out)
    assert rows[0] == ["step", "gate", "total"]
    values = [float(r[2]) for r in rows[1:]]
    assert values == [0.0, 0.0, 8.0, 12.0, 14.0, 15.0, 15.5]
    increments = [b - a for a, b in zip(values[1:], values[2:])]
    assert increments == [8.0, 4.0, 2.0, 1.0, 0.5]


def test_trace_empty_circuit(tmp_path, capsys):
    path = tmp_path / "empty.qc"
    path.write_text("\n")
    status, out, _ = run_cli(capsys, "trace", "--circuit", str(path), "--qubits", "2")
    assert status == EX_OK
    rows = read_csv(out)
    assert len(rows) == 2
    assert float(rows[1][2]) == 0.0
    status, _, err = run_cli(capsys, "trace", "--circuit", str(path), "--qubits", "13")
    assert status == EX_ERROR
    assert "capped at 12 qubits" in err


def test_trace_rejects_state_subjects(capsys):
    status, _, err = run_cli(capsys, "trace", "--catalog", "psi6a")
    assert status == EX_USAGE
    assert "needs a circuit" in err


def test_trace_json_names_gates(capsys):
    status, out, _ = run_cli(capsys, "trace", "--catalog", "circuit_ghz3", "--format", "json")
    assert status == EX_OK
    record = json.loads(out)
    assert record["steps"][0]["gate"] == ""
    assert record["steps"][1]["gate"] == "H(2)"
    assert record["steps"][-1]["total"] == 1.5


# --- catalog -------------------------------------------------------------------


def test_catalog_list(capsys):
    status, out, _ = run_cli(capsys, "catalog", "list")
    assert status == EX_OK
    rows = read_csv(out)
    names = [r[0] for r in rows[1:]]
    assert "psi6a" in names
    assert "circuit_5a" in names
    index = {r[0]: r for r in rows[1:]}
    assert index["psi6a"][4] == "60.5"


def test_catalog_show_circuit_and_paper_order(capsys):
    status, out, _ = run_cli(capsys, "catalog", "show", "circuit_ghz3")
    assert status == EX_OK
    assert out.strip() == "H(2); CNOT(2,1); CNOT(2,0)"
    status, out, _ = run_cli(capsys, "catalog", "show", "circuit_ghz3", "--paper-order")
    assert out.strip() == "CNOT(2,0); CNOT(2,1); H(2)"


def test_catalog_show_state_amplitudes(capsys):
    status, out, _ = run_cli(capsys, "catalog", "show", "psi4a")
    assert status == EX_OK
    rows = read_csv(out)
    assert rows[0] == ["index", "bitstring", "real", "imag"]
    assert len(rows) == 1 + 16
    assert float(rows[1][2]) == 0.5  # |0000>


# --- evolve --------------------------------------------------------------------


def test_evolve_reaches_target_for_three_qubits(capsys):
    status, out, _ = run_cli(
        capsys, "evolve", "--qubits", "3", "--gates", "H,CNOT", "--length", "3",
        "--gens", "50", "--seed", "1", "--target", "max")
    assert status == EX_OK
    record = json.loads(out)
    assert record["result"]["best_fitness"] == 1.5
    assert record["config"]["target_fitness"] == 1.5


def test_evolve_budget_exhausted_gives_2(capsys):
    # The 4-qubit ceiling 6.5 is unreachable, so any budget runs out.
    status, out, _ = run_cli(
        capsys, "evolve", "--qubits", "4", "--length", "5",
        "--gens", "3", "--seed", "0", "--target", "max")
    assert status == EX_BUDGET
    record = json.loads(out)
    assert record["config"]["target_fitness"] == 6.5
    assert record["result"]["best_fitness"] < 6.5


def test_evolve_rejects_single_qubit(capsys):
    status, _, err = run_cli(capsys, "evolve", "--qubits", "1", "--length", "3")
    assert status == EX_USAGE
    assert "at least 2 qubits" in err
    status, _, err = run_cli(capsys, "evolve", "--qubits", "13", "--length", "3")
    assert status == EX_USAGE
    assert "between 2 and 12 qubits" in err
    for flags in (("--length", "3", "--pop", "3000000000"), ("--length", str(10**12))):
        status, _, err = run_cli(capsys, "evolve", "--qubits", "3", "--gens", "0", *flags)
        assert status == EX_USAGE
        assert "must be at most 1000000" in err


def test_evolve_csv_history(capsys):
    status, out, _ = run_cli(
        capsys, "evolve", "--qubits", "3", "--length", "3", "--gens", "2",
        "--seed", "4", "--format", "csv")
    assert status == EX_OK
    rows = read_csv(out)
    assert rows[0] == ["generation", "best", "mean"]
    assert len(rows) >= 2


def test_evolve_record_replay(tmp_path, capsys):
    argv = ["evolve", "--qubits", "3", "--length", "4", "--gens", "5", "--seed", "42"]
    status, first, _ = run_cli(capsys, *argv)
    assert status == EX_OK
    status, second, _ = run_cli(capsys, *argv)
    assert json.loads(first)["result"] == json.loads(second)["result"]


def test_evolve_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLER_SEED", "42")
    _, from_env, _ = run_cli(capsys, "evolve", "--qubits", "3", "--length", "4", "--gens", "5")
    monkeypatch.delenv("ENTANGLER_SEED")
    _, from_flag, _ = run_cli(capsys, "evolve", "--qubits", "3", "--length", "4", "--gens", "5", "--seed", "42")
    assert json.loads(from_env)["result"] == json.loads(from_flag)["result"]


def test_evolve_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("qubits = 3\nlength = 4\ngens = 5\nseed = 9  # comment\n")
    _, from_file, _ = run_cli(capsys, "evolve", "--config", str(config))
    _, from_flags, _ = run_cli(capsys, "evolve", "--qubits", "3", "--length", "4",
                               "--gens", "5", "--seed", "9")
    assert json.loads(from_file)["result"] == json.loads(from_flags)["result"]
    # a flag beats the file
    _, overridden, _ = run_cli(capsys, "evolve", "--config", str(config), "--seed", "10")
    assert json.loads(overridden)["config"]["rng_seed"] == 10


ALL_KEYS_FILE = """\
qubits = 3
gates = H,CNOT,T
length = 4
target = max
pop = 20
gens = 6
seed = 5
mutation_rate = 0.3
crossover_rate = 0.8
tournament = 3
elite = 2
"""
ALL_KEYS_FLAGS = ["--qubits", "3", "--gates", "H,CNOT,T", "--length", "4", "--target", "max",
                  "--pop", "20", "--gens", "6", "--seed", "5", "--mutation-rate", "0.3",
                  "--crossover-rate", "0.8", "--tournament", "3", "--elite", "2"]


def test_config_file_sets_every_key(tmp_path, capsys):
    config = tmp_path / "all.cfg"
    config.write_text(ALL_KEYS_FILE)
    status, from_file, _ = run_cli(capsys, "evolve", "--config", str(config))
    assert status in (EX_OK, EX_BUDGET)
    _, from_flags, _ = run_cli(capsys, "evolve", *ALL_KEYS_FLAGS)
    file_record, flag_record = json.loads(from_file), json.loads(from_flags)
    assert file_record["config"] == flag_record["config"]
    assert file_record["config"] == {
        "n": 3, "circuit_length": 4, "families": ["H", "CNOT", "T"], "population_size": 20,
        "max_generations": 6, "crossover_rate": 0.8, "per_gene_mutation_rate": 0.3,
        "tournament_size": 3, "elite_count": 2, "target_fitness": 1.5, "rng_seed": 5}
    assert file_record["result"] == flag_record["result"]


def test_config_file_rejects_unknown_keys_and_bad_values(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("qubits = 3\nlength = 4\npopulation = 20\n")
    status, _, err = run_cli(capsys, "evolve", "--config", str(config))
    assert status == EX_USAGE
    assert "unknown config keys ['population']" in err
    config.write_text("qubits = 3\nlength = 4\ngens = 2\npop = many\n")
    status, _, err = run_cli(capsys, "evolve", "--config", str(config))
    assert status == EX_USAGE
    assert "config key pop has bad value 'many'" in err
    # A flag that overrides the bad value leaves it unread.
    status, _, _ = run_cli(capsys, "evolve", "--config", str(config), "--pop", "10")
    assert status == EX_OK


def test_evolve_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    status, _, _ = run_cli(capsys, "evolve", "--qubits", "3", "--length", "3",
                           "--gens", "2", "--seed", "0", "--out", str(out_path))
    assert status == EX_OK
    record = json.loads(out_path.read_text())
    assert record["command"] == "evolve"
    assert record["version"]


def test_unknown_flag_is_usage_error(capsys):
    status, _, _ = run_cli(capsys, "evolve", "--qubits", "3", "--length", "3", "--bogus")
    assert status == EX_USAGE


# --- sweep ---------------------------------------------------------------------


def test_sweep_reports_per_length_bests(capsys):
    status, out, _ = run_cli(
        capsys, "sweep", "--qubits", "3", "--lengths", "1,2,3",
        "--pop", "60", "--gens", "30", "--seed", "11")
    assert status == EX_OK
    rows = read_csv(out)
    assert rows[0] == ["length", "best_fitness"]
    bests = {int(r[0]): float(r[1]) for r in rows[1:]}
    assert bests == {1: 0.0, 2: 1.0, 3: 1.5}


def test_sweep_rejects_bad_lengths(capsys):
    status, _, err = run_cli(capsys, "sweep", "--qubits", "3", "--lengths", "a,b")
    assert status == EX_USAGE


# --- output files --------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["evolve", "--qubits", "3", "--length", "3", "--gens", "2"],
    ["evolve", "--qubits", "3", "--length", "3", "--gens", "2", "--format", "csv"],
    ["evaluate", "--catalog", "psi4a"],
    ["evaluate", "--catalog", "ghz3", "--state", "--format", "json"],
    ["evaluate", "--catalog", "circuit_4a", "--format", "csv"],
    ["trace", "--catalog", "circuit_ghz3"],
    ["trace", "--catalog", "circuit_ghz3", "--format", "json"],
    ["catalog", "list"],
    ["catalog", "show", "circuit_5a"],
    ["catalog", "show", "psi4a"],
    ["sweep", "--qubits", "3", "--lengths", "1,2", "--gens", "2"],
    ["sweep", "--qubits", "3", "--lengths", "1,2", "--gens", "2", "--format", "json"],
], ids=" ".join)
def test_out_file_holds_exactly_what_stdout_shows(argv, tmp_path, capsys):
    path = tmp_path / "out"
    _, stdout, _ = run_cli(capsys, *argv)
    _, nothing, _ = run_cli(capsys, *argv, "--out", str(path))
    assert nothing == ""
    written = path.read_text()
    assert written.endswith("\n")

    def untimed(text):
        return re.sub(r'"(started|finished)": "[^"]*"', "", text)

    assert untimed(written) == untimed(stdout)
