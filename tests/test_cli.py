import csv
import importlib
import io
import json
import os
import re
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from entangler import cli as cli_module
from entangler import entanglement as entanglement_module
from entangler.catalog import catalog_entries
from entangler.cli import EX_BUDGET, EX_ERROR, EX_OK, EX_PARSE, EX_USAGE, main

# The package re-exports the function evolve under the submodule's name.
evolve_module = importlib.import_module("entangler.evolve")


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


def test_evaluate_reports_a_ghz_entry_by_its_canonical_name(capsys):
    for name in ("GHZ03", "ghz" + "0" * 300 + "3"):
        status, out, _ = run_cli(capsys, "evaluate", "--catalog", name, "--format", "json")
        assert status == EX_OK
        assert json.loads(out)["subject"] == "ghz3"


def test_evaluate_circuit_file(tmp_path, capsys):
    path = tmp_path / "ghz3.qc"
    path.write_text("H(2); CNOT(2,1); CNOT(2,0)\n")
    status, out, _ = run_cli(capsys, "evaluate", "--circuit", str(path))
    assert status == EX_OK
    assert "total entanglement: 1.5" in out
    assert "nonzero coefficients: 2" in out


def test_evaluate_skips_a_utf8_byte_order_mark(tmp_path, capsys):
    # Windows editors may start a UTF-8 file with the mark EF BB BF.
    path = tmp_path / "bell.qc"
    path.write_bytes(b"\xef\xbb\xbfH(0); CNOT(0,1)\n")
    status, out, err = run_cli(capsys, "evaluate", "--circuit", str(path), "--format", "json")
    assert (status, err) == (EX_OK, "")
    assert json.loads(out)["total"] == 0.5


def test_evaluate_validate_mode(capsys):
    status, out, _ = run_cli(capsys, "evaluate", "--catalog", "psi5a", "--validate", "--format", "json")
    assert status == EX_OK
    assert json.loads(out)["total"] == 17.5


def test_validate_exits_1_when_the_two_paths_disagree(monkeypatch, capsys):
    schmidt = entanglement_module._cut_negativities
    monkeypatch.setattr(entanglement_module, "_cut_negativities",
                        lambda amps, n, apart=None: [v + 1e-3 for v in schmidt(amps, n)])
    status, out, err = run_cli(capsys, "evaluate", "--catalog", "ghz4", "--validate")
    assert status == EX_ERROR
    assert out == ""
    assert re.fullmatch(r"entangler: error: path disagreement on cut \{0\}: schmidt 0\.50\d+ vs eigen 0\.\d+\n", err)


def test_validate_is_refused_above_nine_qubits_before_any_scoring(monkeypatch, capsys):
    # The eigen path would take about 95 s on ghz10.
    def no_scoring(*args, **kwargs):
        raise AssertionError("a state was scored")

    monkeypatch.setattr(cli_module, "total_entanglement", no_scoring)
    started = time.monotonic()
    status, out, err = run_cli(capsys, "evaluate", "--catalog", "ghz10", "--validate")
    assert time.monotonic() - started < 5.0
    assert status == EX_USAGE
    assert out == ""
    assert "--validate is capped at 9 qubits, got n=10" in err


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


def test_non_ascii_digits_are_neither_labels_nor_ghz_sizes(tmp_path, capsys):
    path = tmp_path / "arabic.qc"
    path.write_text("H(0);\nH(\u0663)\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "evaluate", "--circuit", str(path))
    assert status == EX_PARSE
    assert "line 2, column 1: malformed gate token" in err
    for name in ("circuit_ghz\u0664", "ghz3\n"):
        status, _, err = run_cli(capsys, "evaluate", "--catalog", name)
        assert status == EX_USAGE
        assert "unknown catalog name" in err


def test_an_unknown_long_name_writes_a_short_message(capsys):
    status, out, err = run_cli(capsys, "evaluate", "--catalog", "ghz" + "0" * 100_000 + "x")
    assert (status, out) == (EX_USAGE, "")
    assert "(100004 characters)" in err
    assert len(err) < 1024


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
    assert err.startswith("entangler: error: scoring is capped at 12 qubits, got n=40")
    # Past int()'s 4300-digit limit: the same range error, without the digits.
    status, _, err = run_cli(capsys, "evaluate", "--catalog", "ghz" + "9" * 5000)
    assert status == EX_ERROR
    assert err.startswith("entangler: error: scoring is capped at 12 qubits, got an n of 5000 digits")
    assert len(err) < 200


def test_evaluate_refuses_unscorable_circuit_files_before_simulating(monkeypatch, tmp_path, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a circuit was simulated")

    monkeypatch.setattr(cli_module, "run_circuit", no_simulation)
    path = tmp_path / "h12.qc"
    path.write_text("H(12)\n")
    status, out, err = run_cli(capsys, "evaluate", "--circuit", str(path))
    assert status == EX_USAGE
    assert out == ""
    assert "scoring is capped at 12 qubits, got n=13" in err
    path.write_text("H(0)\n")
    status, out, err = run_cli(capsys, "evaluate", "--circuit", str(path))
    assert status == EX_USAGE
    assert "entanglement needs at least 2 qubits, got n=1" in err


@pytest.mark.parametrize("qubits", [-1, 0, 1, 13])
def test_qubits_outside_the_range_are_usage_errors_before_parsing(tmp_path, capsys, qubits):
    message = ("scoring is capped at 12 qubits, got n=13" if qubits > 12
               else f"entanglement needs at least 2 qubits, got n={qubits}")
    for text in ("", "H(0)\n"):
        path = tmp_path / "subject.qc"
        path.write_text(text)
        for command in ("evaluate", "trace"):
            status, out, err = run_cli(capsys, command, "--circuit", str(path), "--qubits", str(qubits))
            assert (status, out) == (EX_USAGE, "")
            assert err == f"entangler: usage error: {message}\n"


@pytest.mark.parametrize("qubits", ["9", "4", "0"])
def test_qubits_are_refused_next_to_a_catalog_name(capsys, qubits):
    # Even the entry's own count: --qubits never applies to a catalog entry.
    for command in ("evaluate", "trace"):
        status, out, err = run_cli(capsys, command, "--catalog", "circuit_4a", "--qubits", qubits)
        assert (status, out) == (EX_USAGE, "")
        assert err == ("entangler: usage error: --qubits applies only to --circuit; "
                       "a catalog entry has its own qubit count\n")


@pytest.mark.parametrize("text", ["", " \n\t", ";", ";\n ;"], ids=repr)
def test_circuit_files_without_gates_need_qubits(tmp_path, capsys, text):
    path = tmp_path / "nothing.qc"
    path.write_text(text)
    for command in ("evaluate", "trace"):
        status, out, err = run_cli(capsys, command, "--circuit", str(path))
        assert (status, out) == (EX_USAGE, "")
        assert err == f"entangler: usage error: {path} holds an empty circuit; pass --qubits\n"
    status, out, _ = run_cli(capsys, "evaluate", "--circuit", str(path), "--qubits", "2", "--format", "json")
    assert status == EX_OK
    assert json.loads(out)["total"] == 0
    path.write_text(text + "; H(")
    status, _, _ = run_cli(capsys, "evaluate", "--circuit", str(path))
    assert status == EX_PARSE


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
    assert status == EX_USAGE
    assert "capped at 12 qubits" in err


def test_trace_work_is_bounded_before_any_scoring(monkeypatch, tmp_path, capsys):
    traced = []

    def fake_trace(circuit):
        traced.append(circuit)
        return [(0, 0.0)]

    monkeypatch.setattr(cli_module, "entanglement_trace", fake_trace)
    # At n = 12 each CNOT rescores 2^10 cuts, so the cap admits 128 of them;
    # single-qubit gates rescore none.
    assert cli_module.MAX_TRACE_CUTS == 128 << 10
    path = tmp_path / "cnots.qc"
    path.write_text("H(11)\n" * 500 + "CNOT(11,0)\n" * 128)
    status, _, err = run_cli(capsys, "trace", "--circuit", str(path))
    assert status == EX_OK, err
    assert len(traced) == 1
    path.write_text("CNOT(11,0)\n" * 129)
    status, out, err = run_cli(capsys, "trace", "--circuit", str(path))
    assert status == EX_USAGE
    assert out == ""
    assert f"trace is capped at {128 << 10} cut rescorings, and {path} would take {129 << 10}" in err
    assert len(traced) == 1


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
    assert "scoring is capped at 12 qubits, got n=13" in err
    # 'max' is resolved only for a checked qubit count; the bound for 2000
    # qubits overflows a float.
    for command in (["evolve", "--length", "3"], ["sweep", "--lengths", "3"]):
        status, _, err = run_cli(capsys, *command, "--qubits", "2000", "--target", "max")
        assert status == EX_USAGE
        assert "scoring is capped at 12 qubits, got n=2000" in err
    for flags in (("--length", "3", "--pop", "3000000000"), ("--length", str(10**12))):
        status, _, err = run_cli(capsys, "evolve", "--qubits", "3", "--gens", "0", *flags)
        assert status == EX_USAGE
        assert "must be at most 1000000" in err
    status, _, err = run_cli(capsys, "evolve", "--qubits", "3", "--length", "3", "--pop", "4",
                             "--gens", "1", "--tournament", str(10**12))
    assert status == EX_USAGE
    assert "tournament size must be in [1, population]" in err


def test_unknown_gate_families_are_usage_errors(capsys):
    for command in (["evolve", "--length", "3"], ["sweep", "--lengths", "2,3"]):
        status, out, err = run_cli(capsys, *command, "--qubits", "3", "--gates", "H,FOO", "--gens", "0")
        assert status == EX_USAGE
        assert out == ""
        assert "unknown gate families ['FOO']" in err
        # An empty list is refused rather than read as the default.
        for gates in (["--gates", ","], ["--gates", ""]):
            status, out, err = run_cli(capsys, *command, "--qubits", "3", *gates, "--gens", "0")
            assert status == EX_USAGE, gates
            assert out == ""
            assert "at least one gate family is required" in err


def test_targets_that_are_not_finite_are_usage_errors(capsys):
    for target in ("nan", "inf", "-inf", "NaN", "infinity"):
        status, out, err = run_cli(capsys, "evolve", "--qubits", "3", "--length", "3",
                                   "--gens", "20", "--seed", "1", f"--target={target}")
        assert status == EX_USAGE, target
        assert out == ""
        assert "target fitness must be finite" in err


def test_targets_that_are_not_numbers_are_usage_errors(capsys):
    status, out, err = run_cli(capsys, "evolve", "--qubits", "3", "--length", "3", "--gens", "0", "--target", "abc")
    assert status == EX_USAGE
    assert out == ""
    assert "--target must be a number or 'max', got 'abc'" in err


def test_negative_seeds_are_usage_errors(capsys):
    for command in (["evolve", "--length", "3"], ["sweep", "--lengths", "1,2"]):
        status, out, err = run_cli(capsys, *command, "--qubits", "3", "--seed", "-1", "--gens", "0")
        assert status == EX_USAGE
        assert out == ""
        assert "RNG seed must be nonnegative, got -1" in err


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


ALL_GA_FLAGS = ["--qubits", "3", "--gates", "H,CNOT,T", "--length", "4", "--target", "max",
                "--pop", "20", "--gens", "6", "--seed", "5", "--mutation-rate", "0.3",
                "--crossover-rate", "0.8", "--tournament", "3", "--elite", "2"]


def test_every_ga_flag_sets_its_config_field(capsys):
    status, out, _ = run_cli(capsys, "evolve", *ALL_GA_FLAGS)
    assert status in (EX_OK, EX_BUDGET)
    assert json.loads(out)["config"] == {
        "n": 3, "circuit_length": 4, "families": ["H", "CNOT", "T"], "population_size": 20,
        "max_generations": 6, "crossover_rate": 0.8, "per_gene_mutation_rate": 0.3,
        "tournament_size": 3, "elite_count": 2, "target_fitness": 1.5, "rng_seed": 5}


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


@pytest.mark.parametrize("argv, missing", [
    (("sweep", "--lengths", "2"), "--qubits is required"),
    (("evolve", "--length", "3"), "--qubits is required"),
    (("evolve", "--qubits", "3"), "--length is required"),
    (("evolve",), "--qubits and --length are required"),
])
def test_usage_error_names_only_the_missing_flags(capsys, argv, missing):
    status, out, err = run_cli(capsys, *argv)
    assert status == EX_USAGE
    assert out == ""
    flags = ", ".join(re.findall(r"--[a-z]+", missing))
    assert err.endswith(f"usage error: the following arguments are required: {flags}\n")


@pytest.mark.parametrize("argv", [
    ("sweep", "--qubits", "3", "--lengths", "2", "--length", "3"),
    ("sweep", "--qubits", "3", "--length", "3"),
    ("evolve", "--qub", "3", "--len", "3"),
    ("evolve", "--qubits", "3", "--length", "3", "--gen", "1"),
    ("evaluate", "--cat", "psi6a"),
    ("catalog", "show", "circuit_ghz3", "--paper"),
    ("--vers",),
])
def test_abbreviated_flags_are_usage_errors(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == EX_USAGE
    assert out == ""


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


def test_sweep_record_holds_the_settings_its_runs_shared(capsys):
    argv = ["sweep", "--qubits", "3", "--lengths", "3,4", "--gens", "2", "--format", "json"]
    status, out, _ = run_cli(capsys, *argv)
    assert status == EX_OK
    record = json.loads(out)
    assert list(record)[:2] == ["command", "version"]
    assert record["command"] == "sweep"
    assert "circuit_length" not in record["config"]
    # null: each run mutates at 1/length of its own length.
    assert record["config"]["per_gene_mutation_rate"] is None
    assert record["lengths"] == [3, 4]
    status, out, _ = run_cli(capsys, *argv, "--mutation-rate", "0.3")
    assert status == EX_OK
    assert json.loads(out)["config"]["per_gene_mutation_rate"] == 0.3


def test_sweep_rejects_bad_lengths(capsys):
    status, _, err = run_cli(capsys, "sweep", "--qubits", "3", "--lengths", "a,b")
    assert status == EX_USAGE


def test_sweep_checks_every_length_before_the_first_run(monkeypatch, capsys):
    def no_ga(*args, **kwargs):
        raise AssertionError("a GA ran")

    monkeypatch.setattr(cli_module, "evolve", no_ga)
    monkeypatch.setattr(evolve_module, "evolve", no_ga)
    for lengths, message in (("8,8,0", "circuit length must be positive, got 0"),
                             (f"8,{10**6}", "must be at most 1000000"),
                             ("5,5", "each length may be swept once, got [5, 5]")):
        status, out, err = run_cli(capsys, "sweep", "--qubits", "5", "--lengths", lengths)
        assert status == EX_USAGE
        assert out == ""
        assert message in err


# --- help --------------------------------------------------------------------


_GA_FLAGS = ["--qubits", "--gates", "--pop", "--gens", "--seed", "--mutation-rate",
             "--crossover-rate", "--tournament", "--elite"]
_GA_TAIL = ["--target", "--workers", "--format"]
_SUBJECT_FLAGS = ["--circuit", "--catalog", "--qubits", "--out"]
# Each subcommand's long flags, in the order --help lists them.
_HELP_FLAGS = {
    "evolve": ["--out", *_GA_FLAGS, "--length", *_GA_TAIL],
    "sweep": ["--out", "--lengths", *_GA_FLAGS, *_GA_TAIL],
    "evaluate": [*_SUBJECT_FLAGS, "--validate", "--state", "--format"],
    "trace": [*_SUBJECT_FLAGS, "--format"],
    "catalog list": ["--out"],
    "catalog show": ["--out", "--paper-order"],
}


@pytest.mark.parametrize("command", _HELP_FLAGS)
def test_every_subcommand_help_lists_each_flag_once(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*command.split(), "--help"])
    assert exit_info.value.code == EX_OK
    listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == ["--help", *_HELP_FLAGS[command]]


# --- input files -------------------------------------------------------------


@pytest.mark.parametrize("command", [["evaluate", "--circuit"], ["trace", "--circuit"]], ids=" ".join)
def test_input_files_are_read_up_to_a_fixed_cap(command, tmp_path, capsys):
    cap = cli_module.MAX_INPUT_BYTES
    at_cap = tmp_path / "at_cap"
    head = b"H(0); CNOT(0,1)\n"
    at_cap.write_bytes(head + b" " * (cap - len(head)))
    status, _, err = run_cli(capsys, *command, str(at_cap), "--qubits", "2")
    assert status == EX_OK, err
    over = tmp_path / "over"
    over.write_bytes(at_cap.read_bytes() + b"\n")
    for path in (str(over), *(["/dev/zero"] if os.path.exists("/dev/zero") else [])):
        tracemalloc.start()
        try:
            status, out, err = run_cli(capsys, *command, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == EX_USAGE
        assert out == ""
        assert f"{path} is larger than {cap} bytes" in err
        assert "Traceback" not in err
        assert peak < 2 * cap
    # Not UTF-8: read as UTF-8 on every host, whatever its locale.
    not_text = tmp_path / "not_text.qc"
    not_text.write_bytes(b"H(0);\xff\xfe CNOT(0,1)")
    for path in (tmp_path / "missing", tmp_path, not_text):
        status, out, err = run_cli(capsys, *command, str(path))
        assert status == EX_USAGE
        assert out == ""
        assert f"cannot read {path}" in err
    assert "'utf-8' codec can't decode byte 0xff in position 5" in err


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


# --- argv fuzzing --------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A working directory with circuit files of every kind the commands read."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "ghz3.qc").write_text("H(2); CNOT(2,1); CNOT(2,0)\n")
    (path / "bad.qc").write_text("H(2); CNOT(1)\n")
    (path / "empty.qc").write_text("\n")
    (path / "binary.qc").write_bytes(b"\xff\xfe\x00H(0)")
    (path / "folder").mkdir()
    return path


# trace, evaluate and catalog: no GA runs and no pool starts.  Qubit counts
# stay at most 8 or above the scoring cap, so that --validate stays cheap.
_FUZZ_VALUES = {
    "--circuit": ("ghz3.qc", "bad.qc", "empty.qc", "binary.qc", "folder", "missing.qc", "-"),
    "--catalog": ("ghz2", "ghz8", "ghz0", "ghz17", "circuit_ghz7", "psi99",
                  *(entry.name for entry in catalog_entries())),
    "--qubits": ("-1", "0", "1", "2", "3", "6", "13", "17", "9" * 30),
    "--format": ("json", "csv", "text", "xml"),
    "--out": ("-", "out.txt", "folder"),
}
_FUZZ_SWITCHES = ("--validate", "--state", "--paper-order", "-h", "--version", "--bogus", "--")
# Free text: no digits (a large qubit count would make --validate slow) and no
# path separators (--out writes inside the working directory only).
_FUZZ_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="/\\"), max_size=8)
_FUZZ_WORD = st.sampled_from(("list", "show", *_FUZZ_SWITCHES, *sum(_FUZZ_VALUES.values(), ()))) | _FUZZ_TEXT
_FUZZ_OPTION = (st.sampled_from(tuple(_FUZZ_VALUES)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(_FUZZ_VALUES[flag])))
    | st.tuples(st.sampled_from(_FUZZ_SWITCHES)))
# A subcommand, mostly well-formed options, then up to two arbitrary words.
_FUZZ_ARGV = st.tuples(
    st.sampled_from((("trace",), ("evaluate",), ("catalog",), ("catalog", "list")))
    | st.tuples(st.just("catalog"), st.just("show"), st.sampled_from(_FUZZ_VALUES["--catalog"])),
    st.lists(_FUZZ_OPTION, max_size=4),
    st.lists(_FUZZ_WORD, max_size=2),
).map(lambda parts: [*parts[0], *(word for option in parts[1] for word in option), *parts[2]])


# evolve and sweep: every command line ends in --gens 0 --pop 2 --workers 1,
# so no pool starts and a run scores two circuits.  Qubit counts stay at most
# 8 or above the cap; lengths run 1..8 or from 10^6 up, which the
# population-genes cap refuses.
_FUZZ_GA_TAIL = ("--gens", "0", "--pop", "2", "--workers", "1")
_FUZZ_LENGTH = (st.integers(1, 8).map(str) | st.integers(1, 8).map(str) | st.integers(10**6, 10**40).map(str)
                | st.sampled_from(("0", "-3", "x")))
_FUZZ_GA_COMMAND = (st.tuples(st.just("evolve"), st.just("--length"), _FUZZ_LENGTH)
                    | st.tuples(st.just("sweep"), st.just("--lengths"),
                                st.lists(_FUZZ_LENGTH, max_size=4).map(",".join)))
_FUZZ_GA_QUBITS = (st.integers(2, 8).map(str) | st.integers(2, 8).map(str) | st.integers(1000, 10**40).map(str)
                   | st.sampled_from(("-2", "0", "1", "13", "2000")) | st.none())
# Mostly values GAConfig takes, so that many runs get as far as a GA.
_FUZZ_GA_OPTIONS = {
    "--target": st.just("max") | st.sampled_from(("MAX", "nan", "inf", "-inf", "-1", "x")) | st.floats().map(str),
    "--seed": (st.integers(0, 5).map(str) | st.integers(-5, -1).map(str) | st.integers(2**63, 10**40).map(str)
               | st.just("-" + "9" * 30)),
    "--gates": st.sampled_from(("H,CNOT", "h,cz,T", "X,CNOT", "S,Y,CZ", "FOO")),
    "--mutation-rate": st.sampled_from(("0", "1", "0.5", "0.25", "nan", "-0.5")),
    "--crossover-rate": st.sampled_from(("0", "0.9", "1", "0.5", "nan", "1.5")),
    "--tournament": st.sampled_from(("1", "2", "1", "2", "9" * 30)),
    "--elite": st.sampled_from(("1", "1", "1", "0")),
    "--format": st.sampled_from(("json", "csv", "json", "csv", "xml")),
    "--out": st.sampled_from(("-", "out.txt", "-", "folder")),
}
# Each option appears or not, so that combinations such as a huge --qubits
# with --target max come up often.  --qubits is left out a fifth of the
# time; one arbitrary word comes rarely.
_FUZZ_GA_ARGV = st.tuples(
    _FUZZ_GA_COMMAND,
    _FUZZ_GA_QUBITS.map(lambda qubits: [] if qubits is None else ["--qubits", qubits]),
    st.fixed_dictionaries({}, optional=_FUZZ_GA_OPTIONS),
    st.just([]) | st.just([]) | st.lists(_FUZZ_WORD, max_size=1),
).map(lambda parts: [*parts[0], *parts[1], *(word for option in parts[2].items() for word in option),
                     *parts[3], *_FUZZ_GA_TAIL])


def _run_in(directory, argv):
    """main(argv) run inside directory: its exit status and stderr."""
    cwd = os.getcwd()
    os.chdir(directory)
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # -h
                status = exc.code
    finally:
        os.chdir(cwd)
    return status, err.getvalue()


@given(argv=_FUZZ_ARGV)
@settings(max_examples=100)
def test_fuzzed_argv_ends_in_a_documented_exit_code(fuzz_dir, argv):
    status, err = _run_in(fuzz_dir, argv)
    assert status in (EX_OK, EX_ERROR, EX_BUDGET, EX_USAGE, EX_PARSE)
    assert "Traceback" not in err


@given(argv=_FUZZ_GA_ARGV)
@example(argv=["evolve", "--length", "3", "--qubits", "2000", "--target", "max", *_FUZZ_GA_TAIL])
@example(argv=["sweep", "--lengths", "3", "--qubits", "2000", "--target", "max", *_FUZZ_GA_TAIL])
@settings(max_examples=300)
def test_fuzzed_ga_argv_ends_in_a_documented_exit_code(fuzz_dir, argv):
    status, err = _run_in(fuzz_dir, argv)
    assert status in (EX_OK, EX_ERROR, EX_BUDGET, EX_USAGE, EX_PARSE)
    assert "Traceback" not in err
