"""Command-line front end: evolve, evaluate, trace, catalog, sweep.

Every run that produces numbers can be replayed: records echo the command,
the full config and the seed, and rerunning them reproduces the outputs
bit for bit.  Floats are serialized at 12 significant digits.

Exit codes: 0 success (target reached when one was given), 2 generation
budget exhausted before the target, 64 usage error, 65 circuit parse error,
1 anything else.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .catalog import catalog_entries, lookup
from .entanglement import MAX_SCORED_QUBITS, entanglement_trace, max_entanglement_bound, total_entanglement
from .evolve import GAConfig, evolve, length_sweep
from .qsim import (
    Circuit,
    CircuitParseError,
    StateVector,
    format_circuit,
    nonzero_coefficient_count,
    parse_circuit,
    run_circuit,
    zero_state,
)

EX_OK = 0
EX_ERROR = 1
EX_BUDGET = 2
EX_USAGE = 64
EX_PARSE = 65

SEED_ENV_VAR = "ENTANGLER_SEED"

_VALIDATE_TOL = 1e-10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _round_floats(obj):
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _json_dump(record: dict) -> str:
    return json.dumps(_round_floats(record), indent=2)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return 0


def _parse_families(text: str) -> tuple[str, ...]:
    families = tuple(f.strip().upper() for f in text.split(",") if f.strip())
    if not families:
        raise _UsageError(f"no gate families in {text!r}")
    return families


def _read_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment.  CLI flags win on conflict."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = {
    "qubits": int,
    "gates": str,
    "length": int,
    "pop": int,
    "gens": int,
    "seed": int,
    "target": str,
    "mutation_rate": float,
    "crossover_rate": float,
    "tournament": int,
    "elite": int,
}


def _merged_option(args, key: str, file_values: dict):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        caster = _CONFIG_KEYS[key]
        try:
            return caster(file_values[key])
        except ValueError:
            raise _UsageError(f"config key {key} has bad value {file_values[key]!r}") from None
    return None


def _build_ga_config(args) -> tuple[GAConfig, float | None]:
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values).difference(_CONFIG_KEYS)
    if unknown:
        raise _UsageError(f"unknown config keys {sorted(unknown)}; expected {sorted(_CONFIG_KEYS)}")

    def get(key):
        return _merged_option(args, key, file_values)

    qubits = get("qubits")
    length = get("length")
    if qubits is None or length is None:
        raise _UsageError("--qubits and --length are required (by flag or config file)")
    if qubits < 2:
        raise _UsageError(f"entanglement needs at least 2 qubits, got {qubits}")
    gates = get("gates") or "H,CNOT"
    families = _parse_families(gates) if isinstance(gates, str) else gates
    seed = _resolve_seed(get("seed"))

    target_text = get("target")
    target = None
    if target_text is not None:
        if str(target_text).lower() == "max":
            target = max_entanglement_bound(qubits)
        else:
            try:
                target = float(target_text)
            except ValueError:
                raise _UsageError(f"--target must be a number or 'max', got {target_text!r}") from None

    kwargs = {}
    for key, field in [("pop", "population_size"), ("gens", "max_generations"),
                       ("mutation_rate", "per_gene_mutation_rate"),
                       ("crossover_rate", "crossover_rate"),
                       ("tournament", "tournament_size"), ("elite", "elite_count")]:
        value = get(key)
        if value is not None:
            kwargs[field] = value
    try:
        config = GAConfig(n=qubits, circuit_length=length, families=families,
                          target_fitness=target, rng_seed=seed, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return config, target


def _per_cut_rows(report) -> list[list]:
    return [[r.cut.mask, r.cut.smaller_side, r.contribution] for r in report.per_cut]


def cmd_evolve(args) -> int:
    config, target = _build_ga_config(args)
    started = _utc_now()
    result = evolve(config, workers=args.workers)
    finished = _utc_now()

    final_state = run_circuit(result.best_circuit, zero_state(config.n))
    report = total_entanglement(final_state)
    record = {
        "command": "evolve",
        "version": __version__,
        "started": started,
        "finished": finished,
        "config": config.to_dict(),
        "rng_seed": config.rng_seed,
        "workers": args.workers,
        "result": {
            **result.to_dict(),
            "per_cut": report.to_dict()["per_cut"],
            "nonzero_coefficients": nonzero_coefficient_count(final_state),
        },
    }
    if args.format == "json":
        _write_output(_json_dump(record), args.out)
    else:
        rows = [[g, b, m] for g, (b, m) in enumerate(zip(result.best_history, result.mean_history))]
        _write_output(_csv_text(["generation", "best", "mean"], rows), args.out)
    if target is None:
        return EX_OK
    return EX_OK if result.reached(target) else EX_BUDGET


def _load_subject(args) -> tuple[str, Circuit | None, StateVector]:
    """Resolve --circuit/--catalog into (label, circuit or None, state)."""
    if (args.circuit is None) == (args.catalog is None):
        raise _UsageError("pass exactly one of --circuit or --catalog")
    if args.catalog is not None:
        try:
            entry = lookup(args.catalog)
        except KeyError as exc:
            raise _UsageError(str(exc.args[0])) from None
        if entry.kind == "circuit":
            circuit = entry.payload
            return entry.name, circuit, run_circuit(circuit, zero_state(circuit.n))
        return entry.name, None, entry.payload
    try:
        with open(args.circuit) as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.circuit}: {exc}") from None
    if not text.strip() and args.qubits is None:
        raise _UsageError(f"{args.circuit} holds an empty circuit; pass --qubits")
    circuit = parse_circuit(text, n=args.qubits)
    if circuit.n < 2:
        raise _UsageError(f"entanglement needs at least 2 qubits, got {circuit.n}")
    return args.circuit, circuit, run_circuit(circuit, zero_state(circuit.n))


def _validated_report(state: StateVector):
    """Eigenvalue-path report, cross-checked cut by cut against the schmidt path."""
    report = total_entanglement(state, method="eigen")
    for slow, fast in zip(report.per_cut, total_entanglement(state).per_cut):
        if abs(fast.contribution - slow.contribution) > _VALIDATE_TOL:
            raise RuntimeError(
                f"path disagreement on cut {slow.cut}: "
                f"schmidt {fast.contribution!r} vs eigen {slow.contribution!r}")
    return report


def cmd_evaluate(args) -> int:
    label, circuit, state = _load_subject(args)
    report = _validated_report(state) if args.validate else total_entanglement(state)
    nonzeros = nonzero_coefficient_count(state)
    if args.format == "json":
        record = {
            "command": "evaluate",
            "version": __version__,
            "subject": label,
            "circuit": None if circuit is None else format_circuit(circuit),
            **report.to_dict(),
            "nonzero_coefficients": nonzeros,
        }
        if args.state:
            record["amplitudes"] = [
                [k, format(k, f"0{state.n}b"), float(a.real), float(a.imag)]
                for k, a in enumerate(state.amplitudes)
            ]
        _write_output(_json_dump(record), args.out)
    elif args.format == "csv":
        _write_output(_csv_text(["cut_mask", "size", "contribution"], _per_cut_rows(report)), args.out)
    else:
        lines = [f"subject: {label}"]
        if circuit is not None:
            lines.append(f"circuit: {format_circuit(circuit)}")
        lines.append(f"total entanglement: {report.total:.12g}")
        lines.append(f"nonzero coefficients: {nonzeros}")
        lines.append("per-cut contributions (mask size value):")
        for row in _per_cut_rows(report):
            lines.append(f"  {row[0]:>4d}  {row[1]}  {row[2]:.12g}")
        if args.state:
            lines.append("amplitudes (index bitstring real imag):")
            for k, a in enumerate(state.amplitudes):
                if abs(a) > 1e-12:
                    lines.append(f"  {k:>4d}  {format(k, f'0{state.n}b')}  {a.real:+.12g}  {a.imag:+.12g}")
        _write_output("\n".join(lines), args.out)
    return EX_OK


def cmd_trace(args) -> int:
    label, circuit, _state = _load_subject(args)
    if circuit is None:
        raise _UsageError(f"{label} is a state; trace needs a circuit")
    steps = entanglement_trace(circuit)
    rows = []
    for step, value in steps:
        gate = "" if step == 0 else str(circuit.gates[step - 1])
        rows.append([step, gate, value])
    if args.format == "json":
        record = {
            "command": "trace",
            "version": __version__,
            "subject": label,
            "circuit": format_circuit(circuit),
            "steps": [{"step": s, "gate": g, "total": v} for s, g, v in rows],
        }
        _write_output(_json_dump(record), args.out)
    else:
        _write_output(_csv_text(["step", "gate", "total"], rows), args.out)
    return EX_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = []
        for entry in catalog_entries():
            payload = entry.payload
            n = payload.n
            size = len(payload.gates) if isinstance(payload, Circuit) else ""
            expected = "" if entry.expected_total is None else f"{entry.expected_total:.12g}"
            rows.append([entry.name, entry.kind, n, size, expected, entry.source])
        _write_output(_csv_text(["name", "kind", "qubits", "gates", "expected_total", "source"], rows), args.out)
        return EX_OK
    try:
        entry = lookup(args.name)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0])) from None
    if entry.kind == "circuit":
        _write_output(format_circuit(entry.payload, paper_order=args.paper_order), args.out)
    else:
        state = entry.payload
        rows = [
            [k, format(k, f"0{state.n}b"), float(a.real), float(a.imag)]
            for k, a in enumerate(state.amplitudes)
        ]
        _write_output(_csv_text(["index", "bitstring", "real", "imag"], rows), args.out)
    return EX_OK


def cmd_sweep(args) -> int:
    config, _target = _build_ga_config(args)
    try:
        lengths = [int(v) for v in args.lengths.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    if not lengths:
        raise _UsageError("--lengths is empty")
    started = _utc_now()
    results = length_sweep(config, lengths, workers=args.workers)
    finished = _utc_now()
    if args.format == "json":
        record = {
            "command": "sweep",
            "version": __version__,
            "started": started,
            "finished": finished,
            "config": config.to_dict(),
            "lengths": lengths,
            "results": [{"length": length, "best_fitness": best} for length, best in results],
        }
        _write_output(_json_dump(record), args.out)
    else:
        _write_output(_csv_text(["length", "best_fitness"], [[length, best] for length, best in results]), args.out)
    return EX_OK


def _add_ga_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--qubits", type=int, help=f"number of qubits, 2 to {MAX_SCORED_QUBITS}")
    parser.add_argument("--gates", help="comma-separated gate families, default H,CNOT")
    parser.add_argument("--pop", type=int, help="population size")
    parser.add_argument("--gens", type=int, help="generation budget")
    parser.add_argument("--seed", type=int, help=f"RNG seed; falls back to ${SEED_ENV_VAR}, then 0")
    parser.add_argument("--mutation-rate", dest="mutation_rate", type=float,
                        help="per-gene mutation rate, default 1/length")
    parser.add_argument("--crossover-rate", dest="crossover_rate", type=float)
    parser.add_argument("--tournament", type=int, help="tournament size")
    parser.add_argument("--elite", type=int, help="elites carried over unchanged")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel fitness workers; does not change results")
    parser.add_argument("--config", help="flat key=value config file; flags win on conflict")
    parser.add_argument("--out", help="output path, default stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entangler", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"entangler {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("evolve", help="run the genetic search")
    _add_ga_flags(p)
    p.add_argument("--length", type=int, help="circuit length (chromosome length)")
    p.add_argument("--target", help="early-stop fitness, a number or 'max'")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("evaluate", help="score a circuit file or catalog entry")
    p.add_argument("--circuit", help="path to a .qc circuit file")
    p.add_argument("--catalog", help="catalog name, e.g. psi6a or circuit_ghz3")
    p.add_argument("--qubits", type=int, help="qubit count override for circuit files")
    p.add_argument("--validate", action="store_true",
                   help="use the eigenvalue path and cross-check the fast path")
    p.add_argument("--state", action="store_true", help="also dump the amplitudes")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", help="output path, default stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("trace", help="entanglement after each gate of a circuit")
    p.add_argument("--circuit", help="path to a .qc circuit file")
    p.add_argument("--catalog", help="catalog circuit name")
    p.add_argument("--qubits", type=int, help="qubit count override for circuit files")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path, default stdout")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("catalog", help="list or show reference circuits and states")
    cat_sub = p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p_list = cat_sub.add_parser("list", help="all catalog entries as CSV")
    p_list.add_argument("--out", help="output path, default stdout")
    p_list.set_defaults(func=cmd_catalog, action="list")
    p_show = cat_sub.add_parser("show", help="circuit text or amplitude table for one entry")
    p_show.add_argument("name")
    p_show.add_argument("--paper-order", action="store_true",
                        help="list gates right to left in matrix-product order")
    p_show.add_argument("--out", help="output path, default stdout")
    p_show.set_defaults(func=cmd_catalog, action="show")

    p = sub.add_parser("sweep", help="best fitness per circuit length")
    _add_ga_flags(p)
    p.add_argument("--lengths", required=True, help="comma-separated circuit lengths")
    p.add_argument("--target", help="early-stop fitness per length, a number or 'max'")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep, length=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"entangler: usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"entangler: usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except CircuitParseError as exc:
        print(f"entangler: circuit parse error: {exc}", file=sys.stderr)
        return EX_PARSE
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"entangler: error: {exc}", file=sys.stderr)
        return EX_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
