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
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone

from . import __version__
from .catalog import NamedEntry, catalog_entries, lookup
from .entanglement import _check_scored, entanglement_trace, max_entanglement_bound, total_entanglement
from .evolve import MAX_WORKERS, GAConfig, _pool_size, evolve, length_sweep
from .qsim import (
    MAX_QUBITS,
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

_VALIDATE_TOL = 1e-10

# Largest qubit count --validate takes: its eigen path diagonalises a dense
# 2^n x 2^n matrix per cut, 7 s in all at n = 9 and 95 s at n = 10 (2-vCPU
# host, one BLAS thread), about ten times more per further qubit.
MAX_VALIDATED_QUBITS = 9

# Most cut rescorings trace takes on, counted as 2^(n-2) per two-qubit gate:
# a two-qubit gate scores at most 2^(k-2) cuts of its k-qubit component's
# 2^k amplitudes, k <= n, and sets the rest of the cuts it changes by the
# product rule.  A whole-state cut takes about 0.43 ms at n = 12 (2-vCPU
# Xeon host), so the cap is about one minute of work.  A larger circuit
# exits 64 unscored.
MAX_TRACE_CUTS = 1 << 17

# Largest --circuit file read, in bytes.  A larger one is refused before any
# more of it is read, so no circuit file can exhaust memory.
MAX_INPUT_BYTES = 1 << 20

# Every GA option once, dest -> (type, GAConfig field, help).  The table makes
# the evolve/sweep flags, the only source of GA settings; a flag left unset
# takes GAConfig's default, and --qubits and --length have none.
_GA_OPTIONS = {
    "qubits": (int, "n", f"number of qubits, 2 to {MAX_QUBITS}"),
    "gates": (str, "families", f"comma-separated gate families, default {','.join(GAConfig.families)}"),
    "pop": (int, "population_size", "population size"),
    "gens": (int, "max_generations", "generation budget"),
    "seed": (int, "rng_seed", f"RNG seed, default {GAConfig.rng_seed}"),
    "mutation_rate": (float, "per_gene_mutation_rate", "per-gene mutation rate, default 1/length"),
    "crossover_rate": (float, "crossover_rate", f"crossover rate, default {GAConfig.crossover_rate}"),
    "tournament": (int, "tournament_size", "tournament size"),
    "elite": (int, "elite_count", "elites carried over unchanged"),
    "length": (int, "circuit_length", "circuit length (chromosome length)"),
    "target": (str, "target_fitness", "early-stop fitness, a number or 'max'"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64 and takes no
    abbreviated flag: with prefix matching, sweep's --length would be read
    as --lengths.  Every parser and subparser is one of these."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(args, record: dict | None, header: list[str] | None, rows, text: str | None = None) -> None:
    """Write one result in its --format to --out or stdout, the same bytes
    either way.  Commands without --format write the text when given, else CSV.
    A JSON record opens with the command and the package version."""
    fmt = getattr(args, "format", "csv" if text is None else "text")
    if fmt == "json":
        record = {"command": args.subcommand, "version": __version__, **record}
        body = json.dumps(_round_floats(record), indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
        body = buf.getvalue()
    else:
        body = text
    if not body.endswith("\n"):
        body += "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(body)
    else:
        with open(args.out, "w") as fh:
            fh.write(body)


def _as_dicts(header: list[str], rows) -> list[dict]:
    """The JSON form of CSV rows: one object per row, keyed by the header."""
    return [dict(zip(header, row)) for row in rows]


def _amplitude_rows(state: StateVector) -> list[list]:
    return [[k, format(k, f"0{state.n}b"), float(a.real), float(a.imag)] for k, a in enumerate(state.amplitudes)]


def _catalog_entry(name: str) -> NamedEntry:
    try:
        return lookup(name)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0])) from None


def _read_input(path: str) -> str:
    """A --circuit file's text, read as UTF-8 on any host (a leading BOM skipped), if readable and small."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
        if len(data) <= MAX_INPUT_BYTES:
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    raise _UsageError(f"{path} is larger than {MAX_INPUT_BYTES} bytes")


def _build_ga_config(args) -> GAConfig:
    """GAConfig from the _GA_OPTIONS flags.

    Also refuses a --workers count that evolve() would refuse, before any run.
    """
    fields = {field: getattr(args, key) for key, (_kind, field, _help) in _GA_OPTIONS.items()}
    if fields["families"] is not None:
        fields["families"] = tuple(f.strip() for f in fields["families"].split(",") if f.strip())
    target = fields["target_fitness"]
    if target is not None:
        try:
            fields["target_fitness"] = None if target.lower() == "max" else float(target)
        except ValueError:
            raise _UsageError(f"--target must be a number or 'max', got {target!r}") from None
    try:
        config = GAConfig(**{field: v for field, v in fields.items() if v is not None})
        _pool_size(args.workers, config.population_size)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if target is not None and target.lower() == "max":
        # From the checked qubit count: the bound of an unchecked one can overflow.
        config = replace(config, target_fitness=max_entanglement_bound(config.n))
    return config


def cmd_evolve(args) -> int:
    config = _build_ga_config(args)
    started = _utc_now()
    result = evolve(config, workers=args.workers)
    finished = _utc_now()

    final_state = run_circuit(result.best_circuit, zero_state(config.n))
    record = {
        "started": started,
        "finished": finished,
        "config": config.to_dict(),
        # The processes evolve() started, 1 for a serial run.
        "workers": _pool_size(args.workers, config.population_size) or 1,
        "result": {
            **result.to_dict(),
            "per_cut": total_entanglement(final_state).to_dict()["per_cut"],
            "nonzero_coefficients": nonzero_coefficient_count(final_state),
        },
    }
    rows = [[g, b, m] for g, (b, m) in enumerate(zip(result.best_history, result.mean_history))]
    _emit(args, record, ["generation", "best", "mean"], rows)
    target = config.target_fitness
    return EX_OK if target is None or result.reached(target) else EX_BUDGET


def _load_subject(args) -> tuple[str, Circuit | StateVector]:
    """Resolve --circuit/--catalog into (label, circuit or state), unsimulated."""
    if (args.circuit is None) == (args.catalog is None):
        raise _UsageError("pass exactly one of --circuit or --catalog")
    if args.catalog is not None:
        if args.qubits is not None:
            raise _UsageError("--qubits applies only to --circuit; a catalog entry has its own qubit count")
        entry = _catalog_entry(args.catalog)
        return entry.name, entry.payload
    text = _read_input(args.circuit)
    # Separators alone are an empty circuit too, whose qubit count only --qubits gives.
    if not text.replace(";", "").strip() and args.qubits is None:
        raise _UsageError(f"{args.circuit} holds an empty circuit; pass --qubits")
    circuit = parse_circuit(text) if args.qubits is None else None
    try:
        # A given --qubits is checked before parse_circuit checks the labels against it.
        _check_scored(args.qubits if circuit is None else circuit.n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return args.circuit, circuit or parse_circuit(text, n=args.qubits)


def _validated_report(state: StateVector):
    """Eigenvalue-path report, cross-checked cut by cut against the schmidt path."""
    if state.n > MAX_VALIDATED_QUBITS:
        raise _UsageError(f"--validate is capped at {MAX_VALIDATED_QUBITS} qubits, got n={state.n}")
    report = total_entanglement(state, method="eigen")
    for slow, fast in zip(report.per_cut, total_entanglement(state).per_cut):
        if abs(fast.contribution - slow.contribution) > _VALIDATE_TOL:
            raise RuntimeError(
                f"path disagreement on cut {slow.cut}: "
                f"schmidt {fast.contribution!r} vs eigen {slow.contribution!r}")
    return report


def cmd_evaluate(args) -> int:
    label, subject = _load_subject(args)
    circuit_text = format_circuit(subject) if isinstance(subject, Circuit) else None
    state = subject if circuit_text is None else run_circuit(subject, zero_state(subject.n))
    report = _validated_report(state) if args.validate else total_entanglement(state)
    record = {
        "subject": label,
        "circuit": circuit_text,
        **report.to_dict(),
        "nonzero_coefficients": nonzero_coefficient_count(state),
    }
    rows = [list(cut.values()) for cut in record["per_cut"]]
    lines = [f"subject: {label}"]
    if circuit_text is not None:
        lines.append(f"circuit: {circuit_text}")
    lines.append(f"total entanglement: {report.total:.12g}")
    lines.append(f"nonzero coefficients: {record['nonzero_coefficients']}")
    lines.append("per-cut contributions (mask size value):")
    lines += [f"  {mask:>4d}  {size}  {value:.12g}" for mask, size, value in rows]
    if args.state:
        record["amplitudes"] = _amplitude_rows(state)
        lines.append("amplitudes (index bitstring real imag):")
        lines += [f"  {k:>4d}  {bits}  {re:+.12g}  {im:+.12g}"
                  for k, bits, re, im in record["amplitudes"] if abs(complex(re, im)) > 1e-12]
    _emit(args, record, ["cut_mask", "size", "contribution"], rows, "\n".join(lines))
    return EX_OK


def cmd_trace(args) -> int:
    label, circuit = _load_subject(args)
    if not isinstance(circuit, Circuit):
        raise _UsageError(f"{label} is a state; trace needs a circuit")
    cuts = sum(len(gate.args) == 2 for gate in circuit.gates) << (circuit.n - 2)
    if cuts > MAX_TRACE_CUTS:
        raise _UsageError(f"trace is capped at {MAX_TRACE_CUTS} cut rescorings, "
                          f"and {label} would take {cuts}")
    header = ["step", "gate", "total"]
    rows = [[step, "" if step == 0 else str(circuit.gates[step - 1]), value]
            for step, value in entanglement_trace(circuit)]
    record = {
        "subject": label,
        "circuit": format_circuit(circuit),
        "steps": _as_dicts(header, rows),
    }
    _emit(args, record, header, rows)
    return EX_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = [[entry.name, entry.kind, entry.payload.n,
                 len(entry.payload.gates) if entry.kind == "circuit" else "",
                 "" if entry.expected_total is None else entry.expected_total, entry.source]
                for entry in catalog_entries()]
        _emit(args, None, ["name", "kind", "qubits", "gates", "expected_total", "source"], rows)
        return EX_OK
    entry = _catalog_entry(args.name)
    if entry.kind == "circuit":
        _emit(args, None, None, None, format_circuit(entry.payload, paper_order=args.paper_order))
    else:
        _emit(args, None, ["index", "bitstring", "real", "imag"], _amplitude_rows(entry.payload))
    return EX_OK


def cmd_sweep(args) -> int:
    config = _build_ga_config(args)
    try:
        lengths = [int(v) for v in args.lengths.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    started = _utc_now()
    try:
        rows = length_sweep(config, lengths, workers=args.workers)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    finished = _utc_now()
    header = ["length", "best_fitness"]
    record = {
        "started": started,
        "finished": finished,
        # The settings every run shares: each run's length is in "lengths", and
        # a null mutation rate means 1/length for each.
        "config": {key: value for key, value in asdict(config).items() if key != "circuit_length"},
        "lengths": lengths,
        "results": _as_dicts(header, rows),
    }
    _emit(args, record, header, rows)
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entangler", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"entangler {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path, default stdout")
    subject = argparse.ArgumentParser(add_help=False)
    subject.add_argument("--circuit", help="path to a .qc circuit file")
    subject.add_argument("--catalog", help="catalog name, e.g. psi6a or circuit_ghz3")
    subject.add_argument("--qubits", type=int, help="qubit count override for circuit files")

    evolve_p = sub.add_parser("evolve", parents=[out], help="run the genetic search")
    evolve_p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("evaluate", parents=[subject, out], help="score a circuit file or catalog entry")
    p.add_argument("--validate", action="store_true",
                   help="use the eigenvalue path and cross-check the fast path")
    p.add_argument("--state", action="store_true", help="also dump the amplitudes")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("trace", parents=[subject, out], help="entanglement after each gate of a circuit")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("catalog", help="list or show reference circuits and states")
    cat_sub = p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = cat_sub.add_parser("list", parents=[out], help="all catalog entries as CSV")
    p.set_defaults(func=cmd_catalog)
    p = cat_sub.add_parser("show", parents=[out], help="circuit text or amplitude table for one entry")
    p.add_argument("name")
    p.add_argument("--paper-order", action="store_true",
                   help="list gates right to left in matrix-product order")
    p.set_defaults(func=cmd_catalog)

    sweep_p = sub.add_parser("sweep", parents=[out], help="best fitness per circuit length")
    sweep_p.add_argument("--lengths", required=True, help="comma-separated circuit lengths")
    # length_sweep sets each run's length; the base config is built with a placeholder.
    sweep_p.set_defaults(func=cmd_sweep, length=1)

    for p, formats in ((evolve_p, ("json", "csv")), (sweep_p, ("csv", "json"))):
        for dest, (kind, _field, text) in _GA_OPTIONS.items():
            if not (p is sweep_p and dest == "length"):
                p.add_argument("--" + dest.replace("_", "-"), type=kind, help=text,
                               required=dest in ("qubits", "length"))
        p.add_argument("--workers", type=int, default=1,
                       help=f"parallel fitness workers, at most {MAX_WORKERS}; no more processes start "
                            "than there are individuals or usable CPUs; does not change results")
        p.add_argument("--format", choices=formats, default=formats[0])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
