#!/usr/bin/env python3
"""Record every workload's reference outputs for the default and held-out seeds.

    python3 perfbench/record.py

Writes references.json beside this file.  Run it only on a commit whose
outputs are known to be right: later runs on these seeds must reproduce them.
"""
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs the package on the path)

DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def zero_sizes(workload, outputs: dict) -> list[int]:
    """Qubit counts whose scored circuits all total 0: such a set checks the scorer on no entangled state."""
    if not isinstance(workload, workloads.ScoreTraceWorkload):
        return []
    entangled: dict[int, bool] = {}
    for key, output in outputs.items():
        n = workload.circuits[key.split(":", 1)[1]].n
        entangled[n] = entangled.get(n, False) or output["total"] > workloads.TOL
    return sorted(n for n, any_entangled in entangled.items() if not any_entangled)


def main() -> int:
    recorded = {}
    for name in workloads.WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            workload = workloads.make(name, seed)
            outputs = {}
            for call in workload.job():
                outcome = call.run()
                problems = workload.check(call.key, outcome, None)
                if problems:
                    print(f"{name} seed {seed} {call.key}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                outputs[call.key] = workload.record(outcome)
            unentangled = zero_sizes(workload, outputs)
            if unentangled:
                print(f"{name} seed {seed}: every total is 0 at n = {unentangled}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = {
                "inputs": workload.describe_inputs(), "outputs": outputs}
            print(f"recorded {name} seed {seed}: {len(outputs)} outputs")
    document = {"git_sha": run.git_sha(),
                "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
                "workloads": recorded}
    run.REFERENCES.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
