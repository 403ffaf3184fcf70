"""Evolving quantum circuits for maximally entangled multi-qubit states.

The package simulates elementary-gate circuits on n-qubit pure states,
scores states by summed negativity over all inequivalent bipartite cuts,
and runs a genetic algorithm over integer-encoded circuits to find highly
entangling gate sequences.
"""

from .catalog import (
    NamedEntry,
    catalog_entries,
    catalog_names,
    ghz_circuit,
    ghz_state,
    named_circuit,
    named_state,
    permute_qubits,
)
from .entanglement import (
    Cut,
    CutReport,
    EntanglementReport,
    cut_negativity,
    entanglement_trace,
    enumerate_cuts,
    hermitian_eigenvalues,
    max_entanglement_bound,
    partial_transpose_spectrum,
    total_entanglement,
)
from .evolve import (
    Chromosome,
    EvolutionResult,
    GAConfig,
    GateSet,
    build_gate_set,
    decode,
    encode,
    evolve,
    fitness,
    length_sweep,
)
from .qsim import (
    Circuit,
    CircuitParseError,
    GateSpec,
    StateVector,
    allclose_up_to_phase,
    apply_gate,
    format_circuit,
    nonzero_coefficient_count,
    parse_circuit,
    run_circuit,
    zero_state,
)

__version__ = "0.1.0"
