"""Definite-particle-number states in passive linear optics.

Simulation of boson/fermion Fock states through beam-splitter circuits,
classification of states reducible to a single mode, construction of
Bell-violating experiments for everything else, and a local hidden-variable
Monte Carlo that reproduces the statistics of the reducible class.
"""

from .bell import (
    BellTestResult,
    TwoQubitState,
    WitnessExperiment,
    chsh_max,
    find_witness,
    replay_witness,
    two_mode_preparations,
    witness_from_dict,
    witness_to_dict,
    yurke_stoler_postselect,
)
from .circuits import (
    BeamSplitter,
    Circuit,
    Detector,
    PhaseShifter,
    Swap,
    circuit_from_dict,
    circuit_to_dict,
    detector_statistics,
    hadamard,
    load_circuit,
    reck_decompose,
    run_circuit,
    save_circuit,
    yurke_stoler_circuit,
)
from .classify import (
    Classification,
    is_single_mode_type,
    single_mode_state,
)
from .errors import (
    DegenerateAmplitude,
    FockoptError,
    InvalidCircuit,
    InvalidFile,
    InvalidOccupation,
    InvalidParameter,
    NotUnitary,
    ShapeMismatch,
    ZeroOutcome,
    ZeroState,
)
from .lhv import (
    ComparisonReport,
    EpistemicSpec,
    LhvRunResult,
    compare_lhv_quantum,
    run_lhv_experiment,
)
from .states import (
    BOSON,
    FERMION,
    FockState,
    Statistics,
    apply_mode_unitary,
    embed,
    herald,
    load_state,
    make_number_state,
    save_state,
    state_from_dict,
    state_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
