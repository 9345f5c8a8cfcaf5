"""qreplica: dense state-vector simulation of basis cloning, conditional
dynamics, programmable gate tapes, and self-replicating automata, with the
checks that certify every advertised property."""

from .approx import (
    ApproxResult,
    GateSet,
    best_approximation,
    default_gate_set,
)
from .automaton import (
    Automaton,
    ProgramRegistry,
    automaton_overlap,
    demo_automaton,
    demo_registry,
    encode_tape,
    program_state,
    replicate,
    scattering_apply,
    translate,
)
from .basis_ops import (
    ControlledOperator,
    apply_controlled,
    cloner,
    conditional_dynamics,
    cyclic_shift,
    densify,
    shift_power,
)
from .errors import (
    CapacityError,
    ContractError,
    CorruptedHeredityError,
    InputError,
    IntegrityError,
    QReplicaError,
    ReplicationIntegrityError,
    UndecodableProgramError,
)
from .linalg import (
    Operator,
    StateVector,
    apply,
    basis_state,
    fidelity,
    identity,
    phase_invariant_distance,
    random_state,
    random_unitary,
    tensor_state,
)
from .tape import (
    Tape,
    joint_tape_evolution,
    parse_tape,
    format_tape,
    replicate_tape,
    run_tape,
    tape_to_state,
)

__version__ = "0.1.0"
