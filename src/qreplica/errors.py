"""Exception hierarchy with the CLI exit-code mapping attached.

Exit codes: 0 success, 2 contract or input errors, 3 integrity errors
(a certified protocol step failed its own verification).
"""


class QReplicaError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ContractError(QReplicaError):
    """An operation was invoked outside its contract (bad dimensions,

    non-unitary input where unitarity is required, invalid parameters).
    """


class CapacityError(ContractError):
    """A construction would exceed the configured amplitude budget (MAX_DIM)."""


class InputError(QReplicaError):
    """Malformed external input: bad JSON, bad tape text, unknown fields."""


class IntegrityError(QReplicaError):
    """A self-certifying protocol step failed verification."""

    exit_code = 3


class ReplicationIntegrityError(IntegrityError):
    """A tape symbol's certified copy fell below the required fidelity floor."""


class CorruptedHeredityError(IntegrityError):
    """A child's registry, decoded from its own tape, differs from its parent's."""


class UndecodableProgramError(ContractError):
    """A program state or tape cannot be decoded under the given registry."""
