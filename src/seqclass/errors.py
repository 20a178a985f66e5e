"""Exception hierarchy.

Three top-level families map onto the CLI exit codes: configuration
problems (exit 2), data problems (exit 3), and numerical failures
(exit 4).
"""


class SeqclassError(Exception):
    """Base class for all library errors."""


class ConfigError(SeqclassError):
    """Invalid configuration or parameters (CLI exit code 2)."""


class DataError(SeqclassError):
    """Invalid or inconsistent input data (CLI exit code 3)."""


class NumericalError(SeqclassError):
    """Numerical failure during fitting (CLI exit code 4)."""


# --- data errors -----------------------------------------------------------

class MalformedFasta(DataError):
    pass


class InvalidResidue(DataError):
    def __init__(self, seq_id, position, char):
        self.seq_id = seq_id
        self.position = position  # 1-based
        self.char = char
        super().__init__(
            f"invalid residue {char!r} at position {position} in sequence {seq_id!r}"
        )


class DuplicateMetadataKey(DataError):
    pass


class EmptyJoin(DataError):
    pass


class ClassTooSmall(DataError):
    pass


class SequenceTooShort(DataError):
    pass


class LengthMismatch(DataError):
    pass


class EmptyCorpus(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class EmptyTrainingSet(DataError):
    pass


class DegenerateLabels(DataError):
    pass


class LabelOutOfRange(DataError):
    pass


class EmptyMatrix(DataError):
    pass


class DegenerateClass(DataError):
    pass


class EmptyRuns(DataError):
    pass


class NotNormalized(DataError):
    pass


class RaggedLengths(DataError):
    pass


class SingleClass(DataError):
    pass


class IoFailure(DataError):
    pass


# --- config errors ---------------------------------------------------------

class InvalidDimension(ConfigError):
    pass


class InvalidGamma(ConfigError):
    pass


class InvalidConfig(ConfigError):
    pass


# --- numerical errors ------------------------------------------------------

class NonFiniteLoss(NumericalError):
    pass
