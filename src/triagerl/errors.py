"""Exception taxonomy shared across the triage engine."""


class TriageError(Exception):
    """Base class for all engine-raised errors."""


class InputError(TriageError):
    """Malformed, out-of-range or insufficient input. The message names the
    file and line, or the config key; the command line exits 3 on it."""


class SchemaError(InputError):
    """A report object is missing a field, has a mistyped field, or carries
    an unknown key. The message names the offending field and array index."""


class UnlabeledRecordError(InputError):
    """A split was requested over records that lack ground-truth labels."""


class RatioError(InputError):
    """Split ratios are malformed (wrong count, nonpositive, or not summing to 1)."""


class DigestMismatch(InputError):
    """A feature vector, sidecar, or checkpoint refers to a different manifest."""


class SnippetTooLarge(InputError):
    """Refusal to featurize a code snippet above the size cap."""


class FeatureValidationError(InputError):
    """A feature vector violates manifest invariants (NaN, flag/ratio range, length)."""


class EmptyTrainSet(InputError):
    """Normalizer fitting needs at least two training vectors."""


class LengthMismatch(InputError):
    """Feature rows and warnings disagree in number."""


class IllegalAction(TriageError):
    """An action was requested in a state where it is not legal."""


class DimensionMismatch(TriageError):
    """Network parameters and input state disagree on dimensions."""


class NonFiniteLoss(InputError):
    """A PPO update produced a non-finite loss, so training diverged under the
    hyperparameters and reward constants given; the update is aborted."""


class NonFiniteScores(InputError):
    """The policy's scores for a warning are not finite: its weights overflow."""


class EmptySplit(InputError):
    """A required dataset split has no records."""


class UnknownPattern(TriageError):
    """No harness template exists for the warning's bug pattern."""


class UnresolvableTarget(TriageError):
    """No callable entry point could be extracted from the warning."""


class MissingRecording(InputError):
    """The recorded-outcomes file has no entry for the requested warning id."""


class EmptyInput(InputError):
    """An operation that needs at least one element received none."""
