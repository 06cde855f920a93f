"""Exception taxonomy shared across the triage engine.

A class is kept only where some code catches it by type; every other piece
of bad input raises `InputError` itself."""


class InputError(Exception):
    """Malformed, out-of-range or insufficient input. The message names the
    file and line, or the config key; the command line exits 3 on it."""


class NonFiniteScores(InputError):
    """The policy's scores for a warning are not finite: its weights overflow."""


class HarnessError(Exception):
    """No harness can be generated for the warning: its bug pattern has no
    template, or no callable entry point or template binding is found."""


class IllegalAction(Exception):
    """An action was requested in a state where it is not legal."""
