"""Exception types shared across the package.

Only the classes a caller tells apart have a type of their own: the CLI
maps `TrainingError` and `InferenceError` to exit code 3 and any other
`AirbenchError` to 2, and the leaderboard reader skips a line that raises
`FormatError`.
"""


class AirbenchError(Exception):
    """Base class for all airbench errors, and the error for invalid input of any kind."""


class FormatError(AirbenchError):
    """An on-disk file is missing, malformed, or inconsistent with its manifest."""


class TrainingError(AirbenchError):
    """A training command failed (nonzero exit status)."""


class InferenceError(AirbenchError):
    """A predictor failed to produce usable predictions."""
