"""Shared exception types."""


class ParameterError(ValueError):
    """Inadmissible or malformed construction parameters."""


class InvariantViolation(RuntimeError):
    """A structural property that must hold by construction failed.

    Always indicates a bug or corrupt data, never a math failure.  Every
    raise site names its pipeline stage, so `stage` is required.
    """

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage
