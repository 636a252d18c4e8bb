"""Exception types shared across the toolkit."""


class FormatError(ValueError):
    """Input file is structurally unusable (missing columns, empty, bad row in strict mode)."""


class MissingPredictionsError(ValueError):
    """Truth hashes without predictions (or predictions that resolve to no truth)."""

    def __init__(self, message: str, hashes: tuple[str, ...] = ()):
        super().__init__(message)
        self.hashes = hashes
