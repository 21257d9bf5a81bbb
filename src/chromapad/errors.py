"""Exception types shared across the package."""


class ChromapadError(ValueError):
    """Base class for all validation and data errors raised by this package."""


class ShapeError(ChromapadError):
    """Operand shapes or extents are inconsistent with an operation's contract."""


class ConfigError(ChromapadError):
    """A configuration value violates a structural constraint."""


class SpaceError(ChromapadError):
    """An image arrived in the wrong color space."""


class PpmParseError(ChromapadError):
    """Malformed PPM input; ``offset`` is the byte position of the problem
    and ``reason`` the message without it."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.reason = message
        self.offset = offset


class QuantizationError(ChromapadError):
    """A tensor cannot be quantized (empty or non-finite)."""


class ScoreCsvError(ChromapadError):
    """Malformed score CSV; ``line`` is the 1-based offending line number."""

    def __init__(self, message, line):
        super().__init__(f"{message} (line {line})")
        self.line = line


class WeightFileError(ChromapadError):
    """Malformed or inconsistent weight file content."""
