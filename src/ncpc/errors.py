"""Exception types shared across the codecs."""


class NcpcError(Exception):
    """Base class for library errors."""


class Underflow(NcpcError, ValueError):
    """Bit reader asked for more bits than the stream holds."""


class TruncatedStream(NcpcError, ValueError):
    """Encoded payload ended in the middle of a codeword."""


class NoSuchOccurrence(NcpcError, LookupError):
    """select() asked for a rank beyond the number of occurrences."""


class InvalidStream(NcpcError, ValueError):
    """Encoded payload holds a bit pattern that is no codeword's prefix."""


class KraftViolation(NcpcError, ValueError):
    """Codeword lengths do not satisfy the Kraft equality."""


class ContainerError(NcpcError, ValueError):
    """Malformed container bytes (bad magic, version, or model)."""


class InvalidCodeState(NcpcError, RuntimeError):
    """Decoder state left the code tree; the model is corrupt."""
