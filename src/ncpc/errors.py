"""Exception types shared across the codecs."""


class NcpcError(Exception):
    """Base class for library errors."""


class TruncatedStream(NcpcError, ValueError):
    """The stream ran short: a read or skip asked for more bits than
    remain, or the payload ended in the middle of a codeword."""


Underflow = TruncatedStream  # an older name, so `except Underflow` still catches short reads


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
