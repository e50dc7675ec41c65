"""Exception types shared across the package."""


class StoreError(Exception):
    """Base class for all errors raised by sparsecube."""


class InvalidCoordinateError(StoreError):
    """A coordinate vector does not match the schema."""


class InvalidPositionError(StoreError):
    """A logical position or stream position is out of range."""


class EmptyRelationError(StoreError):
    """The relation has no cells; nothing can be built from it."""


class IngestError(StoreError):
    """A delimited input file could not be parsed."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class OffsetOverflowError(StoreError):
    """A base+offset block contains an offset too large for the offset width."""

    def __init__(self, message: str, block: int):
        super().__init__(message)
        self.block = block


class FormatError(StoreError):
    """A persisted file is malformed: an unknown magic tag or version, a bad
    codebook, out-of-order header sequences, a failed index page check, a
    schema whose labels or measure width are not valid, or a parameter out
    of range, such as `diff_bits`."""


class CorruptStreamError(StoreError):
    """Encoded data cannot be decoded consistently."""
