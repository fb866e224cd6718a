"""Exception hierarchy shared across the toolkit."""


class StreamPcqError(Exception):
    """Base class for all toolkit errors."""


# --- bitstream ---

class EmptyInput(StreamPcqError):
    pass


class TruncatedUnit(StreamPcqError):
    pass


class BitstreamExhausted(StreamPcqError):
    def __init__(self, field=None):
        self.field = field
        super().__init__(f"bitstream exhausted while reading {field!r}" if field
                         else "bitstream exhausted")


class MissingField(StreamPcqError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"required field {name!r} not found in stream or sidecar")


class ZeroPointCount(StreamPcqError):
    pass


class UnrepresentableField(StreamPcqError):
    pass


class InvalidFeature(StreamPcqError, ValueError):
    """A feature tuple no stream can carry (non-finite pqs, negative texture bits)."""


class InvalidSidecar(StreamPcqError, ValueError):
    """A sidecar file that is not one JSON object, or a sidecar value of the
    wrong kind; `field` names the value."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message)


# --- schema and parameter files ---

class InvalidSchema(StreamPcqError, ValueError):
    pass


class InvalidParams(StreamPcqError, ValueError):
    pass


# --- tables and options ---

class InvalidInput(StreamPcqError, ValueError):
    """A CSV table without a column it needs, with a cell that is not a
    finite value of its column's kind or with too few rows (the message names
    the file, line and column), or an option value out of range."""


# --- point cloud ---

class UnsupportedPly(StreamPcqError):
    pass


class MalformedHeader(StreamPcqError):
    pass


class NoEligibleBlocks(StreamPcqError):
    pass


# --- model ---

class NonPositivePqs(StreamPcqError):
    pass


# --- calibration / statistics ---

class DegenerateDesign(StreamPcqError):
    pass


class ZeroVariance(StreamPcqError):
    pass


class ZeroVarianceSubject(StreamPcqError):
    def __init__(self, subject_id):
        self.subject_id = subject_id
        super().__init__(f"subject {subject_id!r} has zero rating variance")


class DegenerateRange(StreamPcqError):
    pass
