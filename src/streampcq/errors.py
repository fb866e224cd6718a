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
