"""Exception types shared across the package."""


class QuantdistError(Exception):
    """Base class for all package errors."""


class LexiconError(QuantdistError):
    """Raised when a unit lexicon or currency rate file is malformed."""


class DimensionMismatchError(QuantdistError):
    """Raised when an operation mixes quantities of different dimensions."""


class LocatedInputError(QuantdistError):
    """Malformed input at a known place; the message leads with ``path:line: ``."""

    def __init__(self, message, line_number=None, path=None):
        self.line_number = line_number
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}:"
        if line_number is not None:
            where += f"{line_number}: "
        super().__init__(where + message)


class AnnotationFormatError(LocatedInputError):
    """Raised on malformed annotated-corpus input; carries the line number."""


class TableFormatError(QuantdistError):
    """Raised when a serialized distribution table cannot be read back."""


class RecordFormatError(LocatedInputError):
    """Raised on malformed extraction-record streams; carries the line number."""


class ConfigMismatchError(QuantdistError):
    """Raised when tables built under incompatible configurations are merged."""


class DatasetFormatError(LocatedInputError):
    """Raised on malformed comparison-dataset rows; carries the line number."""


class SplitInfeasibleError(QuantdistError):
    """Raised when a leakage-free split cannot be constructed."""
