"""Exception types shared across the package."""


class QuantdistError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QuantdistError):
    """Raised when an operation mixes quantities of different dimensions."""


class LocatedInputError(QuantdistError):
    """Malformed input at a known place; the message leads with ``path:line: ``.

    Either part may be missing: ``path: `` names a whole file, and no
    prefix at all means input with no file behind it.
    """

    def __init__(self, message, line_number=None, path=None):
        self.line_number = line_number
        self.path = path
        where = ":".join(str(part) for part in (path, line_number) if part is not None)
        super().__init__(f"{where}: {message}" if where else message)


class LexiconError(LocatedInputError):
    """Raised when a unit lexicon or currency rate file is malformed."""


class CorpusFormatError(LocatedInputError):
    """Raised on malformed plain or annotated corpus input; carries the line number."""


class TableFormatError(LocatedInputError):
    """Raised when a serialized distribution table cannot be read back."""


class RecordFormatError(LocatedInputError):
    """Raised on malformed extraction-record streams; carries the line number."""


class ConfigMismatchError(QuantdistError):
    """Raised when tables built under incompatible configurations are merged."""


class DatasetFormatError(LocatedInputError):
    """Raised on malformed comparison-dataset rows; carries the line number."""


class SplitInfeasibleError(QuantdistError):
    """Raised when a leakage-free split cannot be constructed."""
