"""Exception types shared across the package, the one reader of located lines, and the
one writer that replaces an output file only once it is complete."""

import contextlib
import os
import tempfile


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


class LocatedLines:
    """Decoded lines of a file, read in a ``with`` block that locates their data errors.

    Tables, record streams, corpora and datasets are read through it. Each line is
    decoded as UTF-8 on its own, without ``\\r\\n``; on exit a ValueError (UnicodeDecodeError
    too) or OverflowError becomes ``error(message, line_number, path)``. ``line_number``
    is the line last read, which a reader may move, or 0 (no line) before the first.
    Lexicons are not read here: ``units._parse_rows`` parses bytes already in memory,
    because the registry digest hashes them, and also locates a UnitDef's LexiconError.
    """

    def __init__(self, path, error):
        self.path = path
        self.error = error
        self.line_number = 0

    def __enter__(self):
        self._file = open(self.path, "rb")
        return self

    def __iter__(self):
        for self.line_number, raw in enumerate(self._file, self.line_number + 1):
            yield raw.decode("utf-8").rstrip("\r\n")

    def __exit__(self, kind, exc, traceback):
        self._file.close()
        if isinstance(exc, (ValueError, OverflowError)):
            raise self.error(str(exc), self.line_number or None, str(self.path)) from None


@contextlib.contextmanager
def replaced(path, mode="w"):
    """A file, opened in ``mode`` (text is UTF-8), that replaces ``path`` when the block ends.

    It is written beside ``path`` under a temporary name, so an error in the block
    leaves ``path`` as it was and no other file, and ``path`` may name an input.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, temp = tempfile.mkstemp(dir=directory, prefix=f".{os.path.basename(path)}.")
    except OSError as exc:  # say which output could not be written, not the temporary name
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as out:
            yield out
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp, 0o666 & ~umask)  # the mode ``open(path, "w")`` would give
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


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
