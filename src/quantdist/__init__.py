"""Quantity extraction, per-object value distributions, and comparison queries."""

from .distribution import Distribution
from .errors import (
    AnnotationFormatError,
    ConfigMismatchError,
    DatasetFormatError,
    DimensionMismatchError,
    LexiconError,
    QuantdistError,
    RecordFormatError,
    SplitInfeasibleError,
    TableFormatError,
)
from .evaluation import (
    ComparisonExample,
    LeakageReport,
    detect_leakage,
    evaluate,
    load_dataset,
    make_clean_split,
)
from .inference import (
    ComparisonLabel,
    CompareConfig,
    compare_adjectives,
    compare_nouns,
    query_distribution,
    relax_hour_window,
    relax_to_decade,
)
from .parser import Mention, scan_measurements, tokenize
from .pipeline import (
    AnnotatedSentence,
    CooccurrenceRecord,
    ExtractionConfig,
    ObjectKey,
    Pos,
    extract_records,
    read_annotated,
    split_sentences,
)
from .table import BuildConfig, QuantTable, read_table
from .units import Dimension, Quantity, UnitDef, UnitRegistry, load_registry

__version__ = "0.1.0"

__all__ = [
    "AnnotatedSentence",
    "AnnotationFormatError",
    "BuildConfig",
    "CompareConfig",
    "ComparisonExample",
    "ComparisonLabel",
    "ConfigMismatchError",
    "CooccurrenceRecord",
    "DatasetFormatError",
    "Dimension",
    "DimensionMismatchError",
    "Distribution",
    "ExtractionConfig",
    "LeakageReport",
    "LexiconError",
    "Mention",
    "ObjectKey",
    "Pos",
    "QuantTable",
    "QuantdistError",
    "Quantity",
    "RecordFormatError",
    "SplitInfeasibleError",
    "TableFormatError",
    "UnitDef",
    "UnitRegistry",
    "compare_adjectives",
    "compare_nouns",
    "detect_leakage",
    "evaluate",
    "extract_records",
    "load_dataset",
    "load_registry",
    "make_clean_split",
    "query_distribution",
    "read_annotated",
    "read_table",
    "relax_hour_window",
    "relax_to_decade",
    "scan_measurements",
    "split_sentences",
    "tokenize",
    "__version__",
]
