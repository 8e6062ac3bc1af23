"""Quantity extraction, per-object value distributions, and comparison queries."""

from .distribution import Distribution
from .errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    LocatedInputError,
    QuantdistError,
    SplitInfeasibleError,
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
    compare_adjectives,
    compare_nouns,
    query_distribution,
    relax_hour_window,
    relax_to_decade,
)
from .parser import Mention, scan_measurements, tokenize
from .pipeline import (
    AnnotatedSentence,
    ExtractionConfig,
    Pos,
    extract_records,
    read_annotated,
    read_plain,
    split_sentences,
)
from .table import BuildConfig, QuantTable, read_table
from .units import Dimension, Quantity, UnitDef, UnitRegistry, load_registry

__version__ = "0.1.0"

__all__ = [
    "AnnotatedSentence",
    "BuildConfig",
    "ComparisonExample",
    "ComparisonLabel",
    "ConfigMismatchError",
    "Dimension",
    "DimensionMismatchError",
    "Distribution",
    "ExtractionConfig",
    "LeakageReport",
    "LocatedInputError",
    "Mention",
    "Pos",
    "QuantTable",
    "QuantdistError",
    "Quantity",
    "SplitInfeasibleError",
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
    "read_plain",
    "read_table",
    "relax_hour_window",
    "relax_to_decade",
    "scan_measurements",
    "split_sentences",
    "tokenize",
    "__version__",
]
