"""Quantity extraction, per-object value distributions, and comparison queries.

Importing the package loads none of its layers: each public name, and each
submodule, is imported on first access (PEP 562), so a command loads only the
layers it runs.
"""

import importlib

# the module that defines each public name
_EXPORTS = {
    "distribution": ("Distribution",),
    "errors": ("ConfigMismatchError", "DimensionMismatchError", "LocatedInputError",
               "QuantdistError", "SplitInfeasibleError"),
    "evaluation": ("ComparisonExample", "LeakageReport", "detect_leakage", "evaluate",
                   "load_dataset", "make_clean_split"),
    "inference": ("ComparisonLabel", "compare_adjectives", "compare_nouns", "query_distribution",
                  "relax_hour_window", "relax_to_decade"),
    "kinds": ("Dimension", "Pos"),
    "parser": ("Mention", "scan_measurements", "tokenize"),
    "pipeline": ("AnnotatedSentence", "ExtractionConfig", "extract_records", "read_annotated",
                 "read_plain", "split_sentences"),
    "table": ("BuildConfig", "QuantTable", "read_table"),
    "units": ("Quantity", "UnitDef", "UnitRegistry", "load_registry"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

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


def __getattr__(name: str):
    """A public name or a submodule; an import failing inside a submodule propagates."""
    module = _HOMES.get(name, name)
    try:
        found = importlib.import_module(f"{__name__}.{module}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{module}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return found if module == name else getattr(found, name)


def __dir__():
    return sorted({*globals(), *__all__})
