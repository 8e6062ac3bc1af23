"""Command-line front end wiring the pipeline together.

Subcommands cover the whole flow: extract measurement records from plain
or annotated text, aggregate records into partial tables, merge and
finalize them, then query, compare, evaluate, audit, split, and export
plot data. Exit codes: 0 success, 1 usage error, 2 data error.

This module only wires subcommands: the record stream that travels
between `extract` and `aggregate`, and the table files, are read and
written by `table`; `aggregate` writes what `table.aggregate` builds.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .distribution import DEFAULT_EXACT_CAP
from .errors import ConfigMismatchError, LocatedInputError, QuantdistError, replaced
from .evaluation import (
    detect_leakage,
    dimension_named,
    evaluate,
    load_dataset,
    make_clean_split,
    write_dataset,
)
from .inference import (
    TAU,
    compare_adjectives,
    compare_nouns,
    query_distribution,
    relax_hour_window,
    relax_to_decade,
)
from .pipeline import ExtractionConfig, Pos, read_annotated, read_plain
from .pipeline import extract_records as _extract_records
from .table import (
    BuildConfig,
    TableFile,
    aggregate,
    finalized_config,
    iter_entries,
    merged_config,
    record_line,
    stream_header,
    write_merged,
)
from .units import Dimension, Quantity, load_registry


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


# ------------------------------------------------------------ flag parsing


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _tau(raw: str) -> float:
    value = float(raw)
    if not value >= 1.0:  # written so that NaN fails too
        raise argparse.ArgumentTypeError("must be >= 1.0")
    return value


def _dimension(raw: str) -> Dimension:
    dimension = dimension_named(raw)
    if dimension is None:
        raise argparse.ArgumentTypeError(f"unknown dimension {raw!r}")
    return dimension


def _name(raw: str) -> str:
    if not raw.strip():
        raise argparse.ArgumentTypeError("must be a nonempty name")
    return raw


def _distance(raw: str):
    return None if raw == "sentence" else int(raw)


def _ratios(raw: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("ratios must be numbers")
    if len(parts) != 3 or not (all(p >= 0 for p in parts) and abs(sum(parts) - 1.0) <= 1e-9):
        raise argparse.ArgumentTypeError(
            "need three non-negative ratios summing to 1, e.g. 0.8,0.1,0.1"
        )
    return parts


def _add_registry_flags(p) -> None:
    p.add_argument("--units", help="unit lexicon TSV (default: QUANTDIST_UNITS or packaged)")
    p.add_argument("--rates", help="currency rate TSV (default: QUANTDIST_RATES or packaged)")


def _add_key_flags(p) -> None:
    p.add_argument("--object", required=True, type=_name, help="object surface form")
    p.add_argument("--dim", required=True, type=_dimension, help="measurement dimension")
    p.add_argument("--pos", choices=[x.name.lower() for x in Pos], default="unknown")
    p.add_argument("--head", default="", help="restrict to one syntactic head")


def _registry_for(args):
    units = getattr(args, "units", None) or os.environ.get("QUANTDIST_UNITS")
    rates = getattr(args, "rates", None) or os.environ.get("QUANTDIST_RATES")
    return load_registry(units, rates)


def _output(path):
    """The ``-o`` file, replaced only when the command succeeds, or stdout without one."""
    return replaced(path) if path else contextlib.nullcontext(sys.stdout)


# ------------------------------------------------------------ subcommands


def _cmd_extract(args) -> int:
    registry = _registry_for(args)
    config = ExtractionConfig(max_distance=args.distance)
    pinned = BuildConfig(registry.version, args.distance, args.min_phrase_count)
    with _output(args.output) as out:
        print(stream_header(pinned), file=out)
        for path in args.inputs:
            sentences = read_annotated(path) if args.annotated else read_plain(path)
            for sentence in sentences:
                for record in _extract_records(sentence, config, registry):
                    print(record_line(record), file=out)
    return 0


def _cmd_aggregate(args) -> int:
    aggregate(args.records, args.exact_cap).write(args.output)
    return 0


def _cmd_merge(args) -> int:
    """Stream the k-way merge of the tables' entries, so memory does not grow with them."""
    configs, inputs = zip(*map(iter_entries, args.tables))
    try:
        write_merged(merged_config(configs), inputs, args.output)
    except (OverflowError, ConfigMismatchError) as exc:
        raise QuantdistError(f"merging {', '.join(args.tables)}: {exc}") from None
    return 0


def _cmd_finalize(args) -> int:
    config, entries = iter_entries(args.table)
    write_merged(finalized_config(config, args.min_count), [entries], args.output)
    return 0


def _format_value(value: float) -> str:
    return f"{value:.6g}"


def _queried(args):
    """The entry that ``query`` and ``plot-export`` answer; a data error without one."""
    pos = Pos[args.pos.upper()]
    with TableFile(args.table) as table:
        dist = query_distribution(table, args.object, args.dim, pos, args.head.lower())
    if dist is None:
        raise LocatedInputError(
            f"no entry for {args.object.lower()!r} under {args.dim.name}", path=args.table
        )
    return dist


def _cmd_query(args) -> int:
    dist = _queried(args)
    stats = dist.stats()
    unit_label = args.dim.standard_unit
    if args.unit:
        registry = _registry_for(args)
        unit = registry.lookup_unit(args.unit, marker_present=True)
        if unit is None:
            raise QuantdistError(f"unknown unit {args.unit!r}")
        for field in ("median", "mean", "p5", "p95", "min", "max"):
            stats[field] = registry.denormalize(Quantity(args.dim, stats[field]), unit)
        unit_label = args.unit
    if args.dim is Dimension.TIME:
        window = relax_hour_window(stats["median"])
    else:
        try:
            window = relax_to_decade(stats["median"])
        except ValueError:
            window = None  # non-positive medians have no decade bracket
    if args.format == "records":
        for field in ("count", "median", "mean", "p5", "p95", "min", "max"):
            print(f"{field}\t{stats[field]!r}")
        if window is not None:
            print(f"range_low\t{window[0]!r}")
            print(f"range_high\t{window[1]!r}")
        print(f"unit\t{unit_label}")
    else:
        print(f"object: {args.object.lower()} (pos={args.pos.upper()})")
        print(f"dimension: {args.dim.name}")
        print(f"count: {stats['count']}")
        for field in ("median", "mean", "p5", "p95", "min", "max"):
            print(f"{field}: {_format_value(stats[field])} {unit_label}")
        if window is not None:
            print(f"range: {window[0]:g}-{window[1]:g} {unit_label}")
    return 0


def _cmd_compare(args) -> int:
    with TableFile(args.table) as table:
        if args.noun:
            label = compare_nouns(table, args.noun[0], args.noun[1], args.dim, args.tau)
        else:
            label = compare_adjectives(table, args.adj[0], args.adj[1], args.dim, args.tau)
    if label is None:
        raise LocatedInputError(
            f"no shared-head evidence for {args.adj[0]!r} vs {args.adj[1]!r} under {args.dim.name}",
            path=args.table,
        )
    print(label.value)
    return 0


def _cmd_eval(args) -> int:
    with TableFile(args.table) as table:
        report = evaluate(table, load_dataset(args.dataset), args.tau)
    if args.format == "records":
        for field in (
            "accuracy",
            "coverage",
            "majority_baseline",
            "scored",
            "skipped_not_comparable",
            "out_of_coverage",
        ):
            print(f"{field}\t{report[field]!r}")
        for scale, acc in report["per_dimension"].items():
            print(f"accuracy.{scale}\t{acc!r}")
    else:
        print(f"scored: {report['scored']}")
        print(f"accuracy: {report['accuracy']:.3f}")
        print(f"coverage: {report['coverage']:.3f}")
        print(f"majority baseline: {report['majority_baseline']:.3f}")
        for scale, acc in report["per_dimension"].items():
            print(f"accuracy[{scale}]: {acc:.3f}")
        print(f"not comparable: {report['skipped_not_comparable']}")
        print(f"out of coverage: {report['out_of_coverage']}")
    return 0


def _cmd_audit(args) -> int:
    train = load_dataset(args.train)
    eval_split = load_dataset(args.eval)
    report = detect_leakage(train, eval_split)
    if args.format == "records":
        for idx in sorted(report.transitive_flags):
            print(f"transitive\t{idx}")
        for idx in sorted(report.object_flags):
            print(f"object\t{idx}")
        print(f"rate.transitive\t{report.rates['transitive']!r}")
        print(f"rate.object\t{report.rates['object']!r}")
    else:
        n = len(eval_split)
        print(f"eval examples: {n}")
        print(
            f"transitive flags: {len(report.transitive_flags)} "
            f"({100.0 * report.rates['transitive']:.1f}%)"
        )
        print(
            f"object flags: {len(report.object_flags)} "
            f"({100.0 * report.rates['object']:.1f}%)"
        )
        if report.transitive_flags:
            flagged = " ".join(str(i) for i in sorted(report.transitive_flags))
            print(f"transitive rows: {flagged}")
        print(f"clean: {'yes' if report.clean else 'no'}")
    return 0


def _cmd_split(args) -> int:
    examples = load_dataset(args.dataset)
    try:
        train, dev, test = make_clean_split(examples, ratios=args.ratios, seed=args.seed)
    except QuantdistError as exc:  # no leakage-free split exists
        raise LocatedInputError(str(exc), path=args.dataset) from None
    for name, rows in (("train", train), ("dev", dev), ("test", test)):
        path = f"{args.output_prefix}.{name}.tsv"
        write_dataset(path, rows)
        print(f"{name}: {len(rows)} examples -> {path}")
    return 0


def _cmd_plot_export(args) -> int:
    dist = _queried(args)
    with _output(args.output) as out:
        print("#bucket_center\tdensity", file=out)
        for center, density in dist.density_points():
            print(f"{center!r}\t{density!r}", file=out)
    return 0


# ----------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="quantdist",
        description="Extract, aggregate, and query quantity distributions from text.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", help="corpus files to a measurement record stream")
    p.add_argument("inputs", nargs="+", help="plain text or annotated corpus files")
    p.add_argument("--annotated", action="store_true", help="inputs use the column format")
    p.add_argument(
        "--distance",
        type=_distance,
        choices=(None, 10, 3),
        default=None,
        metavar="{sentence,10,3}",
        help="co-occurrence window preset (default: sentence)",
    )
    p.add_argument("--min-phrase-count", type=_positive_int, default=BuildConfig.min_phrase_count)
    p.add_argument("-o", "--output", help="record stream path (default: stdout)")
    _add_registry_flags(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("aggregate", help="record streams to one partial table")
    p.add_argument("records", nargs="+", help="record stream files from extract")
    p.add_argument("--exact-cap", type=_positive_int, default=DEFAULT_EXACT_CAP)
    p.add_argument("-o", "--output", required=True, help="table path")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("merge", help="combine partial (or finalized) tables")
    p.add_argument("tables", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("finalize", help="apply count thresholds to a partial table")
    p.add_argument("table")
    p.add_argument("--min-count", type=_positive_int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_finalize)

    p = sub.add_parser("query", help="distribution stats for one object")
    p.add_argument("--table", required=True)
    _add_key_flags(p)
    p.add_argument("--unit", help="display unit (default: the standard unit)")
    p.add_argument("--format", choices=("text", "records"), default="text")
    _add_registry_flags(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("compare", help="order two objects or two modifiers")
    p.add_argument("--table", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--noun", nargs=2, type=_name, metavar=("OBJ1", "OBJ2"))
    group.add_argument("--adj", nargs=2, type=_name, metavar=("ADJ1", "ADJ2"))
    p.add_argument("--dim", required=True, type=_dimension)
    p.add_argument("--tau", type=_tau, default=TAU, help="equality ratio (default %(default)s)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("eval", help="score a comparison dataset against a table")
    p.add_argument("dataset")
    p.add_argument("--table", required=True)
    p.add_argument("--tau", type=_tau, default=TAU)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("audit", help="flag train-to-eval leakage")
    p.add_argument("train")
    p.add_argument("eval")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("split", help="rebuild leakage-free train/dev/test files")
    p.add_argument("dataset")
    p.add_argument("--output-prefix", required=True)
    p.add_argument("--ratios", type=_ratios, default=(0.8, 0.1, 0.1))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("plot-export", help="histogram points for density plots")
    p.add_argument("--table", required=True)
    _add_key_flags(p)
    p.add_argument("-o", "--output", help="default: stdout")
    p.set_defaults(func=_cmd_plot_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (None, 0) else 1
    try:
        return args.func(args)
    except (QuantdistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
