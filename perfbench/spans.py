"""In-memory spans and counters recorded around the program's public functions.

``Tracer.install`` replaces attributes of the program's modules and
classes with wrappers that record a span (name, start, end, parent) for
each call, or only count calls. ``uninstall`` puts the originals back, so
one process can alternate traced and untraced passes and measure the
tracing overhead. Nothing here changes what the wrapped functions return.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

perf_ns = time.perf_counter_ns

# (module or class path under the package, attribute, span name)
SPANNED = (
    ("pipeline", "split_sentences", "pipeline.split_sentences"),
    ("pipeline", "tokenize", "parser.tokenize"),
    ("pipeline.AnnotatedSentence", "from_plain", "pipeline.from_plain"),
    ("pipeline", "extract_records", "pipeline.extract_records"),
    ("pipeline", "scan_measurements", "parser.scan"),
    ("table.QuantTable", "observe_all", "table.observe_all"),
    ("table.QuantTable", "merge", "table.merge"),
    ("table.QuantTable", "finalize", "table.finalize"),
    ("table.QuantTable", "serialize", "table.serialize"),
    ("table.QuantTable", "heads_for", "table.heads_for"),
    ("table", "read_table", "table.read_table"),
    ("distribution.Distribution", "median", "distribution.median"),
    ("inference", "compare_nouns", "inference.compare_nouns"),
    ("inference", "compare_adjectives", "inference.compare_adjectives"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "detect_leakage", "evaluation.detect_leakage"),
    ("evaluation", "make_clean_split", "evaluation.make_clean_split"),
)
HOOK_SPAN = "trace.count"  # time spent counting a call's results
# generator functions: the span covers producing every item, not creating
# the generator; the benchmark consumes them at once anyway
MATERIALIZED = (("pipeline", "read_annotated", "pipeline.read_annotated"),)


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Spans are ``[name, start_ns, end_ns, parent]``; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ recording

    @property
    def phase(self) -> str:
        return self.spans[self._stack[0]][0] if self._stack else ""

    @contextmanager
    def span(self, name: str):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_ns()
        try:
            yield rec
        finally:
            rec[2] = perf_ns()
            self._stack.pop()

    def _spanning(self, fn, name: str, materialize: bool = False, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_ns()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                rec[2] = perf_ns()
                stack.pop()
            if on_result is not None:
                # the counting is a child span, so it stays out of the
                # enclosing call's self time
                hook = [HOOK_SPAN, perf_ns(), 0, stack[-1] if stack else -1]
                spans.append(hook)
                on_result(args, result)
                hook[2] = perf_ns()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn, calls: str, hits: str | None = None):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = self.counts[self.phase]
            counts[calls] += 1
            if hits is not None and result:
                counts[hits] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def install(self, package) -> None:
        """Wrap the layer boundaries of the ``quantdist`` package."""
        if self._restore:
            return

        def scanned(args, mentions):
            counts = self.counts[self.phase]
            counts["parser.mentions"] += len(mentions)
            counts["parser.numeric_tokens"] += sum(1 for t in args[0] if t[:1].isdigit())

        def extracted(args, records):
            self.counts[self.phase]["pipeline.records"] += len(records)

        hooks = {"parser.scan": scanned, "pipeline.extract_records": extracted}
        for path, attr, name in SPANNED:
            hook = hooks.get(name)
            self._patch(
                _resolve(package, path), attr,
                lambda fn, name=name, hook=hook: self._spanning(fn, name, on_result=hook),
            )
        for path, attr, name in MATERIALIZED:
            self._patch(
                _resolve(package, path), attr,
                lambda fn, name=name: self._spanning(fn, name, materialize=True),
            )
        self._patch(
            package.units.UnitRegistry, "lookup_unit",
            lambda fn: self._counting(fn, "units.lookup_unit_calls", "units.lookup_unit_hits"),
        )
        self._patch(
            package.pipeline, "contains_negation",
            lambda fn: self._counting(fn, "pipeline.negation_checks", "pipeline.sentences_negated"),
        )
        self._patch(
            package.kernels, "bucket_index",
            lambda fn: self._counting(fn, "kernels.bucket_index_calls"),
        )
        self._patch(
            package.kernels, "accumulate",
            lambda fn: self._counting(fn, "kernels.accumulate_calls"),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reading

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another (the union is subtracted once) and
    may stick out of the parent (only the part inside counts).
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def roots(spans) -> list[int]:
    """Index of each span's root ancestor (parents precede children)."""
    out = []
    for idx, rec in enumerate(spans):
        out.append(idx if rec[3] < 0 else out[rec[3]])
    return out


def layer_seconds(spans, passes: dict[str, int], use_self: bool = True) -> dict[str, float]:
    """Seconds per span name, for one pass of each phase, summed over phases.

    ``passes`` maps a root span name (the phase) to the number of passes
    it ran; spans under a phase with no passes are ignored.
    """
    lengths = self_times(spans) if use_self else [s[2] - s[1] for s in spans]
    root_of = roots(spans)
    totals: dict[str, float] = defaultdict(float)
    for idx, rec in enumerate(spans):
        phase = spans[root_of[idx]][0]
        if passes.get(phase) and root_of[idx] != idx:
            totals[rec[0]] += lengths[idx] / 1e9 / passes[phase]
    return dict(totals)
