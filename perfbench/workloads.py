"""The three workloads: timed phases, correctness checks and metrics.

Every workload runs the same five phases on its own generated inputs,
interleaved, each for its share of the run's seconds:

- ``setup``: a fresh interpreter imports the package and loads its data;
- ``build``: text in to finalized table, in-process, shard by shard, then
  merged, finalized, serialized, written and read back with read_table;
- ``cli``: the CLI as child processes, one at a time;
- ``query``: a single-client closed loop of noun and adjective queries;
- ``eval``: evaluate, detect_leakage and make_clean_split on the pairs.

The workloads differ in their inputs and in how the seconds are shared,
which decides the layer each one stresses (see README.md). All program
calls go through module attributes (``pipeline.extract_records``, not a
name imported from it) so a traced run can wrap them.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import corpus
import spans as spanlib
from child import PEAK_TAG, peak_rss_kb

import quantdist
from quantdist import evaluation, inference, pipeline, units
from quantdist import table as table_mod
from quantdist.units import Dimension

EXACT_CAP = 256  # small enough that Zipf-heavy entries spill to histograms
MIN_COUNT = 3
SETUP_REPEATS = 11
P99_BLOCK = 1000  # consecutive queries per p99 estimate: ten lie beyond it
MIN_LATENCY_SAMPLES = 3 * P99_BLOCK  # adjective queries; noun queries are 4x
NOUN_OPS_PER_ADJ_OP = 4
MIN_PASSES = {"build": 3, "cli": 3, "eval": 3}
FAST_QUANTILE = 0.1  # which quantile of a run's samples its timings report
STAGE_SENTENCES = 50  # sentences per timed stage of a build pass
# reference_loop_ms() in the fast state of a 2-vCPU Xeon VM (lower quartile);
# timings are reported as if every run had found the host this fast
REFERENCE_LOOP_MS = 1.5

# the metrics each kind of run reports, and their units, as BENCHMARK.json
# at the root of the checkout lists them
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# per-layer times that are the span's own time, net of wrapped callees;
# every other *_s metric is the span's whole duration
SELF_TIMED = frozenset(
    {"parser.scan", "pipeline.from_plain", "pipeline.extract_records",
     "table.heads_for", "distribution.median"}
)


@dataclass(frozen=True)
class Workload:
    name: str
    plain: int  # plain sentences
    annotated: int  # annotated sentences
    pairs: int
    distance: int | None  # extraction window; None is the whole sentence
    shares: dict  # phase -> share of the run's seconds
    cli: str  # "build": extract..query over the shards; "read": queries only


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plain_sparse",
            plain=8000, annotated=0, pairs=2000, distance=3,
            shares={"setup": 0.05, "build": 0.45, "cli": 0.3, "query": 0.1, "eval": 0.1},
            cli="build",
        ),
        Workload(
            "annotated_sharded",
            plain=0, annotated=4000, pairs=2000, distance=None,
            shares={"setup": 0.05, "build": 0.4, "cli": 0.4, "query": 0.1, "eval": 0.05},
            cli="build",
        ),
        Workload(
            "query_mix",
            plain=0, annotated=3000, pairs=4000, distance=None,
            shares={"setup": 0.1, "build": 0.4, "cli": 0.2, "query": 0.2, "eval": 0.1},
            cli="read",
        ),
    )
}
PHASES = ("setup", "build", "cli", "query", "eval")
CLI_STEPS = ("extract", "aggregate", "merge", "finalize", "query", "compare", "eval", "audit", "split")

_SETUP_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
import quantdist
from quantdist import pipeline, table
quantdist.load_registry()
pipeline.stopwords()
if len(sys.argv) > 1:
    table.read_table(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


class Checks:
    """Counts checked operations; ``failed / attempted`` is error_share."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def block_p99(samples) -> float:
    """p99 of each block of P99_BLOCK consecutive samples; the median over blocks.

    A shared 2-vCPU virtual machine showed bursts of several-fold slowness
    lasting a fraction of a second and covering about 1% of the time, right
    where a whole-run p99 sits; a run's p99 then came out anywhere from
    1.3x to 6x its p50. A burst lands in one block, and the median over blocks
    keeps the tail of a typical stretch of queries.
    """
    if len(samples) < P99_BLOCK:
        return percentile(samples, 0.99)
    starts = range(0, len(samples) - P99_BLOCK + 1, P99_BLOCK)
    return statistics.median(percentile(samples[i : i + P99_BLOCK], 0.99) for i in starts)


class Laps:
    """Consecutive stage times: each ``lap()`` records the seconds since the last."""

    def __init__(self):
        self.seconds: list[float] = []
        self._last = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.seconds.append(now - self._last)
        self._last = now


def fast_total(passes) -> float:
    """A pass's seconds: the sum over its stages of each stage's lower decile.

    A whole pass spans many of the host's speed changes, so its time follows
    the share of it spent slow; a stage is short enough to fall in a fast
    stretch in some passes.
    """
    return sum(percentile(stage, FAST_QUANTILE) for stage in zip(*passes))


def reference_loop_ms() -> float:
    """Time a fixed pure-Python loop: a probe of the machine's speed right now.

    On a shared host the speed drifts between states up to ~1.5x apart.
    The loop is the benchmark's own code, so a change to the program cannot
    move it; the end-to-end timings are scaled by its lower quartile.
    """
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def label_of(a: float, b: float) -> str:
    return "=" if a == b else ("<" if a < b else ">")


def median_ok(dimension: str, got: float, planted: float) -> bool:
    """Within half a decade of the planted median (an hour for clock times)."""
    if dimension == "TIME":
        return abs(got - planted) <= 1.0
    return got > 0 and abs(math.log10(got / planted)) <= 0.5


class Run:
    """One run of one workload.

    After an untimed warm-up (one build pass, the one-off checks, one
    query round), the phases share the run's seconds by deficit
    scheduling: the next unit of work goes to the phase furthest below its
    share of the time so far. A unit is one build pass, one CLI step, one
    query round or one evaluation pass, so every phase samples the whole
    run and a few slow seconds of a shared machine touch every metric a
    little instead of one metric a lot.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 root: str, work_dir: str):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.work = work_dir
        self.checks = Checks()
        self.tracer = spanlib.Tracer()
        self.passes: dict[str, int] = dict.fromkeys(PHASES, 0)  # traced units
        self.samples: dict[str, list] = {
            k: [] for k in ("setup_s", "sentences_per_s", "traced_sentences_per_s", "build_stages_s",
                            "cli_steps_s",
                            "noun_query_us", "adj_query_us", "eval_pairs_per_s", "audit_split_s",
                            "reference_loop_ms")
        }
        self.children: list[tuple[str, float, float]] = []  # CLI step, seconds, peak RSS MB
        self.facts: dict = {}
        self._chain = None
        self._chain_steps: list[float] = []
        self._noun_cursor = 0
        self.env = {k: v for k, v in os.environ.items() if k not in ("QUANTDIST_UNITS", "QUANTDIST_RATES")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.registry = units.load_registry()
        self.extraction = pipeline.ExtractionConfig(max_distance=workload.distance)
        self.build_config = table_mod.BuildConfig(
            registry_version=self.registry.version, distance=workload.distance, exact_cap=EXACT_CAP
        )

    # ------------------------------------------------------------ helpers

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def child(self, step: str, args) -> tuple[int, str, float]:
        """Run one Python child to completion; return its exit code, output, seconds."""
        out_path = self.path("child.out")
        err_path = self.path("child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=self.root
            )
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - started
        with open(out_path, encoding="utf-8") as fh:
            output = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            errors = fh.read().splitlines()
        if step in CLI_STEPS:
            peak = [line.split()[1] for line in errors if line.startswith(PEAK_TAG)]
            self.children.append((step, elapsed, int(peak[-1]) / 1024.0 if peak else 0.0))
        if proc.returncode != 0:
            detail = [line for line in errors if line and not line.startswith(PEAK_TAG)]
            self.checks.check(False, f"{step} exited {proc.returncode}: {detail[-1:]}")
        return proc.returncode, output, elapsed

    def cli(self, step: str, *args) -> tuple[int, str]:
        """One ``quantdist`` subcommand as a child; its time counts to the chain."""
        with self.tracer.span(f"cli.{step}") if self.trace else nullcontext():
            script = os.path.join(self.root, "perfbench", "child.py")
            code, output, elapsed = self.child(step, (script, step, *args))
        self._chain_steps.append(elapsed)
        return code, output

    # ------------------------------------------------------------ inputs

    def generate(self) -> None:
        args = [
            os.path.join(self.root, "perfbench", "corpus.py"), "--out", self.path("inputs"),
            "--seed", str(self.seed),
            "--plain", str(self.w.plain),
            "--annotated", str(self.w.annotated),
            "--pairs", str(self.w.pairs),
        ]
        code, _, _ = self.child("generate", args)
        if code != 0:
            raise RuntimeError("input generation failed")
        with open(self.path("inputs", "manifest.json"), encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        with open(self.path("inputs", "truth.json"), encoding="utf-8") as fh:
            truth = json.load(fh)
        self.medians = truth["medians"]
        self.annotated = bool(self.manifest["annotated_shards"])
        shards = self.manifest["annotated_shards" if self.annotated else "plain_shards"]
        self.shards = [self.path("inputs", s) for s in shards]
        self.sentences = self.manifest["sentences"]["annotated" if self.annotated else "plain"]
        self.pairs_path = self.path("inputs", "pairs.tsv")
        self.objects = [(dim, obj) for dim, objs in self.medians.items() for obj in objs]
        self.noun_ops = [
            (dim, o1, o2) for dim, objs in self.medians.items()
            for o1 in objs for o2 in objs if o1 != o2
        ]
        self.adj_ops = [
            (dim, a, b) for dim in self.medians if dim != "TIME"
            for pair in corpus.ADJECTIVE_PAIRS for a, b in (pair, pair[::-1])
        ]

    # ------------------------------------------------------------ build

    def sentences_of(self, path: str):
        if self.annotated:
            return list(pipeline.read_annotated(path))
        out = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.extend(pipeline.AnnotatedSentence.from_plain(s)
                               for s in pipeline.split_sentences(line))
        return out

    def observe(self, table, path: str, laps: Laps) -> int:
        """Extract every sentence of one input file into ``table``; return how many.

        Laps once per STAGE_SENTENCES sentences, the first lap taking the
        reading too.
        """
        sentences = self.sentences_of(path)
        for i in range(0, len(sentences), STAGE_SENTENCES):
            for sentence in sentences[i : i + STAGE_SENTENCES]:
                table.observe_all(pipeline.extract_records(sentence, self.extraction, self.registry))
            laps.lap()
        return len(sentences)

    def build_once(self):
        """Shard tables merged in file order, as ``quantdist merge`` does.

        Returns the table text, the seconds of each stage (blocks of
        sentences shard by shard, then merge, finalize and serialize), the
        sentence count, the table read back, the merged table's entry count
        and the finalized table.
        """
        laps = Laps()
        shard_tables = []
        count = 0
        for path in self.shards:
            table = table_mod.QuantTable(self.build_config)
            count += self.observe(table, path, laps)
            shard_tables.append(table)
        merged = functools.reduce(lambda a, b: a.merge(b), shard_tables)
        laps.lap()
        final = merged.finalize(MIN_COUNT)
        laps.lap()
        text = final.serialize()
        laps.lap()
        stages = laps.seconds
        with open(self.path("final.table"), "w", encoding="utf-8") as fh:
            fh.write(text)
        back = table_mod.read_table(self.path("final.table"))
        return text, stages, count, back, len(merged), final

    def single_pass_text(self) -> str:
        table = table_mod.QuantTable(self.build_config)
        for path in self.shards:
            self.observe(table, path, Laps())
        return table.finalize(MIN_COUNT).serialize()

    def warm_up(self) -> None:
        """Untimed: the first build pass, the one-off checks, reference answers."""
        text, _, count, back, merged_entries, final = self.build_once()
        self.final_text = text
        self.table = back
        self.checks.check(count == self.sentences,
                          f"build read {count} sentences, generated {self.sentences}")
        self.checks.check(back.serialize() == text, "read_table does not round-trip")
        self.checks.check(self.single_pass_text() == text,
                          "single-pass build differs from the 4-shard merge")
        self.facts.update(
            table_sha256=sha256(text), table_bytes=len(text.encode("utf-8")),
            entries=len(final), merged_entries=merged_entries,
            spilled=sum(1 for d in final.entries.values() if not d.is_exact),
        )
        os.makedirs(self.path("cli"), exist_ok=True)
        if self.w.cli == "read":
            with open(self.path("cli", "final.table"), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.eval_prepare()
        self.query_warmup()

    def build_unit(self) -> None:
        # every pass starts from the same heap, so one pass's garbage is not
        # collected on the next pass's clock
        gc.collect()
        # a traced run alternates untraced and traced passes for the overhead
        traced = self.trace and len(self.samples["traced_sentences_per_s"]) < len(
            self.samples["sentences_per_s"])
        if traced:
            self.tracer.install(quantdist)
            try:
                with self.tracer.span("build"):
                    text, stages, count, _, _, _ = self.build_once()
            finally:
                self.tracer.uninstall()
            self.passes["build"] += 1
        else:
            text, stages, count, _, _, _ = self.build_once()
            self.samples["build_stages_s"].append(stages)
        self.checks.check(text == self.final_text, "a build pass gave different table bytes")
        self.samples["traced_sentences_per_s" if traced else "sentences_per_s"].append(count / sum(stages))

    def setup_unit(self) -> None:
        args = ["-c", _SETUP_SCRIPT]
        if self.w.cli == "read":
            args.append(self.path("final.table"))
        code, out, _ = self.child("setup", args)
        if code == 0:
            self.samples["setup_s"].append(float(out.strip()))

    # ------------------------------------------------------------ CLI

    def query_args(self, k: int):
        dim, obj = self.objects[(self.seed + k) % len(self.objects)]
        args = ["--table", self.path("cli", "final.table"), "--object", obj,
                "--dim", dim.lower(), "--format", "records"]
        if self.annotated:
            args += ["--pos", "noun"]  # the fallback only goes from a tagged key to UNKNOWN
        return dim, obj, args

    def check_query(self, output: str, dim: str, obj: str) -> None:
        fields = dict(line.split("\t", 1) for line in output.splitlines() if "\t" in line)
        want = inference.query_distribution(self.table, obj, Dimension[dim])
        got = float(fields.get("median", "nan"))
        self.checks.check(want is not None and got == want.median(),
                          f"cli query {obj} {dim}: {got} differs from in-process")
        self.checks.check(median_ok(dim, got, self.medians[dim][obj]),
                          f"cli query {obj} {dim}: median {got} far from planted")

    def build_chain(self, k: int):
        """extract and aggregate per shard, merge, finalize, query; yields after each step."""
        d = self.path("cli")
        streams, partials = [], []
        for i, shard in enumerate(self.shards):
            stream = os.path.join(d, f"records_{i}.txt")
            args = [shard, "-o", stream]
            if self.annotated:
                args.append("--annotated")
            if self.w.distance is not None:
                args += ["--distance", str(self.w.distance)]
            self.cli("extract", *args)
            streams.append(stream)
            yield
        for i, stream in enumerate(streams):
            partial = os.path.join(d, f"partial_{i}.table")
            self.cli("aggregate", stream, "--exact-cap", str(EXACT_CAP), "-o", partial)
            partials.append(partial)
            yield
        self.cli("merge", *partials, "-o", os.path.join(d, "merged.table"))
        yield
        self.cli("finalize", os.path.join(d, "merged.table"), "--min-count", str(MIN_COUNT),
                 "-o", os.path.join(d, "final.table"))
        yield
        dim, obj, args = self.query_args(k)
        code, out = self.cli("query", *args)
        if code == 0:
            self.check_query(out, dim, obj)
        with open(os.path.join(d, "final.table"), encoding="utf-8") as fh:
            self.checks.check(fh.read() == self.final_text,
                              "CLI finalized table differs from the in-process one")
        self.facts["cli.record_stream_bytes"] = sum(os.path.getsize(s) for s in streams)
        self.facts["cli.partial_table_bytes"] = sum(os.path.getsize(p) for p in partials)

    def read_chain(self, k: int):
        """Read-side commands over the finished table; yields after each step."""
        d = self.path("cli")
        table = os.path.join(d, "final.table")
        dim, obj, args = self.query_args(k)
        code, out = self.cli("query", *args)
        if code == 0:
            self.check_query(out, dim, obj)
        yield
        dim, o1, o2 = self.noun_ops[(self.seed + k) % len(self.noun_ops)]
        code, out = self.cli("compare", "--table", table, "--noun", o1, o2, "--dim", dim.lower())
        self.checks.check(out.strip() == label_of(self.medians[dim][o1], self.medians[dim][o2]),
                          f"cli compare --noun {o1} {o2}: {out.strip()!r}")
        yield
        dim, a1, a2 = self.adj_ops[(self.seed + k) % len(self.adj_ops)]
        code, out = self.cli("compare", "--table", table, "--adj", a1, a2, "--dim", dim.lower())
        shift = corpus.ADJECTIVE_SHIFTS
        self.checks.check(out.strip() == label_of(shift[a1], shift[a2]),
                          f"cli compare --adj {a1} {a2}: {out.strip()!r}")
        yield
        code, out = self.cli("eval", self.pairs_path, "--table", table, "--format", "records")
        fields = dict(line.split("\t", 1) for line in out.splitlines() if "\t" in line)
        report = self.eval_report
        for name in ("accuracy", "coverage", "scored", "skipped_not_comparable", "out_of_coverage"):
            self.checks.check(fields.get(name) == repr(report[name]),
                              f"cli eval {name}: {fields.get(name)} vs {report[name]!r}")
        yield
        code, out = self.cli("audit", self.path("inputs", "audit_train.tsv"),
                             self.path("inputs", "audit_eval.tsv"), "--format", "records")
        flagged = [tuple(line.split("\t")) for line in out.splitlines()]
        want = [("transitive", str(i)) for i in sorted(self.leakage.transitive_flags)]
        want += [("object", str(i)) for i in sorted(self.leakage.object_flags)]
        want += [(f"rate.{k}", repr(self.leakage.rates[k])) for k in ("transitive", "object")]
        self.checks.check(flagged == want, "cli audit differs from in-process detect_leakage")
        yield
        code, out = self.cli("split", self.pairs_path, "--output-prefix", os.path.join(d, "split"),
                             "--seed", str(self.seed))
        sizes = [int(line.split()[1]) for line in out.splitlines() if line.split()[1:2]]
        self.checks.check(sizes == [len(s) for s in self.split],
                          f"cli split sizes {sizes} differ from in-process")

    def cli_unit(self) -> None:
        """One CLI step; a chain's time is the sum of its steps' times."""
        if self._chain is None:
            chain = self.build_chain if self.w.cli == "build" else self.read_chain
            self._chain = chain(len(self.samples["cli_steps_s"]))
            self._chain_steps = []
        try:
            next(self._chain)
        except StopIteration:
            self._chain = None
            self.samples["cli_steps_s"].append(self._chain_steps)
            if self.trace:
                self.passes["cli"] += 1

    # ------------------------------------------------------------ queries

    def noun_op(self, op) -> tuple[int, str, float]:
        dim, o1, o2 = op
        d = Dimension[dim]
        started = time.perf_counter_ns()
        label = inference.compare_nouns(self.table, o1, o2, d)
        stats = inference.query_distribution(self.table, o1, d).stats()
        return time.perf_counter_ns() - started, label.value, stats["median"]

    def adj_op(self, op) -> tuple[int, str | None]:
        dim, a1, a2 = op
        started = time.perf_counter_ns()
        label = inference.compare_adjectives(self.table, a1, a2, Dimension[dim])
        return time.perf_counter_ns() - started, None if label is None else label.value

    def check_noun(self, op, label, median) -> None:
        dim, o1, o2 = op
        planted = self.medians[dim]
        self.checks.check(label == label_of(planted[o1], planted[o2]),
                          f"compare_nouns {o1} {o2} {dim}: {label}")
        self.checks.check(median_ok(dim, median, planted[o1]),
                          f"median of {o1} {dim}: {median} vs planted {planted[o1]}")

    def check_adj(self, op, label) -> None:
        _, a1, a2 = op
        shift = corpus.ADJECTIVE_SHIFTS
        # plain text carries no part of speech, so no adjective has evidence
        want = label_of(shift[a1], shift[a2]) if self.annotated else None
        self.checks.check(label == want, f"compare_adjectives {op}: {label} want {want}")

    def query_warmup(self) -> None:
        """One untimed round that warms caches and checks every answer once."""
        for op in self.noun_ops:
            _, label, median = self.noun_op(op)
            self.check_noun(op, label, median)
        for op in self.adj_ops:
            self.check_adj(op, self.adj_op(op)[1])

    def query_unit(self, record: bool = True) -> None:
        """One round: every adjective query once, NOUN_OPS_PER_ADJ_OP noun queries before each.

        A traced round checks its answers but records no latencies.
        """
        # The unit before this one may have been a CLI child or a build pass,
        # which leave the caches cold; a closed-loop client would not see that,
        # and without these untimed queries it sets the p99 (measured: adjective
        # p99 1.8-3.1 ms cold against 1.1-1.3 ms warm on annotated_sharded).
        for op in self.noun_ops[:2 * NOUN_OPS_PER_ADJ_OP]:
            self.noun_op(op)
        for op in self.adj_ops[:2]:
            self.adj_op(op)
        noun_us, adj_us = ([], []) if not record else (
            self.samples["noun_query_us"], self.samples["adj_query_us"])
        for adj in self.adj_ops:
            for _ in range(NOUN_OPS_PER_ADJ_OP):
                op = self.noun_ops[self._noun_cursor % len(self.noun_ops)]
                self._noun_cursor += 1
                ns, label, median = self.noun_op(op)
                noun_us.append(ns / 1e3)
                self.check_noun(op, label, median)
            ns, label = self.adj_op(adj)
            adj_us.append(ns / 1e3)
            self.check_adj(adj, label)

    # ------------------------------------------------------------ evaluation

    def eval_prepare(self) -> None:
        """Untimed: load the datasets and take reference answers once."""
        self.examples = evaluation.load_dataset(self.pairs_path)
        self.audit_train = evaluation.load_dataset(self.path("inputs", "audit_train.tsv"))
        self.audit_eval = evaluation.load_dataset(self.path("inputs", "audit_eval.tsv"))
        self.eval_report = evaluation.evaluate(self.table, self.examples)
        self.leakage = evaluation.detect_leakage(self.audit_train, self.audit_eval)
        self.split = evaluation.make_clean_split(self.examples, seed=self.seed)
        self.check_eval(self.eval_report, self.leakage, self.split)

    def check_eval(self, report, leakage, split) -> None:
        ex = self.examples
        scored = sum(1 for e in ex if e.gold is not None and e.dimension is not None)
        self.checks.check(report["accuracy"] == 1.0, f"evaluate accuracy {report['accuracy']}")
        self.checks.check(report["coverage"] == 1.0, f"evaluate coverage {report['coverage']}")
        self.checks.check(report["scored"] == scored, f"evaluate scored {report['scored']} of {scored}")
        self.checks.check(report["skipped_not_comparable"] == sum(1 for e in ex if e.gold is None),
                          "evaluate miscounted NA rows")
        train_objects = {o for e in self.audit_train for o in (e.object1, e.object2)}
        want = {i for i, e in enumerate(self.audit_eval)
                if e.object1 in train_objects or e.object2 in train_objects}
        self.checks.check(set(leakage.object_flags) == want, "detect_leakage object flags")
        train, dev, test = split
        self.checks.check(len(train) + len(dev) + len(test) == len(ex), "make_clean_split lost rows")
        clean = evaluation.detect_leakage(train, dev + test)
        self.checks.check(clean.clean, "make_clean_split left leakage")

    def eval_unit(self) -> None:
        # untimed, for the same reason as in query_unit
        evaluation.evaluate(self.table, self.examples[:100])
        evaluation.detect_leakage(self.audit_train[:100], self.audit_eval[:25])
        t0 = time.perf_counter()
        report = evaluation.evaluate(self.table, self.examples)
        t1 = time.perf_counter()
        leakage = evaluation.detect_leakage(self.audit_train, self.audit_eval)
        split = evaluation.make_clean_split(self.examples, seed=self.seed)
        t2 = time.perf_counter()
        self.checks.check(report == self.eval_report, "evaluate report changed between passes")
        self.checks.check(leakage == self.leakage and split == self.split,
                          "audit results changed between passes")
        self.samples["eval_pairs_per_s"].append(report["scored"] / (t1 - t0))
        self.samples["audit_split_s"].append(t2 - t1)

    # ------------------------------------------------------------ the run

    def pending(self, phase: str) -> bool:
        """True while a phase lacks the samples its metrics need."""
        s = self.samples
        if phase == "setup":
            return len(s["setup_s"]) < SETUP_REPEATS
        if phase == "build":
            traced = len(s["traced_sentences_per_s"]) < MIN_PASSES["build"] if self.trace else False
            return len(s["sentences_per_s"]) < MIN_PASSES["build"] or traced
        if phase == "cli":
            return self._chain is not None or len(s["cli_steps_s"]) < MIN_PASSES["cli"]
        if phase == "query":
            return len(s["adj_query_us"]) < MIN_LATENCY_SAMPLES
        return len(s["eval_pairs_per_s"]) < MIN_PASSES["eval"]

    def execute(self) -> dict:
        self.generate()
        if self.trace:
            registry_ms = []
            for _ in range(5):
                t0 = time.perf_counter()
                units.load_registry()
                registry_ms.append((time.perf_counter() - t0) * 1e3)
            self.facts["units.load_registry_ms"] = statistics.median(registry_ms)
        self.warm_up()
        run_unit = {"setup": self.setup_unit, "build": self.build_unit, "cli": self.cli_unit,
                    "query": self.query_unit, "eval": self.eval_unit}
        used = dict.fromkeys(PHASES, 0.0)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            pending = [p for p in PHASES if self.pending(p)]
            if elapsed >= self.seconds and not pending:
                break
            pool = PHASES if elapsed < self.seconds else pending
            phase = max(pool, key=lambda p: self.w.shares[p] * elapsed - used[p])
            self.samples["reference_loop_ms"].append(reference_loop_ms())
            t0 = time.perf_counter()
            # a traced run alternates untraced query rounds, for the latencies,
            # with traced ones, for the spans
            traced_query = phase == "query" and len(self.samples["adj_query_us"]) > (
                self.passes["query"] * len(self.adj_ops))
            if self.trace and (phase == "eval" or traced_query):
                self.tracer.install(quantdist)
                try:
                    with self.tracer.span(phase):
                        run_unit[phase](**({"record": False} if traced_query else {}))
                finally:
                    self.tracer.uninstall()
                self.passes[phase] += 1
            elif self.trace and phase == "cli":
                with self.tracer.span("cli"):
                    run_unit[phase]()
            else:
                run_unit[phase]()
            used[phase] += time.perf_counter() - t0
        self.facts["phase_seconds"] = used
        return self.metrics()

    def metrics(self) -> dict:
        if self.trace:
            return self.layer_metrics()
        s = self.samples
        # Every timing but setup_s is the lower decile of its samples (the
        # upper decile of a throughput): the program's cost in the host's
        # faster stretches. On a shared VM whose speed drifts between states
        # up to ~1.9x apart, a run's median follows the share of its time
        # spent slow; see README.md, "Noise".
        raw = {
            "setup_s": statistics.median(s["setup_s"]),
            "sentences_per_s": self.sentences / fast_total(s["build_stages_s"]),
            "cli_chain_s": fast_total(s["cli_steps_s"]),
            "peak_rss_mb": peak_rss_kb() / 1024.0,
            "cli_peak_rss_mb": max(rss for _, _, rss in self.children),
            "noun_query_us.p10": percentile(s["noun_query_us"], FAST_QUANTILE),
            "adj_query_us.p10": percentile(s["adj_query_us"], FAST_QUANTILE),
            "eval_pairs_per_s": percentile(s["eval_pairs_per_s"], 1 - FAST_QUANTILE),
            "audit_split_s": percentile(s["audit_split_s"], FAST_QUANTILE),
        }
        self.facts["raw_metrics"] = raw
        # Some runs find the host slow from start to end, so no quantile of
        # their samples reaches its fast state; scale every time to a host on
        # which the reference loop takes REFERENCE_LOOP_MS instead.
        scale = REFERENCE_LOOP_MS / percentile(s["reference_loop_ms"], 0.25)
        return {k: v if k.endswith("_rss_mb") else v / scale if k.endswith("_per_s") else v * scale
                for k, v in raw.items()}

    def layer_metrics(self) -> dict:
        spans = self.tracer.spans
        total = spanlib.layer_seconds(spans, self.passes, use_self=False)
        own = spanlib.layer_seconds(spans, self.passes, use_self=True)

        def seconds(name):
            return (own if name in SELF_TIMED else total).get(name, 0.0)

        counts = self.tracer.counts.get("build", {})
        per_pass = {k: v / max(1, self.passes.get("build", 0)) for k, v in counts.items()}
        mentions = per_pass.get("parser.mentions", 0)
        records = per_pass.get("pipeline.records", 0)
        calls = per_pass.get("units.lookup_unit_calls", 0)
        observe = seconds("table.observe_all")
        self_ns = spanlib.self_times(spans)
        root_of = spanlib.roots(spans)
        phases = [i for i, rec in enumerate(spans) if root_of[i] == i and rec[0] in self.passes]
        phase_ns = sum(spans[i][2] - spans[i][1] for i in phases)
        unattributed_ns = sum(self_ns[i] for i in phases)
        untraced = self.samples["sentences_per_s"]
        traced = self.samples["traced_sentences_per_s"]
        f = self.facts
        out = {
            "parser.tokenize_s": seconds("parser.tokenize"),
            "parser.scan_s": seconds("parser.scan"),
            "parser.mentions": mentions,
            "parser.mentions_per_numeric_token":
                mentions / per_pass["parser.numeric_tokens"] if per_pass.get("parser.numeric_tokens") else 0.0,
            "units.load_registry_ms": f["units.load_registry_ms"],
            "units.lookup_unit_calls": calls,
            "units.lookup_hit_ratio": per_pass.get("units.lookup_unit_hits", 0) / calls if calls else 0.0,
            "pipeline.split_sentences_s": seconds("pipeline.split_sentences"),
            "pipeline.from_plain_s": seconds("pipeline.from_plain"),
            "pipeline.read_annotated_s": seconds("pipeline.read_annotated"),
            "pipeline.extract_records_s": seconds("pipeline.extract_records"),
            "pipeline.sentences_negated": per_pass.get("pipeline.sentences_negated", 0),
            "pipeline.records": records,
            "pipeline.records_per_mention": records / mentions if mentions else 0.0,
            "table.observe_all_s": observe,
            "table.records_per_s": records / observe if observe else 0.0,
            "table.merge_s": seconds("table.merge"),
            "table.finalize_s": seconds("table.finalize"),
            "table.serialize_s": seconds("table.serialize"),
            "table.read_table_s": seconds("table.read_table"),
            "table.entries": f["entries"],
            "table.bytes": f["table_bytes"],
            "table.spilled_share": f["spilled"] / f["entries"] if f["entries"] else 0.0,
            "table.finalize_kept_share": f["entries"] / f["merged_entries"] if f["merged_entries"] else 0.0,
            "kernels.bucket_index_calls": per_pass.get("kernels.bucket_index_calls", 0),
            "kernels.accumulate_calls": per_pass.get("kernels.accumulate_calls", 0),
            "inference.compare_nouns_s": seconds("inference.compare_nouns"),
            "inference.compare_adjectives_s": seconds("inference.compare_adjectives"),
            "noun_query_us.p50": statistics.median(self.samples["noun_query_us"]),
            "adj_query_us.p50": statistics.median(self.samples["adj_query_us"]),
            "noun_query_us.p99": block_p99(self.samples["noun_query_us"]),
            "adj_query_us.p99": block_p99(self.samples["adj_query_us"]),
            "table.heads_for_s": seconds("table.heads_for"),
            "distribution.median_s": seconds("distribution.median"),
            "evaluation.evaluate_s": seconds("evaluation.evaluate"),
            "evaluation.coverage": self.eval_report["coverage"],
            "evaluation.detect_leakage_s": seconds("evaluation.detect_leakage"),
            "evaluation.make_clean_split_s": seconds("evaluation.make_clean_split"),
            "cli.record_stream_bytes": f.get("cli.record_stream_bytes", 0),
            "cli.partial_table_bytes": f.get("cli.partial_table_bytes", 0),
            "cli.aggregate_rss_mb": max((r for st, _, r in self.children if st == "aggregate"), default=0.0),
            "trace.overhead": statistics.harmonic_mean(untraced) / statistics.harmonic_mean(traced) - 1.0,
            "trace.unattributed_share": unattributed_ns / phase_ns if phase_ns else 0.0,
            "trace.spans": len(spans),
            "error_share": self.checks.failed / max(1, self.checks.attempted),
        }
        for step in CLI_STEPS:
            out[f"cli.{step}_s"] = seconds(f"cli.{step}")
        return {name: out[name] for name in PER_LAYER}

    def intermediate_bytes(self) -> dict:
        sizes = {}
        for dirpath, _, files in os.walk(self.work):
            for name in files:
                full = os.path.join(dirpath, name)
                sizes[os.path.relpath(full, self.work)] = os.path.getsize(full)
        return dict(sorted(sizes.items()))
