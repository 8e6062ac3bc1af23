"""Tests for the benchmark itself, at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import run as runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"plain": 300, "annotated": 120, "pairs": 60}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_run(tmp_path, name="annotated_sharded", trace=False, run_class=workloads.Run):
    """An annotated workload small enough for a test, taking only its minimum samples."""
    workload = dataclasses.replace(workloads.WORKLOADS[name], annotated=600, pairs=300)
    return run_class(workload, seed=7, seconds=0.1, trace=trace, root=ROOT, work_dir=str(tmp_path))


def test_generator_is_deterministic_for_a_seed(tmp_path):
    a, b, c = (str(tmp_path / d) for d in "abc")
    corpus.generate(a, 3, **TINY)
    corpus.generate(b, 3, **TINY)
    corpus.generate(c, 4, **TINY)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    assert not filecmp.cmp(os.path.join(a, "plain_0.txt"), os.path.join(c, "plain_0.txt"),
                           shallow=False)


def test_generator_vocabulary_avoids_words_the_program_reads():
    from quantdist import load_registry
    from quantdist.parser import AMPM, MAGNITUDES, MARKER_WORDS, RANGE_SEPARATORS
    from quantdist.pipeline import ABBREVIATIONS, NEGATION_WORDS, stopwords

    reserved = (set(load_registry()._by_alias) | stopwords() | ABBREVIATIONS | NEGATION_WORDS
                | set(MAGNITUDES) | set(AMPM) | MARKER_WORDS | RANGE_SEPARATORS)
    import random

    vocabulary = corpus.make_vocabulary(random.Random(0), 20000)
    assert not reserved & set(vocabulary)


def test_self_time_subtracts_the_union_of_children():
    # root [0,100] has A [10,40] and B [30,60], which overlap, and C [90,120],
    # which sticks out; A has A1 [15,20]
    tree = [
        ["build", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 60, 0],
        ["a1", 15, 20, 1],
        ["c", 90, 120, 0],
    ]
    assert spans.self_times(tree) == [100 - 50 - 10, 30 - 5, 30, 5, 30]
    assert spans.roots(tree) == [0, 0, 0, 0, 0]
    nested = [["build", 0, 100, -1], ["a", 10, 40, 0], ["a1", 15, 20, 1], ["b", 50, 90, 0]]
    assert sum(spans.self_times(nested)) == 100
    # two passes of one phase: seconds are per pass
    per_pass = spans.layer_seconds(nested + [["build", 200, 300, -1], ["a", 210, 230, 4]],
                                   {"build": 2}, use_self=False)
    assert per_pass["a"] == pytest.approx((30 + 20) / 2 / 1e9)
    assert "build" not in per_pass


def test_tracer_restores_what_it_wraps():
    import quantdist
    from quantdist import pipeline, table

    before = (pipeline.extract_records, table.QuantTable.__dict__["observe_all"],
              pipeline.AnnotatedSentence.__dict__["from_plain"])
    tracer = spans.Tracer()
    tracer.install(quantdist)
    assert pipeline.extract_records is not before[0]
    with tracer.span("build"):
        sentence = pipeline.AnnotatedSentence.from_plain("The walrus weighs 900 kg.")
        records = pipeline.extract_records(sentence, pipeline.ExtractionConfig(),
                                           quantdist.load_registry())
    tracer.uninstall()
    assert (pipeline.extract_records, table.QuantTable.__dict__["observe_all"],
            pipeline.AnnotatedSentence.__dict__["from_plain"]) == before
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["build", "pipeline.from_plain", "parser.tokenize"]
    assert "parser.scan" in names
    assert tracer.counts["build"]["pipeline.records"] == len(records) > 0
    assert tracer.counts["build"]["parser.mentions"] == 1


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path):
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    result, report = runner.run_one(_tiny_run(tmp_path))
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["table_sha256"]) <= set("0123456789abcdef")
    assert report["intermediate_bytes"]["inputs/annotated_0.tsv"] > 0


def test_every_per_layer_metric_is_emitted_with_its_unit(tmp_path):
    result, report = runner.run_one(_tiny_run(tmp_path, name="query_mix", trace=True))
    assert result["correct"], report["failures"]
    want = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    for name in ("pipeline.read_annotated_s", "parser.scan_s", "table.observe_all_s",
                 "inference.compare_adjectives_s", "table.heads_for_s", "cli.eval_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["kernels.bucket_index_calls"]["value"] > 0
    assert 0 <= metrics["trace.unattributed_share"]["value"] < 1
    assert os.path.getsize(os.path.join(str(tmp_path), "spans.jsonl")) > 0


class _WrongPlant(workloads.Run):
    """Swaps two planted medians after generation, as a defect would."""

    def generate(self):
        super().generate()
        mass = self.medians["MASS"]
        mass["beetle"], mass["lorry"] = mass["lorry"], mass["beetle"]


def test_a_planted_wrong_answer_raises_error_share(tmp_path):
    result, report = runner.run_one(_tiny_run(tmp_path, run_class=_WrongPlant))
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["error_share"] == result["failed"] / result["attempted"] > 0
    assert any("beetle" in f or "lorry" in f for f in report["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plain_sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
