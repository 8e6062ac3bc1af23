"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload plain_sparse --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics from a traced run. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit. The full record of the run
(environment, input and intermediate file sizes, table hashes, sample
counts, failed checks) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>/report.json``, and a traced
run also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = ".perfbench_out"


def _import_program():
    """Import the checkout's own ``src/quantdist``, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "quantdist", "__init__.py")):
        raise SystemExit(f"error: no src/quantdist under {ROOT}; run from a source checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import quantdist

    if not os.path.abspath(quantdist.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported quantdist from {quantdist.__file__}, not {src}")
    return quantdist


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unavailable"


def _source_sha256() -> str:
    """Digest of every file under src/quantdist, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "quantdist")
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, src).encode() + b"\0")
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(quantdist) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_used": bool(quantdist.kernels.USE_NUMBA),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "platform": platform.platform(),
    }


def _quartiles(values) -> list[float]:
    return [round(v, 4) for v in statistics.quantiles(values, n=4)] if len(values) > 1 else values


def run_one(run) -> tuple[dict, dict]:
    """Execute a ``workloads.Run``; return its result line and its full report."""
    import workloads

    metrics = run.execute()
    units = workloads.PER_LAYER if run.trace else workloads.END_TO_END
    result = {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": run.w.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "result": result,
        "error_share": run.checks.failed / run.checks.attempted,
        "failures": run.checks.failures,
        "sentences": run.manifest["sentences"],
        "input_bytes": run.manifest["bytes"],
        "intermediate_bytes": run.intermediate_bytes(),
        "table_sha256": run.facts["table_sha256"],
        "raw_metrics": run.facts.get("raw_metrics"),  # before scaling to REFERENCE_LOOP_MS
        "table_entries": run.facts["entries"],
        "phase_seconds": run.facts["phase_seconds"],
        "passes": run.passes,
        "sample_counts": {k: len(v) for k, v in run.samples.items()},
        # the per-pass samples behind the metrics; the query latencies are
        # summarised under latency_us
        "samples": {k: v for k, v in run.samples.items()
                    if k not in ("noun_query_us", "adj_query_us", "reference_loop_ms")},
        "reference_loop_ms": _quartiles(run.samples["reference_loop_ms"]),
        "latency_us": {
            kind: {"n": len(v), "p50": statistics.median(v), "p99": workloads.block_p99(v)}
            for kind, v in (("noun", run.samples["noun_query_us"]),
                            ("adj", run.samples["adj_query_us"]))
        },
        "children": run.children,
    }
    if run.trace:
        run.tracer.write(os.path.join(run.work, "spans.jsonl"))
    # the inputs and intermediates can be regenerated from the seed
    for sub in ("inputs", "cli"):
        shutil.rmtree(os.path.join(run.work, sub), ignore_errors=True)
    for name in ("final.table", "child.out", "child.err"):
        path = os.path.join(run.work, name)
        if os.path.exists(path):
            os.remove(path)
    return result, report


def run_all(args) -> int:
    """Every workload in its own process, one after another.

    A process's peak RSS never falls, and a later workload would otherwise
    start with the program imported and the heap warm, so each workload
    runs as ``run.py --workload <name>``. Their output is passed through;
    the last line combines their results, each metric prefixed with its
    workload's name.
    """
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stdout, end="")
            print(f"# {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="plain_sparse, annotated_sharded, query_mix or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    quantdist = _import_program()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    name = args.workload
    work = os.path.join(ROOT, OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = workloads.Run(workloads.WORKLOADS[name], args.seed, args.seconds,
                        bool(args.trace), ROOT, work)
    result, report = run_one(run)
    env = environment(quantdist)
    report["environment"] = env
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"# {name} seed={args.seed} trace={args.trace} "
          f"sentences={report['sentences']} table_sha256={report['table_sha256']}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# samples {json.dumps(report['sample_counts'], sort_keys=True)} "
          f"passes {json.dumps(report['passes'], sort_keys=True)}")
    print(f"# reference loop ms (quartiles, machine speed probe) {report['reference_loop_ms']}")
    print(f"# query latency us {json.dumps(report['latency_us'], sort_keys=True)}")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    for metric, entry in result["metrics"].items():
        print(f"{metric}\t{entry['value']:.6g}\t{entry['unit']}")
    if not args.trace:  # a traced run lists it among its metrics
        print(f"error_share\t{report['error_share']:.6g}\tratio")
    print(f"# {result['failed']} failed of {result['attempted']} checked")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
