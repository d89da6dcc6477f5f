"""Benchmark of the engmeta campaign pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense-hits --seed 1 --seconds 30 --trace 0

The run generates the workload's corpus from the seed under
``.bench_work/``, then either drives the CLI pipeline with tracing off
(``--trace 0``: end-to-end metrics) or calls each module's public functions
in-process with spans and counts around every call (``--trace 1``:
per-layer metrics). Outputs are checked against the generator's facts on
every run. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the machine facts. The full record (samples,
failures, machine facts) is written to ``.bench_out/``, the spans of a
traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks as oracle  # noqa: E402
import corpus  # noqa: E402
import pipeline  # noqa: E402
from cli import Runner  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"


def machine_facts(workers: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "ENGMETA_WORKERS": workers,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "engmeta" / "__init__.py").is_file():
        print(f"error: no engmeta sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workers = len(os.sched_getaffinity(0))
    scratch = ROOT / ".bench_work"
    results = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    checks = oracle.Checks()
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        facts = corpus.generate(args.workload, args.seed, work)
        if args.trace:
            sys.path.insert(0, str(SRC))
            import traced

            samples, counts, spans = traced.run(work, facts, args.seconds, workers, checks)
            metrics = traced.metrics(samples, counts)
            with (results / f"{name}.spans.jsonl").open("w", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")
        else:
            log_dir = work / "calls"
            log_dir.mkdir()
            samples = pipeline.run(Runner(SRC, log_dir, workers), work, facts,
                                   args.seconds, checks)
            metrics = pipeline.medians(samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_facts(workers)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine, samples=samples, failures=checks.failures)
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
