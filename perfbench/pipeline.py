"""The untraced run: the real CLI pipeline, one command at a time.

One client drives a closed loop: each command starts after the one before
it has ended. An iteration is

    extract --mode serial, 2 × extract --mode parallel,
    2 × harvest --merge-into <serial output>,
    2 × (validate --profile citable, to-dataverse, to-prov)  (on the merged output)

preceded by a set-up probe (a fresh interpreter that imports engmeta
and parses the workload's rules). Iterations repeat until the next one would
overrun the run's time; every metric is the median over iterations.

Each command's wall time is rescaled by the speed of its CPU, measured while
it ran (see ``cli.Runner`` and ``reference``), so a time moves with the
program and not with the shared host's speed of the moment. The raw wall times and probe times are
kept in the samples too (``wall.*``, ``probe_s``), outside the metrics.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

import checks as oracle
from cli import Runner

END_TO_END = (
    "setup_s", "extract_s", "extract_parallel_s", "harvest_merge_s", "publish_s",
    "pipeline_s", "peak_rss_mib",
)
UNITS = {"peak_rss_mib": "MiB"}

SETUP_PROBES_PER_ITERATION = 1
# The times of these commands spread most (the publish commands are short,
# the parallel extract shares both CPUs among three processes, and harvest's
# hashing does not slow down with the host as the speed probe does), so
# each iteration runs them twice and takes the mean.
REPEATS = 2

_SETUP_PROGRAM = (
    "import sys, engmeta; from pathlib import Path; "
    "engmeta.parse_config(Path(sys.argv[1]).read_text(encoding='utf-8'))"
)


def setup_probe(runner: Runner, rules: Path, checks: oracle.Checks):
    call = runner.run(["-c", _SETUP_PROGRAM, str(rules)])
    checks.exit_code("setup: import and parse_config", call)
    return call


def iteration(runner: Runner, work: Path, facts: dict, checks: oracle.Checks,
              rng: random.Random) -> dict[str, float]:
    """One pass of the pipeline; returns its samples (without setup_s)."""
    corpus, rules = work / "corpus", work / "rules.conf"
    out = work / "out"
    serial, parallel, report = out / "serial.xml", out / "parallel.xml", out / "report.json"
    merged, blocks, provn = out / "merged.xml", out / "blocks.json", out / "doc.provn"
    for stale in (serial, parallel, report, merged, blocks, provn):
        stale.unlink(missing_ok=True)

    extract = runner.engmeta("extract", "--config", str(rules), "--root", str(corpus),
                             "--mode", "serial", "--out", str(serial), "--report", str(report))
    checks.exit_code("extract --mode serial", extract)
    extract_parallel = []
    for _ in range(REPEATS):
        parallel.unlink(missing_ok=True)
        call = runner.engmeta("extract", "--config", str(rules), "--root", str(corpus),
                              "--mode", "parallel", "--out", str(parallel), parallel=True)
        checks.exit_code("extract --mode parallel", call)
        oracle.check_extracted(checks, facts, _read(serial), _read(parallel),
                               _report(report))
        extract_parallel.append(call)

    harvest = []
    for _ in range(REPEATS):
        merged.unlink(missing_ok=True)
        call = runner.engmeta("harvest", "--root", str(corpus), "--merge-into", str(serial),
                              "--out", str(merged))
        checks.exit_code("harvest --merge-into", call)
        oracle.check_merged(checks, facts, _read(merged), corpus, rng)
        harvest.append(call)

    publishes = [_publish(runner, facts, merged, blocks, provn, checks) for _ in range(REPEATS)]

    calls = (extract, *extract_parallel, *harvest, *(call for run in publishes for call in run))
    samples = {"peak_rss_mib": max(call.max_rss_mib for call in calls),
               "probe_s": statistics.median(call.probe_s for call in calls)}
    for prefix, seconds in (("", lambda call: call.normalised_s),
                            ("wall.", lambda call: call.seconds)):
        harvest_merge = statistics.mean(map(seconds, harvest))
        publish = statistics.mean(sum(map(seconds, run)) for run in publishes)
        samples.update({
            prefix + "extract_s": seconds(extract),
            prefix + "extract_parallel_s": statistics.mean(map(seconds, extract_parallel)),
            prefix + "harvest_merge_s": harvest_merge,
            prefix + "publish_s": publish,
            prefix + "pipeline_s": seconds(extract) + harvest_merge + publish,
        })
    return samples


def _publish(runner: Runner, facts: dict, merged: Path, blocks: Path, provn: Path,
             checks: oracle.Checks) -> tuple:
    """validate, to-dataverse and to-prov on the merged document, each checked."""
    for stale in (blocks, provn):
        stale.unlink(missing_ok=True)
    validate = runner.engmeta("validate", "--profile", "citable", "--in", str(merged))
    checks.exit_code("validate --profile citable", validate)
    oracle.check_validate(checks, _text(validate.stdout))
    dataverse = runner.engmeta("to-dataverse", "--in", str(merged), "--out", str(blocks))
    checks.exit_code("to-dataverse", dataverse)
    oracle.check_blocks(checks, facts, _text(blocks))
    prov = runner.engmeta("to-prov", "--in", str(merged), "--out", str(provn))
    checks.exit_code("to-prov", prov)
    oracle.check_prov(checks, facts, _text(provn))
    return validate, dataverse, prov


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError:
        return b""


def _text(path: Path) -> str:
    return _read(path).decode("utf-8", errors="replace")


def _report(path: Path) -> dict:
    try:
        return json.loads(_text(path))
    except ValueError:
        return {}


def run(runner: Runner, work: Path, facts: dict, seconds: float,
        checks: oracle.Checks) -> dict:
    """Iterate for ``seconds``; returns the per-iteration samples of every metric."""
    (work / "out").mkdir(exist_ok=True)
    rules = work / "rules.conf"
    rng = random.Random(f"checksums/{facts['workload']}/{facts['seed']}")
    # the first import compiles engmeta's bytecode; later CLI calls reuse it
    setup_probe(runner, rules, checks)

    samples: dict[str, list[float]] = {"setup_s": [], "wall.setup_s": []}
    started = time.perf_counter()
    last = 0.0
    while "pipeline_s" not in samples or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        for _ in range(SETUP_PROBES_PER_ITERATION):
            call = setup_probe(runner, rules, checks)
            samples["setup_s"].append(call.normalised_s)
            samples["wall.setup_s"].append(call.seconds)
        for name, value in iteration(runner, work, facts, checks, rng).items():
            samples.setdefault(name, []).append(value)
        last = time.perf_counter() - begun
    return samples


def medians(samples: dict[str, list[float]]) -> dict[str, dict]:
    return {
        name: {"value": statistics.median(samples[name]), "unit": UNITS.get(name, "s")}
        for name in END_TO_END
    }
