"""Tests of the benchmark itself: the generator and the correctness gate.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
They use corpora at a small scale, so they take seconds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import checks as oracle
import corpus
import pipeline
import reference
from cli import Call, Runner

SRC = Path(__file__).resolve().parent.parent / "src"
SCALE = 0.05


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = corpus.generate(workload, 7, tmp_path / "a", scale=SCALE)
    second = corpus.generate(workload, 7, tmp_path / "b", scale=SCALE)
    other = corpus.generate(workload, 8, tmp_path / "c", scale=SCALE)
    assert first == second
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert first["corpus"] == [[name, len(data)] for name, data in
                               sorted(_tree(tmp_path / "a" / "corpus").items())]


@pytest.fixture(scope="module", params=corpus.WORKLOADS)
def outputs(request, tmp_path_factory):
    """One real pipeline iteration over a small corpus; it must pass every check."""
    work = tmp_path_factory.mktemp(request.param)
    facts = corpus.generate(request.param, 3, work, scale=SCALE)
    (work / "out").mkdir()
    (work / "calls").mkdir()
    checks = oracle.Checks()
    samples = pipeline.iteration(Runner(SRC, work / "calls", 2), work, facts, checks,
                                 random.Random(0))
    assert checks.failures == []
    assert checks.attempted > 10
    timed = set(pipeline.END_TO_END) - {"setup_s", "peak_rss_mib"}
    assert set(samples) == timed | {f"wall.{name}" for name in timed} | {"peak_rss_mib", "probe_s"}
    return work, facts


def _failed(check, *args) -> int:
    checks = oracle.Checks()
    check(checks, *args)
    return checks.failed


def _extract_args(work: Path, facts: dict, serial: bytes, parallel: bytes):
    report = json.loads((work / "out" / "report.json").read_text(encoding="utf-8"))
    return facts, serial, parallel, report


def test_parallel_document_differing_from_serial_is_a_failure(outputs):
    work, facts = outputs
    serial = (work / "out" / "serial.xml").read_bytes()
    assert _failed(oracle.check_extracted, *_extract_args(work, facts, serial, serial)) == 0
    # same content, different bytes: only the serial == parallel check fails
    parallel = serial.replace(b"\n", b"\r\n", 1)
    assert _failed(oracle.check_extracted, *_extract_args(work, facts, serial, parallel)) == 1


def test_corrupted_extract_output_is_a_failure(outputs):
    work, facts = outputs
    serial = (work / "out" / "serial.xml").read_bytes()
    truncated = serial[: len(serial) // 2]
    assert _failed(oracle.check_extracted, *_extract_args(work, facts, truncated, truncated)) >= 1
    lines = serial.splitlines(keepends=True)
    dropped = b"".join(line for line in lines if b"<keyword>" not in line)
    assert _failed(oracle.check_extracted, *_extract_args(work, facts, dropped, dropped)) >= 1


def test_corrupted_merged_output_is_a_failure(outputs):
    work, facts = outputs
    merged = (work / "out" / "merged.xml").read_bytes()
    corpus_dir = work / "corpus"
    assert _failed(oracle.check_merged, facts, merged, corpus_dir, random.Random(0)) == 0
    digest = merged.split(b'algorithm="SHA-256">', 1)[1][:64]
    flipped = merged.replace(digest, digest[::-1])
    # with a full sample, the flipped digest is always among the re-hashed files
    full = random.Random(0)
    full.sample = lambda population, k: list(population)
    assert _failed(oracle.check_merged, facts, flipped, corpus_dir, full) >= 1
    assert _failed(oracle.check_merged, facts, b"<engMeta>", corpus_dir, random.Random(0)) == 1


def test_corrupted_publish_outputs_are_failures(outputs):
    work, facts = outputs
    blocks = (work / "out" / "blocks.json").read_text(encoding="utf-8")
    provn = (work / "out" / "doc.provn").read_text(encoding="utf-8")
    assert _failed(oracle.check_blocks, facts, blocks) == 0
    assert _failed(oracle.check_prov, facts, provn) == 0
    parsed = json.loads(blocks)
    parsed["citation"] = [f for f in parsed["citation"] if f["typeName"] != "file"]
    assert _failed(oracle.check_blocks, facts, json.dumps(parsed)) == 1
    assert _failed(oracle.check_blocks, facts, blocks[:-10]) == 1
    assert _failed(oracle.check_prov, facts, provn + "  activity(engmeta:act_x, -, -)\n") == 1
    assert _failed(oracle.check_validate, '{"profile": "citable", "valid": false}') == 1


def test_normalised_time_scales_with_the_probe():
    assert reference.probe() > 0
    fast = reference.normalised(2.0, reference.REFERENCE_S)
    slow = reference.normalised(4.0, 2 * reference.REFERENCE_S)
    assert fast == pytest.approx(2.0) and slow == pytest.approx(2.0)
    # the probe's share of the child's CPU is taken off before rescaling
    call = Call((), 0, 5.0, 1.0, Path("out"), Path("err"), 2 * reference.REFERENCE_S, 1.0)
    assert call.normalised_s == pytest.approx(2.0)
