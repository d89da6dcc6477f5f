"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; assertions failing first means the criterion failed.
"""

import random
import shutil
import subprocess
import time

from engmeta.canon import from_json, from_xml, to_json, to_xml
from engmeta.extract import engine as engine_module
from engmeta.extract import extract, parse_config
from engmeta.flatten import flatten
from engmeta.harvest import harvest
from engmeta.merging import merge
from engmeta.model import (
    Checksum,
    DatedEvent,
    EngMetaDataset,
    FileInfo,
    PersonOrOrganization,
    ProcessingStep,
    Title,
)
from engmeta.prov import serialize_prov_n, to_prov
from engmeta.validation import validate
from corpus_expected import expected_corpus_dataset
from genmodel import dataset_pool
from gromacs import gromacs_dataset
from oracles import leaf_paths, step_structural_paths


def report_pass(number: int, name: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[acceptance] criterion {number} {name}: PASS{suffix}")


def test_criterion_1_gromacs_fixture_fidelity():
    started = time.perf_counter()
    doc = gromacs_dataset()

    report = validate(doc, "structural")
    assert report.errors == ()

    prov = to_prov(doc)
    assert len(prov.activities) == 3
    assert [a.stepType for a in prov.activities] == [
        "data generation", "post processing", "analysis",
    ]

    method_names = {e.label for e in prov.entities if e.kind == "method"}
    assert "thermodynamical simulation with umbrella sampling" in method_names
    error_methods = {e.label for e in prov.entities if e.kind == "errorMethod"}
    assert error_methods == {"standard error from decorrelation"}

    # trajectory files are single entities generated by step 1 and used by step 2
    for label in ("traj.trr", "pullf.xvg"):
        entities = [e for e in prov.entities if e.kind == "file" and e.label == label]
        assert len(entities) == 1
        entity_id = entities[0].id
        kinds = {
            (r.type, r.subject, r.object) for r in prov.relations
        }
        assert ("wasGeneratedBy", entity_id, "act_0") in kinds
        assert ("used", "act_1", entity_id) in kinds

    serialize_prov_n(prov)  # must not raise
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(1, "gromacs fixture fidelity", elapsed)


def test_criterion_2_round_trip_property_suite():
    started = time.perf_counter()
    pool = dataset_pool(200, seed=20190524)
    assert len(pool) >= 200
    for doc in pool:
        xml = to_xml(doc)
        assert from_xml(xml).dataset == doc
        assert to_xml(doc) == xml  # repeated serialization is byte-identical
        json_text = to_json(doc)
        assert from_json(json_text).dataset == doc
        assert to_json(doc) == json_text
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report_pass(2, "round-trip property suite", elapsed)


def test_criterion_3_extraction_golden(corpus_dir, rules_path, golden_xml_path,
                                        tmp_path, monkeypatch):
    config = parse_config(rules_path.read_text())
    assert len(config.rules) == 25
    assert sum(1 for r in config.rules if r.group) >= 2
    assert sum(1 for r in config.rules if r.occurrence == "all") == 1

    started = time.perf_counter()
    serial, serial_report = extract(corpus_dir, config, mode="serial")
    parallel, _ = extract(corpus_dir, config, mode="parallel")
    elapsed = time.perf_counter() - started

    golden = golden_xml_path.read_text()
    assert to_xml(serial) == golden
    assert to_xml(parallel) == golden
    assert serial == expected_corpus_dataset()
    assert serial_report.rulesUnmatched == ()
    assert elapsed < 2.0

    # permuting directory enumeration changes nothing
    true_walk = engine_module.walk_files

    def shuffled_walk(root, on_unreadable=None):
        entries = true_walk(root, on_unreadable)
        random.Random(99).shuffle(entries)
        return entries

    monkeypatch.setattr(engine_module, "walk_files", shuffled_walk)
    shuffled, _ = extract(corpus_dir, config, mode="serial")
    monkeypatch.undo()
    assert to_xml(shuffled) == golden

    # a 10 MB log scans in bounded time, single-threaded
    big_root = tmp_path / "big"
    big_root.mkdir()
    noise = "Energy check:     -122780.13 kJ/mol   temperature 300.04 K\n"
    block = noise * 400 + "Parameter: integrator\nValue: md\n"
    with open(big_root / "md.log", "w") as fh:
        fh.write("StepType: data generation\nSoftware: Gromacs\nVersion: 2019.3\n")
        written = 0
        while written < 10 * 1024 * 1024:
            fh.write(block)
            written += len(block)
        fh.write("Completed: 2019-05-24T18:30:00\nFinished: yes\n")
    size = (big_root / "md.log").stat().st_size
    assert size >= 10 * 1024 * 1024

    started = time.perf_counter()
    big_doc, big_report = extract(big_root, config, mode="serial")
    big_elapsed = time.perf_counter() - started
    assert big_report.bytesScanned == size
    assert big_doc.processingSteps[0].software[0].name == "Gromacs"
    assert big_elapsed < 5.0
    report_pass(3, "extraction golden test", big_elapsed)


def test_criterion_4_flatten_accounting():
    for doc in dataset_pool(100, seed=20190524):
        blocks, report = flatten(doc)
        leaves = leaf_paths(doc)
        assert len(report.mappedPaths) + len(report.droppedPaths) == len(leaves)
        assert {d.path for d in report.droppedPaths} == step_structural_paths(doc)
        if doc.worked is not None:
            citation = next(b for b in blocks if b.blockName == "citation")
            type_names = {f.typeName for f in citation.fields}
            assert "success" in type_names
            if doc.worked.note is not None:
                assert "successNote" in type_names
    report_pass(4, "flatten accounting")


def test_criterion_5_validation_rules():
    # step type outside the closed four-code list
    bad_step = EngMetaDataset(processingSteps=(ProcessingStep(stepType="simulation"),))
    findings = validate(bad_step, "structural").errors
    assert [f.path for f in findings] == ["processingStep[0].stepType"]

    # checksum length rules per algorithm
    for algorithm, wrong_length in (("MD5", 64), ("SHA-256", 32)):
        doc = EngMetaDataset(
            files=(FileInfo(filename="f", checksum=Checksum("a" * wrong_length, algorithm)),)
        )
        findings = validate(doc, "structural").errors
        assert [f.path for f in findings] == ["file[0].checksum.digest"]

    # ISO-8601 dates
    doc = EngMetaDataset(dates=(DatedEvent(date="May 24th 2019"),))
    assert [f.path for f in validate(doc).errors] == ["date[0].date"]

    # citable-profile requirements, one by one
    assert [f.path for f in validate(EngMetaDataset(), "citable").errors] == [
        "title", "description", "date", "person",
    ]
    nearly = EngMetaDataset(
        titles=(Title(text="T"),),
        descriptions=(),
        dates=(DatedEvent(date="2019-05-24"),),
        persons=(PersonOrOrganization(name="J", role="contactPerson"),),
    )
    paths = [f.path for f in validate(nearly, "citable").errors]
    assert paths == ["description", "person"]  # no author role yet
    report_pass(5, "validation rules")


def test_criterion_6_merge_algebra():
    empty = EngMetaDataset()
    for doc in dataset_pool(100, seed=20190524):
        for policy in ("first-wins", "overlay-wins"):
            assert merge(doc, doc, policy) == (doc, [])
            assert merge(empty, doc, policy) == (doc, [])
            assert merge(doc, empty, policy) == (doc, [])
    report_pass(6, "merge algebra")


def test_criterion_7_harvest_correctness(tmp_path):
    rng = random.Random(20190524)
    names = []
    for i in range(20):
        sub = tmp_path / rng.choice(("raw", "processed", "."))
        sub.mkdir(exist_ok=True)
        path = sub / f"file-{i:02d}.bin"
        path.write_bytes(rng.randbytes(rng.randint(0, 32768)))
        names.append(str(path.relative_to(tmp_path)))

    tool = shutil.which("sha256sum")
    assert tool, "independent checksum oracle not available"
    result = harvest(tmp_path, "SHA-256")
    assert len(result.files) == 20
    listed = [info.filename for info in result.files]
    assert listed == sorted(listed)
    for info in result.files:
        oracle = subprocess.run(
            [tool, str(tmp_path / info.filename)],
            capture_output=True, text=True, check=True,
        ).stdout.split()[0]
        assert info.checksum.digest == oracle

    assert harvest(tmp_path, "SHA-256") == result  # stable
    report_pass(7, "harvest correctness")
