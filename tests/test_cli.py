import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from engmeta.canon import from_json, from_xml, to_xml
from engmeta.cli import main
from corpus_expected import expected_corpus_dataset


@pytest.fixture()
def empty_xml(tmp_path):
    path = tmp_path / "empty.xml"
    path.write_text('<?xml version="1.0" encoding="UTF-8"?>\n<engMeta/>\n')
    return path


def test_validate_citable_empty_document(empty_xml, capsys):
    code = main(["validate", "--in", str(empty_xml), "--profile", "citable"])
    captured = capsys.readouterr()
    assert code == 1
    findings = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(findings) == 4
    payload = json.loads(captured.out)
    assert payload["valid"] is False
    assert len(payload["findings"]) == 4


def test_validate_structural_empty_document(empty_xml, capsys):
    code = main(["validate", "--in", str(empty_xml)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_extract_then_to_prov(tmp_path, corpus_dir, rules_path, capsys):
    out = tmp_path / "doc.xml"
    code = main([
        "extract", "--config", str(rules_path), "--root", str(corpus_dir),
        "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()

    code = main(["to-prov", "--in", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("activity(") == 1  # production-run rules: one step
    assert "endDocument" in captured.out


def test_extract_step_chain_then_to_prov(tmp_path, corpus_dir, steps_rules_path, capsys):
    """The stage logs document the full three-step process chain."""
    out = tmp_path / "steps.xml"
    assert main([
        "extract", "--config", str(steps_rules_path), "--root", str(corpus_dir),
        "--out", str(out),
    ]) == 0
    capsys.readouterr()

    assert main(["to-prov", "--in", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("activity(") == 3
    assert 'ex:stepType="data generation"' in captured.out
    assert 'ex:stepType="post processing"' in captured.out
    assert 'ex:stepType="analysis"' in captured.out


def test_extract_report_written(tmp_path, corpus_dir, rules_path, capsys):
    out = tmp_path / "doc.xml"
    report_path = tmp_path / "report.json"
    code = main([
        "extract", "--config", str(rules_path), "--root", str(corpus_dir),
        "--out", str(out), "--report", str(report_path), "--mode", "parallel",
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["filesScanned"] == 5
    assert report["rulesUnmatched"] == []
    capsys.readouterr()


def test_extract_report_matches_golden(tmp_path, corpus_dir, rules_path, capsys):
    """Byte for byte, key order included, once the one timing is taken out."""
    report_path = tmp_path / "report.json"
    code = main([
        "extract", "--config", str(rules_path), "--root", str(corpus_dir),
        "--out", str(tmp_path / "doc.xml"), "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert isinstance(report.pop("elapsedSeconds"), float)
    golden = rules_path.parent / "golden.report.json"
    assert json.dumps(report, indent=2) + "\n" == golden.read_text(encoding="utf-8")
    capsys.readouterr()


def test_pipe_composability(tmp_path, corpus_dir, rules_path, capsys):
    """extract output is accepted unchanged by validate, to-prov, to-dataverse."""
    doc_path = tmp_path / "doc.xml"
    assert main([
        "extract", "--config", str(rules_path), "--root", str(corpus_dir),
        "--out", str(doc_path),
    ]) == 0
    capsys.readouterr()

    assert main(["validate", "--in", str(doc_path)]) == 0
    capsys.readouterr()
    assert main(["to-prov", "--in", str(doc_path)]) == 0
    capsys.readouterr()
    assert main(["to-dataverse", "--in", str(doc_path)]) == 0
    blocks = json.loads(capsys.readouterr().out)
    assert set(blocks) == {"citation", "process", "engMeta", "_flattenReport"}


def test_extract_output_matches_library(tmp_path, corpus_dir, rules_path, capsys):
    assert main([
        "extract", "--config", str(rules_path), "--root", str(corpus_dir),
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == to_xml(expected_corpus_dataset())


def test_extract_json_format(tmp_path, corpus_dir, rules_path, capsys):
    assert main([
        "extract", "--config", str(rules_path), "--root", str(corpus_dir),
        "--format", "json",
    ]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["project"] == "HostGuestMD"


def test_harvest_empty_directory(tmp_path, capsys):
    empty = tmp_path / "emptydir"
    empty.mkdir()
    code = main(["harvest", "--root", str(empty)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == '<?xml version="1.0" encoding="UTF-8"?>\n<engMeta/>\n'


def test_harvest_lists_files(tmp_path, capsys):
    (tmp_path / "a.log").write_bytes(b"hello")
    code = main(["harvest", "--root", str(tmp_path), "--algorithm", "md5"])
    captured = capsys.readouterr()
    assert code == 0
    dataset = from_xml(captured.out).dataset
    assert dataset.files[0].filename == "a.log"
    assert dataset.files[0].checksum.algorithm == "MD5"


def test_harvest_merge_into(tmp_path, corpus_dir, rules_path, capsys):
    doc_path = tmp_path / "doc.xml"
    assert main([
        "extract", "--config", str(rules_path), "--root", str(corpus_dir),
        "--out", str(doc_path),
    ]) == 0
    capsys.readouterr()

    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "traj.trr").write_bytes(b"binary-ish")
    code = main([
        "harvest", "--root", str(data_dir), "--merge-into", str(doc_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    merged = from_xml(captured.out).dataset
    assert merged.project == "HostGuestMD"  # base document kept
    assert [info.filename for info in merged.files] == ["traj.trr"]


def test_harvest_merge_equals_library_merge(tmp_path, empty_xml, capsys):
    from engmeta.harvest import harvest
    from engmeta.merging import merge
    from engmeta.model import EngMetaDataset

    (tmp_path / "x.bin").write_bytes(b"1234")
    assert main([
        "harvest", "--root", str(tmp_path), "--merge-into", str(empty_xml),
    ]) == 0
    captured = capsys.readouterr()
    expected, _ = merge(EngMetaDataset(), harvest(tmp_path).to_dataset(), "first-wins")
    assert from_xml(captured.out).dataset == expected


def test_harvest_merge_reports_no_conflicts(tmp_path, capsys):
    from engmeta.harvest import harvest
    from engmeta.merging import merge
    from engmeta.model import EngMetaDataset, FileInfo

    data = tmp_path / "data"
    data.mkdir()
    (data / "x.bin").write_bytes(b"1234")
    # the base lists the same name with another size: the listing sets only the
    # file list, and a list merges without conflicts, keeping both entries
    base = EngMetaDataset(project="p", files=(FileInfo(filename="x.bin", sizeBytes=9),))
    merged, conflicts = merge(base, harvest(data).to_dataset(), "first-wins")
    assert conflicts == []
    base_path = tmp_path / "base.xml"
    base_path.write_text(to_xml(base), encoding="utf-8")
    assert main(["harvest", "--root", str(data), "--merge-into", str(base_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "harvest: 1 files, 0 errors\n"
    assert from_xml(captured.out).dataset == merged
    assert [info.sizeBytes for info in merged.files] == [9, 4]


def test_reader_warnings_go_to_stderr(tmp_path, capsys):
    doc = tmp_path / "doc.xml"
    doc.write_text('<engMeta><project>p</project><foo/><title kind="x">T</title></engMeta>\n',
                   encoding="utf-8")
    assert main(["validate", "--in", str(doc)]) == 0
    assert capsys.readouterr().err == (
        f"warning: {doc}: engMeta: unknown element <foo> skipped\n"
        f"warning: {doc}: title[0]: unknown attribute 'kind' skipped\n"
        "validate: 0 errors, 0 warnings\n"
    )


STEPS_RULES = (
    "[rule steps]\ntarget = system.temporalResolution.numberOfTimesteps\nsource = *.log\n"
    "key = steps\ntype = integer\n"
)


def _extract_report(root: Path, tmp_path: Path) -> dict:
    rules = tmp_path / "rules.ini"
    rules.write_text(STEPS_RULES, encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["extract", "--config", str(rules), "--root", str(root),
                 "--out", str(tmp_path / "doc.xml"), "--report", str(report)]) == 0
    return json.loads(report.read_text(encoding="utf-8"))


def test_extract_warnings_and_coercion_failures_reach_stderr_and_report(tmp_path, capsys):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "run.log").write_bytes(b"steps = many\nnote = \xff\nsteps = 12\n")
    report = _extract_report(root, tmp_path)
    assert capsys.readouterr().err == (
        "warning: run.log: not valid UTF-8 from byte 20; undecodable bytes replaced\n"
        "extract: 1 files, 1 of 1 rules matched, 0 conflicts, 1 coercion failures\n"
    )
    assert report["coercionFailures"] == [{
        "rule": "steps", "file": "run.log", "line": 1, "rawValue": "many",
        "reason": "'many' is not an integer",
    }]
    assert report["warnings"] == [
        "run.log: not valid UTF-8 from byte 20; undecodable bytes replaced"]


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _strings(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from _strings(item)


def test_extract_names_non_utf8_files_with_replacement_characters(tmp_path, capsys):
    root = tmp_path / "tree"
    root.mkdir()
    try:
        with open(os.path.join(os.fsencode(root), b"caf\xe9.log"), "wb") as handle:
            handle.write(b"steps = many\n")
    except OSError:
        pytest.skip("the file system refuses names that are not UTF-8")
    (root / "cafe.log").write_bytes(b"steps = 7\n")
    report = _extract_report(root, tmp_path)
    note = ("caf\ufffd.log: file name b'caf\\xe9.log' is not UTF-8; "
            "listed with U+FFFD for its undecodable bytes")
    assert capsys.readouterr().err == (
        f"warning: {note}\n"
        "extract: 2 files, 1 of 1 rules matched, 0 conflicts, 1 coercion failures\n"
    )
    assert report["warnings"] == [note]
    assert report["coercionFailures"][0]["file"] == "caf\ufffd.log"
    for text in _strings(report):
        text.encode("utf-8")  # no lone surrogate anywhere


NON_UTF8_HARVEST_ERR = (
    "warning: bad\ufffdname.txt: file name b'bad\\xfename.txt' is not UTF-8; "
    "listed with U+FFFD for its undecodable bytes\n"
    "warning: bad\ufffdname.txt: file name b'bad\\xffname.txt' is not UTF-8; "
    "listed with U+FFFD for its undecodable bytes\n"
    "harvest: 3 files, 2 errors\n"
)


@pytest.mark.parametrize("fmt", ["xml", "json"])
@pytest.mark.parametrize("merge", [False, True])
def test_harvest_lists_non_utf8_file_names(fmt, merge, non_utf8_tree, empty_xml, tmp_path,
                                           capsys):
    out = tmp_path / f"listing.{fmt}"
    argv = ["harvest", "--root", str(non_utf8_tree), "--format", fmt, "--out", str(out)]
    if merge:
        argv += ["--merge-into", str(empty_xml)]
    assert main(argv) == 0
    assert capsys.readouterr().err == NON_UTF8_HARVEST_ERR
    text = out.read_text(encoding="utf-8")
    listing = (from_xml if fmt == "xml" else from_json)(text).dataset
    names = [info.filename for info in listing.files]
    assert names == ["bad\ufffdname.txt", "bad\ufffdname.txt", "good.txt"]
    assert main(["validate", "--in", str(out)]) == 0
    capsys.readouterr()


def test_harvest_writes_non_utf8_file_names_to_stdout_as_utf8(non_utf8_tree):
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "engmeta", "harvest", "--root",
         str(non_utf8_tree)],
        capture_output=True,
        env={**os.environ, "PYTHONUTF8": "1",  # stdout then writes os.fsdecode's bytes back
             "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert run.returncode == 0
    assert run.stderr.decode("utf-8") == NON_UTF8_HARVEST_ERR
    listing = from_xml(run.stdout.decode("utf-8")).dataset  # strict: no raw 0xFF byte
    assert [info.filename for info in listing.files][0] == "bad\ufffdname.txt"


@pytest.mark.parametrize("command", ["validate", "to-prov", "to-dataverse"])
def test_lone_surrogate_escape_in_json_is_reported_not_raised(command, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text('{"project": "a\\udcffb"}\n', encoding="utf-8")
    argv = [command, "--in", str(doc)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: project: 'a\\udcffb' holds a lone surrogate, not UTF-8 text\n"


@pytest.mark.parametrize("command", ["validate", "to-prov", "to-dataverse"])
def test_control_character_escape_in_json_is_reported_not_raised(command, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text('{"project": "a\\u0001b"}\n', encoding="utf-8")
    argv = [command, "--in", str(doc)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: project: 'a\\x01b' holds U+0001, which XML cannot carry\n"


def test_extract_of_an_ansi_coloured_log_validates(tmp_path, capsys):
    root = tmp_path / "run"
    root.mkdir()
    (root / "README.txt").write_bytes(b"Title: run \x1b[1mseven\x1b[0m\n")
    rules = tmp_path / "rules.conf"
    rules.write_text("[rule title]\ntarget = title[0].text\nsource = README.txt\n"
                     "key = Title\ndelimiter = :\n")
    out = tmp_path / "out.xml"
    assert main(["extract", "--config", str(rules), "--root", str(root), "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: README.txt: line 1 holds characters XML cannot carry; replaced with U+FFFD\n"
        "extract: 1 files, 1 of 1 rules matched, 0 conflicts, 0 coercion failures\n"
    )
    assert main(["validate", "--in", str(out)]) == 0
    titles = from_xml(out.read_text(encoding="utf-8")).dataset.titles
    assert titles[0].text == "run \ufffd[1mseven\ufffd[0m"


@pytest.mark.parametrize("fmt", ["xml", "json"])
def test_harvest_lists_file_names_xml_cannot_carry(fmt, tmp_path, capsys):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "a\x01b.log").write_text("x")
    out = tmp_path / f"listing.{fmt}"
    assert main(["harvest", "--root", str(root), "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: a\ufffdb.log: file name b'a\\x01b.log' holds characters XML cannot carry; "
        "listed with U+FFFD for each\nharvest: 1 files, 1 errors\n"
    )
    listing = (from_xml if fmt == "xml" else from_json)(out.read_text(encoding="utf-8")).dataset
    assert [info.filename for info in listing.files] == ["a\ufffdb.log"]
    assert main(["validate", "--in", str(out)]) == 0


def test_unknown_flag_is_usage_error(capsys):
    assert main(["extract", "--nope"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main(["validate", "--in", str(tmp_path / "gone.xml")]) == 3
    capsys.readouterr()


def test_missing_root_is_io_error(tmp_path, rules_path, capsys):
    config = rules_path
    assert main([
        "extract", "--config", str(config), "--root", str(tmp_path / "gone"),
    ]) == 3
    capsys.readouterr()


def test_missing_harvest_root_is_io_error(tmp_path, capsys):
    assert main(["harvest", "--root", str(tmp_path / "gone")]) == 3
    assert "is not a readable directory" in capsys.readouterr().err


def test_bad_config_is_usage_error(tmp_path, corpus_dir, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("[rule x]\nsource = *\nkey = K\n")  # missing target
    assert main(["extract", "--config", str(bad), "--root", str(corpus_dir)]) == 2
    capsys.readouterr()


def test_other_engmeta_error_is_usage_error(empty_xml, monkeypatch, capsys):
    # an EngMetaError that is no ConfigError, CanonError or OSError
    from engmeta import cli
    from engmeta.errors import ProvError

    def to_prov(args):
        raise ProvError("dangling endpoint in used(act_0, x)")

    monkeypatch.setattr(cli, "_cmd_to_prov", to_prov)
    assert main(["to-prov", "--in", str(empty_xml)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: dangling endpoint in used(act_0, x)\n")


def test_malformed_document_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.xml"
    path.write_text("<engMeta><title>oops</engMeta>")
    assert main(["validate", "--in", str(path)]) == 1
    capsys.readouterr()


def test_json_documents_accepted(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"project": "DiplIng"}\n')
    assert main(["validate", "--in", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name, text", [
    ("bom.xml", "<engMeta><project>DiplIng</project></engMeta>\n"),
    ("bom.json", '{"project": "DiplIng"}\n'),
], ids=["xml", "json"])
def test_documents_may_start_with_a_byte_order_mark(name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    out = tmp_path / "out.json"
    assert main(["to-dataverse", "--in", str(path), "--out", str(out)]) == 0
    assert "DiplIng" in out.read_text(encoding="utf-8")
    assert capsys.readouterr().err == ""


def test_undecodable_byte_after_a_byte_order_mark_keeps_its_file_offset(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"\xef\xbb\xbf<engMeta>\xff</engMeta>\n")
    assert main(["validate", "--in", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {bad}: not valid UTF-8 from byte 12"
    )


@pytest.mark.parametrize("command, golden", [
    ("to-prov", "golden.provn"),
    ("to-prov", "every_field.provn"),
    ("to-dataverse", "golden.blocks.json"),
    ("to-dataverse", "every_field.blocks.json"),
])
def test_publish_outputs_match_golden(command, golden, golden_xml_path, tmp_path, capsys):
    """PROV entity ids hash each node's repr, so this also pins the repr.

    Each golden output is read from the document named before its first dot;
    every_field.xml sets every field, so its blocks and PROV-N pin both
    crosswalks whole.
    """
    source = golden_xml_path.parent / f"{golden.split('.')[0]}.xml"
    out = tmp_path / golden
    assert main([command, "--in", str(source), "--out", str(out)]) == 0
    assert out.read_bytes() == (golden_xml_path.parent / golden).read_bytes()
    capsys.readouterr()


def test_decimal_over_digit_limit_names_the_reason(golden_xml_path, tmp_path, capsys):
    text = golden_xml_path.read_text(encoding="utf-8")
    assert text.count("<interval>0.002</interval>") == 1
    path = tmp_path / "long.xml"
    path.write_text(text.replace("<interval>0.002</interval>", "<interval>1e50000</interval>"),
                    encoding="utf-8")
    assert main(["validate", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: system.temporalResolution.interval: '1e50000' exceeds 4300 digits "
        "in plain notation\n"
    )


def test_repeated_runs_identical(tmp_path, corpus_dir, rules_path, capsys):
    args = ["extract", "--config", str(rules_path), "--root", str(corpus_dir)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("command, code", [
    (["validate", "--in", "{bad}"], 1),
    (["to-prov", "--in", "{bad}"], 1),
    (["to-dataverse", "--in", "{bad}"], 1),
    (["harvest", "--root", "{root}", "--merge-into", "{bad}"], 1),
    (["extract", "--config", "{bad}", "--root", "{root}"], 2),
])
def test_non_utf8_input_is_reported_not_raised(command, code, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff<engMeta/>\n")
    root = tmp_path / "root"
    root.mkdir()
    argv = [arg.format(bad=bad, root=root) for arg in command]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: {bad}: not valid UTF-8 from byte 0"


def test_validate_findings_order_matches_golden(golden_xml_path, capsys):
    """Findings at three depths across sibling lists (a file's checksum, a
    component's force field, a step's software) come in document order."""
    data = golden_xml_path.parent
    code = main(["validate", "--profile", "citable", "--in", str(data / "findings.xml")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == (data / "findings.validate.json").read_text(encoding="utf-8")
    assert captured.err == (data / "findings.validate.err").read_text(encoding="utf-8")


# Runs the CLI under a file-size limit, which it sets on its own process only,
# after its imports: a write past the limit fails with EFBIG ("File too large").
_LIMITED_CLI = """
import resource, sys
from engmeta.cli import main
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), int(sys.argv[1])))
sys.exit(main(sys.argv[2:]))
"""
FILE_SIZE_LIMIT = 1024


@pytest.mark.parametrize("command", [
    ["extract", "--config", "{rules}", "--root", "{corpus}", "--out", "{target}"],
    ["extract", "--config", "{rules}", "--root", "{corpus}", "--report", "{target}"],
    ["to-prov", "--in", "{every_field}", "--out", "{target}"],
    ["to-dataverse", "--in", "{every_field}", "--out", "{target}"],
    ["harvest", "--root", "{corpus}", "--out", "{target}"],
    ["harvest", "--root", "{corpus}", "--merge-into", "{target}", "--out", "{target}"],
], ids=["extract", "extract --report", "to-prov", "to-dataverse", "harvest",
        "harvest --merge-into in place"])
def test_a_failed_write_keeps_the_previous_file(command, tmp_path, corpus_dir, rules_path,
                                                golden_xml_path, capsys):
    pytest.importorskip("resource")
    target = tmp_path / "target"
    old = golden_xml_path.read_bytes()
    target.write_bytes(old)
    argv = [arg.format(rules=rules_path, corpus=corpus_dir, target=target,
                       every_field=golden_xml_path.parent / "every_field.xml")
            for arg in command]
    run = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, str(FILE_SIZE_LIMIT), *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert run.returncode == 3
    assert run.stderr.splitlines()[-1] == "error: [Errno 27] File too large"
    assert target.read_bytes() == old
    assert sorted(path.name for path in tmp_path.iterdir()) == ["target"]  # no temporary file

    assert main(argv) == 0  # the same command, unlimited, writes past the limit
    assert len(target.read_bytes()) > FILE_SIZE_LIMIT
    assert sorted(path.name for path in tmp_path.iterdir()) == ["target"]
    capsys.readouterr()


def test_a_failed_report_write_keeps_the_previous_document_too(tmp_path, rules_path):
    """Every output is written whole before any is replaced: a report cut short
    by the limit leaves the document of the earlier run beside it."""
    pytest.importorskip("resource")
    root, out, report = tmp_path / "root", tmp_path / "doc.xml", tmp_path / "rep.json"
    root.mkdir()
    out.write_text("old-doc", encoding="utf-8")
    report.write_text("old-report", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "300", "extract", "--config", str(rules_path),
         "--root", str(root), "--out", str(out), "--report", str(report)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert run.returncode == 3
    assert run.stderr.splitlines()[-1] == "error: [Errno 27] File too large"
    assert out.read_text(encoding="utf-8") == "old-doc"
    assert report.read_text(encoding="utf-8") == "old-report"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.xml", "rep.json", "root"]


def test_a_new_output_file_gets_the_mode_a_plain_write_gives(golden_xml_path, tmp_path, capsys):
    out = tmp_path / "doc.provn"
    umask = os.umask(0o027)
    try:
        assert main(["to-prov", "--in", str(golden_xml_path), "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o640
    capsys.readouterr()


def test_a_replaced_output_file_keeps_its_mode(golden_xml_path, tmp_path, capsys):
    out = tmp_path / "doc.provn"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(0o600)
    assert main(["to-prov", "--in", str(golden_xml_path), "--out", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o600
    assert out.read_bytes() == (golden_xml_path.parent / "golden.provn").read_bytes()
    capsys.readouterr()


def test_output_to_a_device_is_written_in_place(golden_xml_path, capsys):
    assert main(["to-prov", "--in", str(golden_xml_path), "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_a_symlinked_output_is_written_through(golden_xml_path, tmp_path, capsys):
    linked = tmp_path / "linked.provn"
    linked.write_text("old\n", encoding="utf-8")
    out = tmp_path / "doc.provn"
    out.symlink_to(linked)
    assert main(["to-prov", "--in", str(golden_xml_path), "--out", str(out)]) == 0
    assert out.is_symlink()
    assert linked.read_bytes() == (golden_xml_path.parent / "golden.provn").read_bytes()
    capsys.readouterr()


def test_a_hard_linked_output_is_written_in_place(golden_xml_path, tmp_path, capsys):
    other = tmp_path / "other.provn"
    other.write_text("old\n", encoding="utf-8")
    out = tmp_path / "doc.provn"
    os.link(other, out)
    assert main(["to-prov", "--in", str(golden_xml_path), "--out", str(out)]) == 0
    assert other.read_bytes() == (golden_xml_path.parent / "golden.provn").read_bytes()
    assert out.stat().st_ino == other.stat().st_ino
    capsys.readouterr()


@pytest.mark.skipif(not os.path.exists("/proc/self/fd/1"), reason="no /proc/self/fd")
def test_out_dev_stdout_writes_to_a_redirected_stdout(golden_xml_path, tmp_path):
    # /dev/stdout is a symlink to /proc/self/fd/1; a link of the same kind in tmp_path
    # takes the same path through _emit, and a writer that replaced it harms nothing else.
    stdout_link = tmp_path / "stdout"
    stdout_link.symlink_to("/proc/self/fd/1")
    redirected = tmp_path / "doc.provn"
    with redirected.open("w", encoding="utf-8") as stdout:
        run = subprocess.run(
            [sys.executable, "-m", "engmeta", "to-prov", "--in", str(golden_xml_path),
             "--out", str(stdout_link)],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
    assert run.returncode == 0, run.stderr
    assert redirected.read_bytes() == (golden_xml_path.parent / "golden.provn").read_bytes()
    assert stdout_link.is_symlink()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.provn", "stdout"]


def test_an_output_in_a_missing_directory_names_the_output(golden_xml_path, tmp_path, capsys):
    out = tmp_path / "gone" / "doc.provn"
    assert main(["to-prov", "--in", str(golden_xml_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert not (tmp_path / "gone").exists()


def test_a_file_holding_the_temporary_name_is_left_alone(golden_xml_path, tmp_path, capsys):
    out = tmp_path / "doc.provn"
    out.write_text("old\n", encoding="utf-8")
    held = tmp_path / f"doc.provn.{os.getpid()}.0.tmp"  # say, left by a killed run
    held.write_text("someone else's\n", encoding="utf-8")
    assert main(["to-prov", "--in", str(golden_xml_path), "--out", str(out)]) == 0
    assert out.read_bytes() == (golden_xml_path.parent / "golden.provn").read_bytes()
    assert held.read_text(encoding="utf-8") == "someone else's\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.provn", held.name]
    capsys.readouterr()
