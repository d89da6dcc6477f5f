import enum
import json
import os
import random
import re
import tracemalloc
from decimal import Decimal

import pytest

from engmeta.canon import to_xml
from engmeta.extract import engine as engine_module
from engmeta.errors import CoercionError, ConfigError, ExtractionRootError
from engmeta.extract import (
    assemble,
    coerce,
    extract,
    parse_config,
    parse_line,
    scan_file,
)
from engmeta.extract.config import ExtractionConfig, ExtractionRule
from engmeta.extract.engine import RawHit
from engmeta.fswalk import walk_files
from engmeta.merging import merge
from engmeta.model import EngMetaDataset, Variable
from engmeta.paths import get_path, parse_path
from corpus_expected import expected_corpus_dataset


def rule(key="nsteps", delimiter="=", **overrides) -> ExtractionRule:
    fields = dict(
        id="r", target=parse_path("project"), source="*", key=key, delimiter=delimiter
    )
    fields.update(overrides)
    return ExtractionRule(**fields)


# --- parse_line -------------------------------------------------------------

def test_parse_line_basic_match():
    hit = parse_line("nsteps = 5000000", rule())
    assert hit is not None
    assert hit.rawValue == "5000000"


def test_parse_line_key_must_be_whole():
    assert parse_line("nstepsize = 2", rule()) is None


def test_parse_line_empty_line_no_match():
    assert parse_line("", rule()) is None
    assert parse_line("   ", rule()) is None


def test_parse_line_splits_at_first_delimiter():
    hit = parse_line("ref-t = 300 300", rule(key="ref-t"))
    assert hit.rawValue == "300 300"
    hit = parse_line("Summary: a: b: c", rule(key="Summary", delimiter=":"))
    assert hit.rawValue == "a: b: c"


def test_parse_line_tolerates_leading_whitespace_and_tight_delimiters():
    assert parse_line("   nsteps=7", rule()).rawValue == "7"
    assert parse_line("\tnsteps\t= 7", rule()).rawValue == "7"


def test_parse_line_requires_delimiter():
    assert parse_line("nsteps 5000000", rule()) is None


def test_parse_line_empty_value_no_match():
    assert parse_line("nsteps =", rule()) is None


# --- coerce ----------------------------------------------------------------

def test_coerce_integer():
    assert coerce("5000000", "integer") == 5000000
    assert coerce("-12", "integer") == -12


def test_coerce_boolean_accept_list():
    for raw, expected in (
        ("yes", True), ("TRUE", True), ("1", True),
        ("no", False), ("False", False), ("0", False),
    ):
        assert coerce(raw, "boolean") is expected


def test_coerce_decimal_failure():
    with pytest.raises(CoercionError):
        coerce("300 300", "decimal")


def test_coerce_decimal_exact():
    value = coerce("0.1", "decimal")
    assert value == Decimal("0.1")
    assert isinstance(value, Decimal)


def test_coerce_date():
    assert coerce("2019-05-24", "date") == "2019-05-24"
    with pytest.raises(CoercionError):
        coerce("24.05.2019", "date")
    with pytest.raises(CoercionError, match="^unknown value type 'bogus'$"):
        coerce("2019-05-24", "bogus")
    # a hand-built hit may hold text no document carries; a scanned one holds U+FFFD
    with pytest.raises(CoercionError, match=r"^'a\\x01b' holds U\+0001, which XML cannot carry$"):
        coerce("a\x01b", "string")


def test_empty_raw_text_is_a_coercion_failure_not_an_empty_field():
    # parse_line gives no empty value; a hand-built hit may hold one
    with pytest.raises(CoercionError, match="^'' is empty$"):
        coerce("", "string")
    config = parse_config(
        "[rule vn]\ntarget = system.controlledVariables.name\nsource = *\nkey = VN\ngroup = v\n"
        "[rule p]\ntarget = project\nsource = *\nkey = P\n"
    )
    result = assemble([RawHit("vn", "a.log", 1, ""), RawHit("p", "a.log", 2, "")], config)
    assert result.dataset == EngMetaDataset()
    assert [(f.ruleId, f.reason) for f in result.coercionFailures] == [
        ("vn", "'' is empty"), ("p", "'' is empty"),
    ]


def test_date_text_xml_cannot_carry_is_a_coercion_failure():
    # the date-time rule takes any one character between date and time
    for raw, fault in (("2020-01-01\x0812", r"holds U\+0008, which XML cannot carry"),
                       ("2019-05-24\ud80012", "holds a lone surrogate, not UTF-8 text")):
        with pytest.raises(CoercionError, match=f"^{re.escape(repr(raw))} {fault}$"):
            coerce(raw, "date")
    # a value the ISO check refuses keeps that message, empty text included
    with pytest.raises(CoercionError, match="^'' is not an ISO-8601 date or date-time$"):
        coerce("", "date")
    for target in ("date.date\noccurrence = all", "processingStep[0].date"):
        config = parse_config(f"[rule d]\ntarget = {target}\nsource = *\nkey = D\ntype = date\n")
        result = assemble([RawHit("d", "a.log", 1, "2020-01-01\x0812")], config)
        assert result.dataset == EngMetaDataset()
        assert [f.reason for f in result.coercionFailures] == [
            r"'2020-01-01\x0812' holds U+0008, which XML cannot carry"
        ]


def test_coerce_integer_rejects_floats():
    with pytest.raises(CoercionError):
        coerce("5.5", "integer")


def test_coerce_reads_ascii_numbers_only():
    # int() and Decimal() alone take underscores and any Unicode digit
    for raw in ("²", "١٢", "1_0", "9" * 5000):
        with pytest.raises(CoercionError):
            coerce(raw, "integer")
    for raw in ("١٢", "1_0", "NaN", "-Infinity"):
        with pytest.raises(CoercionError):
            coerce(raw, "decimal")
    assert coerce("+1.0e-3", "decimal") == Decimal("0.001")


# --- assemble ----------------------------------------------------------------

def hits_for(config, lines_by_file):
    collected = []
    for source_file, lines in lines_by_file.items():
        applicable = [
            rule for rule in config.rules
            if engine_module.glob_matches(rule.source, source_file)
        ]
        for line_number, line in enumerate(lines, start=1):
            for config_rule in applicable:
                hit = parse_line(line, config_rule, source_file=source_file, line_number=line_number)
                if hit is not None:
                    collected.append(hit)
    return collected


def test_assemble_single_hit():
    config = parse_config(
        "[rule nsteps]\ntarget = system.temporalResolution.numberOfTimesteps\n"
        "source = *.mdp\nkey = nsteps\ntype = integer\n"
    )
    hits = hits_for(config, {"md.mdp": ["nsteps = 5000000"]})
    result = assemble(hits, config)
    assert get_path(result.dataset, "system.temporalResolution.numberOfTimesteps") == [5000000]
    assert result.conflicts == ()


def test_assemble_grouped_variable_with_unit():
    config = parse_config(
        "[rule names]\ntarget = system.controlledVariables.name\nsource = *\nkey = Control\ngroup = g\n"
        "[rule values]\ntarget = system.controlledVariables.value\nsource = *\nkey = Setpoint\n"
        "type = decimal\nunit = K\ngroup = g\n"
    )
    hits = hits_for(config, {"f": ["Control = temperature", "Setpoint = 300"]})
    result = assemble(hits, config)
    variables = result.dataset.system.controlledVariables
    assert len(variables) == 1
    assert variables[0].name == "temperature"
    assert variables[0].value == Decimal("300")
    assert variables[0].unit == "K"


def test_assemble_no_hits_gives_empty_dataset():
    config = parse_config(MINIMAL_ALL)
    result = assemble([], config)
    assert result.dataset == EngMetaDataset()


MINIMAL_ALL = "[rule kw]\ntarget = keyword\nsource = *\nkey = Keyword\ndelimiter = :\noccurrence = all\n"


def test_assemble_occurrence_all_appends_in_order():
    config = parse_config(MINIMAL_ALL)
    hits = hits_for(config, {"f": ["Keyword: a", "Keyword: b", "Keyword: a"]})
    result = assemble(hits, config)
    assert result.dataset.keywords == ("a", "b")  # exact repeats collapse


def test_assemble_occurrence_first_and_last():
    base = "target = project\nsource = *\nkey = Project\ndelimiter = :\n"
    first = parse_config(f"[rule p]\n{base}")
    last = parse_config(f"[rule p]\n{base}occurrence = last\n")
    lines = {"f": ["Project: one", "Project: two"]}
    assert assemble(hits_for(first, lines), first).dataset.project == "one"
    assert assemble(hits_for(last, lines), last).dataset.project == "two"


def test_assemble_cross_file_conflict_first_wins():
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = Project\ndelimiter = :\n")
    hits = hits_for(config, {"b.txt": ["Project: beta"], "a.txt": ["Project: alpha"]})
    result = assemble(hits, config)
    assert result.dataset.project == "alpha"  # lexicographic file order
    assert len(result.conflicts) == 1
    assert result.conflicts[0].chosen == "alpha"


def test_report_spells_conflict_values_as_the_document_does(tmp_path):
    (tmp_path / "a.txt").write_text("dt = 1.50\nok = yes\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("dt = 2\nok = no\n", encoding="utf-8")
    config = parse_config(
        "[rule dt]\ntarget = system.temporalResolution.interval\nsource = *.txt\nkey = dt\n"
        "type = decimal\n"
        "[rule ok]\ntarget = worked.success\nsource = *.txt\nkey = ok\ntype = boolean\n"
    )
    dataset, report = extract(tmp_path, config)
    xml = to_xml(dataset)
    assert "<interval>1.5</interval>" in xml and 'success="true"' in xml
    assert report.to_obj()["conflicts"] == [
        {"path": "system.temporalResolution.interval",
         "base": "1.5", "overlay": "2", "chosen": "1.5"},
        {"path": "worked.success", "base": "true", "overlay": "false", "chosen": "true"},
    ]


def test_assemble_identical_values_no_conflict():
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = Project\ndelimiter = :\n")
    hits = hits_for(config, {"a.txt": ["Project: same"], "b.txt": ["Project: same"]})
    result = assemble(hits, config)
    assert result.dataset.project == "same"
    assert result.conflicts == ()


def test_assemble_group_mismatch_warns_and_drops_surplus():
    config = parse_config(
        "[rule names]\ntarget = system.parameters.name\nsource = *\nkey = N\ngroup = g\n"
        "[rule values]\ntarget = system.parameters.value\nsource = *\nkey = V\ngroup = g\n"
    )
    hits = hits_for(config, {"f": ["N = a", "V = 1", "N = b"]})
    result = assemble(hits, config)
    assert len(result.dataset.system.parameters) == 1
    assert result.dataset.system.parameters[0].name == "a"
    assert len(result.warnings) == 1
    assert "mismatched" in result.warnings[0]


def test_assemble_defers_out_of_order_step_indices():
    """Step 2 metadata may live in a file that sorts before the step 0 log."""
    config = parse_config(
        "[rule s0]\ntarget = processingStep[0].stepType\nsource = z-first.log\nkey = S\ndelimiter = :\n"
        "[rule s1]\ntarget = processingStep[1].stepType\nsource = m-middle.log\nkey = S\ndelimiter = :\n"
        "[rule s2]\ntarget = processingStep[2].stepType\nsource = a-last.log\nkey = S\ndelimiter = :\n"
    )
    hits = hits_for(config, {
        "a-last.log": ["S: analysis"],
        "m-middle.log": ["S: post processing"],
        "z-first.log": ["S: data generation"],
    })
    result = assemble(hits, config)
    assert [step.stepType for step in result.dataset.processingSteps] == [
        "data generation", "post processing", "analysis",
    ]
    assert result.warnings == ()


def test_assemble_warns_on_unreachable_index():
    config = parse_config(
        "[rule s5]\ntarget = processingStep[5].stepType\nsource = *\nkey = S\ndelimiter = :\n"
    )
    hits = hits_for(config, {"f": ["S: analysis"]})
    result = assemble(hits, config)
    assert result.dataset == EngMetaDataset()
    assert len(result.warnings) == 1
    assert "not reachable" in result.warnings[0]


def test_assemble_coercion_failure_drops_hit_and_continues():
    config = parse_config(
        "[rule n]\ntarget = system.temporalResolution.numberOfTimesteps\n"
        "source = *\nkey = nsteps\ntype = integer\n"
        "[rule p]\ntarget = project\nsource = *\nkey = Project\ndelimiter = :\n"
    )
    hits = hits_for(config, {"f": ["nsteps = many", "Project: ok"]})
    result = assemble(hits, config)
    assert result.dataset.system is None
    assert result.dataset.project == "ok"
    assert len(result.coercionFailures) == 1
    assert result.coercionFailures[0].ruleId == "n"


# --- extract over the corpus --------------------------------------------------

def test_extract_corpus_matches_golden(corpus_dir, rules_path, golden_xml_path):
    config = parse_config(rules_path.read_text())
    dataset, report = extract(corpus_dir, config, mode="serial")

    golden = golden_xml_path.read_text()
    assert to_xml(dataset) == golden
    assert to_xml(expected_corpus_dataset()) == golden  # frozen file matches the hand trace
    assert dataset == expected_corpus_dataset()

    assert report.rulesUnmatched == ()
    assert sorted(report.rulesMatched) == sorted(r.id for r in config.rules)
    assert report.conflicts == ()
    assert report.coercionFailures == ()
    assert report.warnings == ()
    assert report.filesScanned == 5  # energy.dat matches no rule
    # 19 single-hit rules + 3 keywords + 2 software + 2x2 each grouped pair
    assert sum(report.hitsPerRule.values()) == 32
    assert report.hitsPerRule["software"] == 2  # first one wins
    assert report.hitsPerRule["keywords"] == 3


def test_extract_serial_and_parallel_identical(corpus_dir, rules_path):
    config = parse_config(rules_path.read_text())
    serial, _ = extract(corpus_dir, config, mode="serial")
    parallel, _ = extract(corpus_dir, config, mode="parallel", workers=4)
    assert to_xml(serial) == to_xml(parallel)


def test_parallel_mode_keeps_its_call_shape(corpus_dir, rules_path, golden_xml_path,
                                           monkeypatch):
    # perfbench/traced.py calls extract(root, config, "parallel", workers)
    # positionally; ENGMETA_WORKERS is not read, so a bad value is harmless
    monkeypatch.setenv("ENGMETA_WORKERS", "zero")
    config = parse_config(rules_path.read_text())
    dataset, _ = extract(corpus_dir, config, "parallel", 3)
    assert to_xml(dataset) == golden_xml_path.read_text()
    with pytest.raises(ValueError, match="unknown mode"):
        extract(corpus_dir, config, mode="threads")


def test_extract_enumeration_order_does_not_matter(corpus_dir, rules_path, monkeypatch):
    config = parse_config(rules_path.read_text())
    expected_xml = to_xml(expected_corpus_dataset())
    true_scandir = os.scandir

    class ShuffledListing:
        """A directory listing in an order of its own, as a file system may give it."""

        def __init__(self, path):
            with true_scandir(path) as listing:
                self.entries = list(listing)
            random.Random(1234).shuffle(self.entries)

        def __enter__(self):
            return iter(self.entries)

        def __exit__(self, *exc_info):
            return False

    expected_report = _report_json(extract(corpus_dir, config)[1])
    monkeypatch.setattr(os, "scandir", ShuffledListing)
    for mode in ("serial", "parallel"):
        dataset, report = extract(corpus_dir, config, mode=mode)
        assert to_xml(dataset) == expected_xml
        assert _report_json(report) == expected_report


def _report_json(report) -> str:
    """The report as --report writes it, without its one timing."""
    obj = report.to_obj()
    del obj["elapsedSeconds"]
    return json.dumps(obj)


def test_extract_empty_directory(tmp_path, rules_path):
    config = parse_config(rules_path.read_text())
    dataset, report = extract(tmp_path, config)
    assert dataset == EngMetaDataset()
    assert report.filesScanned == 0
    assert report.rulesMatched == ()


@pytest.mark.parametrize("source, project, files", [
    ("md.log", "a", 2),  # no "/": the file name, in any directory
    ("b/*.log", "b", 1),  # a "/": the path relative to the root
    ("*/md.log", "a", 2),
    ("md*/md.log", None, 0),
    ("b/md.log", "b", 1),  # no wildcard: looked up as the relative path
    ("md.lo", None, 0),  # or as the file name, whole
])
def test_extract_source_with_a_slash_matches_the_relative_path(tmp_path, source, project,
                                                               files):
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        (tmp_path / run / "md.log").write_text(f"P = {run}\n", encoding="utf-8")
    config = parse_config(f"[rule p]\ntarget = project\nsource = {source}\nkey = P\n")
    dataset, report = extract(tmp_path, config)
    assert (dataset.project, report.hitsPerRule.get("p", 0)) == (project, files)


def test_extract_missing_root_is_fatal(tmp_path, rules_path):
    config = parse_config(rules_path.read_text())
    with pytest.raises(ExtractionRootError):
        extract(tmp_path / "nowhere", config)


def test_extract_duplicated_corpus_is_idempotent(tmp_path, corpus_dir, rules_path):
    import shutil

    shutil.copytree(corpus_dir, tmp_path / "copy-a")
    shutil.copytree(corpus_dir, tmp_path / "copy-b")
    config = parse_config(rules_path.read_text())
    dataset, report = extract(tmp_path, config)
    assert dataset == expected_corpus_dataset()
    assert report.conflicts == ()
    assert report.filesScanned == 10


def test_extract_concatenation_equals_merge_of_parts(tmp_path, corpus_dir, rules_path):
    """Splitting a corpus into disjoint halves and merging the two
    extractions (first-wins) gives the same document as one big run."""
    import shutil

    part_a = tmp_path / "whole" / "a"
    part_b = tmp_path / "whole" / "b"
    part_a.mkdir(parents=True)
    shutil.copy(corpus_dir / "README.txt", part_a / "README.txt")
    shutil.copytree(corpus_dir / "run", part_b / "run")
    shutil.copytree(corpus_dir / "env", part_b / "env")

    config = parse_config(rules_path.read_text())
    combined, _ = extract(tmp_path / "whole", config)
    from_a, _ = extract(part_a, config)
    from_b, _ = extract(part_b, config)
    merged, conflicts = merge(from_a, from_b, "first-wins")
    assert to_xml(combined) == to_xml(merged)
    assert conflicts == []


def test_scan_file_counts_and_warnings(tmp_path):
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = P\ndelimiter = :\n")
    target = tmp_path / "x.txt"
    target.write_text("P: hello\nnoise\nP: again\n")
    hits, nbytes, warnings = scan_file(target, "x.txt", list(config.rules))
    assert [h.lineNumber for h in hits] == [1, 3]
    assert nbytes == target.stat().st_size
    assert warnings == []
    missing_hits, missing_bytes, missing_warnings = scan_file(
        tmp_path / "gone.txt", "gone.txt", list(config.rules)
    )
    assert (missing_hits, missing_bytes) == ([], 0)
    assert len(missing_warnings) == 1


def test_byte_order_mark_is_dropped_from_the_first_line_only(tmp_path):
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = P\ndelimiter = :\n")
    target = tmp_path / "x.txt"
    data = b"\xef\xbb\xbfP: one\n\xef\xbb\xbfP: two\n\xff\n"
    target.write_bytes(data)
    hits, nbytes, warnings = scan_file(target, "x.txt", list(config.rules))
    assert [(h.lineNumber, h.rawValue) for h in hits] == [(1, "one")]
    assert nbytes == len(data)  # the mark is read and counted
    assert warnings == ["x.txt: not valid UTF-8 from byte 20; undecodable bytes replaced"]


def test_non_utf8_bytes_are_reported(tmp_path):
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = P\ndelimiter = :\n")
    target = tmp_path / "x.txt"
    data = b"P: one\n\xff\nP: caf\xe9\nP: two\n"
    target.write_bytes(data)
    hits, nbytes, warnings = scan_file(target, "x.txt", list(config.rules))
    assert [h.rawValue for h in hits] == ["one", "caf\ufffd", "two"]
    assert nbytes == len(data)
    assert warnings == ["x.txt: not valid UTF-8 from byte 7; undecodable bytes replaced"]


def test_characters_xml_cannot_carry_are_replaced_and_reported(tmp_path):
    # ANSI colour codes, as simulation logs hold them; each warning names the first place
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = P\ndelimiter = :\n")
    target = tmp_path / "x.txt"
    target.write_bytes(b"P: one\nP: \x1b[1mseven\x1b[0m\n\xff\nP: a\x01\tb\xef\xbf\xbe\n")
    hits, _, warnings = scan_file(target, "x.txt", list(config.rules))
    assert [h.rawValue for h in hits] == ["one", "\ufffd[1mseven\ufffd[0m", "a\ufffd\tb\ufffd"]
    assert warnings == ["x.txt: not valid UTF-8 from byte 24; undecodable bytes replaced",
                        "x.txt: line 2 holds characters XML cannot carry; replaced with U+FFFD"]


def test_scan_memory_grows_with_the_longest_line_not_the_file(tmp_path):
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = P\ndelimiter = :\n")
    longest = 256 * 1024
    target = tmp_path / "big.log"
    with target.open("wb") as handle:
        handle.write(b"P: first\n")
        block = b"   12345   -4.2e+04   3.1e+04   300.000\n" * 26_215  # 40-byte lines, 1 MiB
        for _ in range(8):
            handle.write(block)
        handle.write(b"x" * longest + b"\nP: last")
    tracemalloc.start()
    try:
        hits, nbytes, warnings = scan_file(target, "big.log", list(config.rules))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [h.rawValue for h in hits] == ["first", "last"]
    assert (nbytes, warnings) == (target.stat().st_size, [])
    # the line being read, its decoded copy and the reader's parts of it
    assert peak < 256 * 1024 + 4 * longest, peak


def test_unreadable_directory_is_reported(tmp_path, make_unlistable):
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = P\ndelimiter = :\n")
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.txt").write_text("P: seen\n")
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "y.txt").write_text("P: hidden\n")
    make_unlistable(tmp_path / "b")
    dataset, report = extract(tmp_path, config)
    assert dataset.project == "seen"
    assert report.filesScanned == 1
    assert len(report.warnings) == 1
    assert report.warnings[0].startswith("b: unreadable directory, skipped (")


def test_non_ascii_digits_are_coercion_failures(tmp_path):
    (tmp_path / "md.log").write_text("nsteps = ²\ndt = 1_0\n", encoding="utf-8")
    config = parse_config(
        "[rule n]\ntarget = system.temporalResolution.numberOfTimesteps\nsource = *\n"
        "key = nsteps\ntype = integer\n"
        "[rule dt]\ntarget = system.temporalResolution.interval\nsource = *\n"
        "key = dt\ntype = decimal\n"
    )
    dataset, report = extract(tmp_path, config)
    assert dataset == EngMetaDataset()
    assert [(f.ruleId, f.reason) for f in report.coercionFailures] == [
        ("n", "'²' is not an integer"),
        ("dt", "'1_0' is not a decimal number"),
    ]


def test_decimal_over_digit_limit_is_a_coercion_failure(tmp_path):
    (tmp_path / "md.log").write_text("dt = 1e50000\ndx = 1e-4300\n", encoding="utf-8")
    config = parse_config(
        "[rule dt]\ntarget = system.temporalResolution.interval\nsource = *\n"
        "key = dt\ntype = decimal\n"
        "[rule dx]\ntarget = system.spatialResolution.scale\nsource = *\n"
        "key = dx\ntype = decimal\n"
    )
    dataset, report = extract(tmp_path, config)
    assert dataset == EngMetaDataset()
    assert [(f.ruleId, f.reason) for f in report.coercionFailures] == [
        ("dt", "'1e50000' exceeds 4300 digits in plain notation"),
        ("dx", "'1e-4300' exceeds 4300 digits in plain notation"),
    ]


def test_crlf_lines_handled(tmp_path):
    config = parse_config("[rule p]\ntarget = project\nsource = *\nkey = P\ndelimiter = :\n")
    target = tmp_path / "dos.txt"
    target.write_bytes(b"P: windows value\r\nnoise\r\n")
    dataset, _ = extract(tmp_path, config)
    assert dataset.project == "windows value"


def test_report_hit_accounting_matches_rescan(corpus_dir, rules_path):
    """Every reported hit, re-read independently, matches parse_line."""
    config = parse_config(rules_path.read_text())
    _, report = extract(corpus_dir, config)
    total = 0
    for config_rule in config.rules:
        for relative, absolute in [
            (rel, corpus_dir / rel)
            for rel in (
                "README.txt", "env/cluster.info", "run/md.log",
                "run/md.mdp", "run/system.top", "run/energy.dat",
            )
        ]:
            if not engine_module.glob_matches(config_rule.source, relative):
                continue
            for line_number, line in enumerate(
                absolute.read_text().split("\n"), start=1
            ):
                if parse_line(line.rstrip("\r"), config_rule) is not None:
                    total += 1
    assert total == sum(report.hitsPerRule.values())


def test_extract_memory_holds_one_file_of_hits(tmp_path):
    """Each file is assembled as it is scanned: the tree's hits are never all held."""
    body = "step = 7\n" * 1000
    for i in range(100):
        (tmp_path / f"run{i:03d}.log").write_text(body, encoding="utf-8")
    config = parse_config(
        "[rule step]\ntarget = project\nsource = *.log\nkey = step\noccurrence = last\n"
    )
    tracemalloc.start()
    try:
        dataset, report = extract(tmp_path, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dataset.project == "7"
    assert report.hitsPerRule == {"step": 100_000}
    assert report.conflicts == ()
    # one file's 1000 hits; the tree's 100 000 took over 13 MiB
    assert peak < 2 * 1024 * 1024, peak


# --- hand-built rules -------------------------------------------------------

def test_hand_built_list_rules_extract(tmp_path):
    (tmp_path / "notes.txt").write_text("K = alpha\nK = beta\n", encoding="utf-8")
    (tmp_path / "run.mdp").write_text("N = nsteps\nN = dt\n", encoding="utf-8")
    keywords = ExtractionRule(id="kw", target=parse_path("keyword"), source="*.txt",
                              key="K", occurrence="all")
    names = ExtractionRule(id="name", target=parse_path("system.parameters.name"),
                           source="*.mdp", key="N", group="g")
    dataset, report = extract(tmp_path, ExtractionConfig((keywords, names)))
    assert dataset.keywords == ("alpha", "beta")
    assert [p.name for p in dataset.system.parameters] == ["nsteps", "dt"]
    assert report.warnings == ()
    assert list(report.hitsPerRule.items()) == [("kw", 2), ("name", 2)]


@pytest.mark.parametrize("fields, message", [
    (dict(target="project", valueType="integer"), "type integer cannot fill target project"),
    (dict(target="keyword"), "index-less list segment 'keyword'"),
    (dict(target="system.parameters.name"), "index-less list segment 'parameters'"),
    (dict(target="project", valueType="float"), "bad type 'float'"),
    (dict(target="project", occurrence="every"), "bad occurrence 'every'"),
    (dict(target="project", occurrence="all"),
     "target project needs exactly one index-less list segment for occurrence=all"),
    (dict(target="keyword", group="g"),
     "grouped rules must target a field inside a node list"),
    # several faults: the first in the order the parser checks them
    (dict(target="project", valueType="float", unit=""), "bad type 'float'"),
    (dict(target="processingStep.software[0].name", occurrence="all"),
     r"^line 3: rule 'r': target processingStep\.software\[0\]\.name nests a list inside "
     r"the open list segment$"),
])
def test_hand_built_invalid_rules_fail_when_built(fields, message):
    target = parse_path(fields.pop("target"))
    with pytest.raises(ConfigError, match=message) as excinfo:
        ExtractionRule(id="r", target=target, source="*", key="K", line=3, **fields)
    assert excinfo.value.line == 3


@pytest.mark.parametrize("name", ["source", "key", "delimiter", "unit", "group"])
def test_hand_built_rules_reject_empty_text_fields(name):
    fields = dict(id="r", target=parse_path("system.controlledVariables.value"), source="*",
                  key="K", occurrence="all", line=3)
    with pytest.raises(ConfigError) as excinfo:
        ExtractionRule(**{**fields, name: ""})
    assert str(excinfo.value) == f"line 3: rule 'r': {name} must not be empty"
    assert excinfo.value.line == 3


@pytest.mark.parametrize("name", ["source", "key", "delimiter", "unit", "group"])
@pytest.mark.parametrize("value", [None, 7, ("K",), b"K"])
def test_hand_built_rules_reject_text_fields_that_are_not_str(name, value):
    """Caught when built, not by a TypeError from the line scan of ``extract``."""
    fields = dict(id="r", target=parse_path("system.controlledVariables.value"), source="*",
                  key="K", occurrence="all", line=3)
    if value is None and name in ("unit", "group"):  # None leaves them unset
        assert getattr(ExtractionRule(**{**fields, name: value}), name) is None
        return
    with pytest.raises(ConfigError) as excinfo:
        ExtractionRule(**{**fields, name: value})
    assert str(excinfo.value) == f"line 3: rule 'r': {name} must be text, got {value!r}"
    assert excinfo.value.line == 3


def test_hits_per_rule_lists_rules_in_order_of_their_first_hit(tmp_path):
    # "Te=1" matches te and t, the longer key declared first, and tt, te's twin
    (tmp_path / "run.log").write_text("X = 0\nTe=1\nT = 2\n", encoding="utf-8")
    config = parse_config(
        "[rule te]\ntarget = keyword\nsource = *\nkey = Te\noccurrence = all\n"
        "[rule x]\ntarget = project\nsource = *\nkey = X\n"
        "[rule t]\ntarget = keyword\nsource = *\nkey = T\ndelimiter = e=\noccurrence = all\n"
        "[rule tt]\ntarget = keyword\nsource = *\nkey = Te\noccurrence = all\n"
    )
    hits, _, _ = scan_file(tmp_path / "run.log", "run.log", list(config.rules))
    assert [(hit.ruleId, hit.lineNumber) for hit in hits] == [
        ("x", 1), ("te", 2), ("t", 2), ("tt", 2),
    ]
    dataset, report = extract(tmp_path, config)
    assert list(report.hitsPerRule.items()) == [("x", 1), ("te", 1), ("t", 1), ("tt", 1)]
    assert (dataset.project, dataset.keywords) == ("0", ("1",))


def test_group_instances_hold_the_values_a_checked_node_holds(tmp_path):
    class Unit(str, enum.Enum):
        KELVIN = "K"

    (tmp_path / "run.log").write_text("V = 300\nE = 3\nV = 310\nE = 01\n", encoding="utf-8")
    target = "system.controlledVariables.{}"
    rules = (
        ExtractionRule(id="v", target=parse_path(target.format("value")), source="*", key="V",
                       valueType="integer", group="v", unit=Unit.KELVIN),
        ExtractionRule(id="e", target=parse_path(target.format("uncertainty")), source="*",
                       key="E", valueType="integer", group="v"),
    )
    dataset, _ = extract(tmp_path, ExtractionConfig(rules))
    variables = dataset.system.controlledVariables
    # an integer stays one in the tagged value and becomes a Decimal in a decimal field
    assert [(v.value, type(v.unit), v.unit, v.uncertainty) for v in variables] == [
        (300, str, "K", Decimal(3)), (310, str, "K", Decimal(1)),
    ]
    assert [type(v.uncertainty) for v in variables] == [Decimal, Decimal]
    assert variables == tuple(Variable(value=v.value, unit=Unit.KELVIN, uncertainty=v.uncertainty)
                              for v in variables)
    assert "<unit>K</unit>" in to_xml(dataset)


def test_hand_built_rule_plan_is_derived_not_given():
    with pytest.raises(TypeError):
        ExtractionRule(id="r", target=parse_path("project"), source="*", key="K",
                       shape=None)
    built = ExtractionRule(id="r", target=parse_path("system.parameters.value"),
                           source="*", key="K", occurrence="all", line=1)
    assert built.shape.open_list == parse_path("system.parameters")
    assert built.shape.in_node == ((), "value", False)
    assert built == parse_config(
        "[rule r]\ntarget = system.parameters.value\nsource = *\nkey = K\noccurrence = all\n"
    ).rules[0]


def test_hand_built_group_on_different_lists_fails():
    name = ExtractionRule(id="name", target=parse_path("system.controlledVariables.name"),
                          source="*", key="N", group="g")
    value = ExtractionRule(id="value", target=parse_path("system.measuredVariables.value"),
                           source="*", key="V", group="g", line=9)
    with pytest.raises(ConfigError, match="rules 'name' and 'value' target different lists"):
        ExtractionConfig((name, value))
    with pytest.raises(ConfigError, match=r"duplicate rule id 'name'"):
        ExtractionConfig((name, name))


# --- file names that are not UTF-8 --------------------------------------------

STEPS = parse_config(
    "[rule steps]\ntarget = system.temporalResolution.numberOfTimesteps\nsource = *.log\n"
    "key = steps\ntype = integer\n"
)


def _write_raw(root, raw_name: bytes, content: bytes) -> None:
    try:
        with open(os.path.join(os.fsencode(root), raw_name), "wb") as handle:
            handle.write(content)
    except OSError:
        pytest.skip("the file system refuses names that are not UTF-8")


def test_extraction_sorts_files_by_their_file_system_names(tmp_path):
    # "a\udcff" (from the byte 0xFF) sorts before "a\ue000", its replacement
    # "a\ufffd" after: files are assembled in the first order
    _write_raw(tmp_path, b"a\xff.log", b"steps = 1\n")
    _write_raw(tmp_path, "a\ue000.log".encode(), b"steps = 2\n")
    dataset, report = extract(tmp_path, STEPS)
    assert dataset.system.temporalResolution.numberOfTimesteps == 1
    assert [(c.base, c.overlay) for c in report.conflicts] == [(1, 2)]
    assert report.warnings == ("a\ufffd.log: file name b'a\\xff.log' is not UTF-8; "
                               "listed with U+FFFD for its undecodable bytes",)


def test_source_names_such_files_with_replacement_characters(tmp_path):
    _write_raw(tmp_path, b"a\x80.log", b"x = 1\n")
    _write_raw(tmp_path, b"b\x01.log", b"x = 2\n")
    config = parse_config("[rule a]\ntarget = project\nsource = a\ufffd.log\nkey = x\n\n"
                          "[rule b]\ntarget = keyword[0]\nsource = b\ufffd.log\nkey = x\n")
    dataset, report = extract(tmp_path, config)
    assert (dataset.project, dataset.keywords) == ("1", ("2",))
    assert (report.filesScanned, report.rulesUnmatched) == (2, ())


def test_unreadable_directory_is_named_with_replacement_characters(tmp_path, monkeypatch):
    unreadable = os.path.join(os.fsencode(tmp_path), b"d\xff")
    try:
        os.mkdir(unreadable)
    except OSError:
        pytest.skip("the file system refuses names that are not UTF-8")
    (tmp_path / "x.log").write_text("steps = 3\n")
    listed = os.scandir

    def scandir(path):
        if os.fsencode(path) == unreadable:
            raise PermissionError(13, "Permission denied")
        return listed(path)

    monkeypatch.setattr(os, "scandir", scandir)
    reported = []
    assert [name for name, _ in walk_files(tmp_path, lambda name, _: reported.append(name))] == [
        "x.log"]
    assert reported == ["d\ufffd"]
    _, report = extract(tmp_path, STEPS)
    assert report.warnings == (
        "d\ufffd: unreadable directory, skipped ([Errno 13] Permission denied)",)
