import pytest

from engmeta.canon import to_json, to_xml
from engmeta.model import (
    NODE,
    NODE_LIST,
    Checksum,
    DatedEvent,
    EngMetaDataset,
    Environment,
    FileInfo,
    ObservedSystem,
    PersistentIdentifier,
    PersonOrOrganization,
    ProcessingStep,
    RelatedIdentifier,
    Software,
    TemporalResolution,
    Title,
    Variable,
    _field,
    schema,
)
from engmeta.validation import load_codes, validate


def error_paths(report):
    return [finding.path for finding in report.errors]


def test_empty_dataset_is_structurally_valid():
    report = validate(EngMetaDataset(), "structural")
    assert report.errors == ()
    assert report.ok


def test_empty_dataset_citable_has_four_errors():
    report = validate(EngMetaDataset(), "citable")
    assert len(report.errors) == 4
    assert error_paths(report) == ["title", "description", "date", "person"]


def test_unknown_step_type_flagged_with_path():
    doc = EngMetaDataset(processingSteps=(ProcessingStep(stepType="simulation"),))
    report = validate(doc, "structural")
    assert len(report.errors) == 1
    assert error_paths(report) == ["processingStep[0].stepType"]


def test_md5_digest_of_wrong_length_flagged():
    doc = EngMetaDataset(
        files=(FileInfo(filename="a.trr", checksum=Checksum("a" * 64, "MD5")),)
    )
    report = validate(doc, "structural")
    assert len(report.errors) == 1
    assert error_paths(report) == ["file[0].checksum.digest"]


def test_sha256_digest_length_rule():
    good = Checksum("b" * 64, "SHA-256")
    bad = Checksum("b" * 32, "SHA-256")
    assert validate(EngMetaDataset(files=(FileInfo(filename="x", checksum=good),))).ok
    report = validate(EngMetaDataset(files=(FileInfo(filename="x", checksum=bad),)))
    assert error_paths(report) == ["file[0].checksum.digest"]


def test_digest_must_be_lowercase_hex():
    doc = EngMetaDataset(
        files=(FileInfo(filename="x", checksum=Checksum("Z" * 32, "MD5")),)
    )
    assert error_paths(validate(doc)) == ["file[0].checksum.digest"]


def test_unknown_checksum_algorithm_flagged():
    doc = EngMetaDataset(
        files=(FileInfo(filename="x", checksum=Checksum("a" * 40, "SHA-1")),)
    )
    assert error_paths(validate(doc)) == ["file[0].checksum.algorithm"]


def test_bad_iso_date_flagged():
    doc = EngMetaDataset(dates=(DatedEvent(date="24.05.2019", dateType="created"),))
    assert error_paths(validate(doc)) == ["date[0].date"]


def test_iso_datetime_with_zone_accepted():
    doc = EngMetaDataset(dates=(DatedEvent(date="2019-05-24T18:30:00Z"),))
    assert validate(doc).ok


def test_step_date_checked():
    doc = EngMetaDataset(processingSteps=(ProcessingStep(date="yesterday"),))
    assert error_paths(validate(doc)) == ["processingStep[0].date"]


def test_unknown_role_flagged():
    doc = EngMetaDataset(persons=(PersonOrOrganization(name="J", role="inventor"),))
    assert error_paths(validate(doc)) == ["person[0].role"]


def test_unknown_title_type_flagged():
    doc = EngMetaDataset(titles=(Title(text="x", titleType="catchy"),))
    assert error_paths(validate(doc)) == ["title[0].titleType"]


def test_context_entry_requires_identifier_and_codes():
    doc = EngMetaDataset(context=(RelatedIdentifier(identifier="10.1000/x"),))
    report = validate(doc)
    assert error_paths(report) == [
        "context[0].relatedIdentifierType",
        "context[0].relationType",
    ]


def test_pid_requires_scheme_and_value():
    doc = EngMetaDataset(pid=PersistentIdentifier(value="10.18419/darus-1"))
    assert error_paths(validate(doc)) == ["pid.scheme"]


def test_blank_string_flagged():
    doc = EngMetaDataset(titles=(Title(text="   "),))
    assert error_paths(validate(doc)) == ["title[0].text"]


def test_counts_must_be_positive():
    doc = EngMetaDataset(
        processingSteps=(ProcessingStep(environment=Environment(nodes=0)),),
        system=ObservedSystem(temporalResolution=TemporalResolution(numberOfTimesteps=-1)),
    )
    assert error_paths(validate(doc)) == [
        "system.temporalResolution.numberOfTimesteps",
        "processingStep[0].environment.nodes",
    ]


def test_uncertainty_needs_numeric_value():
    from decimal import Decimal

    bad = Variable(name="T", value="hot", uncertainty=Decimal("0.5"))
    doc = EngMetaDataset(system=ObservedSystem(parameters=(bad,)))
    assert error_paths(validate(doc)) == ["system.parameters[0].uncertainty"]


def test_duplicate_variable_names_flagged():
    doc = EngMetaDataset(
        system=ObservedSystem(
            controlledVariables=(Variable(name="T", value=1), Variable(name="T", value=2)),
        )
    )
    assert error_paths(validate(doc)) == ["system.controlledVariables[1].name"]


def test_bad_uri_flagged():
    doc = EngMetaDataset(
        processingSteps=(
            ProcessingStep(software=(Software(name="x", url="not a uri"),)),
        )
    )
    assert error_paths(validate(doc)) == ["processingStep[0].software[0].url"]


def test_findings_enumerate_all_problems():
    doc = EngMetaDataset(
        dates=(DatedEvent(date="nope"),),
        processingSteps=(ProcessingStep(stepType="simulation"),),
        files=(FileInfo(filename="x", checksum=Checksum("a" * 10, "MD5")),),
    )
    report = validate(doc, "structural")
    assert len(report.errors) == 3  # never aborts on the first one


def test_unknown_code_lists_warn_not_error():
    doc = EngMetaDataset(dates=(DatedEvent(date="2019-05-24", dateType="findings"),))
    report = validate(doc)
    assert report.ok
    assert [f.path for f in report.warnings] == ["date[0].dateType"]


def test_writers_and_validate_take_only_a_dataset():
    # a bare node would be written as the root and read back empty
    title = Title(text="x", titleType="main")
    for call, argument, got in ((to_xml, title, "Title"), (to_json, title, "Title"),
                                (to_xml, 42, "int"), (validate, None, "NoneType")):
        with pytest.raises(TypeError, match=f"^expected an EngMetaDataset, got {got}$"):
            call(argument)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        validate(EngMetaDataset(), "publishable")


def test_documents_built_by_set_path_stay_valid():
    from decimal import Decimal

    from engmeta.paths import set_path

    writes = [
        ("title[0].text", "Shear flow study"),
        ("title[0].titleType", "main"),
        ("date[0].date", "2019-05-24"),
        ("date[0].dateType", "created"),
        ("person[0].name", "Jane Researcher"),
        ("person[0].role", "author"),
        ("pid.value", "10.18419/darus-7"),
        ("pid.scheme", "DOI"),
        ("context[0].identifier", "10.1000/ref-1"),
        ("context[0].relatedIdentifierType", "doi"),
        ("context[0].relationType", "isSupplementTo"),
        ("system.controlledVariables[0].name", "temperature"),
        ("system.controlledVariables[0].value", Decimal("300")),
        ("system.controlledVariables[0].unit", "K"),
        ("system.temporalResolution.numberOfTimesteps", 5000000),
        ("processingStep[0].stepType", "data generation"),
        ("processingStep[0].software[0].name", "Gromacs"),
        ("worked.success", True),
        ("file[0].filename", "traj.trr"),
        ("file[0].sizeBytes", 1024),
    ]
    doc = EngMetaDataset()
    for path, value in writes:
        doc = set_path(doc, path, value)
    assert validate(doc, "structural").errors == ()


def test_gromacs_fixture_structurally_valid(gromacs_doc):
    report = validate(gromacs_doc, "structural")
    assert report.errors == ()


def test_gromacs_fixture_citable(gromacs_doc):
    assert validate(gromacs_doc, "citable").ok


def _node_classes(cls=EngMetaDataset, found=None) -> set:
    found = set() if found is None else found
    found.add(cls)
    for spec in schema(cls):
        if spec.kind in (NODE, NODE_LIST) and spec.value_type not in found:
            _node_classes(spec.value_type, found)
    return found


def test_every_code_list_a_field_rule_names_exists():
    named = {
        spec.rules.codes
        for cls in _node_classes()
        for spec in schema(cls)
        if spec.rules is not None and spec.rules.codes is not None
    }
    assert len(named) == 8
    assert named == set(load_codes())  # no list that nothing reads


def test_a_misspelled_rule_name_fails_where_it_is_declared():
    with pytest.raises(TypeError):
        _field(code="roles")
    with pytest.raises(TypeError):
        _field("roles")
