import json
from decimal import Decimal

import pytest

from engmeta.errors import FlattenStructureError
from engmeta.flatten import (
    BlockField,
    DROP_REASON,
    DroppedPath,
    FlattenReport,
    MappedPath,
    MetadataBlock,
    flatten,
    serialize_blocks_json,
)
from engmeta.model import EngMetaDataset, SuccessMarker
from genmodel import dataset_pool
from oracles import leaf_paths, step_structural_paths


def block_by_name(blocks, name):
    return next(block for block in blocks if block.blockName == name)


def field_by_name(block, type_name):
    matches = [field for field in block.fields if field.typeName == type_name]
    assert len(matches) == 1, f"expected one {type_name} field, got {len(matches)}"
    return matches[0]


def test_empty_dataset_gives_three_empty_blocks():
    blocks, report = flatten(EngMetaDataset())
    assert [block.blockName for block in blocks] == ["citation", "process", "engMeta"]
    assert all(block.fields == () for block in blocks)
    assert report == FlattenReport()


def test_fixture_software_deduplicated(gromacs_doc):
    blocks, _ = flatten(gromacs_doc)
    process = block_by_name(blocks, "process")
    software = field_by_name(process, "software")
    names = [entry["name"] for entry in software.value]
    assert names.count("Gromacs") == 1
    gromacs = next(entry for entry in software.value if entry["name"] == "Gromacs")
    assert gromacs["softwareVersion"] == "2019.3"


def test_fixture_methods_present(gromacs_doc):
    blocks, _ = flatten(gromacs_doc)
    process = block_by_name(blocks, "process")
    methods = field_by_name(process, "method")
    assert {entry["name"] for entry in methods.value} == {
        "thermodynamical simulation with umbrella sampling",
        "statistical analysis of binding energies",
    }
    error_methods = field_by_name(process, "errorMethod")
    assert [entry["name"] for entry in error_methods.value] == [
        "standard error from decorrelation"
    ]
    parameters = field_by_name(process, "methodParameter")
    assert {entry["name"] for entry in parameters.value} == {
        "integrator", "thermostat", "barostat",
    }


def test_repeated_software_across_steps_collapses():
    from engmeta.model import ProcessingStep, Software

    shared = Software(name="Gromacs", softwareVersion="2019.3")
    doc = EngMetaDataset(
        processingSteps=(
            ProcessingStep(stepType="data generation", software=(shared,)),
            ProcessingStep(stepType="post processing", software=(shared,)),
        )
    )
    blocks, _ = flatten(doc)
    software = field_by_name(block_by_name(blocks, "process"), "software")
    assert len(software.value) == 1


def test_type_distinct_values_are_not_collapsed():
    from decimal import Decimal

    from engmeta.model import ObservedSystem, ProcessingStep, Variable

    doc = EngMetaDataset(
        system=ObservedSystem(controlledVariables=(
            Variable(name="flag", value=True),
            Variable(name="flag", value=1),
            Variable(name="T", value=Decimal(300)),
            Variable(name="T", value=300),
            Variable(name="T", value=Decimal("300.0")),  # same decimal: collapses
        )),
        processingSteps=(
            ProcessingStep(stepType="analysis", executionCommand="run"),
            ProcessingStep(stepType="analysis", executionCommand="run"),
        ),
    )
    blocks, report = flatten(doc)
    variables = field_by_name(block_by_name(blocks, "engMeta"), "controlledVariable").value
    assert [(entry["name"], entry["value"]) for entry in variables] == [
        ("flag", True), ("flag", 1), ("T", Decimal(300)), ("T", 300),
    ]
    assert [type(entry["value"]) for entry in variables] == [bool, int, Decimal, int]
    process = block_by_name(blocks, "process")
    assert field_by_name(process, "stepType").value == ["analysis"]
    assert field_by_name(process, "executionCommand").value == ["run"]
    assert sorted(m.path for m in report.mappedPaths) == sorted(leaf_paths(doc))


def test_success_marker_lands_in_citation():
    doc = EngMetaDataset(worked=SuccessMarker(success=False, note="diverged at step 10"))
    blocks, _ = flatten(doc)
    citation = block_by_name(blocks, "citation")
    success = field_by_name(citation, "success")
    note = field_by_name(citation, "successNote")
    assert success.value is False
    assert success.typeClass == "primitive"
    assert note.value == "diverged at step 10"


def test_variables_become_compound_fields(gromacs_doc):
    blocks, _ = flatten(gromacs_doc)
    discipline = block_by_name(blocks, "engMeta")
    controlled = field_by_name(discipline, "controlledVariable")
    temperature = next(e for e in controlled.value if e["name"] == "temperature")
    assert temperature["unit"] == "K"
    measured = field_by_name(discipline, "measuredVariable")
    assert measured.value[0]["name"] == "distance between the molecules"


def test_step_structure_dropped_with_reason(gromacs_doc):
    _, report = flatten(gromacs_doc)
    dropped = {d.path for d in report.droppedPaths}
    assert dropped == step_structural_paths(gromacs_doc)
    assert {d.reason for d in report.droppedPaths} == {DROP_REASON}
    assert "processingStep[0].input[0].name" in dropped
    assert "processingStep[0].date" in dropped
    assert "processingStep[0].actor.name" in dropped


def test_step_type_is_mapped_not_dropped(gromacs_doc):
    blocks, report = flatten(gromacs_doc)
    process = block_by_name(blocks, "process")
    step_types = field_by_name(process, "stepType")
    assert step_types.value == ["data generation", "post processing", "analysis"]
    assert not any("stepType" in d.path for d in report.droppedPaths)


def test_leaf_accounting_on_fixture(gromacs_doc):
    _, report = flatten(gromacs_doc)
    leaves = leaf_paths(gromacs_doc)
    assert len(report.mappedPaths) + len(report.droppedPaths) == len(leaves)
    accounted = {m.path for m in report.mappedPaths} | {d.path for d in report.droppedPaths}
    assert accounted == set(leaves)


def test_leaf_accounting_on_random_documents():
    for doc in dataset_pool(100, seed=20190524):
        _, report = flatten(doc)
        leaves = leaf_paths(doc)
        assert len(report.mappedPaths) + len(report.droppedPaths) == len(leaves)
        assert {m.path for m in report.mappedPaths} | {
            d.path for d in report.droppedPaths
        } == set(leaves)
        assert {d.path for d in report.droppedPaths} == step_structural_paths(doc)


def test_mapped_values_reproduce_source(gromacs_doc):
    """Flatten, then read the values back out of the blocks."""
    blocks, _ = flatten(gromacs_doc)
    citation = block_by_name(blocks, "citation")
    assert field_by_name(citation, "title").value[0]["text"] == gromacs_doc.titles[0].text
    assert field_by_name(citation, "project").value == gromacs_doc.project
    file_entries = field_by_name(citation, "file").value
    assert file_entries[0]["checksumDigest"] == gromacs_doc.files[0].checksum.digest
    discipline = block_by_name(blocks, "engMeta")
    timesteps = field_by_name(discipline, "numberOfTimesteps")
    assert timesteps.value == gromacs_doc.system.temporalResolution.numberOfTimesteps
    process = block_by_name(blocks, "process")
    environment = field_by_name(process, "environment").value[0]
    assert environment["name"] == "Hazel Hen"
    assert environment["compilerFlags"] == "-O3 -march=native"


def test_serialize_blocks_shape(gromacs_doc):
    blocks, report = flatten(gromacs_doc)
    obj = json.loads(serialize_blocks_json(blocks, report))
    assert set(obj) == {"citation", "process", "engMeta", "_flattenReport"}
    for field in obj["citation"]:
        assert set(field) == {"typeName", "multiple", "typeClass", "value"}
    assert obj["_flattenReport"]["dropped"][0]["reason"] == DROP_REASON


def test_serialize_empty_blocks():
    blocks, report = flatten(EngMetaDataset())
    obj = json.loads(serialize_blocks_json(blocks, report))
    assert obj["citation"] == []
    assert obj["process"] == []
    assert obj["engMeta"] == []


def test_reynolds_number_style_parameter():
    from engmeta.model import ObservedSystem, Variable

    doc = EngMetaDataset(
        system=ObservedSystem(
            parameters=(Variable(name="Reynolds Number", value=5000),),
        )
    )
    blocks, report = flatten(doc)
    parameter = field_by_name(block_by_name(blocks, "engMeta"), "parameter")
    assert parameter.typeClass == "compound"
    assert parameter.value == [{"name": "Reynolds Number", "value": 5000}]
    obj = json.loads(serialize_blocks_json(blocks, report))
    rendered = next(f for f in obj["engMeta"] if f["typeName"] == "parameter")
    assert set(rendered["value"][0]) == {"name", "value"}


def test_nested_compound_rejected():
    bad = MetadataBlock(
        "citation",
        (BlockField("person", True, "compound", [{"name": {"given": "J"}}]),),
    )
    with pytest.raises(FlattenStructureError):
        serialize_blocks_json([bad], FlattenReport())


def test_serialization_deterministic(gromacs_doc):
    blocks, report = flatten(gromacs_doc)
    again_blocks, again_report = flatten(gromacs_doc)
    assert serialize_blocks_json(blocks, report) == serialize_blocks_json(
        again_blocks, again_report
    )


class _SpelledDecimal(Decimal):
    """A decimal that spells itself its own way, by every method that could write it."""

    def __format__(self, spec):
        return "overridden"

    __str__ = __repr__ = lambda self: "overridden"


@pytest.mark.parametrize("field", [
    lambda value: BlockField("project", False, "primitive", value),
    lambda value: BlockField("keyword", True, "primitive", [value, value]),
    lambda value: BlockField("parameter", True, "compound", [{"name": "dt", "value": value}]),
], ids=["primitive", "multiple", "compound"])
def test_decimal_subclass_is_written_as_the_decimal_it_holds(field):
    def written(value):
        return serialize_blocks_json([MetadataBlock("engMeta", (field(value),))], FlattenReport())

    text = written(_SpelledDecimal("1.50"))
    assert text == written(Decimal("1.50"))
    assert '"1.5"' in text and "overridden" not in text


# --- Hand-built input the block JSON cannot hold ------------------------------

def _rejected(blocks, report=FlattenReport()) -> str:
    with pytest.raises(FlattenStructureError) as raised:
        serialize_blocks_json(blocks, report)
    return str(raised.value)


def test_repeated_block_rejected():
    first = MetadataBlock("citation", (BlockField("project", False, "primitive", "P"),))
    again = MetadataBlock("citation", (BlockField("keyword", True, "primitive", ["k"]),))
    assert _rejected([first, again]) == "block 'citation' is given twice"


def test_multiple_string_value_rejected():
    block = MetadataBlock("citation", (BlockField("keyword", True, "primitive", "abc"),))
    assert _rejected([block]) == (
        "citation.keyword: a multiple field's value must be a list, got str"
    )


def test_multiple_non_list_value_rejected():
    block = MetadataBlock("process", (BlockField("stepType", True, "primitive", 7),))
    assert _rejected([block]) == (
        "process.stepType: a multiple field's value must be a list, got int"
    )


def test_compound_with_non_string_key_rejected():
    block = MetadataBlock("citation", (BlockField("person", True, "compound", [{1: "J"}]),))
    assert _rejected([block]) == (
        "citation.person: compound values must be maps of sub-fields keyed by strings, "
        "got {1: 'J'}"
    )


def test_non_string_type_name_rejected():
    block = MetadataBlock("engMeta", (BlockField(5, False, "primitive", "x"),))
    assert _rejected([block]) == "engMeta.5: typeName must be a string"


def test_non_string_report_path_rejected():
    report = FlattenReport(mappedPaths=(MappedPath(5, "citation.project"),))
    assert _rejected([], report) == (
        "_flattenReport: MappedPath(path=5, field='citation.project') must hold strings"
    )
    report = FlattenReport(droppedPaths=(DroppedPath(None, DROP_REASON),))
    assert "DroppedPath(path=None" in _rejected([], report)


def test_unknown_type_class_rejected():
    block = MetadataBlock("citation", (BlockField("project", False, "scalar", "P"),))
    assert _rejected([block]) == "citation.project: unknown typeClass 'scalar'"


def test_non_boolean_multiple_rejected():
    block = MetadataBlock("citation", (BlockField("keyword", 1, "primitive", ["k"]),))
    assert _rejected([block]) == "citation.keyword: multiple must be true or false, got 1"


def test_bad_primitive_named_as_a_primitive():
    block = MetadataBlock("citation", (BlockField("project", False, "primitive", ["P"]),))
    assert _rejected([block]) == (
        "citation.project: primitive fields may hold only strings, integers, booleans "
        "and decimals, got list"
    )
    nested = MetadataBlock("citation", (BlockField("person", False, "compound", {"n": 1.5}),))
    assert _rejected([nested]) == (
        "citation.person: compound fields may contain only primitive sub-fields, got float"
    )
