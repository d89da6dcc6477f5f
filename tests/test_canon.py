import enum
import json
from decimal import Decimal
from pathlib import Path

import pytest

from engmeta.canon import from_json, from_xml, to_json, to_xml
from engmeta.errors import CanonDecodeError, CanonSyntaxError, CanonValidationError
from engmeta.model import (
    EngMetaDataset,
    FileInfo,
    ObservedSystem,
    PersonOrOrganization,
    ProcessingStep,
    SpatialResolution,
    SuccessMarker,
    TemporalResolution,
    Title,
    Variable,
    _Node,
    schema,
)
from engmeta.paths import append_nodes, set_path
from everyfield import every_field_dataset
from genmodel import dataset_pool

DATA_DIR = Path(__file__).parent / "data"


def test_empty_dataset_serializes_to_bare_root():
    assert to_xml(EngMetaDataset()) == '<?xml version="1.0" encoding="UTF-8"?>\n<engMeta/>\n'


def test_single_title_inline_element():
    doc = EngMetaDataset(titles=(Title(text="Binding energies"),))
    assert "<title>Binding energies</title>" in to_xml(doc)


def test_title_type_becomes_attribute():
    doc = EngMetaDataset(titles=(Title(text="Binding energies", titleType="main"),))
    assert '<title titleType="main">Binding energies</title>' in to_xml(doc)


def test_xml_escaping():
    doc = EngMetaDataset(titles=(Title(text="a < b & c"),))
    xml = to_xml(doc)
    assert "<title>a &lt; b &amp; c</title>" in xml
    assert from_xml(xml).dataset == doc


def test_to_xml_rejects_invalid_documents():
    doc = EngMetaDataset(processingSteps=(ProcessingStep(stepType="simulation"),))
    with pytest.raises(CanonValidationError):
        to_xml(doc)
    with pytest.raises(CanonValidationError):
        to_json(doc)


def test_unknown_element_is_warning_not_error():
    result = from_xml("<engMeta><unknownThing/></engMeta>")
    assert result.dataset == EngMetaDataset()
    assert len(result.warnings) == 1
    assert "unknownThing" in result.warnings[0]


def test_attributes_of_scalar_elements_are_warned_about():
    result = from_xml(
        '<engMeta><project lang="en">p</project><keyword type="integer">k</keyword></engMeta>'
    )
    assert result.dataset == EngMetaDataset(project="p", keywords=("k",))
    assert result.warnings == (
        "project: unknown attribute 'lang' skipped",
        "keyword[0]: unknown attribute 'type' skipped",
    )


def test_a_tagged_value_keeps_its_type_and_warns_about_other_attributes():
    result = from_xml(
        "<engMeta><system><controlledVariables>"
        '<value unit="K" type="integer" note="">3<x/></value>'
        "</controlledVariables></system></engMeta>"
    )
    assert result.dataset.system.controlledVariables[0].value == 3
    assert result.warnings == (
        "system.controlledVariables[0].value: unknown attribute 'unit' skipped",
        "system.controlledVariables[0].value: unknown attribute 'note' skipped",
        "system.controlledVariables[0].value: unexpected child elements skipped",
    )


def test_attribute_warnings_come_before_the_empty_element_warning():
    result = from_xml('<engMeta><project lang="en"></project></engMeta>')
    assert result.dataset == EngMetaDataset()
    assert result.warnings == (
        "project: unknown attribute 'lang' skipped",
        "project: empty element treated as absent",
    )


def test_malformed_xml_reports_position():
    with pytest.raises(CanonSyntaxError) as excinfo:
        from_xml("<engMeta><title>unclosed</engMeta>")
    assert excinfo.value.line >= 1


def test_type_incompatible_text_reports_path():
    xml = (
        "<engMeta><system><temporalResolution>"
        "<numberOfTimesteps>abc</numberOfTimesteps>"
        "</temporalResolution></system></engMeta>"
    )
    with pytest.raises(CanonDecodeError) as excinfo:
        from_xml(xml)
    assert excinfo.value.path == "system.temporalResolution.numberOfTimesteps"


@pytest.mark.parametrize("doc, path", [
    ({"project": "a\udcffb"}, "project"),
    ({"keyword": ["ok", "\ud800"]}, "keyword[1]"),
    ({"processingStep": [{"method": {"parameters": [
        {"name": "p", "value": {"type": "string", "text": "x\udfff"}}]}}]},
     "processingStep[0].method.parameters[0].value"),
])
def test_json_text_with_a_lone_surrogate_is_refused(doc, path):
    # json.loads turns a "\udcff" escape into a lone surrogate, which UTF-8 cannot encode
    text = json.dumps(doc)
    assert "\\ud" in text
    with pytest.raises(CanonDecodeError, match="holds a lone surrogate") as excinfo:
        from_json(text)
    assert excinfo.value.path == path


@pytest.mark.parametrize("doc, path", [
    ({"project": "a\u0001b"}, "project"),
    ({"keyword": ["ok", "\x1b[1m"]}, "keyword[1]"),
    ({"processingStep": [{"method": {"parameters": [
        {"name": "p", "value": {"type": "string", "text": "x\uffff"}}]}}]},
     "processingStep[0].method.parameters[0].value"),
])
def test_json_text_xml_cannot_carry_is_refused(doc, path):
    # a "\u0001" escape reads as a character no XML document can carry
    with pytest.raises(CanonDecodeError, match="which XML cannot carry") as excinfo:
        from_json(json.dumps(doc))
    assert excinfo.value.path == path


def test_xml_syntax_error_names_its_position_once():
    with pytest.raises(CanonSyntaxError) as excinfo:
        from_xml("<engMeta>\n<project>\n  <x>a\x01</x></project></engMeta>")
    assert str(excinfo.value) == ("not well-formed XML: not well-formed (invalid token) "
                                  "(line 3, column 6)")
    assert (excinfo.value.line, excinfo.value.column) == (3, 6)


@pytest.mark.parametrize("element, text", [("sizeBytes", "١٢"), ("interval", "1_0")])
def test_numbers_are_read_from_ascii_text_only(element, text):
    # the writer spells numbers in ASCII digits without separators only
    if element == "sizeBytes":
        xml = f"<engMeta><file><sizeBytes>{text}</sizeBytes></file></engMeta>"
    else:
        xml = (
            "<engMeta><system><temporalResolution>"
            f"<interval>{text}</interval></temporalResolution></system></engMeta>"
        )
        with pytest.raises(CanonDecodeError):
            from_json(json.dumps({"system": {"temporalResolution": {"interval": text}}}))
    with pytest.raises(CanonDecodeError) as excinfo:
        from_xml(xml)
    assert excinfo.value.path.endswith(element)


def test_decimal_exponent_notation_is_read():
    document = {"system": {"temporalResolution": {"interval": "1.0e-3"}}}
    read = from_json(json.dumps(document))
    assert read.dataset.system.temporalResolution.interval == Decimal("0.001")
    assert from_xml(to_xml(read.dataset)).dataset == read.dataset


def test_wrong_root_element_rejected():
    with pytest.raises(CanonDecodeError):
        from_xml("<metadata/>")


def test_namespaced_input_accepted():
    xml = '<engMeta xmlns="https://engmeta.example.org/ns/1.0"><title>X</title></engMeta>'
    result = from_xml(xml)
    assert result.dataset.titles == (Title(text="X"),)
    assert result.warnings == ()


def test_foreign_namespace_elements_are_unknown():
    xml = (
        '<engMeta><other:thing xmlns:other="http://elsewhere.example/ns"/></engMeta>'
    )
    result = from_xml(xml)
    assert result.dataset == EngMetaDataset()
    assert len(result.warnings) == 1


def test_tagged_value_round_trip():
    from engmeta.model import ObservedSystem, Variable

    doc = EngMetaDataset(
        system=ObservedSystem(
            parameters=(
                Variable(name="n", value=2164),
                Variable(name="T", value=Decimal("300.5")),
                Variable(name="label", value="window 7"),
                Variable(name="converged", value=True),
            )
        )
    )
    xml = to_xml(doc)
    assert '<value type="integer">2164</value>' in xml
    assert '<value type="decimal">300.5</value>' in xml
    assert "<value>window 7</value>" in xml
    assert '<value type="boolean">true</value>' in xml
    assert from_xml(xml).dataset == doc
    assert from_json(to_json(doc)).dataset == doc


class _Overriding:
    """Text forms that are not the value's: a subclass's own methods."""

    def __str__(self):
        return "overridden"

    def __format__(self, spec):
        return "overridden"

    def __repr__(self):
        return "overridden"


_OVERRIDING = {base: type(f"Overriding{base.__name__}", (_Overriding, base), {})
               for base in (str, int, Decimal)}


def _as_enum_member(value):
    """A ``(str, Enum)`` or ``IntEnum`` member of the value; a decimal as an overriding one."""
    if type(value) is str:
        return enum.Enum("Code", {"MEMBER": value}, type=str).MEMBER
    if type(value) is int:
        return enum.IntEnum("Level", {"MEMBER": value}).MEMBER
    return _OVERRIDING[Decimal](value)


def _scalar_document(wrap) -> EngMetaDataset:
    """Every kind of scalar placement, each value passed through ``wrap``:
    text content, attributes, children, a scalar list, tagged values, an
    integer in a decimal field, and values written by set_path and append_nodes."""
    doc = EngMetaDataset(
        titles=[Title(text=wrap("Shear flow"), titleType=wrap("main"))],
        keywords=[wrap("viscosity")],
        persons=[PersonOrOrganization(name=wrap("Ada"), role=wrap("author"))],
        worked=SuccessMarker(success=True, note=wrap("converged")),
        files=[FileInfo(filename=wrap("run.log"), sizeBytes=wrap(2048))],
        system=ObservedSystem(
            parameters=[Variable(name=wrap("T"), value=wrap(Decimal("300.5")), unit=wrap("K")),
                        Variable(name=wrap("n"), value=wrap(7)),
                        Variable(name=wrap("label"), value=wrap("window 7"))],
            spatialResolution=SpatialResolution(scale=wrap(3)),
            temporalResolution=TemporalResolution(numberOfTimesteps=wrap(5000),
                                                  interval=wrap(Decimal("0.002"))),
        ),
    )
    doc = set_path(doc, "project", wrap("EngMeta"))
    return append_nodes(doc, "keyword", [wrap("shear")])


@pytest.mark.parametrize("wrap", [_as_enum_member, lambda value: _OVERRIDING[type(value)](value)],
                         ids=["enum-members", "overriding-subclasses"])
def test_subclass_values_are_stored_written_and_read_as_builtin_values(wrap):
    builtin = _scalar_document(lambda value: value)
    doc = _scalar_document(wrap)
    assert type(doc.persons[0].role) is str and type(doc.files[0].sizeBytes) is int
    assert type(doc.system.spatialResolution.scale) is Decimal
    assert to_xml(doc) == to_xml(builtin)
    assert to_json(doc) == to_json(builtin)
    assert repr(doc) == repr(builtin)
    assert doc == builtin
    assert from_xml(to_xml(doc)).dataset == doc
    assert from_json(to_json(doc)).dataset == doc


def test_json_empty_document():
    assert to_json(EngMetaDataset()) == "{}\n"


def test_json_preserves_step_order():
    doc = EngMetaDataset(
        processingSteps=(
            ProcessingStep(stepType="data generation"),
            ProcessingStep(stepType="analysis"),
        )
    )
    import json

    obj = json.loads(to_json(doc))
    assert [step["stepType"] for step in obj["processingStep"]] == [
        "data generation",
        "analysis",
    ]


def test_json_unknown_key_is_warning():
    result = from_json('{"unknownThing": 1}')
    assert result.dataset == EngMetaDataset()
    assert len(result.warnings) == 1
    # a repeated key keeps its first value, as a repeated element does, in any object
    xml = from_xml("<engMeta><project>a</project><project>b</project></engMeta>")
    result = from_json('{"project": "a", "project": "b"}')
    assert result.dataset == xml.dataset == EngMetaDataset(project="a")
    assert xml.warnings == ("engMeta: repeated element <project> skipped",)
    assert result.warnings == ("engMeta: repeated key 'project' skipped",)
    result = from_json('{"system": {"controlledVariables": [{"name": "T", "name": 5, "value": '
                       '{"type": "integer", "text": "1", "text": "x", "type": 5}}]}}')
    assert result.dataset.system.controlledVariables == (Variable(name="T", value=1),)
    assert result.warnings == (
        "system.controlledVariables[0]: repeated key 'name' skipped",
        "system.controlledVariables[0].value: repeated key 'text' skipped",
        "system.controlledVariables[0].value: repeated key 'type' skipped",
    )


def test_json_syntax_error_has_position():
    with pytest.raises(CanonSyntaxError) as excinfo:
        from_json('{"title": [}')
    assert excinfo.value.line == 1


def test_json_type_error_has_path():
    for text, message in [
        ('{"project": 42}', "project: expected a string"),
        ('{"worked": {"success": 1}}', "worked.success: expected a boolean, got int"),
        ('{"worked": {"success": "true"}}', "worked.success: expected a boolean, got str"),
        ('{"worked": {"success": {}}}', "worked.success: expected a boolean, got dict"),
        ('{"project": {"a": 1, "a": 2}}', "project: expected a string, got dict"),
        ('{"system": {"temporalResolution": {"interval": 0.5}}}',
         "system.temporalResolution.interval: decimals are carried as strings, got float"),
        ('{"system": {"temporalResolution": {"interval": 2}}}',
         "system.temporalResolution.interval: decimals are carried as strings, got int"),
        ('{"file": [{"sizeBytes": true}]}', "file[0].sizeBytes: expected an integer, got bool"),
        ('{"file": [{"sizeBytes": "12"}]}', "file[0].sizeBytes: expected an integer, got str"),
        ('{"file": [{"sizeBytes": 1.5}]}', "file[0].sizeBytes: expected an integer, got float"),
        ("[]", "engMeta: document root must be a JSON object"),
        ('{"system": {"controlledVariables": [{"value": {"type": "decimal", "text": 5}}]}}',
         "system.controlledVariables[0].value: tagged value 'text' must be a string"),
        ('{"system": {"controlledVariables": [{"value": {"type": 5, "text": "x"}}]}}',
         "system.controlledVariables[0].value: tagged value 'type' must be a string"),
    ]:
        with pytest.raises(CanonDecodeError) as excinfo:
            from_json(text)
        assert str(excinfo.value).startswith(message)
        assert excinfo.value.path == message.partition(":")[0]


def test_json_empty_values_are_absent_as_in_xml():
    xml = from_xml(
        '<engMeta><date dateType="created"></date><keyword/><keyword>x</keyword>'
        "<project></project><system><controlledVariables><name>T</name>"
        '<value type="decimal"></value></controlledVariables></system></engMeta>'
    )
    result = from_json(json.dumps({
        "date": [{"date": "", "dateType": "created"}],
        "keyword": ["", "x"],
        "project": "",
        "system": {"controlledVariables": [{"name": "T", "value": {"type": "decimal", "text": ""}}]},
    }))
    assert result.dataset == xml.dataset
    assert result.dataset.project is None
    assert result.dataset.keywords == ("x",)
    assert result.warnings == (
        "date[0].date: empty value treated as absent",
        "keyword[0]: empty value treated as absent",
        "project: empty value treated as absent",
        "system.controlledVariables[0].value: empty value treated as absent",
    )
    # the parsed XML holds no empty date: <date dateType="created"></date> parses
    # as <date dateType="created"/>, which to_xml writes for an event without a date
    paths = [warning.partition(":")[0] for warning in result.warnings]
    assert [warning.partition(":")[0] for warning in xml.warnings] == paths[1:]


def test_round_trip_on_random_documents():
    pool = dataset_pool(200, seed=20190524)
    for doc in pool:
        assert from_xml(to_xml(doc)).dataset == doc
        assert from_json(to_json(doc)).dataset == doc


def test_serialization_is_deterministic():
    for doc in dataset_pool(25, seed=99):
        assert to_xml(doc) == to_xml(doc)
        assert to_json(doc) == to_json(doc)
        again = from_xml(to_xml(doc)).dataset
        assert to_xml(again) == to_xml(doc)


def test_format_independence():
    for doc in dataset_pool(25, seed=101):
        via_json = from_json(to_json(doc)).dataset
        assert to_xml(via_json) == to_xml(doc)


def test_no_warnings_on_own_output():
    for doc in dataset_pool(25, seed=55):
        assert from_xml(to_xml(doc)).warnings == ()
        assert from_json(to_json(doc)).warnings == ()


def test_fixture_round_trip(gromacs_doc):
    assert from_xml(to_xml(gromacs_doc)).dataset == gromacs_doc
    assert from_json(to_json(gromacs_doc)).dataset == gromacs_doc


def _set_fields(node, found: dict) -> None:
    names = found.setdefault(type(node), set())
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        if value is None or value == ():
            continue
        names.add(spec.attr)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, _Node):
                _set_fields(item, found)


def test_every_field_document_sets_every_field():
    found: dict = {}
    _set_fields(every_field_dataset(), found)
    declared = {
        cls: {spec.attr for spec in schema(cls)} for cls in _Node.__subclasses__()
    }
    assert found == declared


def test_every_field_golden():
    """Every element and attribute name, placement and value type, byte for byte."""
    doc = every_field_dataset()
    xml, json_text = to_xml(doc), to_json(doc)
    assert xml == (DATA_DIR / "every_field.xml").read_text(encoding="utf-8")
    assert json_text == (DATA_DIR / "every_field.json").read_text(encoding="utf-8")
    for result in (from_xml(xml), from_json(json_text)):
        assert result.warnings == ()
        assert result.dataset == doc
