import re

import pytest

from engmeta import prov
from engmeta.errors import ProvError
from engmeta.flatten import flatten
from engmeta.model import (
    PROV_STEP_FIELDS,
    EngMetaDataset,
    FileRef,
    ProcessingStep,
    Software,
    schema,
)
from engmeta.prov import (
    Activity,
    Agent,
    Entity,
    ProvDocument,
    Relation,
    serialize_prov_n,
    to_prov,
)
from everyfield import every_field_dataset


def relations_of(doc, relation_type):
    return [r for r in doc.relations if r.type == relation_type]


def test_empty_dataset_gives_empty_document():
    doc = to_prov(EngMetaDataset())
    assert doc == ProvDocument()
    assert serialize_prov_n(doc) == "document\nendDocument\n"


def test_one_activity_per_step(gromacs_doc):
    doc = to_prov(gromacs_doc)
    assert len(doc.activities) == 3
    assert [a.id for a in doc.activities] == ["act_0", "act_1", "act_2"]
    assert [a.stepType for a in doc.activities] == [
        "data generation",
        "post processing",
        "analysis",
    ]
    assert doc.activities[0].date == "2019-05-24T18:30:00"


def test_minimal_step_counts():
    doc = to_prov(
        EngMetaDataset(
            processingSteps=(
                ProcessingStep(
                    inputs=(FileRef(name="in.dat"),),
                    outputs=(FileRef(name="out.dat"),),
                ),
            )
        )
    )
    assert len(doc.activities) == 1
    assert len(doc.entities) == 2
    assert len(doc.agents) == 0
    assert len(relations_of(doc, "used")) == 1
    assert len(relations_of(doc, "wasGeneratedBy")) == 1
    assert len(relations_of(doc, "wasAssociatedWith")) == 0


def test_trajectory_files_chain_steps(gromacs_doc):
    doc = to_prov(gromacs_doc)
    by_label = {}
    for entity in doc.entities:
        if entity.kind == "file":
            by_label.setdefault(entity.label, []).append(entity)
    # output of step 1 and input of step 2 are one entity
    assert len(by_label["traj.trr"]) == 1
    traj = by_label["traj.trr"][0]
    assert Relation("wasGeneratedBy", traj.id, "act_0") in doc.relations
    assert Relation("used", "act_1", traj.id) in doc.relations


def test_step_one_used_edges(gromacs_doc):
    doc = to_prov(gromacs_doc)
    used_by_first = [r.object for r in doc.relations if r.type == "used" and r.subject == "act_0"]
    # 2 input files + method + software + environment + execution command
    assert len(used_by_first) == 6
    kinds = {next(e.kind for e in doc.entities if e.id == object_id) for object_id in used_by_first}
    assert kinds == {"file", "method", "software", "environment", "executionCommand"}


def test_agents_deduplicate_across_steps(gromacs_doc):
    doc = to_prov(gromacs_doc)
    assert len(doc.agents) == 1  # same researcher on all three steps
    associations = relations_of(doc, "wasAssociatedWith")
    assert {r.subject for r in associations} == {"act_0", "act_1", "act_2"}
    assert len({r.object for r in associations}) == 1


def test_error_method_is_separate_kind(gromacs_doc):
    doc = to_prov(gromacs_doc)
    kinds = {e.kind for e in doc.entities}
    assert "errorMethod" in kinds


def test_file_identity_prefers_pid_then_link():
    step = ProcessingStep(
        outputs=(FileRef(name="a.dat", pid="10.1/x"),),
    )
    later = ProcessingStep(
        inputs=(FileRef(name="renamed.dat", pid="10.1/x"),),
    )
    doc = to_prov(EngMetaDataset(processingSteps=(step, later)))
    assert len([e for e in doc.entities if e.kind == "file"]) == 1


def test_serialization_is_deterministic(gromacs_doc):
    doc = to_prov(gromacs_doc)
    assert serialize_prov_n(doc) == serialize_prov_n(to_prov(gromacs_doc))


def test_prov_n_statement_shapes(gromacs_doc):
    text = serialize_prov_n(to_prov(gromacs_doc))
    lines = text.splitlines()
    assert lines[0] == "document"
    assert lines[-1] == "endDocument"
    assert lines[1].startswith("prefix ex <")
    assert any(
        line.startswith("activity(ex:act_0, -, 2019-05-24T18:30:00, [ex:stepType=")
        for line in lines
    )
    assert any(line.startswith("agent(ex:agent_") and 'prov:label="Jane Researcher"' in line for line in lines)
    assert any(line.startswith("used(ex:act_0, ex:") for line in lines)
    assert any(line.startswith("wasGeneratedBy(ex:file_") for line in lines)


def test_prov_n_statement_counts_match_document(gromacs_doc):
    doc = to_prov(gromacs_doc)
    lines = serialize_prov_n(doc).splitlines()
    statements = [line for line in lines if "(" in line]
    expected = len(doc.activities) + len(doc.agents) + len(doc.entities) + len(doc.relations)
    assert len(statements) == expected


def test_date_only_attribute_when_not_datetime():
    doc = to_prov(
        EngMetaDataset(processingSteps=(ProcessingStep(stepType="analysis", date="2019-05-24"),))
    )
    text = serialize_prov_n(doc)
    # plain dates stay attributes and do not fill the end-time slot
    assert "activity(ex:act_0, -, -, [" in text
    assert 'ex:date="2019-05-24"' in text


@pytest.mark.parametrize("date, end_time", [
    ("2019-05-24T18:30:00", "2019-05-24T18:30:00"),
    ("2019-05-24T18:30:00.250Z", "2019-05-24T18:30:00.250Z"),
    ("2019-05-24T18:30:00-14:00", "2019-05-24T18:30:00-14:00"),
    # read as ISO dates, but no xsd:dateTime, which PROV-N writes unquoted
    ("2020-01-01 10:00:00", "-"),
    ("2020-01-01X10:00:00", "-"),
    ("2020-01-01T10", "-"),
    ("2020-01-01T10:00", "-"),
    ("2020-01-01T10:00:00+14:30", "-"),
    ("2020-01-01T10:00:00.25", "-"),  # an xsd:dateTime, but no ISO date
    ("2020-02-30T10:00:00", "-"),
])
def test_end_time_slot_holds_only_an_xsd_date_time(date, end_time):
    step = ProcessingStep(stepType="analysis", date=date)
    text = serialize_prov_n(to_prov(EngMetaDataset(processingSteps=(step,))))
    assert f"activity(ex:act_0, -, {end_time}, [" in text
    assert f'ex:date="{date}"' in text  # the date itself stays an attribute


def test_dates_reproduce_step_order(gromacs_doc):
    doc = to_prov(gromacs_doc)
    dated = [(a.date, a.id) for a in doc.activities]
    assert all(date is not None for date, _ in dated)
    assert sorted(dated) == dated  # strictly increasing dates keep step order


def test_dangling_relation_rejected():
    doc = ProvDocument(relations=(Relation("used", "act_0", "file_missing"),))
    with pytest.raises(ProvError):
        serialize_prov_n(doc)
    doc = ProvDocument(relations=(Relation("wasInformedBy", "act_0", "act_1"),))
    with pytest.raises(ProvError, match="unknown relation type 'wasInformedBy'"):
        serialize_prov_n(doc)


# one record of each kind, by id, and the kinds each relation type links
_RECORDS = ProvDocument((Activity("a"),), (Agent("g"),), (Entity("e", "file", "x"),))
_IDS = {"activity": "a", "agent": "g", "entity": "e"}
_LINKS = {"used": ("activity", "entity"), "wasGeneratedBy": ("entity", "activity"),
          "wasAssociatedWith": ("activity", "agent")}


@pytest.mark.parametrize("relation_type, position, kind", [
    (relation_type, position, kind)
    for relation_type, kinds in _LINKS.items()
    for position in (0, 1)
    for kind in _IDS if kind != kinds[position]
])
def test_dangling_relation_rejected_for_a_record_of_the_wrong_kind(relation_type, position, kind):
    ends = [_IDS[end] for end in _LINKS[relation_type]]
    linked = _RECORDS._replace(relations=(Relation(relation_type, *ends),))
    assert f"{relation_type}(ex:{ends[0]}, ex:{ends[1]})" in serialize_prov_n(linked)
    ends[position] = _IDS[kind]
    message = f"dangling endpoint in {relation_type}({ends[0]}, {ends[1]})"
    with pytest.raises(ProvError, match=f"^{re.escape(message)}$"):
        serialize_prov_n(_RECORDS._replace(relations=(Relation(relation_type, *ends),)))


_BAD_ID = ("must be letters, digits, '_', '-' and '.', neither starting with '-' or '.' "
           "nor ending with '.'")


@pytest.mark.parametrize("doc, message", [
    (ProvDocument(activities=(Activity("a b"),)), "activity id 'a b'"),
    (ProvDocument(entities=(Entity("e)", "file", "x"),)), "entity id 'e)'"),
    (ProvDocument(agents=(Agent("g."),)), "agent id 'g.'"),
    (ProvDocument(agents=(Agent("-g"),)), "agent id '-g'"),
    (ProvDocument(activities=(Activity(None),)), "activity id None"),
    # refused before the records are sorted, which would compare None with a string
    (ProvDocument(activities=(Activity("a"), Activity(None))), "activity id None"),
    (ProvDocument(activities=(Activity("a b"),), entities=(Entity("e)", "file", "x"),),
                  relations=(Relation("used", "a b", "e)"),)), "activity id 'a b'"),
], ids=["space", "parenthesis", "last dot", "first dash", "none", "none beside a str",
        "relation"])
def test_hand_built_record_id_that_prov_n_cannot_write_rejected(doc, message):
    with pytest.raises(ProvError, match=f"^{re.escape(f'{message} {_BAD_ID}')}$"):
        serialize_prov_n(doc)


@pytest.mark.parametrize("doc, message", [
    (ProvDocument(agents=(Agent("a", 5),)), "agent a: prov:label must be a string, got int"),
    # the attribute is checked before the date fills the end-time slot
    (ProvDocument(activities=(Activity("x", 20200101),)),
     "activity x: ex:date must be a string, got int"),
    (ProvDocument(entities=(Entity("e", 3, "l"),)), "entity e: ex:kind must be a string, got int"),
], ids=["agent", "activity", "entity"])
def test_hand_built_attribute_that_is_not_a_string_rejected(doc, message):
    with pytest.raises(ProvError, match=f"^{message}$"):
        serialize_prov_n(doc)


def test_quotes_escaped_in_labels():
    step = ProcessingStep(executionCommand='run --tag "final"')
    text = serialize_prov_n(to_prov(EngMetaDataset(processingSteps=(step,))))
    assert '\\"final\\"' in text


def test_line_breaks_escaped_in_labels():
    # a PROV-N string literal may hold no raw LF or CR
    step = ProcessingStep(executionCommand="make \\\r\n  all", software=(Software(name="a\nb"),))
    text = serialize_prov_n(to_prov(EngMetaDataset(processingSteps=(step,))))
    assert 'prov:label="make \\\\\\r\\n  all"' in text
    assert 'prov:label="a\\nb"' in text
    assert all(line.count('"') % 2 == 0 for line in text.splitlines())


def test_step_fields_are_step_type_prov_structure_or_used_entities():
    elements = {spec.attr: spec.element for spec in schema(ProcessingStep)}
    groups = [("stepType",), PROV_STEP_FIELDS, prov._USED_FIELDS]
    assert sorted(attr for group in groups for attr in group) == sorted(elements)
    # flatten drops the leaves under the structure fields and nothing else
    _, report = flatten(every_field_dataset())
    dropped = {re.fullmatch(r"processingStep\[\d+\]\.(\w+)\b.*", d.path)[1]
               for d in report.droppedPaths}
    assert dropped == {elements[attr] for attr in PROV_STEP_FIELDS}
