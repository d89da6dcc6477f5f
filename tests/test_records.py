"""Records are named tuples; only the model's nodes are dataclasses, and only on introspection.

The field orders, defaults and reprs below are those of the frozen
dataclasses the records replaced, so output that prints a record (the
FlattenStructureError messages) and callers that pass fields by position
keep working. The two rule classes are named tuples whose constructor
checks them and derives ``shape`` or ``steps``; the derived attribute is
left out of their repr, equality and hash, which the dataclass repr showed.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from decimal import Decimal

import pytest

import engmeta
from engmeta.canon import ReadResult
from engmeta.errors import ConfigError
from engmeta.extract.config import ExtractionConfig, ExtractionRule, TargetShape
from engmeta.extract.engine import AssembleResult, CoercionFailure, ExtractionReport, RawHit
from engmeta.flatten import BlockField, DroppedPath, FlattenReport, MappedPath, MetadataBlock
from engmeta.harvest import HarvestError, HarvestResult
from engmeta.merging import Conflict
from engmeta.model import FileInfo, _Node
from engmeta.paths import MetadataPath, PathSegment, parse_path
from engmeta.prov import Activity, Agent, Entity, ProvDocument, Relation
from engmeta.validation import Finding, ValidationReport

# record -> (field order, defaults)
RECORDS = {
    Finding: (("severity", "path", "message"), {}),
    ValidationReport: (("profile", "findings"), {}),
    Activity: (("id", "date", "stepType"), {"date": None, "stepType": None}),
    Agent: (("id", "name", "identifier"), {"name": None, "identifier": None}),
    Entity: (("id", "kind", "label"), {}),
    Relation: (("type", "subject", "object"), {}),
    ProvDocument: (
        ("activities", "agents", "entities", "relations"),
        {"activities": (), "agents": (), "entities": (), "relations": ()},
    ),
    BlockField: (("typeName", "multiple", "typeClass", "value"), {}),
    MetadataBlock: (("blockName", "fields"), {"fields": ()}),
    MappedPath: (("path", "field"), {}),
    DroppedPath: (("path", "reason"), {}),
    FlattenReport: (("mappedPaths", "droppedPaths"), {"mappedPaths": (), "droppedPaths": ()}),
    HarvestError: (("path", "message"), {}),
    HarvestResult: (("algorithm", "files", "errors"), {"files": (), "errors": ()}),
    ReadResult: (("dataset", "warnings"), {}),
    PathSegment: (("name", "index"), {"index": None}),
    MetadataPath: (("segments",), {}),
    Conflict: (("path", "base", "overlay", "chosen"), {}),
    RawHit: (("ruleId", "sourceFile", "lineNumber", "rawValue"), {}),
    CoercionFailure: (("ruleId", "sourceFile", "lineNumber", "rawValue", "reason"), {}),
    ExtractionReport: (
        ("rulesMatched", "rulesUnmatched", "hitsPerRule", "conflicts", "coercionFailures",
         "warnings", "filesScanned", "bytesScanned", "elapsedSeconds"),
        {},
    ),
    AssembleResult: (("dataset", "conflicts", "coercionFailures", "warnings"), {}),
    TargetShape: (("node_type", "open_list", "in_node"), {}),
    ExtractionRule: (
        ("id", "target", "source", "key", "delimiter", "valueType", "unit", "group",
         "occurrence", "line"),
        {"delimiter": "=", "valueType": "string", "unit": None, "group": None,
         "occurrence": "first", "line": 0},
    ),
    ExtractionConfig: (("rules",), {"rules": ()}),
}

_RULE = ExtractionRule("r", parse_path("project"), "*.log", "k")


def _engmeta_classes():
    for module_info in pkgutil.walk_packages(engmeta.__path__, "engmeta."):
        if module_info.name == "engmeta.__main__":  # runs the CLI and exits
            continue
        module = importlib.import_module(module_info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_only_nodes_are_dataclasses():
    classes = set(_engmeta_classes())
    assert {cls for cls in classes
            if dataclasses.is_dataclass(cls) and not issubclass(cls, _Node)} == set()
    assert set(RECORDS) <= classes


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_keeps_its_fields_and_defaults(record):
    order, defaults = RECORDS[record]
    assert issubclass(record, tuple) and not dataclasses.is_dataclass(record)
    assert record._fields == order
    assert record._field_defaults == defaults


def test_record_values_are_immutable():
    finding = Finding("error", "title", "missing")
    with pytest.raises(AttributeError):
        finding.path = "date"
    config = ExtractionConfig((_RULE,))
    for record, name in ((_RULE, "target"), (_RULE, "shape"), (config, "steps"), (config, "x")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_rule_records_are_checked_however_they_are_built():
    """``_replace`` and ``_make`` skip a plain named tuple's constructor; these run it."""
    listed = _RULE._replace(id="listed", target=parse_path("keyword"), occurrence="all")
    assert listed == ExtractionRule._make(listed)
    for rule in (listed, ExtractionRule._make(listed)):
        assert type(rule) is ExtractionRule
        assert rule.shape == TargetShape(None, parse_path("keyword"), None)
    with pytest.raises(ConfigError, match="needs exactly one index-less list segment"):
        _RULE._replace(occurrence="all")
    with pytest.raises(ConfigError, match="bad target: path segments"):
        ExtractionRule._make(("r", MetadataPath((PathSegment("keyword", -1),)), "*", "k"))
    grouped = ExtractionConfig((_RULE,))._replace(rules=[_RULE, listed])
    assert grouped.rules == (_RULE, listed)
    assert grouped.steps == ((_RULE,), (listed,))
    with pytest.raises(ConfigError, match="duplicate rule id 'r'"):
        grouped._replace(rules=[_RULE, _RULE])
    with pytest.raises(ConfigError, match="expected ExtractionRule entries, got str"):
        ExtractionConfig._make([("x",)])
    # equality and hashing see the declared fields only
    assert listed == ExtractionRule(*listed) and hash(listed) == hash(ExtractionRule(*listed))
    assert {grouped: 1}[ExtractionConfig([_RULE, listed])] == 1


_CONFLICT = Conflict("project", "a", Decimal("1.5"), "a")
_FAILURE = CoercionFailure("r", "run.log", 3, "x", "bad")

REPRS = [
    (ValidationReport("citable", (Finding("warning", "title", "t"),)),
     "ValidationReport(profile='citable', findings=(Finding(severity='warning', path='title', "
     "message='t'),))"),
    (ProvDocument((Activity("act_0"),), (Agent("agent_1", "Jane"),), (Entity("e", "k", "l"),),
                  (Relation("used", "act_0", "e"),)),
     "ProvDocument(activities=(Activity(id='act_0', date=None, stepType=None),), "
     "agents=(Agent(id='agent_1', name='Jane', identifier=None),), "
     "entities=(Entity(id='e', kind='k', label='l'),), "
     "relations=(Relation(type='used', subject='act_0', object='e'),))"),
    (MetadataBlock("citation", (BlockField("keyword", True, "primitive", ["a", "b"]),)),
     "MetadataBlock(blockName='citation', fields=(BlockField(typeName='keyword', multiple=True, "
     "typeClass='primitive', value=['a', 'b']),))"),
    (FlattenReport((MappedPath("project", "citation.project"),),
                   (DroppedPath("processingStep[0].inputs", "preserved via PROV sidecar"),)),
     "FlattenReport(mappedPaths=(MappedPath(path='project', field='citation.project'),), "
     "droppedPaths=(DroppedPath(path='processingStep[0].inputs', "
     "reason='preserved via PROV sidecar'),))"),
    (HarvestResult("SHA-256", (FileInfo(filename="a.txt"),), (HarvestError("b", "m"),)),
     "HarvestResult(algorithm='SHA-256', files=(FileInfo(filename='a.txt', link=None, pid=None, "
     "checksum=None, sizeBytes=None, fileType=None),), "
     "errors=(HarvestError(path='b', message='m'),))"),
    (ReadResult(None, ("w",)), "ReadResult(dataset=None, warnings=('w',))"),
    (TargetShape(FileInfo, MetadataPath((PathSegment("file"),)),
                 ((("checksum", FileInfo),), "digest", False)),
     "TargetShape(node_type=<class 'engmeta.model.FileInfo'>, open_list=MetadataPath(segments="
     "(PathSegment(name='file', index=None),)), in_node=((('checksum', "
     "<class 'engmeta.model.FileInfo'>),), 'digest', False))"),
    (RawHit("r", "run.log", 3, "x"),
     "RawHit(ruleId='r', sourceFile='run.log', lineNumber=3, rawValue='x')"),
    (ExtractionReport(("r",), ("s",), {"r": 2}, (_CONFLICT,), (_FAILURE,), ("w",), 4, 100, 0.5),
     "ExtractionReport(rulesMatched=('r',), rulesUnmatched=('s',), hitsPerRule={'r': 2}, "
     "conflicts=(Conflict(path='project', base='a', overlay=Decimal('1.5'), chosen='a'),), "
     "coercionFailures=(CoercionFailure(ruleId='r', sourceFile='run.log', lineNumber=3, "
     "rawValue='x', reason='bad'),), warnings=('w',), filesScanned=4, bytesScanned=100, "
     "elapsedSeconds=0.5)"),
    (AssembleResult(None, (), (), ()),
     "AssembleResult(dataset=None, conflicts=(), coercionFailures=(), warnings=())"),
    # the derived shape and steps are not shown
    (ExtractionConfig((_RULE,)),
     "ExtractionConfig(rules=(ExtractionRule(id='r', target=MetadataPath(segments="
     "(PathSegment(name='project', index=None),)), source='*.log', key='k', delimiter='=', "
     "valueType='string', unit=None, group=None, occurrence='first', line=0),))"),
]


@pytest.mark.parametrize("record, expected", REPRS,
                         ids=[type(record).__name__ for record, _ in REPRS])
def test_record_repr_is_unchanged(record, expected):
    assert repr(record) == expected
