"""Differential and property tests: the key-based fast paths against the
list-scan reference implementations in ``oracles``, the streamed line scan
against the whole-file scan, validation's
field-rule table against the per-class reference checks, the trusted
decoders against the checked construction (on hostile documents too), the
schema-written canonical JSON against ``json.dumps`` of the dict reference,
the schema-derived crosswalk against the
hand-written fill functions, the block JSON templates against the
dict-building writer, PROV's schema-derived used entities
against the hand-written ones, the rule-file parser against the one
that checked a rule's fields itself, the scalar check against the
isinstance ladder that stored subclass instances as given, path reads
against the lookup on each reached node, and PROV's end time against the
parsed date-time."""

import copy
import enum
import importlib
import itertools
import json
import os
import random
import re
import sys
from decimal import Decimal
from functools import partial
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engmeta.canon import (
    ENGMETA_NAMESPACE,
    from_json,
    from_xml,
    to_json,
    to_xml,
)
from engmeta.errors import CanonValidationError, ConfigError, EngMetaError
from engmeta.extract import assemble, extract, glob_matches, parse_config
from engmeta.extract.engine import RawHit, scan_file
from engmeta.flatten import (
    BLOCK_NAMES,
    BlockField,
    DroppedPath,
    FlattenReport,
    MappedPath,
    MetadataBlock,
    flatten,
    serialize_blocks_json,
)
from engmeta.harvest import harvest
from engmeta.merging import merge
from engmeta.model import (
    CONTENT,
    ELEMENT_VOCABULARY,
    NODE,
    NODE_LIST,
    SCALAR,
    SCALAR_LIST,
    TAGGED,
    Checksum,
    EngMetaDataset,
    FieldRules,
    FileInfo,
    Identifier,
    Method,
    ObservedSystem,
    PersonOrOrganization,
    ProcessingStep,
    Software,
    SuccessMarker,
    TemporalResolution,
    Title,
    Variable,
    _check_scalar,
    _Node,
    field_by_element,
    scalar_key,
    schema,
)
from engmeta.paths import MetadataPath, PathSegment, append_nodes, get_path, set_path
from engmeta.prov import _end_time, serialize_prov_n, to_prov
from engmeta.validation import validate
from everyfield import every_field_dataset
from genmodel import dataset_pool
from oracles import (
    assemble_by_list_scan,
    check_scalar_by_isinstance,
    end_time_by_datetime_parse,
    flatten_by_fill_functions,
    from_json_checked,
    from_xml_checked,
    get_path_by_node_checks,
    harvest_checked,
    merge_by_list_scan,
    node_to_obj,
    nodes_equal,
    parse_config_by_field_checks,
    renormalised,
    scan_file_whole,
    serialize_blocks_json_by_dicts,
    to_prov_by_hand,
    to_xml_by_kind_dispatch,
    validate_by_class_checks,
    walk_files_by_os_walk,
)

DOCS = dataset_pool(30, seed=2005)
# equal content, distinct objects: nothing cached is shared with DOCS
TWINS = [from_xml(to_xml(doc)).dataset for doc in DOCS]


def _subnodes(node) -> list:
    found = [node]
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        if spec.kind == NODE and value is not None:
            found.extend(_subnodes(value))
        elif spec.kind == NODE_LIST:
            for item in value:
                found.extend(_subnodes(item))
    return found


NODES = [node for doc in DOCS for node in _subnodes(doc)]
NODE_TWINS = [node for doc in TWINS for node in _subnodes(doc)]

# values that plain Python equality conflates but serialization does not
TRICKY_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 2),
    st.sampled_from([Decimal("1"), Decimal("1.0"), Decimal("0"), Decimal("-0"), Decimal("2.50")]),
    st.sampled_from(["1", "true", "x"]),
)
VARIABLES = st.builds(
    Variable,
    name=st.sampled_from([None, "T", "p"]),
    value=TRICKY_VALUES,
    unit=st.sampled_from([None, "K"]),
    uncertainty=st.sampled_from([None, Decimal("0.5"), Decimal("0.50")]),
)
SYSTEMS = st.builds(
    ObservedSystem,
    boundaryConditions=st.lists(st.sampled_from(["periodic", "wall"]), max_size=2),
    parameters=st.lists(VARIABLES, max_size=3),
)


def _assert_key_agrees(a, b) -> None:
    expected = nodes_equal(a, b)
    assert (a == b) is expected
    assert (a != b) is not expected
    if expected:
        assert hash(a) == hash(b)


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(0, len(NODES) - 1),
    j=st.integers(0, len(NODES) - 1),
    twin=st.booleans(),
)
def test_key_equality_agrees_with_deep_comparison_on_pool(i, j, twin):
    a = NODES[i]
    b = NODE_TWINS[i] if twin else NODES[j]
    _assert_key_agrees(a, b)


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(VARIABLES, SYSTEMS), b=st.one_of(VARIABLES, SYSTEMS))
def test_key_equality_is_type_strict(a, b):
    _assert_key_agrees(a, b)
    _assert_key_agrees(a, renormalised(a))


def _doubled(doc):
    """The document with every top-level list repeated twice over."""
    fields = {spec.attr: getattr(doc, spec.attr) for spec in schema(EngMetaDataset)}
    return EngMetaDataset(**(fields | {
        spec.attr: fields[spec.attr] * 2
        for spec in schema(EngMetaDataset)
        if spec.kind in (NODE_LIST, SCALAR_LIST)
    }))


def _overlays() -> list:
    # documents sharing many entries with the pool, so dedup has work to do,
    # and documents repeating their own entries, which merge keeps
    mixed = [merge_by_list_scan(DOCS[k], TWINS[k + 1])[0] for k in range(0, len(DOCS) - 1, 3)]
    doubled = [_doubled(doc) for doc in DOCS[::3]]
    return DOCS + TWINS + mixed + doubled


OVERLAYS = _overlays()


def _conflict_keys(conflicts) -> list:
    return [
        (c.path, scalar_key(c.base), scalar_key(c.overlay), scalar_key(c.chosen))
        for c in conflicts
    ]


@settings(max_examples=200, deadline=None)
@given(
    i=st.integers(0, len(OVERLAYS) - 1),
    j=st.integers(0, len(OVERLAYS) - 1),
    policy=st.sampled_from(["first-wins", "overlay-wins"]),
)
def test_merge_equals_list_scan_merge(i, j, policy):
    base, overlay = OVERLAYS[i], OVERLAYS[j]
    fast, fast_conflicts = merge(base, overlay, policy)
    slow, slow_conflicts = merge_by_list_scan(base, overlay, policy)
    assert nodes_equal(fast, slow)
    assert _conflict_keys(fast_conflicts) == _conflict_keys(slow_conflicts)


ASSEMBLY_RULES = parse_config(
    "[rule kw]\ntarget = keyword\nsource = *\nkey = Keyword\noccurrence = all\n"
    "[rule pi]\ntarget = system.parameters.value\nsource = *\nkey = PI\n"
    "type = integer\noccurrence = all\n"
    "[rule pb]\ntarget = system.parameters.value\nsource = *\nkey = PB\n"
    "type = boolean\noccurrence = all\n"
    "[rule pd]\ntarget = system.parameters.value\nsource = *\nkey = PD\n"
    "type = decimal\nunit = K\noccurrence = all\n"
    # an indexed write into the same list replaces its stored tuple
    "[rule unit]\ntarget = system.parameters[0].unit\nsource = *\nkey = Unit\n"
    "[rule vn]\ntarget = system.controlledVariables.name\nsource = *\nkey = VN\ngroup = v\n"
    "[rule vv]\ntarget = system.controlledVariables.value\nsource = *\nkey = VV\n"
    "type = decimal\nunit = K\ngroup = v\n"
    # a member's own unit wins over the rule unit
    "[rule vu]\ntarget = system.controlledVariables.unit\nsource = *\nkey = VU\ngroup = v\n"
    # an integer in a decimal field is stored as a Decimal
    "[rule vc]\ntarget = system.controlledVariables.uncertainty\nsource = *\nkey = VC\n"
    "type = integer\ngroup = v\n"
    # two members fill one child node of each instance
    "[rule fn]\ntarget = file.filename\nsource = *\nkey = FN\ngroup = f\n"
    "[rule fd]\ntarget = file.checksum.digest\nsource = *\nkey = FD\ngroup = f\n"
    "[rule fa]\ntarget = file.checksum.algorithm\nsource = *\nkey = FA\ngroup = f\n"
    "[rule step]\ntarget = processingStep[0].stepType\nsource = *\nkey = Step\n"
    # unreachable until a first step exists: deferred, then retried
    "[rule sp]\ntarget = processingStep[1].method.parameters.name\nsource = *\n"
    "key = SP\noccurrence = all\n"
)
RULE_IDS = [rule.id for rule in ASSEMBLY_RULES.rules]
RAW_VALUES = ["0", "1", "1.0", "01", "true", "yes", "a", "b", "x y"]


@st.composite
def hit_lists(draw) -> list:
    picks = draw(st.lists(
        st.tuples(
            st.sampled_from(["a.log", "b.log", "c.log"]),
            st.sampled_from(RULE_IDS),
            st.sampled_from(RAW_VALUES),
        ),
        max_size=60,
    ))
    # repeated picks: one file then holds a value twice, and a batch for
    # one list meets its own duplicates
    if picks:
        picks += draw(st.lists(st.sampled_from(picks), max_size=20))
    lines: dict[str, int] = {}
    hits = []
    for source_file, rule_id, raw in picks:
        lines[source_file] = lines.get(source_file, 0) + 1
        hits.append(RawHit(rule_id, source_file, lines[source_file], raw))
    return hits


@settings(max_examples=200, deadline=None)
@given(hits=hit_lists(), data=st.data())
def test_assemble_equals_list_scan_assembly_for_any_hit_order(hits, data):
    shuffled = data.draw(st.permutations(hits))
    fast = assemble(shuffled, ASSEMBLY_RULES)
    slow = assemble_by_list_scan(hits, ASSEMBLY_RULES)
    assert nodes_equal(fast.dataset, slow.dataset)
    assert nodes_equal(fast.dataset, renormalised(fast.dataset))
    assert _conflict_keys(fast.conflicts) == _conflict_keys(slow.conflicts)
    assert list(fast.coercionFailures) == slow.failures
    assert list(fast.warnings) == slow.warnings


# valid sections, each given as {field: value}
VALID_RULES = [
    {"target": "project", "source": "*", "key": "K"},
    {"target": "keyword", "source": "*.mdp", "key": "K", "occurrence": "all"},
    {"target": "system.temporalResolution.numberOfTimesteps", "source": "*", "key": "nsteps",
     "type": "integer", "delimiter": ":"},
    {"target": "system.controlledVariables.name", "source": "*", "key": "N", "group": "g"},
    {"target": "system.controlledVariables.value", "source": "runs/*.log", "key": "V",
     "type": "decimal", "unit": "K", "group": "g"},
    {"target": "system.parameters.value", "source": "*", "key": "a b", "type": "boolean",
     "occurrence": "all", "unit": "", "group": ""},
    {"target": "title[0].text", "source": "*", "key": "T", "occurrence": "last",
     "delimiter": "=="},
]
# values that break a rule, or fit only some of them
RULE_FIELD_FAULTS = {
    "target": ["system[1].description", "system.unknownThing", "system", "keyword",
               "keyword[x]", "a..b", ""],
    "source": [""],
    "key": [""],
    "delimiter": [""],
    "type": ["float", "", "integer", "date"],
    "unit": ["K"],
    "group": ["g", "h"],
    "occurrence": ["every", "", "all"],
    "flavor": ["vanilla"],  # an unknown field
}


@st.composite
def rule_field_lines(draw) -> list[str]:
    """One section's field lines in any order: a valid rule with now and then
    a faulty value, or a field missing, repeated or unknown."""
    fields = dict(draw(st.sampled_from(VALID_RULES)))
    for name in draw(st.lists(st.sampled_from(sorted(RULE_FIELD_FAULTS)), max_size=2)):
        fields[name] = draw(st.sampled_from(RULE_FIELD_FAULTS[name]))
    if not draw(st.integers(0, 7)):
        del fields[draw(st.sampled_from(["target", "source", "key"]))]
    lines = [draw(st.sampled_from(["{} = {}", "{}={}", "  {}  =  {}  "])).format(*item)
             for item in fields.items()]
    if not draw(st.integers(0, 7)):
        name = draw(st.sampled_from(sorted(RULE_FIELD_FAULTS)))
        lines.append(f"{name} = {draw(st.sampled_from(RULE_FIELD_FAULTS[name]))}")
    lines = draw(st.permutations(lines))
    if not draw(st.integers(0, 3)):
        where = draw(st.integers(0, len(lines)))
        lines.insert(where, draw(st.sampled_from(["", "# a comment", "# x = y", "no equals"])))
    return lines


@st.composite
def rule_files(draw) -> str:
    lines = [draw(st.sampled_from(["", "# rules"] * 4 + ["target = project"]))]
    for _ in range(draw(st.integers(0, 4))):
        # ids repeat across sections; a header may be malformed
        lines.append(draw(st.sampled_from(
            ["[rule a]", "[rule b]", "[rule c]", "[rule\td]", "[rule  e]"] * 6 + ["[rule]", "[rul e]"]
        )))
        lines += draw(rule_field_lines())
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def _parsed_or_error(parse, text: str):
    try:
        return parse(text)
    except ConfigError as exc:
        return str(exc), exc.line


@settings(max_examples=500, deadline=None)
@given(text=rule_files())
# two faults in one section, the later field first: each adjacent pair of checks
@example(text="[rule a]\ntype = float\ndelimiter =\ntarget = project\nsource = *\nkey = K")
@example(text="[rule a]\noccurrence = every\ntype =\ntarget = project\nsource = *\nkey = K")
@example(text="[rule a]\ntarget = project\nkey =\noccurrence =\nsource = *")
@example(text="[rule a]\ntarget = project\nsource =\nkey =")
@example(text="[rule a]\ntarget = a..b\nsource =\nkey = K\nunit =\ngroup =")
def test_parse_config_equals_field_checking_reference(text):
    parsed = _parsed_or_error(parse_config, text)
    assert parsed == _parsed_or_error(parse_config_by_field_checks, text)


# keys that prefix one another, one key under two rules, a non-ASCII key; a
# longer key declared before a shorter one whose delimiter makes "Te=" match
# both; two rules with the same key and delimiter
SCAN_RULES = list(parse_config("".join(
    f"[rule s{i}]\ntarget = keyword\nsource = *\nkey = {key}\ndelimiter = {delimiter}\n"
    "occurrence = all\n"
    for i, (key, delimiter) in enumerate([
        ("T", "="), ("Te", "="), ("Temp", "="), ("Temperature", ":"), ("T", ":"), ("ü", "="),
        ("a b", "=="), ("T", "e="), ("Temp", "="),
    ])
)).rules)
SCAN_LINES = st.tuples(
    st.sampled_from(["", " ", "\t", "\u3000", "\xa0", "\x85", "\u2028", "\x1c", "\x0b"]),
    st.sampled_from(["T", "Te", "Temp", "Temperature", "Tem", "ü", "a b", "a", "x", ""]),
    st.sampled_from(["", " ", "\t ", "\u3000"]),
    st.sampled_from(["=", ":", "==", "e=", ""]),
    st.sampled_from(["", " ", "v", " 1.5 ", "ü", "a=b", "x\ry"]),
).map(lambda parts: "".join(parts).encode("utf-8"))
BAD_BYTES = st.sampled_from([b"", b"", b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80"])
LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r\r\n", b"\r"])


@st.composite
def scanned_files(draw) -> bytes:
    lines = draw(st.lists(
        st.tuples(SCAN_LINES | st.binary(max_size=6), BAD_BYTES, LINE_ENDS), max_size=12,
    ))
    # a whole or a cut byte-order mark, or none
    data = draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf", b"\xef\xbb"]))
    data += b"".join(line + bad + end for line, bad, end in lines)
    if draw(st.booleans()):  # no final newline
        data += draw(SCAN_LINES) + draw(BAD_BYTES)
    return data


@settings(max_examples=300, deadline=None)
@given(data=scanned_files())
def test_streamed_scan_equals_whole_file_scan(tmp_path_factory, data):
    target = tmp_path_factory.getbasetemp() / "scanned.log"
    target.write_bytes(data)
    assert scan_file(target, "run.log", SCAN_RULES) == scan_file_whole(target, "run.log", SCAN_RULES)


@pytest.mark.parametrize("workload", ["dense-hits", "file-catalogue"])
def test_extract_equals_whole_file_scan_and_list_scan_assembly_on_benchmark_corpora(
        workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import corpus

    corpus.generate(workload, 3, tmp_path, scale=0.25)
    config = parse_config((tmp_path / "rules.conf").read_text(encoding="utf-8"))
    root = tmp_path / "corpus"
    document, report = extract(root, config)
    hits, scan_warnings = [], []
    for relative, absolute in walk_files_by_os_walk(root):
        rules = [rule for rule in config.rules if glob_matches(rule.source, relative)]
        if rules:
            file_hits, _, warnings = scan_file_whole(absolute, relative, rules)
            hits += file_hits
            scan_warnings += warnings
    slow = assemble_by_list_scan(hits, config)
    assert len(hits) > 100
    assert nodes_equal(document, slow.dataset)
    assert _conflict_keys(report.conflicts) == _conflict_keys(slow.conflicts)
    assert list(report.coercionFailures) == slow.failures
    assert list(report.warnings) == scan_warnings + slow.warnings
    # files in path order, lines in file order, rules in declaration order
    first_hits = dict.fromkeys(hit.ruleId for hit in hits)
    assert list(report.hitsPerRule) == list(first_hits)


def test_assembly_warns_about_each_entry_that_stays_unplaceable():
    # no step is ever written, so no method parameter list is reachable
    hits = [RawHit("sp", "a.log", line, raw) for line, raw in enumerate("aba", start=1)]
    fast = assemble(hits, ASSEMBLY_RULES)
    slow = assemble_by_list_scan(hits, ASSEMBLY_RULES)
    assert list(fast.warnings) == slow.warnings
    assert len(slow.warnings) == 3


def _count(dataset, list_path: str) -> int:
    return len(get_path(dataset, list_path))


@st.composite
def writes(draw):
    """One set_path or append_nodes call, with indices inside the writable range."""
    kind = draw(st.sampled_from(
        ["project", "keyword", "subject", "value", "uncertainty", "interval", "software",
         "parameter"]
    ))
    slot = draw(st.integers(0, 4))
    text = draw(st.sampled_from(["a", "b & c", "x < y"]))
    if kind == "project":
        return lambda doc: set_path(doc, "project", text)
    if kind == "keyword":
        return lambda doc: set_path(doc, f"keyword[{min(slot, _count(doc, 'keyword'))}]", text)
    if kind == "subject":
        return lambda doc: append_nodes(doc, "subject", (text,))
    if kind == "value":
        value = draw(TRICKY_VALUES.filter(lambda v: v is not None))
        return lambda doc: set_path(
            doc,
            f"system.controlledVariables[{min(slot, _count(doc, 'system.controlledVariables'))}].value",
            value,
        )
    if kind == "uncertainty":
        return lambda doc: set_path(
            doc,
            f"processingStep[{min(slot, _count(doc, 'processingStep'))}].method.parameters[0].uncertainty",
            Decimal("0.25"),
        )
    if kind == "interval":
        return lambda doc: set_path(doc, "system.temporalResolution.interval", 2)
    if kind == "software":
        software = draw(st.sampled_from([Software(), Software(name=text)]))
        return lambda doc: append_nodes(
            doc, f"processingStep[{min(slot, _count(doc, 'processingStep'))}].software", (software,)
        )
    variable = draw(VARIABLES)
    return lambda doc: append_nodes(doc, "system.parameters", (variable,))


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, len(DOCS)), steps=st.lists(writes(), min_size=1, max_size=8))
def test_path_writes_keep_documents_canonical(start, steps):
    doc = DOCS[start] if start < len(DOCS) else EngMetaDataset()
    for step in steps:
        doc = step(doc)
        rebuilt = renormalised(doc)
        assert nodes_equal(doc, rebuilt)
        assert doc == rebuilt and hash(doc) == hash(rebuilt)


def test_appending_an_empty_node_is_a_no_op():
    for doc in (EngMetaDataset(), DOCS[0], DOCS[1]):
        for list_path, empty in (
            ("system.parameters", Variable()),
            ("processingStep[0].method.parameters", Variable()),
            (f"processingStep[{len(doc.processingSteps)}].software", Software()),
        ):
            assert append_nodes(doc, list_path, (empty,)) is doc
    assert append_nodes(
        EngMetaDataset(), "processingStep[0].method.parameters", (Variable(name="n"),)
    ) == (
        EngMetaDataset(processingSteps=(
            ProcessingStep(method=Method(parameters=(Variable(name="n"),))),
        ))
    )


# --- path reads: one resolution rule against the per-node lookup -------------

UNKNOWN_ELEMENT = "notAnElement"
ELEMENT_NAMES = sorted(ELEMENT_VOCABULARY) + [UNKNOWN_ELEMENT]
READ_ROOTS = st.one_of(
    st.sampled_from([None, "doc", EngMetaDataset, ProcessingStep, EngMetaDataset()]),
    st.sampled_from(DOCS),
    st.sampled_from(NODES),  # non-root nodes as well as documents
)
READ_INDEXES = st.sampled_from([None, None, None, 0, 0, 0, 1, 2, 10**6])


@st.composite
def read_paths(draw, root):
    """A path from the root: mostly a field set on the node reached, so that
    reads go deep and find values, else any field of its class, any
    vocabulary name or an unknown one; each segment with no index, index
    0, 1, 2 or one far past any list. A segment below a scalar and an index
    on a field that is not a list both occur."""
    node = root if isinstance(root, _Node) else None
    cls = type(node) if node is not None else None
    segments = []
    # one more segment: likely below a node, unlikely below a scalar
    while not segments or draw(st.sampled_from([0, 1, 1, 1] if cls else [0, 0, 0, 1])):
        specs = schema(cls) if cls is not None else ()
        filled = [spec for spec in specs
                  if node is not None and getattr(node, spec.attr) not in (None, ())]
        choice = draw(st.sampled_from(range(8)))  # uniform, unlike st.integers
        if filled and choice > 1:
            name = draw(st.sampled_from(filled)).element
        elif specs and choice:
            name = draw(st.sampled_from(specs)).element
        else:
            name = draw(st.sampled_from(ELEMENT_NAMES))
        index = draw(READ_INDEXES)
        segments.append(PathSegment(name, index))
        spec = field_by_element(cls, name) if cls is not None else None
        if spec is None or spec.kind in (SCALAR, SCALAR_LIST):
            node = cls = None
            continue
        cls = spec.value_type
        value = getattr(node, spec.attr) if node is not None else None
        if spec.kind == NODE_LIST:  # follow the entry read, or the first of all
            position = index or 0
            value = value[position] if value and position < len(value) else None
        node = value
    path = MetadataPath(tuple(segments))
    if UNKNOWN_ELEMENT not in (segment.name for segment in segments) and draw(st.booleans()):
        return str(path)  # text paths too, when they parse
    return path


def _identified(values: list) -> list:
    return [(id(value), value) for value in values]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), root=READ_ROOTS)
@example(data=None, root=None)
def test_get_path_equals_per_node_lookup(data, root):
    """Reading through the writers' resolution reads what the lookup on each
    reached node read: the same values, as the same objects."""
    path = "project" if data is None else data.draw(read_paths(root))
    assert _identified(get_path(root, path)) == _identified(get_path_by_node_checks(root, path))


# --- PROV's end time: the date predicate against the parsed date-time -------

def _two(low: int, high: int):
    return st.integers(low, high).map("{:02d}".format)


@st.composite
def xsd_form_dates(draw) -> str:
    """Text in or near xsd:dateTime form, each part drawn a little past its
    range: month 13, day 32, hour 24, minute and second 60, offsets to
    +15:60; a date alone, another separator, a fraction of one to seven
    digits and a lower-case 'z' occur too."""
    year = draw(st.sampled_from(["0000", "0001", "1999", "2020", "2100", "9999"]))
    date = f"{year}-{draw(_two(0, 13))}-{draw(_two(0, 32))}"
    if draw(st.sampled_from(range(10))) == 0:
        return date
    separator = draw(st.sampled_from("TTTTt "))
    text = f"{date}{separator}{draw(_two(0, 24))}:{draw(_two(0, 60))}:{draw(_two(0, 60))}"
    if draw(st.booleans()):
        text += "." + draw(st.text("0123456789", min_size=1, max_size=7))
    zone = draw(st.sampled_from(["", "Z", "z", "+", "-"]))
    if zone in ("+", "-"):
        zone += f"{draw(_two(0, 15))}:{draw(_two(0, 60))}"
    return text + zone


@settings(max_examples=1000, deadline=None)
@given(date=xsd_form_dates() | st.text(max_size=30) | st.none())
@example(date="2020-01-01T12:00:00")
@example(date="2020-01-01")
@example(date="2020-02-30T12:00:00")
@example(date="2020-01-01T12:00:00+14:00")
@example(date="2020-01-01T12:00:00.1234567")
def test_end_time_equals_parsed_datetime_reference(date):
    assert _end_time(date) == end_time_by_datetime_parse(date)


# --- validation: the field-rule table against the per-class reference -------
#
# Each entry: the list its first index counts (None for no list), the path
# with that index as ``{i}``, and hostile values for it.
HOSTILE_WRITES = [
    ("title", "title[{i}].titleType", ["catchy", " ", "main"]),
    ("title", "title[{i}].text", ["  "]),
    ("description", "description[{i}].descriptionType", ["odd", "abstract"]),
    ("date", "date[{i}].date", ["24.05.2019", "yesterday", " ", "2019-05-24T10:00:00Z"]),
    ("date", "date[{i}].dateType", ["whenever"]),
    ("keyword", "keyword[{i}]", ["\t"]),
    ("person", "person[{i}].role", ["inventor", "author"]),
    ("fundingReference", "fundingReference[{i}].funderIdentifierType", ["zzz"]),
    ("context", "context[{i}].identifier", ["a b", "10.1/x"]),
    ("context", "context[{i}].relatedIdentifierType", ["xx", "doi"]),
    ("context", "context[{i}].relationType", ["yy"]),
    (None, "resourceType.resourceTypeGeneral", ["thing"]),
    (None, "pid.value", ["p"]),
    (None, "pid.scheme", ["DOI"]),
    ("file", "file[{i}].checksum.algorithm", ["SHA-1", "MD5", "SHA-256"]),
    ("file", "file[{i}].checksum.digest", ["ABC", "a" * 31, "a" * 32, "b" * 64, " "]),
    ("file", "file[{i}].sizeBytes", [0, -1]),
    ("file", "file[{i}].link", ["a b", " ", "x\ny"]),
    ("processingStep", "processingStep[{i}].input[0].link", ["a b"]),
    ("processingStep", "processingStep[{i}].software[0].url", ["u v"]),
    ("processingStep", "processingStep[{i}].software[0].codeRepository", ["c\td"]),
    ("processingStep", "processingStep[{i}].stepType", ["simulation", " "]),
    ("processingStep", "processingStep[{i}].date", ["yesterday"]),
    ("processingStep", "processingStep[{i}].environment.nodes", [0, -1, 1]),
    ("processingStep", "processingStep[{i}].environment.coresPerNode", [0]),
    ("processingStep", "processingStep[{i}].environment.totalCores", [-1]),
    ("processingStep", "processingStep[{i}].method.parameters[0].uncertainty",
     [Decimal("-1"), Decimal("0.5")]),
    ("processingStep", "processingStep[{i}].method.parameters[0].value", ["hot", 3]),
    (None, "system.temporalResolution.numberOfTimesteps", [0, -1]),
    (None, "system.temporalResolution.interval", [Decimal("0"), Decimal("-1"), 0, 2]),
    (None, "system.spatialResolution.numberOfCells", [-1]),
    ("system.controlledVariables", "system.controlledVariables[{i}].name", ["T", "shear"]),
    ("system.measuredVariables", "system.measuredVariables[{i}].name", ["T", "flow"]),
    ("system.parameters", "system.parameters[{i}].name", ["T", "energy"]),
    ("system.parameters", "system.parameters[{i}].value", ["hot", True, Decimal("1")]),
    ("system.parameters", "system.parameters[{i}].uncertainty", [Decimal("0.5"), Decimal("-2")]),
]

# every kind of check validation runs, told apart by its message
RULE_KINDS = {
    "blank": r"must not be blank",
    "code list (error)": r"is not in the (titleTypes|roles) code list",
    "code list (warning)": r"is not in the \w+ code list",
    "fixed step types": r"is not one of: data generation",
    "required": r"(needs an identifier|type code is required|needs a value|needs a scheme)$",
    "ISO date": r"is not an ISO-8601 date",
    "URI reference": r"not a valid URI reference",
    ">= 0": r"must be >= 0",
    "> 0": r"must be > 0",
    "unique variable names": r"duplicate variable name",
    "checksum algorithm": r"(checksum needs an algorithm|is not one of: MD5)",
    "checksum digest": r"(checksum needs a digest|lowercase hex|digests have)",
    "numeric uncertainty": r"uncertainty needs a numeric value",
    "citable minimum": r"^citable records need",
}


# the kind of finding each FieldRules rule gives; severity only grades the code list
RULE_KIND_OF_FIELD = {
    "required": "required",
    "codes": "code list (warning)",  # "code list (error)" where severity="error"
    "one_of": "fixed step types",
    "iso_date": "ISO date",
    "uri": "URI reference",
    "at_least": ">= 0",
    "above": "> 0",
    "unique_names": "unique variable names",
}


def _rule_kind(finding) -> str:
    for kind, pattern in RULE_KINDS.items():
        if re.search(pattern, finding.message) and (
            kind != "code list (error)" or finding.severity == "error"
        ):
            return kind
    raise AssertionError(f"unclassified finding {finding}")


def _hostile_write(doc, entry, value, index):
    count_path, template, _ = entry
    i = 0 if count_path is None else min(index, _count(doc, count_path))
    return set_path(doc, template.format(i=i), value)


def _assert_same_findings(doc) -> list:
    findings = []
    for profile in ("structural", "citable"):
        report = validate(doc, profile)
        assert report == validate_by_class_checks(doc, profile)
        findings.extend(report.findings)
    return findings


@st.composite
def hostile_writes(draw):
    entry = draw(st.sampled_from(HOSTILE_WRITES))
    return entry, draw(st.sampled_from(entry[2])), draw(st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(start=st.integers(0, len(DOCS)), steps=st.lists(hostile_writes(), min_size=1, max_size=8))
def test_validate_equals_per_class_reference(start, steps):
    doc = DOCS[start] if start < len(DOCS) else EngMetaDataset()
    for entry, value, index in steps:
        doc = _hostile_write(doc, entry, value, index)
    _assert_same_findings(doc)


def test_every_rule_kind_fires_over_the_pool():
    # a rule declared on the model needs a kind here, and so a check that fires
    assert set(RULE_KIND_OF_FIELD) == set(FieldRules._fields) - {"severity"}
    assert set(RULE_KIND_OF_FIELD.values()) <= set(RULE_KINDS)
    kinds = set()
    for k, doc in enumerate(DOCS):
        for entry in HOSTILE_WRITES:
            for value in entry[2]:
                # a fresh entry at the end of the list, or the first one rewritten
                written = _hostile_write(doc, entry, value, 99 if k % 2 else 0)
                kinds.update(_rule_kind(f) for f in _assert_same_findings(written))
    assert kinds == set(RULE_KINDS)


# --- Trusted decoding against the checked construction ---------------------


def _assert_same_read(trusted, checked) -> None:
    assert trusted.warnings == checked.warnings
    assert trusted.dataset.canonical_key() == checked.dataset.canonical_key()
    assert repr(trusted.dataset) == repr(checked.dataset)


def test_trusted_decode_equals_checked_construction_on_pool():
    for doc in [*DOCS, every_field_dataset(), EngMetaDataset()]:
        xml = to_xml(doc)
        _assert_same_read(from_xml(xml), from_xml_checked(xml))
        text = to_json(doc)
        _assert_same_read(from_json(text), from_json_checked(text))


# every element empty, or holding only empty elements and attributes
EMPTY_XML = (
    '<engMeta><title/><title titleType=""></title><keyword></keyword><worked/>'
    "<system><temporalResolution/><parameters><name></name><value/></parameters>"
    "<components><forceField><parameters/></forceField></components></system>"
    '<file><checksum algorithm=""/><pid></pid></file><processingStep><input/>'
    "<software><license/><contributor><identifier/></contributor></software>"
    "</processingStep></engMeta>"
)


def test_trusted_xml_decode_drops_empty_elements_as_checked_construction():
    for text in (EMPTY_XML, EMPTY_XML.replace("<worked/>", "<project>p</project>")):
        trusted = from_xml(text)
        _assert_same_read(trusted, from_xml_checked(text))
        assert repr(renormalised(trusted.dataset)) == repr(trusted.dataset)
    assert from_xml(EMPTY_XML).dataset == EngMetaDataset()
    assert from_xml(text).dataset == EngMetaDataset(project="p")


def _empty_value(draw, spec, depth: int):
    """A JSON value that decodes to nothing for the field, or None if it has none."""
    if spec.kind == SCALAR_LIST:
        return draw(st.sampled_from([[], [""], ["", ""]]))
    if spec.kind in (NODE, NODE_LIST):
        entry = _empty_object(draw, spec.value_type, depth + 1)
        return entry if spec.kind == NODE else draw(st.sampled_from([[], [entry], [entry, {}]]))
    if spec.value_type is TAGGED:
        return {"type": draw(st.sampled_from(["string", "integer", "decimal"])), "text": ""}
    if spec.value_type in (str, Decimal):  # decimals are carried as strings
        return ""
    return None  # integers and booleans have no empty spelling


def _empty_object(draw, cls, depth: int) -> dict:
    """An object for ``cls`` whose every entry is empty: the node is absent."""
    obj = {}
    if depth < 3:
        for spec in schema(cls):
            if draw(st.integers(0, 3)) == 0:
                value = _empty_value(draw, spec, depth)
                if value is not None:
                    obj[spec.element] = value
    return obj


def _sprinkle(draw, obj: dict, cls, depth: int = 0) -> None:
    """Add empty entries to ``obj`` in place, beside and inside its real ones."""
    for spec in schema(cls):
        value = obj.get(spec.element)
        if spec.kind == NODE and value is not None:
            _sprinkle(draw, value, spec.value_type, depth + 1)
        elif spec.kind == NODE_LIST and value is not None:
            for item in value:
                _sprinkle(draw, item, spec.value_type, depth + 1)
        if draw(st.integers(0, 5)) != 0:
            continue
        empty = _empty_value(draw, spec, depth)
        if empty is None:
            continue
        if spec.kind in (SCALAR_LIST, NODE_LIST) and value is not None and empty:
            position = draw(st.integers(0, len(value)))
            value[position:position] = empty
        else:
            obj[spec.element] = empty


@st.composite
def json_with_empty_entries(draw) -> str:
    start = draw(st.integers(0, len(DOCS)))
    obj = json.loads(to_json(DOCS[start])) if start < len(DOCS) else {}
    _sprinkle(draw, obj, EngMetaDataset)
    return json.dumps(obj, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(text=json_with_empty_entries())
def test_trusted_json_decode_drops_empty_entries_as_checked_construction(text):
    trusted = from_json(text)
    _assert_same_read(trusted, from_json_checked(text))
    # every node is as the checking constructors leave it: no empty node survives
    assert repr(renormalised(trusted.dataset)) == repr(trusted.dataset)


# --- Hostile documents: the readers against the reference readers -------------
#
# Each pool document, as written and with seeded damage of every kind the
# readers skip, warn about or refuse. Both readers must agree on the dataset,
# the warnings in order, and the error raised, by type and message.

FOREIGN_NAMESPACE = "https://example.org/other"


def _hostile_xml(element, cls, rng: random.Random) -> None:
    """Damage, in place, the element that spells a node of ``cls``."""
    names = [spec.element for spec in schema(cls)]
    has_content = any(spec.placement == CONTENT for spec in schema(cls))
    if rng.random() < 0.15:  # unknown unless a content class declares it
        element.set(rng.choice([*names, "x"]), rng.choice(["1", ""]))
    if has_content and rng.random() < 0.15:  # a child naming an attribute or the content
        ElementTree.SubElement(element, rng.choice(names)).text = rng.choice(["1", ""])
    if rng.random() < 0.05:  # a namespaced attribute
        namespace = rng.choice([ENGMETA_NAMESPACE, FOREIGN_NAMESPACE])
        element.set(f"{{{namespace}}}{rng.choice(names)}", "1")
    if not has_content and rng.random() < 0.05:
        element.text = rng.choice(["stray", "\n  "])
    for position, child in reversed(list(enumerate(element))):
        spec = field_by_element(cls, child.tag)
        if spec is None:
            continue
        if rng.random() < 0.04:
            child.tail = rng.choice(["tail", "  "])
        if rng.random() < 0.04:  # a repeated singular element, or one more list entry
            element.insert(position + 1, copy.deepcopy(child))
        if rng.random() < 0.03:
            element.insert(position, ElementTree.Element(rng.choice(["unknown", "engMeta"])))
        if spec.kind in (SCALAR, SCALAR_LIST):
            roll = rng.random()
            if roll < 0.05:
                ElementTree.SubElement(child, "inner").text = "x"
            elif roll < 0.10:
                child.text = ""
            elif roll < 0.105:  # text the field may refuse
                child.text = rng.choice(["x", " 7 ", "1e3", "true"])
            if spec.value_type is TAGGED and rng.random() < 0.05:
                child.set("type", rng.choice(["integer", "decimal", "boolean", "date"]))
            if rng.random() < 0.03:  # plain strings too; only a tagged value's type is known
                child.set(rng.choice(["unit", "lang", "type"]), "1")
        else:
            _hostile_xml(child, spec.value_type, rng)
        roll = rng.random()
        if roll < 0.08:
            child.tag = f"{{{ENGMETA_NAMESPACE}}}{child.tag}"
        elif roll < 0.10:
            child.tag = f"{{{FOREIGN_NAMESPACE}}}{child.tag}"


def _in_engmeta_namespace(element) -> None:
    for node in element.iter():
        if not node.tag.startswith("{"):
            node.tag = f"{{{ENGMETA_NAMESPACE}}}{node.tag}"


def _hostile_json(obj: dict, cls, rng: random.Random) -> None:
    """Damage, in place, the object that spells a node of ``cls``."""
    for key, value in list(obj.items()):
        spec = field_by_element(cls, key)
        roll = rng.random()
        if roll < 0.05:  # an empty value
            obj[key] = {NODE: {}, NODE_LIST: [{}]}.get(spec.kind, _empty_spelling(spec))
        elif roll < 0.055:  # a value the field may refuse
            obj[key] = rng.choice([7, "x", True, None, [], {}])
        elif roll < 0.07 and spec.kind in (SCALAR, SCALAR_LIST):
            # a key given again, last, with a value a string field refuses: in a
            # tagged value's object, or in this one ("\0" marks it until dumped)
            tagged = isinstance(value, dict)
            (value if tagged else obj)["\0" + ("text" if tagged else key)] = 7
        elif spec.kind == NODE:
            _hostile_json(value, spec.value_type, rng)
        elif spec.kind == NODE_LIST:
            for item in value:
                _hostile_json(item, spec.value_type, rng)
    if rng.random() < 0.1:  # an unknown key
        key = rng.choice([spec.element for spec in schema(cls)])
        obj[rng.choice([f"{{{ENGMETA_NAMESPACE}}}{key}", f"@{key}", "x"])] = "1"


def _empty_spelling(spec):
    if spec.value_type in (int, bool):  # no empty spelling: an empty list, or the value
        return [] if spec.kind == SCALAR_LIST else 0 if spec.value_type is int else True
    empty = {"type": "string", "text": ""} if spec.value_type is TAGGED else ""
    return [empty] if spec.kind == SCALAR_LIST else empty


def _read_outcome(read, text: str):
    try:
        result = read(text)
    except EngMetaError as exc:
        return type(exc), str(exc)
    return result.warnings, result.dataset.canonical_key(), repr(result.dataset)


def _hostile_documents():
    for i, doc in enumerate(dataset_pool(300)):
        rng = random.Random(i)
        xml, text = to_xml(doc), to_json(doc)
        yield "xml", xml
        yield "json", text
        root = ElementTree.fromstring(xml)
        _hostile_xml(root, EngMetaDataset, rng)
        if rng.random() < 0.2:
            _in_engmeta_namespace(root)
        yield "xml", ElementTree.tostring(root, encoding="unicode")
        obj = json.loads(text)
        _hostile_json(obj, EngMetaDataset, rng)
        yield "json", json.dumps(obj, ensure_ascii=False).replace('"\\u0000', '"')


def test_readers_equal_reference_readers_on_hostile_documents():
    readers = {"xml": (from_xml, from_xml_checked), "json": (from_json, from_json_checked)}
    seen = {"xml": [], "json": []}
    for syntax, text in _hostile_documents():
        read, reference = readers[syntax]
        outcome = _read_outcome(read, text)
        assert outcome == _read_outcome(reference, text), text
        seen[syntax].append(outcome)
    # the damage reaches every branch: each warning kind, and errors in both syntaxes
    warnings = " ".join(w for outcomes in seen.values() for o in outcomes
                        if isinstance(o[0], tuple) for w in o[0])
    for kind in ("unknown attribute", "empty attribute", "unknown element <unknown>",
                 f"unknown element <{{{FOREIGN_NAMESPACE}}}", "repeated element",
                 "stray text", "unexpected child elements", "empty element",
                 "unknown key", "repeated key", "empty value"):
        assert kind in warnings, kind
    for outcomes in seen.values():
        assert sum(isinstance(o[0], type) for o in outcomes) >= 10


# --- Canonical JSON against json.dumps of the dict reference -----------------

def _dumps_reference(doc) -> str:
    return json.dumps(node_to_obj(doc), indent=2, ensure_ascii=False) + "\n"


def test_to_json_equals_dict_reference(gromacs_doc):
    for doc in [*dataset_pool(300), every_field_dataset(), gromacs_doc]:
        assert to_json(doc) == _dumps_reference(doc)


# the characters but the surrogates that XML 1.0 cannot carry, so the model refuses them
NOT_XML = "".join(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))
DOC_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=NOT_XML)
    | st.sampled_from('"\\\t\x7f\x85\u2028é中😀'),
    max_size=4,
)
# around one character that is not whitespace: blank strings are invalid
NOT_BLANK = st.characters(blacklist_categories=("Cs", "Z", "Cc"), blacklist_characters=NOT_XML)
DOC_STRINGS = st.builds("{}{}{}".format, DOC_TEXT, NOT_BLANK, DOC_TEXT)
NUMBERS = (
    st.integers() | st.integers(-10**30, 10**30)
    | st.builds(Decimal.scaleb, st.integers(-10**9, 10**9).map(Decimal), st.integers(-6, 6))
)


VARIABLE_NAME = field_by_element(Variable, "name")


@st.composite
def documents_with_drawn_text(draw, texts=DOC_STRINGS):
    """A pool or every-field document whose strings of fields without
    validation rules, and whose tagged values, cycle through drawn ones
    (``texts``, and booleans and numbers for tagged values). A checksum
    keeps its hex digest, a variable its distinct name, and an uncertainty
    stays only on a number."""
    strings = itertools.cycle(draw(st.lists(texts, min_size=1, max_size=8)))
    tagged = itertools.cycle(draw(st.lists(texts | st.booleans() | NUMBERS,
                                           min_size=1, max_size=6)))

    def redraw(node):
        if type(node) is Checksum:
            return node
        values = {}
        for spec in schema(type(node)):
            value = getattr(node, spec.attr)
            if spec.kind == NODE:
                value = None if value is None else redraw(value)
            elif spec.kind == NODE_LIST:
                value = [redraw(item) for item in value]
            elif spec.value_type is TAGGED and value is not None:
                value = next(tagged)
            elif spec.value_type is str and spec.rules is None and spec is not VARIABLE_NAME:
                if spec.kind == SCALAR_LIST:
                    value = [next(strings) for _ in value]
                elif value is not None:
                    value = next(strings)
            values[spec.attr] = value
        if type(node) is Variable and type(values["value"]) not in (int, Decimal):
            values["uncertainty"] = None
        return type(node)(**values)

    return redraw(draw(st.sampled_from([every_field_dataset(), *DOCS])))


@settings(max_examples=200, deadline=None)
@given(doc=documents_with_drawn_text())
def test_to_json_equals_dict_reference_on_drawn_text(doc):
    """Non-ASCII text, quotes, backslashes, control characters, U+2028, and
    tagged strings, booleans, integers and decimals."""
    assert not validate(doc).errors
    assert to_json(doc) == _dumps_reference(doc)


@st.composite
def thinned_repeats(draw):
    """The every-field document with each list entry repeated up to three
    times, each copy keeping a drawn subset of its fields: repeated
    compounds that differ only in which sub-fields are set."""

    def thin(node):
        values = {}
        for spec in schema(type(node)):
            value = getattr(node, spec.attr)
            if spec.kind == NODE_LIST:
                values[spec.attr] = [
                    thin(item) for item in value for _ in range(draw(st.integers(1, 3)))
                ]
            elif spec.kind == NODE and value is not None:
                values[spec.attr] = thin(value)
            elif draw(st.booleans()):
                values[spec.attr] = value
        return type(node)(**values)

    return thin(every_field_dataset())


def _flatten_documents(gromacs_doc) -> list:
    return [*dataset_pool(300), every_field_dataset(), gromacs_doc, EngMetaDataset()]


def test_flatten_equals_fill_function_reference(gromacs_doc):
    for doc in _flatten_documents(gromacs_doc):
        expected = serialize_blocks_json(*flatten_by_fill_functions(doc))
        assert serialize_blocks_json(*flatten(doc)) == expected


@settings(max_examples=150, deadline=None)
@given(doc=thinned_repeats())
def test_flatten_equals_fill_function_reference_on_thinned_repeats(doc):
    """The reference collapses compounds on sorted keys, flatten on keys in
    sub-field order: equal results show that equal compounds list their
    sub-fields in one order."""
    expected = serialize_blocks_json(*flatten_by_fill_functions(doc))
    assert serialize_blocks_json(*flatten(doc)) == expected
    _assert_compound_keys_fit_one_order(doc)


# --- The XML writer's tag templates against the kind-dispatching writer ------

def _assert_same_xml(doc) -> bool:
    """Both writers write the same bytes, or refuse the document with the same
    error; True when they refuse it."""
    try:
        expected = to_xml_by_kind_dispatch(doc)
    except CanonValidationError as refused:
        with pytest.raises(CanonValidationError) as excinfo:
            to_xml(doc)
        assert str(excinfo.value) == str(refused)
        assert excinfo.value.findings == refused.findings
        return True
    assert to_xml(doc) == expected
    return False


def test_to_xml_equals_kind_dispatch_reference(gromacs_doc):
    every_field = (Path(__file__).parent / "data" / "every_field.xml").read_text(encoding="utf-8")
    for doc in [*dataset_pool(300), from_xml(every_field).dataset, gromacs_doc,
                EngMetaDataset()]:
        assert not _assert_same_xml(doc)


# each character that one of the two escapes replaces, and non-ASCII text
XML_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=NOT_XML)
    | st.sampled_from('&<>\r"\n\té中😀\u2028'),
    max_size=4,
)
XML_STRINGS = st.builds("{}{}{}".format, XML_TEXT, NOT_BLANK, XML_TEXT)


@settings(max_examples=200, deadline=None)
@given(doc=documents_with_drawn_text(XML_STRINGS))
@example(doc=EngMetaDataset(
    persons=(PersonOrOrganization(
        name="n", identifier=Identifier('&<>\r"\n\t', scheme='a&b<c>d\re"f\ng\th')),),
    worked=SuccessMarker(success=False, note="x > y & \r"),
    system=ObservedSystem(parameters=(Variable("a", True), Variable("b", Decimal("-0.50")),
                                      Variable("c", -3), Variable("d", "<é>"))),
))
def test_to_xml_equals_kind_dispatch_reference_on_drawn_text(doc):
    """Text and attribute values with every character either escape
    replaces, non-ASCII text, and tagged strings, booleans, integers and
    decimals."""
    assert not _assert_same_xml(doc)


@settings(max_examples=200, deadline=None)
@given(doc=documents_with_drawn_text(XML_STRINGS))
def test_xml_round_trip_on_drawn_text(doc):
    assert from_xml(to_xml(doc)).dataset == doc


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.characters() | st.sampled_from(NOT_XML + "\ud800\udfff"), min_size=1))
def test_text_the_constructors_accept_reads_back_from_xml(text):
    """README's promise: every document the constructors build reads back. Text
    with a character XML 1.0 cannot carry is refused, any other is kept."""
    try:
        doc = EngMetaDataset(titles=(Title(text),), keywords=(text,), persons=(
            PersonOrOrganization(name="n", identifier=Identifier(text, scheme=text)),))
    except ValueError:
        assert any(char in NOT_XML or "\ud800" <= char <= "\udfff" for char in text)
        return
    assert not any(char in NOT_XML or "\ud800" <= char <= "\udfff" for char in text)
    if text.strip():  # the writers refuse blank text
        assert from_xml(to_xml(doc)).dataset == doc


@settings(max_examples=150, deadline=None)
@given(start=st.integers(0, len(DOCS)), steps=st.lists(hostile_writes(), min_size=1, max_size=4))
def test_to_xml_equals_kind_dispatch_reference_on_hostile_writes(start, steps):
    doc = DOCS[start] if start < len(DOCS) else EngMetaDataset()
    for entry, value, index in steps:
        doc = _hostile_write(doc, entry, value, index)
    _assert_same_xml(doc)


def test_both_xml_writers_refuse_invalid_documents_alike():
    refused = sum(_assert_same_xml(_hostile_write(doc, entry, value, 0))
                  for doc in DOCS[:3] for entry in HOSTILE_WRITES for value in entry[2])
    assert refused >= 30


# --- The block JSON templates against the dict-building writer ---------------

def test_block_json_equals_dict_reference(gromacs_doc):
    data = Path(__file__).parent / "data"
    goldens = [from_xml((data / "golden.xml").read_text(encoding="utf-8")).dataset,
               from_xml((data / "every_field.xml").read_text(encoding="utf-8")).dataset,
               from_json((data / "every_field.json").read_text(encoding="utf-8")).dataset]
    for doc in [*dataset_pool(300), gromacs_doc, *goldens]:
        blocks, report = flatten(doc)
        assert serialize_blocks_json(blocks, report) == serialize_blocks_json_by_dicts(
            blocks, report)


BLOCK_STRINGS = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f\u2028é中😀'),
    max_size=8,
)
PRIMITIVES = (
    BLOCK_STRINGS | st.booleans() | st.integers() | st.integers(-10**30, 10**30)
    | st.builds(Decimal.scaleb, st.integers(-10**9, 10**9).map(Decimal), st.integers(-6, 6))
)
COMPOUNDS = st.dictionaries(BLOCK_STRINGS, PRIMITIVES, max_size=4)


@st.composite
def block_fields(draw):
    type_class = draw(st.sampled_from(["primitive", "compound"]))
    entries = PRIMITIVES if type_class == "primitive" else COMPOUNDS
    multiple = draw(st.booleans())
    value = draw(st.lists(entries, max_size=4) if multiple else entries)
    return BlockField(draw(BLOCK_STRINGS), multiple, type_class, value)


HAND_BUILT_BLOCKS = st.lists(st.sampled_from(BLOCK_NAMES), unique=True).flatmap(
    lambda names: st.tuples(*(
        st.builds(MetadataBlock, st.just(name), st.lists(block_fields(), max_size=4).map(tuple))
        for name in names
    ))
)
HAND_BUILT_REPORTS = st.builds(
    FlattenReport,
    st.lists(st.builds(MappedPath, BLOCK_STRINGS, BLOCK_STRINGS), max_size=4).map(tuple),
    st.lists(st.builds(DroppedPath, BLOCK_STRINGS, BLOCK_STRINGS), max_size=4).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(blocks=HAND_BUILT_BLOCKS, report=HAND_BUILT_REPORTS)
def test_block_json_equals_dict_reference_on_hand_built_blocks(blocks, report):
    """Empty blocks and report lists, single and multiple primitives and
    compounds, strings that need escaping, bools, ints and decimals."""
    blocks = list(blocks)
    assert serialize_blocks_json(blocks, report) == serialize_blocks_json_by_dicts(blocks, report)


def _fits_one_order(sequences) -> bool:
    """True when one total order of the keys lists every sequence in order."""
    later: dict = {}
    for keys in sequences:
        for key in keys:
            later.setdefault(key, set())
        for before, after in zip(keys, keys[1:]):
            later[before].add(after)
    waiting = dict.fromkeys(later, 0)
    for successors in later.values():
        for key in successors:
            waiting[key] += 1
    ready = [key for key, count in waiting.items() if count == 0]
    placed = 0
    while ready:
        key = ready.pop()
        placed += 1
        for successor in later[key]:
            waiting[successor] -= 1
            if waiting[successor] == 0:
                ready.append(successor)
    return placed == len(later)


def _assert_compound_keys_fit_one_order(doc) -> None:
    blocks, _ = flatten(doc)
    for block in blocks:
        for field in block.fields:
            if field.typeClass == "compound" and field.multiple:
                assert _fits_one_order([list(entry) for entry in field.value]), (
                    block.blockName, field.typeName, [list(entry) for entry in field.value]
                )


def test_fits_one_order_finds_a_cycle():
    assert _fits_one_order([["a", "b"], ["b", "c"], ["a", "c"], []])
    assert not _fits_one_order([["a", "b"], ["b", "a"]])
    assert not _fits_one_order([["a", "b"], ["b", "c"], ["c", "a"]])


def test_compound_keys_fit_one_order(gromacs_doc):
    for doc in _flatten_documents(gromacs_doc):
        _assert_compound_keys_fit_one_order(doc)


def test_prov_equals_hand_written_reference(gromacs_doc):
    for doc in [*dataset_pool(300), every_field_dataset(), gromacs_doc, EngMetaDataset()]:
        assert serialize_prov_n(to_prov(doc)) == serialize_prov_n(to_prov_by_hand(doc))


def test_crosswalk_declarations_name_declared_fields():
    """Renaming a model field cannot leave a dead crosswalk entry behind."""
    crosswalk = importlib.import_module("engmeta.flatten")
    named = [
        *((EngMetaDataset, attr) for attr in crosswalk._BLOCKS),
        *crosswalk._INLINE,
        *crosswalk._TO_PROV,
        *crosswalk._TYPE_NAMES,
        *crosswalk._KEYS,
        *((cls, attr) for cls, order in crosswalk._ORDER.items() for attr in order),
    ]
    for cls, attr in named:
        assert attr in {spec.attr for spec in schema(cls)}, (cls.__name__, attr)
    assert set(crosswalk._BLOCKS.values()) <= set(BLOCK_NAMES)
    for order in crosswalk._ORDER.values():
        assert len(set(order)) == len(order)


# --- harvest's trusted listing against the checked reference -----------------

# hidden files, and names whose file type the suffix rule decides at an edge
HARVEST_NAMES = (".bashrc", "a.", "..foo", "x.TAR.GZ", "dir.d/noext", "...", "a.b.", "plain",
                 ".hidden/inner.Log", "deep/er/É.TXT", "tar.gz/.x.y", "sp ace.t xt")


@pytest.mark.parametrize("seed", range(6))
def test_harvest_equals_checked_reference(tmp_path, monkeypatch, make_unlistable, seed):
    """Every name above with drawn sizes (empty files included), symlinks to a
    file and to a directory, a name that is not UTF-8, a drawn file that
    cannot be opened, one that vanishes before its stat and, on odd seeds, a
    directory that cannot be listed."""
    rng = random.Random(seed)
    names = rng.sample(HARVEST_NAMES, len(HARVEST_NAMES))
    for name in [*names, "real/r.txt", "locked/k.txt"]:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(rng.randbytes(rng.choice([0, 1, 100, 70000])))
    os.symlink(tmp_path / names[0], tmp_path / "link.txt")
    os.symlink(tmp_path / "real", tmp_path / "alias")
    try:
        with open(os.path.join(os.fsencode(tmp_path), b"n\xffme.Bin"), "wb") as handle:
            handle.write(b"bytes")
    except OSError:  # a file system that refuses names that are not UTF-8
        pass
    unopenable, vanished = {Path(names[1]).name, "r.txt"}, {Path(names[2]).name}
    real_open, real_stat = Path.open, Path.stat

    def guarded_open(self, *args, **kwargs):
        if self.name in unopenable | vanished:
            raise PermissionError(13, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    def guarded_stat(self, *args, **kwargs):
        if self.name in vanished:
            raise FileNotFoundError(2, "No such file or directory", str(self))
        return real_stat(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", guarded_open)
    monkeypatch.setattr(Path, "stat", guarded_stat)
    if seed % 2:
        make_unlistable(tmp_path / "locked")
    algorithm = ("SHA-256", "MD5")[seed % 2]

    result, expected = harvest(tmp_path, algorithm), harvest_checked(tmp_path, algorithm)
    assert repr(result.files) == repr(expected.files)
    assert result.files == expected.files
    assert result.errors == expected.errors
    assert result.algorithm == expected.algorithm
    assert {e.message.split(":")[0] for e in result.errors} >= {"unreadable", "stat failed"}


# --- The scalar check against the isinstance ladder ---------------------------

# one field of each value type: string, integer, decimal, boolean, tagged, and
# a string list
SCALAR_FIELDS = [(cls, field_by_element(cls, element)) for cls, element in [
    (FileInfo, "filename"), (FileInfo, "sizeBytes"), (TemporalResolution, "interval"),
    (SuccessMarker, "success"), (Variable, "value"), (EngMetaDataset, "keyword"),
]]


def _overriding(base: type, method: str) -> type:
    return type(f"{base.__name__}With{method}", (base,), {method: lambda self, *args: "overridden"})


# makers of subclass instances that hold a given builtin value
SUBCLASS_MAKERS = {
    base: [type(f"Own{base.__name__}", (base,), {}),
           *(_overriding(base, method) for method in ("__str__", "__format__", "__repr__"))]
    for base in (str, int, Decimal)
}
SUBCLASS_MAKERS[str].append(lambda value: enum.Enum("Code", {"MEMBER": value}, type=str).MEMBER)
SUBCLASS_MAKERS[int] += [lambda value: enum.IntEnum("Level", {"MEMBER": value}).MEMBER,
                         lambda value: enum.Enum("Level", {"MEMBER": value}, type=int).MEMBER]

BUILTIN_SCALARS = st.one_of(
    st.text(max_size=4),
    st.text(st.characters(categories=["Cs"]) | st.characters(), min_size=1, max_size=3),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**4300 - 1, 10**4300, -(10**4300), 10**5000]),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.sampled_from([Decimal(text) for text in (
        "1e4299", "-9.99e4299", "1e-4299", "1e4300", "1e-4300", "1e50000", "NaN", "-sNaN",
    )]),
)
NOT_SCALARS = st.one_of(st.none(), st.floats(), st.binary(max_size=3),
                        st.lists(st.integers(), max_size=2))


@st.composite
def scalar_inputs(draw):
    """(given, held): a drawn input and the builtin value it holds, itself unless
    it is an instance of a subclass."""
    held = draw(BUILTIN_SCALARS | NOT_SCALARS)
    if type(held) in SUBCLASS_MAKERS and draw(st.booleans()):
        return draw(st.sampled_from(SUBCLASS_MAKERS[type(held)]))(held), held
    return held, held


def _outcome(check, spec, value) -> tuple:
    try:
        stored = check(spec, value)
    except (TypeError, ValueError) as exc:
        return "raises", type(exc), str(exc)
    return "stores", type(stored), repr(stored)


def _constructed(cls, spec, value):
    """The value as a node of ``cls`` stores it."""
    stored = getattr(cls(**{spec.attr: [value] if spec.kind == SCALAR_LIST else value}), spec.attr)
    return stored[0] if spec.kind == SCALAR_LIST else stored


@settings(max_examples=600, deadline=None)
@given(field=st.sampled_from(SCALAR_FIELDS), drawn=scalar_inputs())
@example(field=SCALAR_FIELDS[1], drawn=("", ""))
@example(field=SCALAR_FIELDS[1], drawn=(True, True))
@example(field=SCALAR_FIELDS[0], drawn=(SUBCLASS_MAKERS[str][-1]("\udcff"), "\udcff"))
@example(field=SCALAR_FIELDS[2], drawn=(SUBCLASS_MAKERS[Decimal][2](Decimal("NaN")),
                                        Decimal("NaN")))
def test_scalar_check_equals_isinstance_reference(field, drawn):
    """Every input the reference refuses is refused with the same error, its
    value and type named as given; a builtin input is stored as the reference
    stores it, and an instance of a subclass as the builtin value it holds."""
    cls, spec = field
    value, held = drawn
    expected = _outcome(check_scalar_by_isinstance, spec, value)
    if expected[0] == "stores":
        expected = _outcome(check_scalar_by_isinstance, spec, held)
        assert expected[1] in (str, int, bool, Decimal)
    assert _outcome(_check_scalar, spec, value) == expected
    if value is not None:  # a constructor leaves None unset
        assert _outcome(partial(_constructed, cls), spec, value) == expected
