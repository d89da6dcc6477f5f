"""Differential and property tests: the key-based fast paths against the
list-scan reference implementations in ``oracles``."""

from dataclasses import replace
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from engmeta.canon import from_xml, to_xml
from engmeta.extract import assemble, parse_config
from engmeta.extract.engine import RawHit
from engmeta.merging import merge
from engmeta.model import (
    NODE,
    NODE_LIST,
    SCALAR_LIST,
    EngMetaDataset,
    Method,
    ObservedSystem,
    ProcessingStep,
    Software,
    Variable,
    scalar_key,
    schema,
)
from engmeta.paths import append_node, get_path, set_path
from genmodel import dataset_pool
from oracles import assemble_by_list_scan, merge_by_list_scan, nodes_equal, renormalised

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
    return replace(doc, **{
        spec.attr: getattr(doc, spec.attr) * 2
        for spec in schema(EngMetaDataset)
        if spec.kind in (NODE_LIST, SCALAR_LIST)
    })


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
    "type = decimal\ngroup = v\n"
    "[rule step]\ntarget = processingStep[0].stepType\nsource = *\nkey = Step\n"
    # unreachable until a step exists: deferred, then retried
    "[rule sp]\ntarget = processingStep[0].method.parameters.name\nsource = *\n"
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


def _count(dataset, list_path: str) -> int:
    return len(get_path(dataset, list_path))


@st.composite
def writes(draw):
    """One set_path or append_node call, with indices inside the writable range."""
    kind = draw(st.sampled_from(
        ["project", "keyword", "value", "uncertainty", "interval", "software", "parameter"]
    ))
    slot = draw(st.integers(0, 4))
    text = draw(st.sampled_from(["a", "b & c", "x < y"]))
    if kind == "project":
        return lambda doc: set_path(doc, "project", text)
    if kind == "keyword":
        return lambda doc: set_path(doc, f"keyword[{min(slot, _count(doc, 'keyword'))}]", text)
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
        return lambda doc: append_node(
            doc, f"processingStep[{min(slot, _count(doc, 'processingStep'))}].software", software
        )
    variable = draw(VARIABLES)
    return lambda doc: append_node(doc, "system.parameters", variable)


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
            assert append_node(doc, list_path, empty) is doc
    assert append_node(EngMetaDataset(), "processingStep[0].method.parameters", Variable(name="n")) == (
        EngMetaDataset(processingSteps=(
            ProcessingStep(method=Method(parameters=(Variable(name="n"),))),
        ))
    )
