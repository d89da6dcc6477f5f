"""Hostile-input property tests: the readers raise only EngMetaError.

Inputs are generated close to the real formats, so that most of them get
past the syntax check and reach the decoders: JSON trees that follow the
model's schema with hostile values and stray keys, the same trees written
as XML, and rule files made of plausible field lines. Any exception other
than an ``EngMetaError`` subclass fails the test. Rule files that parse
are also run: assembling hits for them raises nothing else either, and
neither does building rules by hand from arbitrary fields.
"""

import json
from decimal import Decimal
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engmeta.canon import from_json, from_xml, to_xml
from engmeta.errors import CanonDecodeError, CanonValidationError, EngMetaError
from engmeta.extract import (
    OCCURRENCES,
    VALUE_TYPES,
    ExtractionConfig,
    ExtractionRule,
    assemble,
    coerce,
    parse_config,
)
from engmeta.extract.engine import RawHit
from engmeta.model import (
    ATTRIBUTE,
    CONTENT,
    ELEMENT_VOCABULARY,
    NODE,
    NODE_LIST,
    ROOT_ELEMENT,
    SCALAR,
    SCALAR_LIST,
    TAGGED,
    EngMetaDataset,
    Variable,
    decimal_to_text,
    field_by_element,
    schema,
)
from engmeta.paths import MetadataPath, PathSegment

NAMES = sorted(ELEMENT_VOCABULARY)

# texts that parse as some scalar type, or nearly do
TEXTS = st.one_of(
    st.sampled_from([
        "", " ", "x", "1", "-0", "+7", "1.5", "1e5", "NaN", "Infinity", "true", "false",
        "2019-05-24", "2019-05-24T10:00:00Z", "²", "١٢", "1_000", "9" * 5000,
    ]),
    st.text(max_size=6),
)
TYPE_NAMES = st.sampled_from(["string", "integer", "decimal", "boolean", "date", ""])
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXTS)
JUNK = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=2) | st.dictionaries(TEXTS, children, max_size=2),
    max_leaves=4,
)


def _scalars(value_type):
    if value_type is TAGGED:
        return st.fixed_dictionaries({"type": TYPE_NAMES, "text": TEXTS})
    if value_type is int:
        return st.integers() | TEXTS
    if value_type is bool:
        return st.booleans() | TEXTS
    assert value_type in (str, Decimal)
    return TEXTS


@st.composite
def json_nodes(draw, cls=EngMetaDataset, depth=0) -> dict:
    """A JSON object for ``cls``: schema fields, mostly well typed, plus strays."""
    obj = {}
    for spec in schema(cls):
        if draw(st.integers(0, 3)) != 0:
            continue
        if draw(st.integers(0, 9)) == 0:
            obj[spec.element] = draw(JUNK)
        elif spec.kind == SCALAR:
            obj[spec.element] = draw(_scalars(spec.value_type))
        elif spec.kind == SCALAR_LIST:
            obj[spec.element] = draw(st.lists(_scalars(spec.value_type), max_size=3))
        elif depth < 4 and spec.kind == NODE:
            obj[spec.element] = draw(json_nodes(spec.value_type, depth + 1))
        elif depth < 4 and spec.kind == NODE_LIST:
            obj[spec.element] = draw(st.lists(json_nodes(spec.value_type, depth + 1), max_size=2))
    obj.update(draw(st.dictionaries(st.sampled_from(NAMES) | TEXTS, JUNK, max_size=1)))
    return obj


def _xml_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else json.dumps(value)


def _as_xml(tag: str, obj, cls) -> str:
    """The XML form of a generated JSON object, stray keys included."""
    if not isinstance(obj, dict) or cls is None:
        return f"<{tag}>{escape(_xml_text(obj))}</{tag}>"
    attributes, content, children = [], "", []
    for key, value in obj.items():
        if not key.isidentifier():
            continue
        spec = field_by_element(cls, key)
        if spec is None:
            children.append(_as_xml(key, value, None))
        elif spec.placement == ATTRIBUTE:
            attributes.append(f" {key}={quoteattr(_xml_text(value))}")
        elif spec.placement == CONTENT:
            content = escape(_xml_text(value))
        else:
            listed = spec.kind in (SCALAR_LIST, NODE_LIST) and isinstance(value, list)
            for item in value if listed else [value]:
                if spec.value_type is TAGGED and isinstance(item, dict):
                    children.append(
                        f"<{key} type={quoteattr(_xml_text(item.get('type')))}>"
                        f"{escape(_xml_text(item.get('text')))}</{key}>"
                    )
                else:
                    node_cls = spec.value_type if spec.kind in (NODE, NODE_LIST) else None
                    children.append(_as_xml(key, item, node_cls))
    return f"<{tag}{''.join(attributes)}>{content}{''.join(children)}</{tag}>"


def _raises_only_engmeta_errors(read, text: str) -> None:
    try:
        read(text)
    except EngMetaError:
        pass


@settings(max_examples=150, deadline=None)
@given(json_nodes())
@example({"date": [{"date": ""}]})
@example({"keyword": ["", "x"]})
@example({"system": {"controlledVariables": [{"value": {"type": "string", "text": ""}}]}})
def test_from_json_raises_only_engmeta_errors(obj):
    _raises_only_engmeta_errors(from_json, json.dumps(obj))


@settings(max_examples=150, deadline=None)
@given(json_nodes())
@example({"file": [{"sizeBytes": "²"}]})
@example({"file": [{"sizeBytes": "9" * 5000}]})
def test_from_xml_raises_only_engmeta_errors(obj):
    _raises_only_engmeta_errors(from_xml, _as_xml(ROOT_ELEMENT, obj, EngMetaDataset))


@settings(max_examples=60, deadline=None)
@given(json_nodes(), st.sampled_from(["json", "xml"]), st.integers(0, 200), st.text(max_size=3))
def test_readers_on_damaged_text_raise_only_engmeta_errors(obj, form, cut, insert):
    if form == "json":
        read, text = from_json, json.dumps(obj)
    else:
        read, text = from_xml, _as_xml(ROOT_ELEMENT, obj, EngMetaDataset)
    _raises_only_engmeta_errors(read, text[:cut] + insert + text[cut:])


def test_deep_nesting_and_surrogates_raise_only_engmeta_errors():
    _raises_only_engmeta_errors(from_json, "[" * 100_000)
    _raises_only_engmeta_errors(from_xml, "<engMeta>" + "<a>" * 100_000)
    _raises_only_engmeta_errors(from_xml, "<engMeta>\ud800</engMeta>")


def test_integer_literal_over_digit_limit_is_reported_at_its_field():
    digits = "1" * 4301
    for read, text in (
        (from_json, '{"file": [{"sizeBytes": ' + digits + "}]}"),
        (from_xml, f"<engMeta><file><sizeBytes>{digits}</sizeBytes></file></engMeta>"),
    ):
        with pytest.raises(CanonDecodeError) as excinfo:
            read(text)
        assert str(excinfo.value) == (
            f"file[0].sizeBytes: {digits!r} exceeds 4300 digits in plain notation"
        )
    # in a field of another type the literal is only of the wrong type
    with pytest.raises(CanonDecodeError, match="^project: expected a string, got int$"):
        from_json('{"project": ' + digits + "}")
    read = from_json('{"file": [{"sizeBytes": ' + digits[1:] + "}]}")
    assert read.dataset.files[0].sizeBytes == int(digits[1:])


def _read_number(text: str, type_name: str, reader: str):
    if reader == "rule value":
        return coerce(text, type_name)
    if type_name == "integer":
        obj = {"file": [{"sizeBytes": text}]}
    else:
        obj = {"system": {"temporalResolution": {"interval": text}}}
    if reader == "json":
        return from_json(json.dumps(obj))
    return from_xml(_as_xml(ROOT_ELEMENT, obj, EngMetaDataset))


@settings(max_examples=150, deadline=None)
@given(TEXTS, st.sampled_from(["integer", "decimal"]), st.sampled_from(["xml", "json", "rule value"]))
@example("1_0", "decimal", "xml")
@example("1_0", "decimal", "json")
@example("1_0", "decimal", "rule value")
@example("١٢", "integer", "xml")
@example("١٢", "decimal", "rule value")
def test_numbers_are_read_only_from_ascii_text(text, type_name, reader):
    try:
        _read_number(text, type_name, reader)
    except EngMetaError:
        return
    assert set(text.strip()) <= set("0123456789+-.eE"), text


SEGMENTS = st.builds(
    str.__add__,
    st.sampled_from(NAMES) | st.text(max_size=3),
    st.sampled_from(["", "[0]", "[1]", "[-1]", "[x]", "[١]", "[" + "9" * 5000 + "]"]),
)
MANDATORY = {
    "target": st.lists(SEGMENTS, min_size=1, max_size=4).map(".".join),
    "source": st.sampled_from(["*.mdp", "", "**/*.log", "[", "*"]) | TEXTS,
    "key": st.sampled_from(["nsteps", "", "="]) | TEXTS,
}
OPTIONAL = {
    "type": st.sampled_from(["string", "integer", "decimal", "boolean", "date", "x"]),
    "occurrence": st.sampled_from(["first", "last", "all", "x"]),
    "group": st.sampled_from(["g", "h", ""]),
    "unit": TEXTS,
    "delimiter": st.sampled_from(["=", ":", " ", ""]) | TEXTS,
}
FIELD_LINES = st.sampled_from(sorted(OPTIONAL)).flatmap(
    lambda name: OPTIONAL[name].map(f"{name} = {{}}".format)
)
STRAY_LINES = st.sampled_from(
    ["# comment", "", "no equals sign", "[", "= x", "[rule]", "[rule a b]", "bogus = 1"]
) | st.text(max_size=10)


@st.composite
def rule_files(draw) -> str:
    lines = draw(st.lists(STRAY_LINES, max_size=1))
    for number in range(draw(st.integers(0, 3))):
        lines.append(draw(st.sampled_from([f"[rule r{number}]", "[rule r0]"])))
        # the mandatory fields, mostly present, so that most rules get built
        fields = [
            f"{name} = {draw(values)}"
            for name, values in MANDATORY.items()
            if draw(st.integers(0, 9))
        ]
        fields += draw(st.lists(FIELD_LINES, max_size=3))
        fields += draw(st.lists(STRAY_LINES, max_size=1))
        lines.extend(draw(st.permutations(fields)))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(rule_files())
@example("[rule r0]\ntarget = title[" + "9" * 5000 + "].text\nsource = *\nkey = k")
def test_parse_config_raises_only_engmeta_errors(text):
    _raises_only_engmeta_errors(parse_config, text)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(-6000, 6000) | st.sampled_from([50000, -50000, 999999999]),
       st.sampled_from(["xml", "json", "rule value"]))
@example(1, 50000, "xml")
@example(1, -50000, "json")
@example(1, 999999999, "rule value")
@example(1, 4299, "xml")
@example(9, -4299, "json")
def test_decimal_text_is_bounded(digit, exponent, reader):
    """Plain notation of at most 4300 digits: ``1e4299`` reads, ``1e4300`` does not."""
    text = f"{digit}e{exponent}"
    try:
        read = _read_number(text, "decimal", reader)
    except EngMetaError:
        assert not -4299 <= exponent <= 4299, text
        return
    assert -4299 <= exponent <= 4299, text
    value = read if reader == "rule value" else read.dataset.system.temporalResolution.interval
    assert len(decimal_to_text(value).lstrip("-").replace(".", "")) <= 4300


def _scalar_path(draw, cls=EngMetaDataset, depth=0) -> list:
    """Field specs from ``cls`` down to a scalar field."""
    scalars = [spec for spec in schema(cls) if spec.kind in (SCALAR, SCALAR_LIST)]
    nodes = [spec for spec in schema(cls) if spec.kind in (NODE, NODE_LIST)]
    if nodes and depth < 4 and draw(st.booleans()):
        spec = draw(st.sampled_from(nodes))
        return [spec] + _scalar_path(draw, spec.value_type, depth + 1)
    return [draw(st.sampled_from(scalars))]


# the rule types that fill a field of each type, as the config documents them
_FILLING = {str: ["string", "date"], int: ["integer"], Decimal: ["decimal", "integer"],
            bool: ["boolean"], TAGGED: list(VALUE_TYPES)}


@st.composite
def rule_files_that_parse(draw) -> str:
    """Rule files built from schema paths, so that most of them parse."""
    lines = []
    for number in range(draw(st.integers(1, 3))):
        specs = _scalar_path(draw)
        lists = [i for i, spec in enumerate(specs) if spec.kind in (SCALAR_LIST, NODE_LIST)]
        occurrence = draw(st.sampled_from(["first", "last"] + (["all"] if lists else [])))
        # a group needs a node list with the target field inside it
        grouped = bool(lists) and lists[0] < len(specs) - 1 and draw(st.integers(0, 3)) == 0
        opened = lists[0] if grouped or occurrence == "all" else None
        target = ".".join(
            spec.element if i == opened or spec.kind in (SCALAR, NODE)
            else f"{spec.element}[{draw(st.integers(0, 1))}]"
            for i, spec in enumerate(specs)
        )
        fitting = _FILLING[specs[-1].value_type]
        value_type = draw(st.sampled_from(fitting * 4 + list(VALUE_TYPES)))
        lines += [f"[rule r{number}]", f"target = {target}", "source = *", f"key = k{number}",
                  f"type = {value_type}", f"occurrence = {occurrence}"]
        lines += ["group = g"] if grouped else []
        in_variable = len(specs) > 1 and specs[-2].value_type is Variable
        lines += ["unit = K"] if in_variable and draw(st.booleans()) else []
    return "\n".join(lines)


HIT_FILES = st.sampled_from(["a.log", "b.log"])
# raw values that coerce to each rule type, and hostile ones: the date-time
# rule takes any one character between date and time
RAW_VALUES = st.sampled_from(["7", "2.5", "yes", "2019-05-24", "x", "2019-05-24\x1b12",
                              "2019-05-24\ud80012:00"]) | TEXTS


@settings(max_examples=200, deadline=None)
@given(rule_files_that_parse(),
       st.lists(st.tuples(HIT_FILES, st.integers(0, 2), RAW_VALUES), max_size=12))
@example(
    "[rule r0]\ntarget = system.parameters.name\nsource = *\nkey = k0\n"
    "type = integer\noccurrence = all",
    [("a.log", 0, "5")],
)
@example(
    "[rule r0]\ntarget = date.date\nsource = *\nkey = k0\ntype = date\noccurrence = all",
    [("a.log", 0, "2020-01-01\x0812")],
)
def test_assembly_for_accepted_rules_raises_only_engmeta_errors(text, picks):
    """Assembly raises nothing, and its document is refused by the writer or reads back."""
    try:
        config = parse_config(text)
    except EngMetaError:
        return
    hits = [
        RawHit(f"r{number}", source, line, raw.strip())
        for line, (source, number, raw) in enumerate(picks, start=1)
        if number < len(config.rules) and raw.strip()
    ]
    dataset = assemble(hits, config).dataset
    try:
        written = to_xml(dataset)
    except CanonValidationError:
        return
    assert from_xml(written).dataset == dataset


PATH_SEGMENTS = st.builds(
    PathSegment, st.sampled_from(NAMES) | st.text(max_size=3), st.none() | st.integers(-1, 2)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(PATH_SEGMENTS, max_size=4).map(tuple).map(MetadataPath),
       st.sampled_from([*VALUE_TYPES, "float", ""]),
       st.sampled_from([*OCCURRENCES, "every", ""]),
       st.none() | TEXTS,
       st.none() | st.sampled_from(["g", ""]))
@example(MetadataPath(()), "string", "first", None, None)
@example(MetadataPath((PathSegment("project"),)), "float", "first", None, None)
def test_hand_built_rules_raise_only_engmeta_errors(target, value_type, occurrence, unit, group):
    """A rule built by hand is checked when it is built, as a parsed one is;
    one that builds also assembles without any other exception."""
    try:
        built = ExtractionRule(id="r", target=target, source="*", key="k", valueType=value_type,
                               unit=unit, group=group, occurrence=occurrence)
        assemble([RawHit("r", "a.log", 1, "7")], ExtractionConfig((built,)))
    except EngMetaError:
        pass
