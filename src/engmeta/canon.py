"""Canonical XML and JSON serialization with lossless round-trip.

Serialization is deterministic: elements appear in the order the model's
node classes declare their fields, absent optional fields are omitted
entirely (never emitted as empty elements), decimals are rendered in plain
notation without trailing zeros, and repeated serialization of the same
document is byte-identical. Both writers refuse structurally invalid documents.

Parsing is forgiving about unknown content: unknown elements, attributes
and object keys are skipped and reported as warnings; only malformed input
and type-incompatible scalar text are hard errors.

XML is read and written through one cached plan per node class (``_plan``),
derived from the model's field placements: its attributes, its text-content
field and its child elements, each keyed by local name and carrying its
pre-built ``<elem>`` and ``</elem>`` tags. An element in the engMeta
namespace reads as its plain name; any other namespace, and any namespaced
attribute, is unknown. The reader takes an element's text content, which
the model declares ``str``, and a string child with no attributes and no
children as the text they hold; it builds a child's path string
(``file[3].sizeBytes``) only to decode any other child, whose warnings and
errors name it. The writer writes each scalar child from its tags in place,
passes strings through as they are, and escapes only text that holds a
character to escape. Each context, text and attribute value, declares one
table of the characters it escapes; the pre-check and the escape are both
read from it.

JSON is written from the schema too, one joined string per object or
array, byte for byte what ``json.dumps(obj, indent=2, ensure_ascii=False)``
writes of the documented object. ``_json_primitive`` spells its strings,
booleans, integers and decimals, and those of the repository blocks.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from functools import cache
from typing import NamedTuple
from xml.etree import ElementTree

from .errors import CanonDecodeError, CanonSyntaxError, CanonValidationError
from .model import (
    ATTRIBUTE,
    CHILD,
    CONTENT,
    NODE,
    NODE_LIST,
    ROOT_ELEMENT,
    SCALAR,
    SCALAR_LIST,
    TAGGED,
    EngMetaDataset,
    FieldSpec,
    SCALAR_TYPES_BY_NAME,
    _BY_ELEMENT,
    _trusted_node,
    decimal_to_text,
    number_from_text,
    scalar_to_text,
    scalar_type_name,
    schema,
    text_fault,
)

# Documented home of the element vocabulary; not emitted on output, but
# accepted as a default namespace on input.
ENGMETA_NAMESPACE = "https://engmeta.example.org/ns/1.0"
_NAMESPACE_PREFIX = f"{{{ENGMETA_NAMESPACE}}}"  # as ElementTree spells it in a tag

_INDENT = "  "


class ReadResult(NamedTuple):
    """A parsed document plus non-fatal warnings gathered along the way."""

    dataset: EngMetaDataset
    warnings: tuple[str, ...]


# --- shared by both formats ---------------------------------------------

def _scalar_from_text(text: str, value_type, path: str):
    if value_type is str:
        return text
    stripped = text.strip()
    if value_type is bool:
        if stripped == "true":
            return True
        if stripped == "false":
            return False
        raise CanonDecodeError(f"{text!r} is not a boolean ('true'/'false')", path)
    try:
        return number_from_text(stripped, value_type)
    except ValueError as exc:
        raise CanonDecodeError(f"{text!r} {exc}", path) from None


def _tagged_from_text(text: str, type_name: str, path: str):
    value_type = SCALAR_TYPES_BY_NAME.get(type_name)
    if value_type is None:
        raise CanonDecodeError(f"unknown value type {type_name!r}", path)
    return _scalar_from_text(text, value_type, path)


def _require_valid(dataset: EngMetaDataset) -> None:
    """Refuse a structurally invalid document; both writers call this first."""
    from .validation import validate

    report = validate(dataset, "structural")
    if report.errors:
        raise CanonValidationError(report.errors)


# --- XML ------------------------------------------------------------------

# each character an escape replaces, '&' first so no escape is escaped again;
# text holding none of them is written as it is
_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTRIBUTE_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;", "\n": "&#10;", "\t": "&#9;"}
_TEXT_SPECIALS = re.compile(f"[{re.escape(''.join(_TEXT_ESCAPES))}]")
_ATTRIBUTE_SPECIALS = re.compile(f"[{re.escape(''.join(_ATTRIBUTE_ESCAPES))}]")


def _escape(text: str, table: dict[str, str]) -> str:
    for char, escape in table.items():
        text = text.replace(char, escape)
    return text


@cache
def _plan(cls: type) -> tuple[dict, FieldSpec | None, dict]:
    """(attributes, content, children) of a node class, the maps keyed by local name.

    A class with a text-content field carries its other fields as
    attributes and has no children; any other class has only children,
    each as (spec, attr, listed, scalar, plain string, tagged, "<elem>",
    "</elem>").
    """
    specs = schema(cls)
    return (
        {spec.element: spec for spec in specs if spec.placement == ATTRIBUTE},
        next((spec for spec in specs if spec.placement == CONTENT), None),
        {spec.element: (spec, spec.attr, spec.kind in (SCALAR_LIST, NODE_LIST),
                        spec.kind in (SCALAR, SCALAR_LIST), spec.value_type is str,
                        spec.value_type is TAGGED, f"<{spec.element}>", f"</{spec.element}>")
         for spec in specs if spec.placement == CHILD},
    )


def to_xml(dataset: EngMetaDataset) -> str:
    """Serialize to canonical XML; rejects structurally invalid documents."""
    _require_valid(dataset)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    _write_element(lines, f"<{ROOT_ELEMENT}>", f"</{ROOT_ELEMENT}>", dataset, "")
    return "\n".join(lines) + "\n"


def _write_element(lines: list[str], start: str, end: str, node, pad: str) -> None:
    """Write the node between its tags, its attributes added to the start tag."""
    attributes, content, children = _plan(type(node))
    if attributes:
        attr_text = ""
        for name, spec in attributes.items():
            value = getattr(node, spec.attr)
            if value is not None:
                if type(value) is not str:
                    value = scalar_to_text(value)
                if _ATTRIBUTE_SPECIALS.search(value):
                    value = _escape(value, _ATTRIBUTE_ESCAPES)
                attr_text += f' {name}="{value}"'
        start = f"{start[:-1]}{attr_text}>"
    text = None if content is None else getattr(node, content.attr)
    if text is not None:  # a str: the model declares no other content
        if _TEXT_SPECIALS.search(text):
            text = _escape(text, _TEXT_ESCAPES)
        lines.append(f"{pad}{start}{text}{end}")
        return

    lines.append(pad + start)
    opened = len(lines)
    inner = pad + _INDENT
    for spec, attr, listed, scalar, _, tagged, child_start, child_end in children.values():
        value = getattr(node, attr)
        if value is None:
            continue
        for item in value if listed else (value,):  # an unset list is ()
            if not scalar:
                _write_element(lines, child_start, child_end, item, inner)
                continue
            item_start = child_start
            if type(item) is str:
                text = item
            else:
                text = scalar_to_text(item)
                if tagged:
                    item_start = f'<{spec.element} type="{scalar_type_name(item)}">'
            if _TEXT_SPECIALS.search(text):
                text = _escape(text, _TEXT_ESCAPES)
            lines.append(f"{inner}{item_start}{text}{child_end}")
    if len(lines) == opened:  # nothing inside: close the element where it opens
        lines[-1] = f"{pad}{start[:-1]}/>"
    else:
        lines.append(pad + end)


def from_xml(text: str) -> ReadResult:
    """Parse canonical XML; unknown elements become warnings, not errors."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        from xml.parsers.expat import ErrorString  # exc.msg ends with the position too

        line, column = exc.position
        raise CanonSyntaxError(f"not well-formed XML: {ErrorString(exc.code)}",
                               line, column) from None
    except UnicodeEncodeError as exc:  # a lone surrogate cannot reach the parser
        line = text.count("\n", 0, exc.start) + 1
        column = exc.start - text.rfind("\n", 0, exc.start)
        raise CanonSyntaxError("not well-formed XML: lone surrogate", line, column) from None
    warnings: list[str] = []
    if root.tag.removeprefix(_NAMESPACE_PREFIX) != ROOT_ELEMENT:
        raise CanonDecodeError(
            f"root element must be <{ROOT_ELEMENT}>, got <{root.tag}>", ROOT_ELEMENT
        )
    dataset = _decode_element(root, EngMetaDataset, "", warnings) or EngMetaDataset()
    return ReadResult(dataset, tuple(warnings))


def _decode_element(element, cls: type, path: str, warnings: list[str]):
    """The node the element spells, or None when it sets no field."""
    attributes, content, children = _plan(cls)
    kwargs: dict[str, object] = {}
    label = path or ROOT_ELEMENT

    for name, raw in element.items():
        spec = attributes.get(name)
        if spec is None:
            warnings.append(f"{label}: unknown attribute {name!r} skipped")
            continue
        if raw == "":
            warnings.append(f"{label}: empty attribute {name!r} treated as absent")
            continue
        kwargs[spec.attr] = _scalar_from_text(raw, spec.value_type, f"{label}.{name}")

    text = element.text
    if content is not None:
        if text:  # a str field: the text as it is
            kwargs[content.attr] = text
    elif text and not text.isspace():
        warnings.append(f"{label}: stray text {text.strip()!r} skipped")

    counters: dict[str, int] = {}
    for child in element:
        tail = child.tail
        if tail and not tail.isspace():
            warnings.append(f"{label}: stray text {tail.strip()!r} skipped")
        entry = children.get(child.tag)
        if entry is None:  # unknown, or in a namespace
            name = child.tag.removeprefix(_NAMESPACE_PREFIX)
            entry = children.get(name)
            if entry is None:
                warnings.append(f"{label}: unknown element <{name}> skipped")
                continue
        spec, attr, listed, scalar, plain, _, _, _ = entry
        index = counters.get(attr, 0)
        counters[attr] = index + 1
        if index and not listed:
            warnings.append(f"{label}: repeated element <{spec.element}> skipped")
            continue
        value = child.text
        if not (plain and value and not len(child) and not child.keys()):
            child_path = f"{path}.{spec.element}" if path else spec.element
            if listed:
                child_path = f"{child_path}[{index}]"
            if scalar:
                value = _decode_scalar_child(child, spec, child_path, warnings)
            else:
                value = _decode_element(child, spec.value_type, child_path, warnings)
            if value is None:
                continue
        if listed:
            kwargs.setdefault(attr, []).append(value)
        else:
            kwargs[attr] = value
    return _trusted_node(cls, kwargs)


def _decode_scalar_child(child, spec: FieldSpec, path: str, warnings: list[str]):
    tagged = spec.value_type is TAGGED
    for name in child.keys():  # only a tagged value's type is an attribute of a scalar
        if name != "type" or not tagged:
            warnings.append(f"{path}: unknown attribute {name!r} skipped")
    if len(child):
        warnings.append(f"{path}: unexpected child elements skipped")
    text = child.text or ""
    if text == "":
        warnings.append(f"{path}: empty element treated as absent")
        return None
    if tagged:
        return _tagged_from_text(text, child.get("type", "string"), path)
    return _scalar_from_text(text, spec.value_type, path)


# --- JSON -----------------------------------------------------------------

def to_json(dataset: EngMetaDataset) -> str:
    """Serialize to canonical JSON (same names and order as the XML form)."""
    _require_valid(dataset)
    return _node_json(dataset, "\n") + "\n"


_encode_string = json.encoder.encode_basestring  # the escaping json.dumps applies


def _enclosed(items: list[str], newline: str, brackets: str = "[]") -> str:
    """Written JSON values in brackets, one a line, a level deeper than
    ``newline``: a line break plus the indentation of the line they open on."""
    if not items:
        return brackets
    inner = newline + _INDENT
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _json_primitive(value) -> str:
    """The JSON text of a str, bool, int or Decimal; TypeError for anything else.

    A decimal is carried as a string of its canonical text.
    """
    if isinstance(value, str):
        return _encode_string(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Decimal):  # a subclass is read as the plain Decimal it holds
        return _encode_string(decimal_to_text(Decimal(value)))
    raise TypeError(f"not a scalar value: {type(value).__name__}")


def _node_json(node, newline: str) -> str:
    inner = newline + _INDENT  # the line each field opens on
    items = []
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        if value is None or value == ():
            continue
        if spec.kind == SCALAR:
            text = _scalar_json(spec, value, inner)
        elif spec.kind == SCALAR_LIST:
            text = _enclosed([_scalar_json(spec, item, inner + _INDENT) for item in value], inner)
        elif spec.kind == NODE:
            text = _node_json(value, inner)
        else:
            text = _enclosed([_node_json(item, inner + _INDENT) for item in value], inner)
        items.append(f'"{spec.element}": {text}')
    return _enclosed(items, newline, "{}")


def _scalar_json(spec: FieldSpec, value, newline: str) -> str:
    if spec.value_type is TAGGED:
        return _enclosed([f'"type": "{scalar_type_name(value)}"',
                          f'"text": {_encode_string(scalar_to_text(value))}'], newline, "{}")
    return _json_primitive(value)


def from_json(text: str) -> ReadResult:
    """Parse canonical JSON; unknown keys become warnings, not errors."""
    try:
        obj = json.loads(text, parse_int=_json_integer)
    except json.JSONDecodeError as exc:
        raise CanonSyntaxError(f"not valid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise CanonDecodeError("not decodable: nested too deeply", ROOT_ELEMENT) from None
    if not isinstance(obj, dict):
        raise CanonDecodeError("document root must be a JSON object", ROOT_ELEMENT)
    warnings: list[str] = []
    dataset = _decode_obj(obj, EngMetaDataset, "", warnings) or EngMetaDataset()
    return ReadResult(dataset, tuple(warnings))


class _LongInteger:
    """A JSON integer literal with more digits than ``int()`` converts.

    The field that receives it rejects it, so the error names that field.
    """

    def __init__(self, text: str):
        self.text = text


def _json_integer(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def _json_type(raw) -> str:
    return "int" if isinstance(raw, _LongInteger) else type(raw).__name__


def _decode_obj(obj: dict, cls: type, path: str, warnings: list[str]):
    """The node the object spells, or None when it sets no field.

    Empty strings, arrays and objects leave their field unset.
    """
    fields = _BY_ELEMENT[cls]
    kwargs: dict[str, object] = {}
    label = path or ROOT_ELEMENT

    for key, raw in obj.items():
        spec = fields.get(key)
        if spec is None:
            warnings.append(f"{label}: unknown key {key!r} skipped")
            continue
        key_path = f"{path}.{key}" if path else key
        if spec.kind == SCALAR:
            value = _scalar_from_json(raw, spec, key_path, warnings)
        elif spec.kind == SCALAR_LIST:
            items = _expect_array(raw, key_path)
            decoded = [
                _scalar_from_json(item, spec, f"{key_path}[{i}]", warnings)
                for i, item in enumerate(items)
            ]
            value = [item for item in decoded if item is not None] or None
        elif spec.kind == NODE:
            value = _decode_obj(_expect_object(raw, key_path), spec.value_type, key_path, warnings)
        else:
            items = _expect_array(raw, key_path)
            decoded = [
                _decode_obj(_expect_object(item, f"{key_path}[{i}]"), spec.value_type,
                            f"{key_path}[{i}]", warnings)
                for i, item in enumerate(items)
            ]
            value = [item for item in decoded if item is not None] or None
        if value is not None:
            kwargs[spec.attr] = value
    return _trusted_node(cls, kwargs)


def _expect_array(raw, path: str) -> list:
    if not isinstance(raw, list):
        raise CanonDecodeError(f"expected an array, got {_json_type(raw)}", path)
    return raw


def _expect_object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise CanonDecodeError(f"expected an object, got {_json_type(raw)}", path)
    return raw


def _document_text(text: str, path: str) -> str:
    """The JSON string, unless no document can carry it (say, from a "\\udcff" or
    "\\u0001" escape)."""
    fault = text_fault(text)
    if fault is not None:
        raise CanonDecodeError(f"{text!r} {fault}", path)
    return text


def _scalar_from_json(raw, spec: FieldSpec, path: str, warnings: list[str]):
    """The field's value, or None for an empty string, which counts as absent."""
    if spec.value_type is str:
        if not isinstance(raw, str):
            raise CanonDecodeError(f"expected a string, got {_json_type(raw)}", path)
        if raw == "":
            return _absent(path, warnings)
        return _document_text(raw, path)
    if spec.value_type is TAGGED:
        tagged = _expect_object(raw, path)
        unknown = set(tagged) - {"type", "text"}
        if unknown or "text" not in tagged:
            raise CanonDecodeError("tagged value needs 'type' and 'text' keys", path)
        if not isinstance(tagged["text"], str):
            raise CanonDecodeError("tagged value 'text' must be a string", path)
        type_name = tagged.get("type", "string")
        if not isinstance(type_name, str):
            raise CanonDecodeError("tagged value 'type' must be a string", path)
        if tagged["text"] == "":
            return _absent(path, warnings)
        return _tagged_from_text(_document_text(tagged["text"], path), type_name, path)
    if spec.value_type is bool:
        if not isinstance(raw, bool):
            raise CanonDecodeError(f"expected a boolean, got {_json_type(raw)}", path)
        return raw
    if spec.value_type is int:
        if isinstance(raw, _LongInteger):  # int() refused it, so this raises as from_xml does
            _scalar_from_text(raw.text, int, path)
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise CanonDecodeError(f"expected an integer, got {_json_type(raw)}", path)
        return raw
    if spec.value_type is Decimal:
        if not isinstance(raw, str):
            raise CanonDecodeError(
                f"decimals are carried as strings, got {_json_type(raw)}", path
            )
        if raw == "":
            return _absent(path, warnings)
        return _scalar_from_text(raw, Decimal, path)
    raise AssertionError(spec.value_type)


def _absent(path: str, warnings: list[str]) -> None:
    warnings.append(f"{path}: empty value treated as absent")
    return None
