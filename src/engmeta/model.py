"""Domain types for computational-engineering dataset metadata.

The dataset is the central entity; around it sit descriptive metadata
(titles, persons, funding, related identifiers, ...), technical metadata
(files with checksums and sizes), process metadata (ordered processing steps
with software, methods and the computing environment) and discipline-specific
metadata (the observed system with its components, variables, parameters and
resolutions).

All types are immutable value objects. The class declarations are the
schema: declaration order is element order, annotations give each field's
kind and scalar type, and ``_field`` declares the rest. Field names equal
the canonical element names used by the XML/JSON serializations and by
metadata paths, except that list-valued attributes carry the plural
spelling and name their canonical (repeated) element (``element=``). A
class with a text-content field (``content=True``) carries every other
field as an XML attribute; all other classes carry their fields as child
elements.
``FieldSpec.placement`` records this; ``canon`` derives its per-class XML
plan from it. ``_derive_schema`` refuses a text-content field or a scalar
list that does not hold ``str``, so other modules take those values as text.

Construction is deliberately permissive: partially filled documents are the
normal intermediate state of automated extraction. Field-local constraints
(code lists, required fields, ISO dates, URIs, bounds, ...) are declared as
``_field``'s other keywords, carried in ``FieldSpec.rules`` and checked by
``validation.validate``, not by constructors; the code lists a rule names
stay editable in codes.json. Constructors do enforce value semantics:
correct scalar types, no empty strings, only text XML 1.0 can carry (no C0
control but tab, LF and CR, no U+FFFE or U+FFFF, and no lone surrogate,
which UTF-8 cannot encode either), only integers and finite decimals of at
most 4300 digits in plain notation, and no empty nodes (a node whose fields
are all unset collapses to "absent"). Each scalar is stored as its exact
builtin type, an instance of a subclass (a ``(str, Enum)`` code, an
``IntEnum``) as the value it holds, so every reader of a stored scalar
tells its type by ``type()``.
For constructors and extraction rules alike, ``fills`` decides which values
a field takes: its own type, any scalar in the tagged ``Variable.value``,
and an ``int`` in a ``Decimal`` field, which stores it as a ``Decimal``.

Loading the model imports no ``dataclasses``: ``_derive_schema`` reads the
declarations, and ``_Node`` provides the one constructor (positional or
keyword arguments, each field checked and normalized), the dataclass-style
``repr`` and the ``FrozenInstanceError`` on assignment and deletion;
``dataclasses.fields``, ``replace`` and ``is_dataclass`` still work on
nodes (``_DataclassView``). Each field's default is decided by its kind:
``()`` for a list, None for any other. Code that already holds canonical
values checks nothing again, and builds its nodes through the one unchecked
builder, ``_trusted_node``, which turns item lists into tuples and reads no
field set as absent: both decoders in ``canon``, ``harvest``'s listing,
extraction's group instances, and ``_replaced``, which copies a node with
one field set.
"""

import re
from decimal import Decimal, InvalidOperation
from typing import NamedTuple, get_args, get_origin

Scalar = str | int | bool | Decimal

# Marker for the one union-typed scalar field (Variable.value).
TAGGED = "tagged"

# field kinds
SCALAR = "scalar"
NODE = "node"
SCALAR_LIST = "scalar-list"
NODE_LIST = "node-list"

# XML placements
CHILD = "child"
ATTRIBUTE = "attribute"
CONTENT = "content"

SCALAR_TYPE_NAMES = {str: "string", int: "integer", Decimal: "decimal", bool: "boolean"}
SCALAR_TYPES_BY_NAME = {name: tp for tp, name in SCALAR_TYPE_NAMES.items()}


def scalar_type_name(value) -> str:
    """Canonical type tag of a stored scalar ('string', 'integer', ...)."""
    return SCALAR_TYPE_NAMES[type(value)]


def decimal_to_text(value: Decimal) -> str:
    """Canonical decimal rendering: plain notation, no trailing zeros."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


# The only numeric spellings read from documents and raw values: ASCII
# digits, an optional sign and, for decimals, a point and an exponent.
# int() and Decimal() alone also accept underscores, surrounding
# whitespace and any Unicode decimal digit ("١٢" reads as 12).
_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
_DECIMAL_TEXT = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


# The most digits a number's text may have: int() converts no more, and
# decimals are written in plain notation, so a decimal's exponent counts too.
_MAX_DIGITS = 4300
_TOO_LONG = f"exceeds {_MAX_DIGITS} digits in plain notation"
# the least integer over that many digits: comparing with it counts no digits
_INTEGER_LIMIT = 10**_MAX_DIGITS


def _too_long(value: Decimal) -> bool:
    """True when the decimal's plain notation would have over 4300 digits."""
    _, digits, exponent = value.as_tuple()
    # digits of the plain notation: trailing zeros, or a leading "0." and zeros
    plain = len(digits) + exponent if exponent >= 0 else max(len(digits), 1 - exponent)
    return plain > _MAX_DIGITS


# A character XML 1.0 cannot carry: a C0 control but tab, LF and CR, U+FFFE,
# U+FFFF, or a surrogate, which UTF-8 cannot encode either (os.fsdecode leaves
# one for each byte of a file name that is not UTF-8, json.loads one for "\udcff").
# Listed, not as the complement of what XML carries, which is 20 times dearer to
# compile; ``re`` compiles it on first use, as most text never reaches it.
_NOT_XML_CHAR = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def text_fault(text: str) -> str | None:
    """None when every document can carry the text, else why none can: it "holds
    a lone surrogate, not UTF-8 text", or it "holds U+001B, which XML cannot carry"
    (naming the first such character)."""
    if text.isascii() and text.isprintable():  # most text, without the regex
        return None
    found = re.search(_NOT_XML_CHAR, text)
    if found is None:
        return None
    code = ord(found.group())
    if 0xD800 <= code <= 0xDFFF:
        return "holds a lone surrogate, not UTF-8 text"
    return f"holds U+{code:04X}, which XML cannot carry"


def xml_text(text: str) -> str:
    """The text with U+FFFD for each character that ``text_fault`` refuses."""
    return re.sub(_NOT_XML_CHAR, "\ufffd", text)


def number_from_text(text: str, value_type: type) -> int | Decimal:
    """The ``int`` or ``Decimal`` that ASCII number text spells.

    An integer is ``[+-]?[0-9]+``; a decimal may add a point and an exponent
    (``1.5``, ``-2``, ``1.0e-3``). Any other text raises ValueError with the
    reason: "is not an integer", "is not a decimal number" (``NaN`` and
    ``Infinity`` included), or "exceeds 4300 digits in plain notation" for a
    number whose plain notation would have more (``1e50000``, ``1e-50000``).
    """
    if value_type is int:
        if _INTEGER_TEXT.fullmatch(text) is None:
            raise ValueError("is not an integer")
        try:
            value = int(text)
        except ValueError:  # more digits than int() converts
            raise ValueError(_TOO_LONG) from None
        if abs(value) >= _INTEGER_LIMIT:  # int() converts more under a raised str-digits limit
            raise ValueError(_TOO_LONG)
        return value
    if _DECIMAL_TEXT.fullmatch(text) is None:
        raise ValueError("is not a decimal number")
    try:
        value = Decimal(text)
    except InvalidOperation:  # an exponent beyond the decimal module's range
        raise ValueError(_TOO_LONG) from None
    if _too_long(value):
        raise ValueError(_TOO_LONG)
    return value


def scalar_to_text(value) -> str:
    """Canonical text form of a stored scalar."""
    kind = type(value)
    if kind is str:
        return value
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if kind is Decimal:
        return decimal_to_text(value)
    raise TypeError(f"not a scalar value: {kind.__name__}")


def scalar_key(value) -> tuple:
    """Hashable, type-strict identity of a stored scalar: keys tell values apart
    as serialization does (``True``, ``1`` and ``Decimal(1)`` stay apart)."""
    return (type(value), value)


class Conflict(NamedTuple):
    """A scalar set to different values on both sides."""

    path: str
    base: Scalar
    overlay: Scalar
    chosen: Scalar


class _DataclassView:
    """``__dataclass_fields__`` of a node class: the first access makes the class a dataclass
    that generates no method, and its own attribute then shadows this one."""

    def __get__(self, node, cls):
        if cls is _Node:  # the base declares no fields: no dataclass
            raise AttributeError("__dataclass_fields__")
        from dataclasses import dataclass

        return dataclass(init=False, repr=False, eq=False)(cls).__dataclass_fields__


class _Node:
    """Shared constructor, repr, immutability, equality and hashing of all nodes.

    The constructor takes the fields in declaration order, positionally or
    by keyword; an omitted field is unset (None, or ``()`` for a list).
    It checks every field (scalar types, no empty strings, bounded finite
    decimals only) and normalizes lists to tuples and empty nodes to
    absent, so each value has exactly one form.

    Equality and hashing are type-strict and go through one canonical key
    (``canonical_key``): the node class plus, field by field, type-tagged
    scalars and the keys of child nodes. An integer 300 and a decimal 300
    serialize differently, so they are different values (plain ``==`` on
    Python numbers would conflate them). The key is computed on first use
    and cached.
    """

    def __init__(self, *args, **kwargs):
        cls = type(self)
        specs = _SCHEMA[cls]
        if len(args) > len(specs):
            raise TypeError(
                f"{cls.__name__}() takes {len(specs)} positional arguments "
                f"but {len(args)} were given"
            )
        for spec, value in zip(specs, args):
            if spec.attr in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {spec.attr!r}")
            kwargs[spec.attr] = value
        values = [kwargs.pop(spec.attr, None) for spec in specs]
        if kwargs:
            raise TypeError(
                f"{cls.__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}"
            )
        set_field = object.__setattr__
        for spec, value in zip(specs, values):
            set_field(self, spec.attr, _normalize_field(spec, value))

    def __repr__(self):
        # the dataclass repr; PROV entity ids hash it, so it must not change
        fields = ", ".join(
            f"{spec.attr}={getattr(self, spec.attr)!r}" for spec in _SCHEMA[type(self)]
        )
        return f"{type(self).__qualname__}({fields})"

    __dataclass_fields__ = _DataclassView()

    def __setattr__(self, name, *value):  # a deletion passes no value
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def is_empty(self) -> bool:
        """True when no field of this node is set."""
        return all(getattr(self, s.attr) in (None, ()) for s in schema(type(self)))

    def canonical_key(self) -> tuple:
        """Hashable identity of this node's content, cached after first use."""
        cached = getattr(self, "_canonical_key", None)
        if cached is not None:
            return cached
        parts = []
        for spec in schema(type(self)):
            value = getattr(self, spec.attr)
            if spec.kind == SCALAR:
                parts.append(None if value is None else scalar_key(value))
            elif spec.kind == NODE:
                parts.append(None if value is None else value.canonical_key())
            elif spec.kind == SCALAR_LIST:
                parts.append(tuple(scalar_key(item) for item in value))
            else:
                parts.append(tuple(item.canonical_key() for item in value))
        key = (type(self), tuple(parts))
        object.__setattr__(self, "_canonical_key", key)  # not via __dict__: see _trusted_node
        return key

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def _replaced(self, attr: str, value):
        """Copy with one field set, sharing the others without re-checking.

        Only for a value already in canonical form: a scalar as
        ``_check_scalar`` returns it, a non-empty node, or a non-empty tuple
        of those. The other fields are normalized already, so the copy is
        built unchecked by ``_trusted_node`` from the set fields and the new
        value, and stays canonical at the cost of one field, not the whole node.
        """
        values = {spec.attr: field for spec in _SCHEMA[type(self)]
                  if (field := getattr(self, spec.attr)) is not None and field != ()}
        values[attr] = value
        return _trusted_node(type(self), values)


def _trusted_node(cls: type, values: dict):
    """A node of ``cls`` with the given fields set and the others unset,
    or None when no field is given: the one unchecked builder, where the
    decoders in ``canon``, ``harvest``'s listing, extraction's group
    instances and ``_replaced`` end.

    Nothing is checked: every value must already be canonical, as the
    constructor would leave it (a checked scalar or a non-empty node), and
    a list field's value is the non-empty list or tuple of its items. An
    unset field is not stored: it reads as the class default its kind
    decides, None or ``()``.
    """
    if not values:
        return None
    node = object.__new__(cls)
    # attribute by attribute: touching __dict__ would give every node a
    # dict object of its own besides CPython's compact instance layout
    set_field = object.__setattr__
    for attr, value in values.items():
        set_field(node, attr, tuple(value) if type(value) is list else value)
    return node


def fills(value_type: type, field_type) -> bool:
    """True when a value of the builtin ``value_type`` fills a ``field_type`` field."""
    return (value_type is field_type or field_type is TAGGED and value_type in SCALAR_TYPE_NAMES
            or value_type is int and field_type is Decimal)


# How the builtin scalar an instance of a subclass holds is read: through
# the builtin's own method, never one the subclass overrides.
_READ_BUILTIN = {str: str.__str__, int: int.__index__, Decimal: Decimal}


def _check_scalar(spec: "FieldSpec", given):
    """``given`` as the field stores it, of its exact builtin type; the value checks
    come first, and an error names the value and its type as given."""
    kind = type(given)
    value = given
    if kind not in SCALAR_TYPE_NAMES:  # a subclass, or no scalar at all
        for ancestor in kind.__mro__:
            if ancestor in _READ_BUILTIN:
                value = _READ_BUILTIN[ancestor](given)
                break
    base = type(value)
    if base is str:
        if value == "":
            raise ValueError(f"{spec.attr}: empty strings are not valid values")
        fault = text_fault(value)
        if fault is not None:
            raise ValueError(f"{spec.attr}: {given!r} {fault}")
    elif base is Decimal:
        if not value.is_finite():
            raise ValueError(f"{spec.attr}: {given} is not a finite decimal")
        if _too_long(value):
            raise ValueError(f"{spec.attr}: the decimal {_TOO_LONG}")
    elif base is int and abs(value) >= _INTEGER_LIMIT:
        raise ValueError(f"{spec.attr}: the integer {_TOO_LONG}")
    expected = spec.value_type
    if fills(base, expected):  # an int has fewer than 4300 digits: a bounded decimal
        return Decimal(value) if base is int and expected is Decimal else value
    wanted = "a scalar" if expected is TAGGED else SCALAR_TYPE_NAMES[expected]
    raise TypeError(f"{spec.attr}: expected {wanted}, got {kind.__name__}")


def _normalize_field(spec: "FieldSpec", value):
    if spec.kind == SCALAR:
        if value is None:
            return None
        return _check_scalar(spec, value)
    if spec.kind == NODE:
        if value is None:
            return None
        if not isinstance(value, spec.value_type):
            raise TypeError(
                f"{spec.attr}: expected {spec.value_type.__name__}, got {type(value).__name__}"
            )
        return None if value.is_empty() else value
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):  # a str or a dict would read as its items
        raise TypeError(f"{spec.attr}: expected a list or tuple, got {type(value).__name__}")
    if spec.kind == SCALAR_LIST:
        return tuple(_check_scalar(spec, item) for item in value)
    # NODE_LIST: empty entries are dropped, keeping the no-empty-elements
    # canonical form (documents never contain content-free nodes).
    kept = []
    for item in value:
        if not isinstance(item, spec.value_type):
            raise TypeError(
                f"{spec.attr}: expected {spec.value_type.__name__} entries, "
                f"got {type(item).__name__}"
            )
        if not item.is_empty():
            kept.append(item)
    return tuple(kept)


# Fixed, because other behaviour depends on them, so unlike the code lists
# they are not editable: the four stages of the research process, and each
# checksum algorithm with the hex length of its digests.
STEP_TYPES = ("data generation", "post processing", "analysis", "visualization")
CHECKSUM_ALGORITHMS = {"MD5": 32, "SHA-256": 64}

# The step fields PROV keeps as structure: the activity's date, its agent and
# its file relations. Flat blocks drop them; PROV's used entities are the
# step's other fields but stepType.
PROV_STEP_FIELDS = ("date", "actor", "inputs", "outputs")


class FieldRules(NamedTuple):  # a tuple: cheaper to declare at import than a dataclass
    """Field-local constraints, declared with ``_field``, that validation checks."""

    required: str | None = None  # the error message when the field is absent
    codes: str | None = None  # a code list in codes.json; other values are findings
    severity: str = "warning"  # of a value outside that code list
    one_of: tuple[str, ...] = ()  # fixed values; any other is an error
    iso_date: bool = False  # an ISO-8601 date or date-time
    uri: bool = False  # a URI reference: no whitespace or control characters
    at_least: int | None = None  # inclusive lower bound
    above: int | None = None  # exclusive lower bound
    unique_names: bool = False  # the variables of the list have distinct names


class _Declared(NamedTuple):
    """What a field declares beyond its annotation, for ``_derive_schema``."""

    element: str | None = None  # the repeated element of a list field, if not its name
    placement: str | None = None  # CONTENT for the text-content field
    rules: FieldRules | None = None


def _field(*, element: str | None = None, content: bool = False, **rules):
    """A field's declaration; keyword-only, so a misspelled rule fails at import.

    ``element`` names the repeated element of a list field, ``content`` marks
    the field carried as the element's text (its siblings become attributes),
    and the other keywords are the field's ``FieldRules``.
    """
    rules = FieldRules(**rules)
    return _Declared(element, CONTENT if content else None,
                     None if rules == FieldRules() else rules)


class Title(_Node):
    text: str | None = _field(content=True)
    titleType: str | None = _field(codes="titleTypes", severity="error")


class Description(_Node):
    text: str | None = _field(content=True)
    descriptionType: str | None = _field(codes="descriptionTypes")


class DatedEvent(_Node):
    date: str | None = _field(content=True, iso_date=True)
    dateType: str | None = _field(codes="dateTypes")


class Identifier(_Node):
    """A scheme-qualified identifier, e.g. an ORCID for a person."""

    value: str | None = _field(content=True)
    scheme: str | None = None


class PersonOrOrganization(_Node):
    name: str | None = None
    identifier: Identifier | None = None
    affiliation: str | None = None
    role: str | None = _field(codes="roles", severity="error")


class FundingReference(_Node):
    funderName: str | None = None
    awardNumber: str | None = None
    funderIdentifierType: str | None = _field(codes="funderIdentifierTypes")


class RelatedIdentifier(_Node):
    """A link to related work or data: identifier plus two type codes."""

    identifier: str | None = _field(content=True,
                                    required="related identifier needs an identifier")
    relatedIdentifierType: str | None = _field(
        required="type code is required", codes="relatedIdentifierTypes"
    )
    relationType: str | None = _field(
        required="relation type code is required", codes="relationTypes"
    )


class ResourceType(_Node):
    text: str | None = _field(content=True)
    resourceTypeGeneral: str | None = _field(codes="resourceTypes")


class RightsStatement(_Node):
    license: str | None = None
    accessConditions: str | None = None


class SuccessMarker(_Node):
    """Documents whether a run worked; failed runs are data too."""

    success: bool | None = None
    note: str | None = _field(content=True)


class PersistentIdentifier(_Node):
    value: str | None = _field(content=True, required="persistent identifier needs a value")
    scheme: str | None = _field(required="persistent identifier needs a scheme")


class Checksum(_Node):
    digest: str | None = _field(content=True)
    algorithm: str | None = None


class FileInfo(_Node):
    filename: str | None = None
    link: str | None = _field(uri=True)
    pid: PersistentIdentifier | None = None
    checksum: Checksum | None = None
    sizeBytes: int | None = _field(at_least=0)
    fileType: str | None = None


class FileRef(_Node):
    """A file locator used by processing-step inputs/outputs."""

    name: str | None = None
    link: str | None = _field(uri=True)
    pid: str | None = None

    def locator(self) -> str | None:
        """Identity of the referenced file: pid, else link, else name."""
        return self.pid or self.link or self.name


class Variable(_Node):
    """A named quantity: free name, typed value, unit and uncertainty."""

    name: str | None = None
    value: str | int | bool | Decimal | None = None
    unit: str | None = None
    uncertainty: Decimal | None = _field(at_least=0)
    symbol: str | None = None


class ForceField(_Node):
    name: str | None = None
    parameters: tuple[Variable, ...] = ()


class Component(_Node):
    """One constituent of the observed system, e.g. a molecule species."""

    name: str | None = None
    identifier: str | None = None
    forceField: ForceField | None = None


class TemporalResolution(_Node):
    numberOfTimesteps: int | None = _field(at_least=0)
    interval: Decimal | None = _field(above=0)
    intervalUnit: str | None = None


class SpatialResolution(_Node):
    numberOfCells: int | None = _field(at_least=0)
    scale: Decimal | None = None
    scaleUnit: str | None = None


class ObservedSystem(_Node):
    """The simulated or observed target system."""

    description: str | None = None
    components: tuple[Component, ...] = ()
    boundaryConditions: tuple[str, ...] = ()
    controlledVariables: tuple[Variable, ...] = _field(unique_names=True)
    measuredVariables: tuple[Variable, ...] = _field(unique_names=True)
    parameters: tuple[Variable, ...] = _field(unique_names=True)
    spatialResolution: SpatialResolution | None = None
    temporalResolution: TemporalResolution | None = None


class Method(_Node):
    name: str | None = None
    parameters: tuple[Variable, ...] = ()


class Compiler(_Node):
    name: str | None = None
    flags: str | None = None


class Environment(_Node):
    """The computing environment a step ran on."""

    name: str | None = None
    nodes: int | None = _field(above=0)
    coresPerNode: int | None = _field(above=0)
    totalCores: int | None = _field(above=0)
    compiler: Compiler | None = None


class Software(_Node):
    name: str | None = None
    softwareVersion: str | None = None
    contributor: tuple[PersonOrOrganization, ...] = ()
    programmingLanguage: str | None = None
    operatingSystem: str | None = None
    url: str | None = _field(uri=True)
    softwareSourceCode: str | None = _field(uri=True)
    softwareApplication: str | None = _field(uri=True)
    codeRepository: str | None = _field(uri=True)
    citation: str | None = None
    referencePublication: str | None = None
    license: RightsStatement | None = None


class Instrument(_Node):
    name: str | None = None
    description: str | None = None
    identifier: str | None = None


class ProcessingStep(_Node):
    """One stage of the research process."""

    stepType: str | None = _field(one_of=STEP_TYPES)
    date: str | None = _field(iso_date=True)
    actor: PersonOrOrganization | None = None
    inputs: tuple[FileRef, ...] = _field(element="input")
    outputs: tuple[FileRef, ...] = _field(element="output")
    method: Method | None = None
    errorMethod: Method | None = None
    software: tuple[Software, ...] = ()
    instrument: tuple[Instrument, ...] = ()
    environment: Environment | None = None
    executionCommand: str | None = None


class EngMetaDataset(_Node):
    """Root document describing one piece of research data."""

    titles: tuple[Title, ...] = _field(element="title")
    descriptions: tuple[Description, ...] = _field(element="description")
    dates: tuple[DatedEvent, ...] = _field(element="date")
    keywords: tuple[str, ...] = _field(element="keyword")
    subject: tuple[str, ...] = ()
    persons: tuple[PersonOrOrganization, ...] = _field(element="person")
    fundingReferences: tuple[FundingReference, ...] = _field(element="fundingReference")
    project: str | None = None
    context: tuple[RelatedIdentifier, ...] = ()
    resourceType: ResourceType | None = None
    rightsStatement: RightsStatement | None = None
    worked: SuccessMarker | None = None
    pid: PersistentIdentifier | None = None
    files: tuple[FileInfo, ...] = _field(element="file")
    storage: str | None = None
    format: str | None = None
    system: ObservedSystem | None = None
    processingSteps: tuple[ProcessingStep, ...] = _field(element="processingStep")


# --- Schema -------------------------------------------------------------
#
# Derived once, at import, from the declarations above. Serialization,
# paths, validation, merging and flattening all walk these field specs.
# This module does not postpone annotations, so each class's own
# ``__annotations__`` holds the evaluated types that ``_kind`` reads.


class FieldSpec(NamedTuple):  # a tuple, as FieldRules: no dataclass to build at import
    """One field of a node class, as serialization, paths and validation see it."""

    attr: str
    element: str
    kind: str
    value_type: object  # scalar type / TAGGED for scalar kinds, node class otherwise
    placement: str = CHILD
    rules: FieldRules | None = None  # the validation rules declared on the field


ROOT_ELEMENT = "engMeta"


def _kind(hint) -> tuple[str, object]:
    """Field kind and value type of an annotation: ``X | None`` or ``tuple[X, ...]``."""
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return (NODE_LIST if issubclass(item, _Node) else SCALAR_LIST), item
    types = [tp for tp in get_args(hint) if tp is not type(None)]
    if len(types) > 1:
        return SCALAR, TAGGED
    return (NODE if issubclass(types[0], _Node) else SCALAR), types[0]


def _derive_schema(cls: type) -> tuple[FieldSpec, ...]:
    """The specs of a node class's own annotated fields, in declaration order;
    each field's class attribute becomes the default its kind decides: ``()``
    for a list, None for any other."""
    hints = cls.__annotations__
    if cls.__doc__ is None:  # else the dataclass view derives one through inspect.signature
        cls.__doc__ = f"{cls.__name__}({', '.join(hints)})"
    declared = {}
    for attr in hints:
        value = vars(cls)[attr]
        declared[attr] = value if type(value) is _Declared else _Declared()
    placement = ATTRIBUTE if any(d.placement == CONTENT for d in declared.values()) else CHILD
    specs = tuple(FieldSpec(attr, d.element or attr, *_kind(hints[attr]), d.placement or placement,
                            d.rules) for attr, d in declared.items())
    for spec in specs:
        if (spec.placement == CONTENT or spec.kind == SCALAR_LIST) and spec.value_type is not str:
            raise TypeError(f"{cls.__name__}.{spec.attr}: text content and scalar lists hold str")
        setattr(cls, spec.attr, () if spec.kind in (SCALAR_LIST, NODE_LIST) else None)
    return specs


_SCHEMA: dict[type, tuple[FieldSpec, ...]] = {
    cls: _derive_schema(cls) for cls in _Node.__subclasses__()
}

# element name -> FieldSpec, per node class
_BY_ELEMENT: dict[type, dict[str, FieldSpec]] = {
    cls: {spec.element: spec for spec in specs} for cls, specs in _SCHEMA.items()
}

# every element name that may appear in a metadata path
ELEMENT_VOCABULARY = frozenset(
    spec.element for specs in _SCHEMA.values() for spec in specs
)


def schema(cls: type) -> tuple[FieldSpec, ...]:
    """Ordered field specs of a node class."""
    return _SCHEMA[cls]


def field_by_element(cls: type, element: str) -> FieldSpec | None:
    """Look up a field of ``cls`` by its canonical element name."""
    return _BY_ELEMENT[cls].get(element)
