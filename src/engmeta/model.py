"""Domain types for computational-engineering dataset metadata.

The dataset is the central entity; around it sit descriptive metadata
(titles, persons, funding, related identifiers, ...), technical metadata
(files with checksums and sizes), process metadata (ordered processing steps
with software, methods and the computing environment) and discipline-specific
metadata (the observed system with its components, variables, parameters and
resolutions).

All types are immutable value objects. Field names equal the canonical
element names used by the XML/JSON serializations and by metadata paths;
list-valued attributes carry the plural spelling while the schema table at
the bottom of this module records the canonical (repeated) element name.

Construction is deliberately permissive: partially filled documents are the
normal intermediate state of automated extraction. Rule-level constraints
(code lists, digest lengths, ISO dates, ...) are checked by
``validation.validate``, not by constructors. Constructors do enforce value
semantics: correct scalar types, no empty strings, only finite decimals,
and no empty nodes (a node whose fields are all unset collapses to
"absent").
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from decimal import Decimal

Scalar = str | int | bool | Decimal

# Marker for the one union-typed scalar field (Variable.value).
TAGGED = "tagged"

SCALAR_TYPE_NAMES = {str: "string", int: "integer", Decimal: "decimal", bool: "boolean"}
SCALAR_TYPES_BY_NAME = {name: tp for tp, name in SCALAR_TYPE_NAMES.items()}


def scalar_type_name(value) -> str:
    """Canonical type tag of a scalar value ('string', 'integer', ...)."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, Decimal):
        return "decimal"
    if isinstance(value, str):
        return "string"
    raise TypeError(f"not a scalar value: {type(value).__name__}")


def decimal_to_text(value: Decimal) -> str:
    """Canonical decimal rendering: plain notation, no trailing zeros."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


def scalar_to_text(value) -> str:
    """Canonical text form of any scalar value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Decimal):
        return decimal_to_text(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"not a scalar value: {type(value).__name__}")


def scalars_equal(a, b) -> bool:
    """Strict scalar equality: same type tag and same value.

    Python would happily report ``300 == Decimal("300") == True-ish``
    comparisons as equal; serialization distinguishes the types, so
    conflict detection must as well.
    """
    return scalar_type_name(a) == scalar_type_name(b) and a == b


def scalar_key(value) -> tuple:
    """Hashable, type-strict identity of a scalar value.

    Two scalars have equal keys exactly when ``scalars_equal`` holds, so
    sets and dicts of keys deduplicate the way serialization distinguishes
    values (``True``, ``1`` and ``Decimal(1)`` stay apart).
    """
    return (scalar_type_name(value), value)


class _Node:
    """Shared constructor, equality and hashing for all model dataclasses.

    Equality and hashing are type-strict and go through one canonical key
    (``canonical_key``): the node class plus, field by field, type-tagged
    scalars and the keys of child nodes. An integer 300 and a decimal 300
    serialize differently, so they are different values (plain ``==`` on
    Python numbers would conflate them). The key is computed on first use
    and cached; node classes are declared with ``eq=False`` so dataclasses
    generate neither ``__eq__`` nor ``__hash__``. Construction checks every
    field (scalar types, no empty strings, finite decimals only), so each
    value has exactly one key.
    """

    def __post_init__(self):
        for spec in schema(type(self)):
            value = getattr(self, spec.attr)
            object.__setattr__(self, spec.attr, _normalize_field(spec, value))

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
        object.__setattr__(self, "_canonical_key", key)  # not via __dict__: see _replaced
        return key

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def _replaced(self, attr: str, value):
        """Copy with one field set, sharing the others without re-checking.

        Only for values already in canonical form: a scalar that passed
        ``_check_scalar``, a non-empty node, or a tuple of those. The other
        fields are normalized already, so skipping ``__post_init__`` keeps
        the copy canonical at the cost of one field, not the whole node.
        """
        copy = object.__new__(type(self))
        # attribute by attribute: touching __dict__ would give every copy a
        # separate dict instead of CPython's compact instance layout
        for spec in schema(type(self)):
            object.__setattr__(copy, spec.attr, getattr(self, spec.attr))
        object.__setattr__(copy, attr, value)
        return copy


def _check_scalar(spec: "FieldSpec", value):
    if isinstance(value, str) and value == "":
        raise ValueError(f"{spec.attr}: empty strings are not valid values")
    if isinstance(value, Decimal) and not value.is_finite():
        raise ValueError(f"{spec.attr}: {value} is not a finite decimal")
    if spec.value_type is TAGGED:
        if isinstance(value, (bool, int, str, Decimal)):
            return value
        raise TypeError(f"{spec.attr}: expected a scalar, got {type(value).__name__}")
    expected = spec.value_type
    if expected is bool:
        if isinstance(value, bool):
            return value
    elif expected is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif expected is Decimal:
        if isinstance(value, Decimal):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Decimal(value)
    elif expected is str:
        if isinstance(value, str):
            return value
    raise TypeError(
        f"{spec.attr}: expected {SCALAR_TYPE_NAMES[expected]}, got {type(value).__name__}"
    )


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
    if spec.kind == SCALAR_LIST:
        items = tuple(value or ())
        return tuple(_check_scalar(spec, item) for item in items)
    # NODE_LIST: empty entries are dropped, keeping the no-empty-elements
    # canonical form (documents never contain content-free nodes).
    items = tuple(value or ())
    kept = []
    for item in items:
        if not isinstance(item, spec.value_type):
            raise TypeError(
                f"{spec.attr}: expected {spec.value_type.__name__} entries, "
                f"got {type(item).__name__}"
            )
        if not item.is_empty():
            kept.append(item)
    return tuple(kept)


@dataclass(frozen=True, eq=False)
class Title(_Node):
    text: str | None = None
    titleType: str | None = None


@dataclass(frozen=True, eq=False)
class Description(_Node):
    text: str | None = None
    descriptionType: str | None = None


@dataclass(frozen=True, eq=False)
class DatedEvent(_Node):
    date: str | None = None
    dateType: str | None = None


@dataclass(frozen=True, eq=False)
class Identifier(_Node):
    """A scheme-qualified identifier, e.g. an ORCID for a person."""

    value: str | None = None
    scheme: str | None = None


@dataclass(frozen=True, eq=False)
class PersonOrOrganization(_Node):
    name: str | None = None
    identifier: Identifier | None = None
    affiliation: str | None = None
    role: str | None = None


@dataclass(frozen=True, eq=False)
class FundingReference(_Node):
    funderName: str | None = None
    awardNumber: str | None = None
    funderIdentifierType: str | None = None


@dataclass(frozen=True, eq=False)
class RelatedIdentifier(_Node):
    """A link to related work or data: identifier plus two type codes."""

    identifier: str | None = None
    relatedIdentifierType: str | None = None
    relationType: str | None = None


@dataclass(frozen=True, eq=False)
class ResourceType(_Node):
    text: str | None = None
    resourceTypeGeneral: str | None = None


@dataclass(frozen=True, eq=False)
class RightsStatement(_Node):
    license: str | None = None
    accessConditions: str | None = None


@dataclass(frozen=True, eq=False)
class SuccessMarker(_Node):
    """Documents whether a run worked; failed runs are data too."""

    success: bool | None = None
    note: str | None = None


@dataclass(frozen=True, eq=False)
class PersistentIdentifier(_Node):
    value: str | None = None
    scheme: str | None = None


@dataclass(frozen=True, eq=False)
class Checksum(_Node):
    digest: str | None = None
    algorithm: str | None = None


@dataclass(frozen=True, eq=False)
class FileInfo(_Node):
    filename: str | None = None
    link: str | None = None
    pid: PersistentIdentifier | None = None
    checksum: Checksum | None = None
    sizeBytes: int | None = None
    fileType: str | None = None


@dataclass(frozen=True, eq=False)
class FileRef(_Node):
    """A file locator used by processing-step inputs/outputs."""

    name: str | None = None
    link: str | None = None
    pid: str | None = None

    def locator(self) -> str | None:
        """Identity of the referenced file: pid, else link, else name."""
        return self.pid or self.link or self.name


@dataclass(frozen=True, eq=False)
class Variable(_Node):
    """A named quantity: free name, typed value, unit and uncertainty."""

    name: str | None = None
    value: str | int | bool | Decimal | None = None
    unit: str | None = None
    uncertainty: Decimal | None = None
    symbol: str | None = None


@dataclass(frozen=True, eq=False)
class ForceField(_Node):
    name: str | None = None
    parameters: tuple[Variable, ...] = ()


@dataclass(frozen=True, eq=False)
class Component(_Node):
    """One constituent of the observed system, e.g. a molecule species."""

    name: str | None = None
    identifier: str | None = None
    forceField: ForceField | None = None


@dataclass(frozen=True, eq=False)
class TemporalResolution(_Node):
    numberOfTimesteps: int | None = None
    interval: Decimal | None = None
    intervalUnit: str | None = None


@dataclass(frozen=True, eq=False)
class SpatialResolution(_Node):
    numberOfCells: int | None = None
    scale: Decimal | None = None
    scaleUnit: str | None = None


@dataclass(frozen=True, eq=False)
class ObservedSystem(_Node):
    """The simulated or observed target system."""

    description: str | None = None
    components: tuple[Component, ...] = ()
    boundaryConditions: tuple[str, ...] = ()
    controlledVariables: tuple[Variable, ...] = ()
    measuredVariables: tuple[Variable, ...] = ()
    parameters: tuple[Variable, ...] = ()
    spatialResolution: SpatialResolution | None = None
    temporalResolution: TemporalResolution | None = None


@dataclass(frozen=True, eq=False)
class Method(_Node):
    name: str | None = None
    parameters: tuple[Variable, ...] = ()


@dataclass(frozen=True, eq=False)
class Compiler(_Node):
    name: str | None = None
    flags: str | None = None


@dataclass(frozen=True, eq=False)
class Environment(_Node):
    """The computing environment a step ran on."""

    name: str | None = None
    nodes: int | None = None
    coresPerNode: int | None = None
    totalCores: int | None = None
    compiler: Compiler | None = None


@dataclass(frozen=True, eq=False)
class Software(_Node):
    name: str | None = None
    softwareVersion: str | None = None
    contributor: tuple[PersonOrOrganization, ...] = ()
    programmingLanguage: str | None = None
    operatingSystem: str | None = None
    url: str | None = None
    softwareSourceCode: str | None = None
    softwareApplication: str | None = None
    codeRepository: str | None = None
    citation: str | None = None
    referencePublication: str | None = None
    license: RightsStatement | None = None


@dataclass(frozen=True, eq=False)
class Instrument(_Node):
    name: str | None = None
    description: str | None = None
    identifier: str | None = None


@dataclass(frozen=True, eq=False)
class ProcessingStep(_Node):
    """One stage of the research process."""

    stepType: str | None = None
    date: str | None = None
    actor: PersonOrOrganization | None = None
    inputs: tuple[FileRef, ...] = ()
    outputs: tuple[FileRef, ...] = ()
    method: Method | None = None
    errorMethod: Method | None = None
    software: tuple[Software, ...] = ()
    instrument: tuple[Instrument, ...] = ()
    environment: Environment | None = None
    executionCommand: str | None = None


@dataclass(frozen=True, eq=False)
class EngMetaDataset(_Node):
    """Root document describing one piece of research data."""

    titles: tuple[Title, ...] = ()
    descriptions: tuple[Description, ...] = ()
    dates: tuple[DatedEvent, ...] = ()
    keywords: tuple[str, ...] = ()
    subject: tuple[str, ...] = ()
    persons: tuple[PersonOrOrganization, ...] = ()
    fundingReferences: tuple[FundingReference, ...] = ()
    project: str | None = None
    context: tuple[RelatedIdentifier, ...] = ()
    resourceType: ResourceType | None = None
    rightsStatement: RightsStatement | None = None
    worked: SuccessMarker | None = None
    pid: PersistentIdentifier | None = None
    files: tuple[FileInfo, ...] = ()
    storage: str | None = None
    format: str | None = None
    system: ObservedSystem | None = None
    processingSteps: tuple[ProcessingStep, ...] = ()


# --- Schema table -------------------------------------------------------
#
# Single source of truth for element names, element order, scalar types and
# XML placement. Serialization, paths, validation, merging and flattening
# all walk this table.

SCALAR = "scalar"
NODE = "node"
SCALAR_LIST = "scalar-list"
NODE_LIST = "node-list"

CHILD = "child"
ATTRIBUTE = "attribute"
CONTENT = "content"


@dataclass(frozen=True)
class FieldSpec:
    attr: str
    element: str
    kind: str
    value_type: object  # scalar type / TAGGED for scalar kinds, node class otherwise
    placement: str = CHILD


ROOT_ELEMENT = "engMeta"

_SCHEMA: dict[type, tuple[FieldSpec, ...]] = {
    Title: (
        FieldSpec("text", "text", SCALAR, str, CONTENT),
        FieldSpec("titleType", "titleType", SCALAR, str, ATTRIBUTE),
    ),
    Description: (
        FieldSpec("text", "text", SCALAR, str, CONTENT),
        FieldSpec("descriptionType", "descriptionType", SCALAR, str, ATTRIBUTE),
    ),
    DatedEvent: (
        FieldSpec("date", "date", SCALAR, str, CONTENT),
        FieldSpec("dateType", "dateType", SCALAR, str, ATTRIBUTE),
    ),
    Identifier: (
        FieldSpec("value", "value", SCALAR, str, CONTENT),
        FieldSpec("scheme", "scheme", SCALAR, str, ATTRIBUTE),
    ),
    PersonOrOrganization: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("identifier", "identifier", NODE, Identifier),
        FieldSpec("affiliation", "affiliation", SCALAR, str),
        FieldSpec("role", "role", SCALAR, str),
    ),
    FundingReference: (
        FieldSpec("funderName", "funderName", SCALAR, str),
        FieldSpec("awardNumber", "awardNumber", SCALAR, str),
        FieldSpec("funderIdentifierType", "funderIdentifierType", SCALAR, str),
    ),
    RelatedIdentifier: (
        FieldSpec("identifier", "identifier", SCALAR, str, CONTENT),
        FieldSpec("relatedIdentifierType", "relatedIdentifierType", SCALAR, str, ATTRIBUTE),
        FieldSpec("relationType", "relationType", SCALAR, str, ATTRIBUTE),
    ),
    ResourceType: (
        FieldSpec("text", "text", SCALAR, str, CONTENT),
        FieldSpec("resourceTypeGeneral", "resourceTypeGeneral", SCALAR, str, ATTRIBUTE),
    ),
    RightsStatement: (
        FieldSpec("license", "license", SCALAR, str),
        FieldSpec("accessConditions", "accessConditions", SCALAR, str),
    ),
    SuccessMarker: (
        FieldSpec("success", "success", SCALAR, bool, ATTRIBUTE),
        FieldSpec("note", "note", SCALAR, str, CONTENT),
    ),
    PersistentIdentifier: (
        FieldSpec("value", "value", SCALAR, str, CONTENT),
        FieldSpec("scheme", "scheme", SCALAR, str, ATTRIBUTE),
    ),
    Checksum: (
        FieldSpec("digest", "digest", SCALAR, str, CONTENT),
        FieldSpec("algorithm", "algorithm", SCALAR, str, ATTRIBUTE),
    ),
    FileInfo: (
        FieldSpec("filename", "filename", SCALAR, str),
        FieldSpec("link", "link", SCALAR, str),
        FieldSpec("pid", "pid", NODE, PersistentIdentifier),
        FieldSpec("checksum", "checksum", NODE, Checksum),
        FieldSpec("sizeBytes", "sizeBytes", SCALAR, int),
        FieldSpec("fileType", "fileType", SCALAR, str),
    ),
    FileRef: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("link", "link", SCALAR, str),
        FieldSpec("pid", "pid", SCALAR, str),
    ),
    Variable: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("value", "value", SCALAR, TAGGED),
        FieldSpec("unit", "unit", SCALAR, str),
        FieldSpec("uncertainty", "uncertainty", SCALAR, Decimal),
        FieldSpec("symbol", "symbol", SCALAR, str),
    ),
    ForceField: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("parameters", "parameters", NODE_LIST, Variable),
    ),
    Component: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("identifier", "identifier", SCALAR, str),
        FieldSpec("forceField", "forceField", NODE, ForceField),
    ),
    TemporalResolution: (
        FieldSpec("numberOfTimesteps", "numberOfTimesteps", SCALAR, int),
        FieldSpec("interval", "interval", SCALAR, Decimal),
        FieldSpec("intervalUnit", "intervalUnit", SCALAR, str),
    ),
    SpatialResolution: (
        FieldSpec("numberOfCells", "numberOfCells", SCALAR, int),
        FieldSpec("scale", "scale", SCALAR, Decimal),
        FieldSpec("scaleUnit", "scaleUnit", SCALAR, str),
    ),
    ObservedSystem: (
        FieldSpec("description", "description", SCALAR, str),
        FieldSpec("components", "components", NODE_LIST, Component),
        FieldSpec("boundaryConditions", "boundaryConditions", SCALAR_LIST, str),
        FieldSpec("controlledVariables", "controlledVariables", NODE_LIST, Variable),
        FieldSpec("measuredVariables", "measuredVariables", NODE_LIST, Variable),
        FieldSpec("parameters", "parameters", NODE_LIST, Variable),
        FieldSpec("spatialResolution", "spatialResolution", NODE, SpatialResolution),
        FieldSpec("temporalResolution", "temporalResolution", NODE, TemporalResolution),
    ),
    Method: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("parameters", "parameters", NODE_LIST, Variable),
    ),
    Compiler: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("flags", "flags", SCALAR, str),
    ),
    Environment: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("nodes", "nodes", SCALAR, int),
        FieldSpec("coresPerNode", "coresPerNode", SCALAR, int),
        FieldSpec("totalCores", "totalCores", SCALAR, int),
        FieldSpec("compiler", "compiler", NODE, Compiler),
    ),
    Software: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("softwareVersion", "softwareVersion", SCALAR, str),
        FieldSpec("contributor", "contributor", NODE_LIST, PersonOrOrganization),
        FieldSpec("programmingLanguage", "programmingLanguage", SCALAR, str),
        FieldSpec("operatingSystem", "operatingSystem", SCALAR, str),
        FieldSpec("url", "url", SCALAR, str),
        FieldSpec("softwareSourceCode", "softwareSourceCode", SCALAR, str),
        FieldSpec("softwareApplication", "softwareApplication", SCALAR, str),
        FieldSpec("codeRepository", "codeRepository", SCALAR, str),
        FieldSpec("citation", "citation", SCALAR, str),
        FieldSpec("referencePublication", "referencePublication", SCALAR, str),
        FieldSpec("license", "license", NODE, RightsStatement),
    ),
    Instrument: (
        FieldSpec("name", "name", SCALAR, str),
        FieldSpec("description", "description", SCALAR, str),
        FieldSpec("identifier", "identifier", SCALAR, str),
    ),
    ProcessingStep: (
        FieldSpec("stepType", "stepType", SCALAR, str),
        FieldSpec("date", "date", SCALAR, str),
        FieldSpec("actor", "actor", NODE, PersonOrOrganization),
        FieldSpec("inputs", "input", NODE_LIST, FileRef),
        FieldSpec("outputs", "output", NODE_LIST, FileRef),
        FieldSpec("method", "method", NODE, Method),
        FieldSpec("errorMethod", "errorMethod", NODE, Method),
        FieldSpec("software", "software", NODE_LIST, Software),
        FieldSpec("instrument", "instrument", NODE_LIST, Instrument),
        FieldSpec("environment", "environment", NODE, Environment),
        FieldSpec("executionCommand", "executionCommand", SCALAR, str),
    ),
    EngMetaDataset: (
        FieldSpec("titles", "title", NODE_LIST, Title),
        FieldSpec("descriptions", "description", NODE_LIST, Description),
        FieldSpec("dates", "date", NODE_LIST, DatedEvent),
        FieldSpec("keywords", "keyword", SCALAR_LIST, str),
        FieldSpec("subject", "subject", SCALAR_LIST, str),
        FieldSpec("persons", "person", NODE_LIST, PersonOrOrganization),
        FieldSpec("fundingReferences", "fundingReference", NODE_LIST, FundingReference),
        FieldSpec("project", "project", SCALAR, str),
        FieldSpec("context", "context", NODE_LIST, RelatedIdentifier),
        FieldSpec("resourceType", "resourceType", NODE, ResourceType),
        FieldSpec("rightsStatement", "rightsStatement", NODE, RightsStatement),
        FieldSpec("worked", "worked", NODE, SuccessMarker),
        FieldSpec("pid", "pid", NODE, PersistentIdentifier),
        FieldSpec("files", "file", NODE_LIST, FileInfo),
        FieldSpec("storage", "storage", SCALAR, str),
        FieldSpec("format", "format", SCALAR, str),
        FieldSpec("system", "system", NODE, ObservedSystem),
        FieldSpec("processingSteps", "processingStep", NODE_LIST, ProcessingStep),
    ),
}

# element name -> FieldSpec, per node class
_BY_ELEMENT: dict[type, dict[str, FieldSpec]] = {
    cls: {spec.element: spec for spec in specs} for cls, specs in _SCHEMA.items()
}

# every element name that may appear in a metadata path
ELEMENT_VOCABULARY = frozenset(
    spec.element for specs in _SCHEMA.values() for spec in specs
)

NODE_CLASSES = tuple(_SCHEMA)


def schema(cls: type) -> tuple[FieldSpec, ...]:
    """Ordered field specs of a node class."""
    return _SCHEMA[cls]


def field_by_element(cls: type, element: str) -> FieldSpec | None:
    """Look up a field of ``cls`` by its canonical element name."""
    return _BY_ELEMENT[cls].get(element)


def _consistency_check() -> None:
    for cls, specs in _SCHEMA.items():
        declared = [f.name for f in dataclass_fields(cls)]
        assert [s.attr for s in specs] == declared, cls


_consistency_check()
