"""Flattening the hierarchical document into repository metadata blocks.

Repositories index flat blocks of simple (key-value) and compound fields,
so the tree is broken into three blocks: ``citation`` (general descriptive
and technical metadata, including the success marker), ``process`` (the
union over all processing steps of software, methods, hardware, instruments
and execution commands, deduplicated and no longer tied to their step) and
``engMeta`` (the discipline-specific description of the observed system).

Flattening is lossy by design: step structure (dates, actors, input/output
linkage) is preserved by the PROV sidecar instead. The FlattenReport
accounts for every populated leaf of the input: each one is either mapped
into a block field or listed as dropped with that reason.

The mapping is derived from the model's schema, so a field added to the
model lands in a block without an edit here. Only the choices the schema
cannot show are declared below: the block of each dataset field
(``_BLOCKS``; citation otherwise), the inline nodes whose fields sit at the
level above them (``_INLINE``), the step fields handed to PROV
(``_TO_PROV``), renamed type names (``_TYPE_NAMES``) and sub-field keys
(``_KEYS``), and sub-field orders other than declaration order
(``_ORDER``). The rules:

- A field becomes a block field named after its element; a list's entries
  are named in the singular (``components`` gives ``component``). A scalar
  is a primitive, a scalar list a multiple primitive, a node a compound
  and a node list a multiple compound. Exact repeats of a compound entry
  collapse.
- Under the processing steps every field is multiple, and scalars are
  deduplicated primitives (``stepType``, ``executionCommand``).
- Deduplication keeps the first occurrence. Comparison is type-strict
  (``True``, ``1`` and ``Decimal(1)`` stay apart), and a compound is
  compared sub-field by sub-field in its fixed order.
- In a compound, a scalar is a sub-field keyed by its name, and a nested
  node's scalars are keyed prefix+Leaf (``pid.value`` gives ``pidValue``).
  A list becomes a compound of its own, named owner+Entry
  (``methodParameter``), whose entries start with the owner's name.
- Blocks fill citation, process, engMeta, although ``system`` is declared
  before ``processingSteps``. A compound's own lists become entries after
  the compound; a nested node's lists become entries where the node is
  met, before the compound that encloses them, so ``forceFieldParameter``
  comes before ``component``.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .canon import _enclosed, _encode_string, _json_primitive
from .errors import FlattenStructureError
from .model import (
    NODE,
    PROV_STEP_FIELDS,
    SCALAR,
    SCALAR_LIST,
    Checksum,
    EngMetaDataset,
    FileInfo,
    ForceField,
    ObservedSystem,
    ProcessingStep,
    RightsStatement,
    SuccessMarker,
    _Node,
    scalar_key,
    schema,
)

BLOCK_NAMES = ("citation", "process", "engMeta")
DROP_REASON = "preserved via PROV sidecar"


class BlockField(NamedTuple):
    typeName: str
    multiple: bool
    typeClass: str  # "primitive" | "compound"
    value: object


class MetadataBlock(NamedTuple):
    blockName: str
    fields: tuple[BlockField, ...] = ()


class MappedPath(NamedTuple):
    path: str
    field: str  # "<block>.<typeName>"


class DroppedPath(NamedTuple):
    path: str
    reason: str


class FlattenReport(NamedTuple):
    mappedPaths: tuple[MappedPath, ...] = ()
    droppedPaths: tuple[DroppedPath, ...] = ()


class _BlockBuilder:
    """The fields of one block, in first-use order; reports every leaf it maps."""

    def __init__(self, block_name: str, mapped: list[MappedPath], dropped: list[DroppedPath]):
        self.block_name = block_name
        self.mapped = mapped
        self.dropped = dropped
        self._fields: dict[tuple, list] = {}  # (typeName, multiple, typeClass, dedup) -> values
        self._names: dict[str, str] = {}  # typeName -> "<block>.<typeName>", built once

    def claim(self, type_name: str, path: str, value):
        field = self._names.get(type_name) or self._names.setdefault(
            type_name, f"{self.block_name}.{type_name}")
        self.mapped.append(MappedPath(path, field))
        return value

    def add(self, type_name: str, multiple: bool, type_class: str, value, dedup: bool) -> None:
        self._fields.setdefault((type_name, multiple, type_class, dedup), []).append(value)

    def build(self) -> MetadataBlock:
        fields = []
        for (type_name, multiple, type_class, dedup), values in self._fields.items():
            if not multiple:
                value = values[-1]
            elif dedup:  # exact repeats collapse; the first is kept
                first: dict = {}
                for entry in values:
                    first.setdefault(_entry_key(entry), entry)
                value = list(first.values())
            else:
                value = values
            fields.append(BlockField(type_name, multiple, type_class, value))
        return MetadataBlock(self.block_name, tuple(fields))


def _entry_key(entry) -> tuple:
    """Type-strict identity of a block entry, through ``scalar_key``.

    ``True`` and ``1`` (or ``300`` and ``Decimal(300)``) serialize
    differently, so their keys differ. A compound's sub-fields are compared
    in their order: every entry of one type name is filled in one fixed
    ``_sub_plan`` order, so equal compounds list equal sub-fields alike.
    """
    if type(entry) is dict:
        return tuple([(name, scalar_key(value)) for name, value in entry.items()])
    return scalar_key(entry)


# --- The crosswalk ----------------------------------------------------------
#
# What the schema cannot show; see the module docstring for the rules.

_BLOCKS = {"processingSteps": "process", "system": "engMeta"}

_INLINE = frozenset({
    (EngMetaDataset, "worked"),
    (EngMetaDataset, "system"),
    (EngMetaDataset, "processingSteps"),
    (ObservedSystem, "spatialResolution"),
    (ObservedSystem, "temporalResolution"),
})

# step structure is not searchable in flat blocks; the PROV sidecar keeps it
_TO_PROV = frozenset((ProcessingStep, attr) for attr in PROV_STEP_FIELDS)

_TYPE_NAMES = {
    (SuccessMarker, "note"): "successNote",
    (ObservedSystem, "description"): "systemDescription",
}

_KEYS = {
    (ForceField, "name"): "forceField",
    (RightsStatement, "license"): "license",
    (RightsStatement, "accessConditions"): "accessConditions",
}

# listed fields first, in this order; the others follow in declaration order
_ORDER = {
    FileInfo: ("filename", "link", "sizeBytes", "fileType", "pid", "checksum"),
    Checksum: ("algorithm", "digest"),
}

_DROPPED = "dropped"
_INLINED = "inlined"


def flatten(dataset: EngMetaDataset) -> tuple[list[MetadataBlock], FlattenReport]:
    """Break the document into repository blocks plus a loss accounting."""
    mapped: list[MappedPath] = []
    dropped: list[DroppedPath] = []
    plan = _plan(EngMetaDataset)
    blocks = []
    for name in BLOCK_NAMES:
        block = _BlockBuilder(name, mapped, dropped)
        _fill(block, dataset, "", False,
              [step for step in plan if _BLOCKS.get(step[0].attr, "citation") == name])
        blocks.append(block.build())
    return blocks, FlattenReport(tuple(mapped), tuple(dropped))


def _specs(cls: type) -> tuple:
    """The fields of ``cls`` in crosswalk order."""
    rank = {attr: i for i, attr in enumerate(_ORDER.get(cls, ()))}
    return tuple(sorted(schema(cls), key=lambda spec: rank.get(spec.attr, len(rank))))


def _entry_name(element: str) -> str:
    return element.removesuffix("s")


def _joined(prefix: str, name: str) -> str:
    """``name`` under ``prefix``: ``pid`` and ``value`` give ``pidValue``."""
    return prefix + name[0].upper() + name[1:] if prefix else name


@cache
def _plan(cls: type) -> tuple:
    """(spec, type name, how) for each field of a node whose fields are block fields."""
    plan = []
    for spec in _specs(cls):
        where = (cls, spec.attr)
        how = _DROPPED if where in _TO_PROV else _INLINED if where in _INLINE else spec.kind
        name = spec.element if spec.kind in (SCALAR, NODE) else _entry_name(spec.element)
        plan.append((spec, _TYPE_NAMES.get(where, name), how))
    return tuple(plan)


@cache
def _sub_plan(cls: type, prefix: str) -> tuple:
    """(spec, attr, element, kind, key) for each field of a node in a compound.

    A nested node's key prefixes the keys of its own fields.
    """
    return tuple(
        (spec, spec.attr, spec.element, spec.kind,
         _KEYS.get((cls, spec.attr)) or _joined(prefix, spec.attr))
        for spec in _specs(cls)
    )


def _fill(block: _BlockBuilder, node, path: str, repeated: bool, plan) -> None:
    """Put the fields of a node at block level into the block (``repeated``: under a list)."""
    for spec, type_name, how in plan:
        value = getattr(node, spec.attr)
        if value is None:
            continue
        field_path = f"{path}.{spec.element}" if path else spec.element
        if how is _DROPPED:
            _drop(block.dropped, value, field_path)
        elif how is _INLINED:
            if spec.kind == NODE:
                _fill(block, value, field_path, repeated, _plan(spec.value_type))
            else:
                for i, item in enumerate(value):
                    _fill(block, item, f"{field_path}[{i}]", True, _plan(spec.value_type))
        elif how == SCALAR:
            block.add(type_name, repeated, "primitive", block.claim(type_name, field_path, value),
                      dedup=repeated)
        elif how == NODE:
            _compound(block, type_name, value, field_path, {}, single=not repeated)
        else:
            _entries(block, type_name, spec, value, field_path, {})


def _entries(block: _BlockBuilder, type_name: str, spec, items, path: str, first: dict) -> None:
    """One entry per list item: primitives, or compounds whose sub-fields start with ``first``."""
    for i, item in enumerate(items):
        if spec.kind == SCALAR_LIST:
            block.add(type_name, True, "primitive", block.claim(type_name, f"{path}[{i}]", item),
                      dedup=False)
        else:
            _compound(block, type_name, item, f"{path}[{i}]", dict(first))


def _compound(block: _BlockBuilder, type_name: str, node, path: str, submap: dict,
              single: bool = False) -> None:
    """Add the compound entry of ``node``, then the entries of its own lists."""
    lists: list = []
    _sub_fields(block, type_name, node, path, "", submap, lists)
    if submap:
        block.add(type_name, not single, "compound", submap, dedup=True)
    for owner, spec, list_path in lists:
        _sub_entries(block, type_name, owner, spec, list_path)


def _sub_fields(block: _BlockBuilder, type_name: str, node, path: str, prefix: str,
                submap: dict, lists: list | None) -> None:
    """Claim the scalars under ``node`` into the submap.

    The compound's own lists go to ``lists``, to follow its entry; a nested
    node's lists (``lists`` is None) become entries at once.
    """
    for spec, attr, element, kind, key in _sub_plan(type(node), prefix):
        value = getattr(node, attr)
        if value is None:
            continue
        field_path = f"{path}.{element}"
        if kind == SCALAR:
            submap[key] = block.claim(type_name, field_path, value)
        elif kind == NODE:
            _sub_fields(block, type_name, value, field_path, key, submap, None)
        elif lists is not None:
            lists.append((node, spec, field_path))
        else:
            _sub_entries(block, prefix, node, spec, field_path)


def _sub_entries(block: _BlockBuilder, owner_name: str, owner, spec, path: str) -> None:
    name = getattr(owner, "name", None)
    _entries(block, _joined(owner_name, _entry_name(spec.element)), spec,
             getattr(owner, spec.attr), path, {} if name is None else {owner_name: name})


def _drop(dropped: list[DroppedPath], value, path: str) -> None:
    """Report every scalar under a field's value as dropped, in schema order."""
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            _drop(dropped, item, f"{path}[{i}]")
    elif isinstance(value, _Node):
        for spec in schema(type(value)):
            item = getattr(value, spec.attr)
            if item is not None:
                _drop(dropped, item, f"{path}.{spec.element}")
    else:
        dropped.append(DroppedPath(path, DROP_REASON))


# --- JSON serialization ----------------------------------------------------

_PRIMITIVE = "primitive fields may hold only strings, integers, booleans and decimals"
_SUB_FIELD = "compound fields may contain only primitive sub-fields"


def serialize_blocks_json(blocks: list[MetadataBlock], report: FlattenReport) -> str:
    """Repository-ingest JSON for the blocks plus the report: ``json.dumps(obj,
    indent=2, ensure_ascii=False)`` of the object README documents, written
    from its fixed shapes. Input that does not fit them raises
    FlattenStructureError, naming the block and the field."""
    text, names = ["{"], []  # joined once, at the end
    for block in blocks:
        name = block.blockName
        if name not in BLOCK_NAMES or name in names:
            problem = "is given twice" if name in BLOCK_NAMES else "is not a block name"
            raise FlattenStructureError(f"block {name!r} {problem}")
        names.append(name)
        fields = _enclosed([_field_json(name, field) for field in block.fields], "\n  ")
        text.append(f'\n  "{name}": {fields},')
    try:
        mapped, dropped = (
            _enclosed([f'{{\n        "path": {_encode_string(path)},\n        "{key}": '
                       f'{_encode_string(value)}\n      }}' for path, value in entries], "\n    ")
            for entries, key in ((report.mappedPaths, "field"), (report.droppedPaths, "reason")))
    except TypeError:  # some path, field or reason is not a string
        bad = next(entry for entry in (*report.mappedPaths, *report.droppedPaths)
                   if not all(isinstance(value, str) for value in entry))
        raise FlattenStructureError(f"_flattenReport: {bad} must hold strings") from None
    text += ['\n  "_flattenReport": {\n    "mapped": ', mapped, ',\n    "dropped": ', dropped,
             "\n  }\n}\n"]
    return "".join(text)


def _field_json(block_name: str, field: BlockField) -> str:
    type_name, multiple, value = field.typeName, field.multiple, field.value
    where = f"{block_name}.{type_name}"
    if not isinstance(type_name, str):
        raise FlattenStructureError(f"{where}: typeName must be a string")
    if not isinstance(multiple, bool):
        raise FlattenStructureError(f"{where}: multiple must be true or false, got {multiple!r}")
    if multiple and not isinstance(value, (list, tuple)):
        raise FlattenStructureError(f"{where}: a multiple field's value must be a list, "
                                    f"got {type(value).__name__}")
    entries = value if multiple else (value,)
    if field.typeClass == "primitive":
        written = [_primitive_json(entry, where, _PRIMITIVE) for entry in entries]
    elif field.typeClass == "compound":
        newline = "\n        " if multiple else "\n      "
        written = [_submap_json(entry, where, newline) for entry in entries]
    else:
        raise FlattenStructureError(f"{where}: unknown typeClass {field.typeClass!r}")
    value_text = _enclosed(written, "\n      ") if multiple else written[0]
    return (f'{{\n      "typeName": {_encode_string(type_name)},\n      "multiple": '
            f'{_json_primitive(multiple)},\n      "typeClass": "{field.typeClass}",\n'
            f'      "value": {value_text}\n    }}')


def _submap_json(submap, where: str, newline: str) -> str:
    try:
        if isinstance(submap, dict):
            return _enclosed([
                f"{_encode_string(key)}: "
                f"{_encode_string(item) if type(item) is str else _primitive_json(item, where)}"
                for key, item in submap.items()
            ], newline, "{}")
    except TypeError:  # a key that is not a string
        pass
    raise FlattenStructureError(
        f"{where}: compound values must be maps of sub-fields keyed by strings, got {submap!r}")


def _primitive_json(value, where: str, unfit: str = _SUB_FIELD) -> str:
    try:
        return _json_primitive(value)
    except TypeError:
        raise FlattenStructureError(f"{where}: {unfit}, got {type(value).__name__}") from None
