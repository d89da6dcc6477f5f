"""Small independent helpers used to cross-check module output in tests."""

import datetime
import hashlib
import json
import os
import re
from decimal import Decimal
from pathlib import Path
from xml.etree import ElementTree

from engmeta import canon, prov
from engmeta.errors import (
    CoercionError,
    ConfigError,
    FlattenStructureError,
    PathError,
    PathIndexGapError,
)
from engmeta.extract.config import (
    OCCURRENCES,
    VALUE_TYPES,
    ExtractionConfig,
    ExtractionRule,
)
from engmeta.extract.engine import CoercionFailure, RawHit, coerce, parse_line
from engmeta.flatten import (
    BLOCK_NAMES,
    DROP_REASON,
    BlockField,
    DroppedPath,
    FlattenReport,
    MappedPath,
    MetadataBlock,
)
from engmeta.fswalk import walk_files
from engmeta.harvest import HarvestError, HarvestResult
from engmeta.isodates import _ISO_RE, is_iso_date_or_datetime
from engmeta.merging import Conflict
from engmeta.model import (
    ATTRIBUTE,
    CHECKSUM_ALGORITHMS,
    CHILD,
    CONTENT,
    NODE,
    NODE_LIST,
    SCALAR,
    SCALAR_LIST,
    SCALAR_TYPE_NAMES,
    STEP_TYPES,
    Checksum,
    DatedEvent,
    Description,
    EngMetaDataset,
    Environment,
    FileInfo,
    FileRef,
    FundingReference,
    Method,
    ObservedSystem,
    PersistentIdentifier,
    PersonOrOrganization,
    ProcessingStep,
    RelatedIdentifier,
    ResourceType,
    Software,
    SpatialResolution,
    TemporalResolution,
    Title,
    Variable,
    field_by_element,
    TAGGED,
    _Node,
    _INTEGER_LIMIT,
    _TOO_LONG,
    _too_long,
    scalar_key,
    scalar_to_text,
    scalar_type_name,
    schema,
)
from engmeta.paths import (
    MetadataPath,
    PathSegment,
    _as_path,
    append_nodes,
    get_path,
    parse_path,
    set_path,
)
from engmeta.validation import Finding, ValidationReport, load_codes


def leaf_paths(node, prefix: str = "") -> list[str]:
    """Every populated scalar leaf of a document, in schema order.

    Walks the schema table directly; the flattener keeps its own
    bookkeeping, so the two can be compared.
    """
    found: list[str] = []
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        path = f"{prefix}.{spec.element}" if prefix else spec.element
        if spec.kind == SCALAR:
            if value is not None:
                found.append(path)
        elif spec.kind == SCALAR_LIST:
            found.extend(f"{path}[{i}]" for i in range(len(value)))
        elif spec.kind == NODE:
            if value is not None:
                found.extend(leaf_paths(value, path))
        else:
            for i, item in enumerate(value):
                found.extend(leaf_paths(item, f"{path}[{i}]"))
    return found


def step_structural_paths(dataset) -> set[str]:
    """Leaves that flattening hands over to the PROV sidecar: per-step
    dates, actors and input/output linkage."""
    dropped: set[str] = set()
    for i, step in enumerate(dataset.processingSteps):
        prefix = f"processingStep[{i}]"
        if step.date is not None:
            dropped.add(f"{prefix}.date")
        if step.actor is not None:
            dropped.update(
                path for path in leaf_paths(step.actor, f"{prefix}.actor")
            )
        for element, refs in (("input", step.inputs), ("output", step.outputs)):
            for j, ref in enumerate(refs):
                dropped.update(leaf_paths(ref, f"{prefix}.{element}[{j}]"))
    return dropped


# --- Reference implementations of the fast paths ---------------------------
#
# Slow, obviously right versions of the key-based fast paths: deep
# field-by-field equality, and deduplication by scanning whole lists.
# Differential tests compare the library against them.

def scalars_equal(a, b) -> bool:
    """Strict scalar equality: same type tag and same value.

    Python would happily report ``300 == Decimal("300") == True-ish``
    comparisons as equal; serialization distinguishes the types, so
    conflict detection must as well.
    """
    return scalar_type_name(a) == scalar_type_name(b) and a == b


def nodes_equal(a, b) -> bool:
    """Deep, type-strict equality of two nodes, walked field by field."""
    if a.__class__ is not b.__class__:
        return False
    for spec in schema(type(a)):
        mine = getattr(a, spec.attr)
        theirs = getattr(b, spec.attr)
        if spec.kind == SCALAR:
            if mine is None or theirs is None:
                if mine is not theirs:
                    return False
            elif not scalars_equal(mine, theirs):
                return False
        elif spec.kind == SCALAR_LIST:
            if len(mine) != len(theirs) or not all(
                scalars_equal(x, y) for x, y in zip(mine, theirs)
            ):
                return False
        elif spec.kind == NODE:
            if mine is None or theirs is None:
                if mine is not theirs:
                    return False
            elif not nodes_equal(mine, theirs):
                return False
        elif len(mine) != len(theirs) or not all(
            nodes_equal(x, y) for x, y in zip(mine, theirs)
        ):
            return False
    return True


def check_scalar_by_isinstance(spec, value):
    """The field check as an isinstance ladder, bool tested apart from int.

    It refuses and accepts what ``model._check_scalar`` does, with the same
    errors, but stores an instance of a ``str``, ``int`` or ``Decimal``
    subclass as given, where the model stores the builtin value it holds.
    """
    if isinstance(value, str):
        if value == "":
            raise ValueError(f"{spec.attr}: empty strings are not valid values")
        for char in value:  # the first character XML 1.0 cannot carry, if any
            code = ord(char)
            if 0xD800 <= code <= 0xDFFF:
                raise ValueError(f"{spec.attr}: {value!r} holds a lone surrogate, not UTF-8 text")
            if code < 0x20 and char not in "\t\n\r" or code in (0xFFFE, 0xFFFF):
                raise ValueError(f"{spec.attr}: {value!r} holds U+{code:04X}, "
                                 "which XML cannot carry")
    if isinstance(value, Decimal):
        if not value.is_finite():
            raise ValueError(f"{spec.attr}: {value} is not a finite decimal")
        if _too_long(value):
            raise ValueError(f"{spec.attr}: the decimal {_TOO_LONG}")
    elif isinstance(value, int) and not isinstance(value, bool) and abs(value) >= _INTEGER_LIMIT:
        raise ValueError(f"{spec.attr}: the integer {_TOO_LONG}")
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
            return check_scalar_by_isinstance(spec, Decimal(value))
    elif expected is str:
        if isinstance(value, str):
            return value
    raise TypeError(
        f"{spec.attr}: expected {SCALAR_TYPE_NAMES[expected]}, got {type(value).__name__}"
    )


def _is_node(value) -> bool:
    return hasattr(type(value), "__dataclass_fields__")


def _already_in(items, item) -> bool:
    if _is_node(item):
        return any(nodes_equal(item, other) for other in items)
    return item in items  # scalar lists hold strings only


def renormalised(node):
    """The node rebuilt bottom-up through the normalising constructors."""
    values = {}
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        if spec.kind == NODE and value is not None:
            value = renormalised(value)
        elif spec.kind == NODE_LIST:
            value = tuple(renormalised(item) for item in value)
        values[spec.attr] = value
    return type(node)(**values)


def merge_by_list_scan(base, overlay, policy: str = "first-wins"):
    """merging.merge with every overlay entry looked up by a list scan."""
    conflicts: list[Conflict] = []
    return _merge_node(base, overlay, "", policy, conflicts), conflicts


def _merge_node(base, overlay, path: str, policy: str, conflicts: list):
    updates = {}
    for spec in schema(type(base)):
        left = getattr(base, spec.attr)
        right = getattr(overlay, spec.attr)
        field_path = f"{path}.{spec.element}" if path else spec.element
        if spec.kind == SCALAR:
            if left is None:
                merged = right
            elif right is None or scalars_equal(left, right):
                merged = left
            else:
                chosen = left if policy == "first-wins" else right
                conflicts.append(Conflict(field_path, left, right, chosen))
                merged = chosen
        elif spec.kind == NODE:
            if left is None:
                merged = right
            elif right is None:
                merged = left
            else:
                merged = _merge_node(left, right, field_path, policy, conflicts)
        else:
            extra = tuple(item for item in right if not _already_in(left, item))
            merged = left + extra if extra else left
        if merged is not left:
            updates[spec.attr] = merged
    if not updates:
        return base
    fields = {spec.attr: getattr(base, spec.attr) for spec in schema(type(base))}
    return type(base)(**(fields | updates))


class ListScanAssembly:
    """extract's assembly as it was before batching: hit by hit, deduplicating
    each append by scanning the stored list.

    Each group instance is built as an empty node plus one ``set_path`` per
    member and unit, and each list entry is appended on its own, deferred
    on its own while the list is unreachable.
    """

    def __init__(self, config):
        self.dataset = EngMetaDataset()
        self.conflicts: list = []
        self.failures: list = []
        self.warnings: list[str] = []
        self.deferred: list = []  # (describe, retry)
        self._steps: list[list] = []
        groups: dict[str, list] = {}
        for rule in config.rules:
            if rule.group is None:
                self._steps.append([rule])
            elif rule.group in groups:
                groups[rule.group].append(rule)
            else:
                groups[rule.group] = [rule]
                self._steps.append(groups[rule.group])

    def take_file(self, source_file: str, per_rule: dict) -> None:
        for members in self._steps:
            rule = members[0]
            if rule.shape.node_type is not None:
                self._take_group(members, source_file, per_rule)
                continue
            rule_hits = per_rule.get(rule.id)
            if not rule_hits:
                continue
            if rule.occurrence == "first":
                selected = [rule_hits[0]]
            elif rule.occurrence == "last":
                selected = [rule_hits[-1]]
            else:
                selected = rule_hits
            for hit in selected:
                value = self._coerced(rule, hit)
                if value is None:
                    continue
                if rule.shape.open_list is None:
                    self._attempt(
                        lambda rule=rule, hit=hit: (
                            f"rule {rule.id!r} ({hit.sourceFile}:{hit.lineNumber}): "
                            f"target {rule.target} not reachable"
                        ),
                        lambda rule=rule, value=value: self._apply_scalar(rule, value),
                    )
                else:
                    self._attempt(
                        lambda rule=rule: f"append to {rule.target} not reachable",
                        lambda rule=rule, value=value: self._append(rule.target, value),
                    )

    def _coerced(self, rule, hit):
        try:
            return coerce(hit.rawValue, rule.valueType)
        except CoercionError as exc:
            self.failures.append(
                CoercionFailure(rule.id, hit.sourceFile, hit.lineNumber, hit.rawValue, str(exc))
            )
            return None

    def _attempt(self, describe, write) -> None:
        if not write():
            self.deferred.append((describe, write))

    def _apply_scalar(self, rule, value) -> bool:
        existing = get_path(self.dataset, rule.target)
        if existing:
            if not scalars_equal(existing[0], value):
                self.conflicts.append(Conflict(str(rule.target), existing[0], value, existing[0]))
            return True
        try:
            self.dataset = set_path(self.dataset, rule.target, value)
        except PathIndexGapError:
            return False
        if rule.unit is not None:
            unit_path = MetadataPath(rule.target.segments[:-1] + (PathSegment("unit"),))
            if not get_path(self.dataset, unit_path):
                self.dataset = set_path(self.dataset, unit_path, rule.unit)
        return True

    def resolve_deferred(self) -> None:
        while self.deferred:
            remaining = [(d, retry) for d, retry in self.deferred if not retry()]
            progress = len(remaining) < len(self.deferred)
            self.deferred = remaining
            if not progress:
                break
        for describe, _ in self.deferred:
            self.warnings.append(f"{describe()}; hit skipped")
        self.deferred = []

    def _append(self, list_path: MetadataPath, item) -> bool:
        current = get_path(self.dataset, list_path)
        if not _is_node(item):
            if any(scalars_equal(entry, item) for entry in current):
                return True
            *parents, last = list_path.segments
            indexed = MetadataPath((*parents, PathSegment(last.name, len(current))))
            try:
                self.dataset = set_path(self.dataset, indexed, item)
            except PathIndexGapError:
                return False
            return True
        if _already_in(current, item):
            return True
        try:
            self.dataset = append_nodes(self.dataset, list_path, (item,))
        except PathIndexGapError:
            return False
        return True

    def _take_group(self, members: list, source_file: str, per_rule: dict) -> None:
        present = [r for r in members if per_rule.get(r.id)]
        if not present:
            return
        counts = {r.id: len(per_rule[r.id]) for r in present}
        instance_count = min(counts.values())
        if len(set(counts.values())) > 1:
            detail = ", ".join(f"{rid}={n}" for rid, n in sorted(counts.items()))
            self.warnings.append(
                f"group {present[0].group!r} in {source_file}: mismatched instance "
                f"counts ({detail}); surplus dropped"
            )
        first = present[0]
        list_path = MetadataPath(first.target.segments[: len(first.shape.open_list.segments)])
        in_node = {
            r.id: MetadataPath(r.target.segments[len(r.shape.open_list.segments):])
            for r in present
        }
        for instance in range(instance_count):
            node = first.shape.node_type()
            unit = None
            for rule in present:
                value = self._coerced(rule, per_rule[rule.id][instance])
                if value is not None:
                    node = set_path(node, in_node[rule.id], value)
                    unit = unit or rule.unit
            if node.is_empty():
                continue
            if unit is not None and node.unit is None:
                node = set_path(node, "unit", unit)
            self._attempt(
                lambda: f"append to {list_path} not reachable",
                lambda node=node: self._append(list_path, node),
            )


def assemble_by_list_scan(hits, config) -> ListScanAssembly:
    """extract.assemble driven by ListScanAssembly; returns the final state."""
    by_file: dict = {}
    for hit in hits:
        by_file.setdefault(hit.sourceFile, {}).setdefault(hit.ruleId, []).append(hit)
    for per_rule in by_file.values():
        for rule_hits in per_rule.values():
            rule_hits.sort(key=lambda h: h.lineNumber)
    state = ListScanAssembly(config)
    for source_file in sorted(by_file):
        state.take_file(source_file, by_file[source_file])
    state.resolve_deferred()
    return state


# --- Reference rule-file parser ------------------------------------------------

# ``extract.parse_config`` as it was while the parser checked a rule's
# delimiter, type, occurrence, key and source itself, at the field's own
# line, before the rule's constructor checked them again at the header
# line; the differential tests compare the configs and errors the two give.

_RULE_FIELD_NAMES = ("target", "source", "key", "delimiter", "type", "unit", "group", "occurrence")
_RULE_HEADER_RE = re.compile(r"\[rule\s+([^\s\]]+)\]")


def parse_config_by_field_checks(text: str) -> ExtractionConfig:
    """Reference for ``extract.parse_config``."""
    rules: list[ExtractionRule] = []
    seen_ids: dict[str, int] = {}

    current_id: str | None = None
    current_line = 0
    current_fields: dict[str, str] = {}
    field_lines: dict[str, int] = {}

    def finish() -> None:
        if current_id is None:
            return
        rules.append(_build_rule_by_field_checks(current_id, current_line, current_fields,
                                                 field_lines))

    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            match = _RULE_HEADER_RE.fullmatch(line)
            if match is None:
                raise ConfigError(f"bad rule header {line!r}; expected [rule <id>]", lineno)
            finish()
            rule_id = match.group(1)
            if rule_id in seen_ids:
                raise ConfigError(
                    f"duplicate rule id {rule_id!r} (first declared on line "
                    f"{seen_ids[rule_id]})",
                    lineno,
                )
            seen_ids[rule_id] = lineno
            current_id = rule_id
            current_line = lineno
            current_fields = {}
            field_lines = {}
            continue
        name, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"expected 'name = value', got {line!r}", lineno)
        name = name.strip()
        value = value.strip()
        if current_id is None:
            raise ConfigError("field line before any [rule ...] header", lineno)
        if name not in _RULE_FIELD_NAMES:
            raise ConfigError(
                f"unknown field {name!r}; expected one of: {', '.join(_RULE_FIELD_NAMES)}",
                lineno,
            )
        if name in current_fields:
            raise ConfigError(
                f"field {name!r} already set on line {field_lines[name]}", lineno
            )
        current_fields[name] = value
        field_lines[name] = lineno

    finish()
    return ExtractionConfig(tuple(rules))


def _check_rule_choice(rule_id: str, name: str, value: str, choices: tuple[str, ...],
                       line: int) -> None:
    if value not in choices:
        raise ConfigError(
            f"rule {rule_id!r}: bad {name} {value!r}; expected one of: {', '.join(choices)}",
            line,
        )


def _build_rule_by_field_checks(rule_id: str, header_line: int, fields: dict[str, str],
                                field_lines: dict[str, int]) -> ExtractionRule:
    for mandatory in ("target", "source", "key"):
        if mandatory not in fields:
            raise ConfigError(f"rule {rule_id!r}: missing mandatory field {mandatory!r}",
                              header_line)

    delimiter = fields.get("delimiter", "=")
    if delimiter == "":
        raise ConfigError(f"rule {rule_id!r}: delimiter must not be empty",
                          field_lines["delimiter"])

    value_type = fields.get("type", "string")
    _check_rule_choice(rule_id, "type", value_type, VALUE_TYPES,
                       field_lines.get("type", header_line))
    occurrence = fields.get("occurrence", "first")
    _check_rule_choice(rule_id, "occurrence", occurrence, OCCURRENCES,
                       field_lines.get("occurrence", header_line))

    if fields["key"] == "":
        raise ConfigError(f"rule {rule_id!r}: key must not be empty", field_lines["key"])
    if fields["source"] == "":
        raise ConfigError(f"rule {rule_id!r}: source must not be empty", field_lines["source"])

    try:
        target = parse_path(fields["target"])
    except PathError as exc:
        raise ConfigError(f"rule {rule_id!r}: bad target: {exc}", field_lines["target"]) from None

    return ExtractionRule(
        id=rule_id,
        target=target,
        source=fields["source"],
        key=fields["key"],
        delimiter=delimiter,
        valueType=value_type,
        unit=fields.get("unit") or None,
        group=fields.get("group") or None,
        occurrence=occurrence,
        line=header_line,
    )


# what XML 1.0 cannot carry but the surrogates, which no decoded file holds
_NOT_XML = frozenset(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))


def scan_file_whole(absolute_path: Path, relative_path: str, rules: list):
    """Reference for ``extract.scan_file``: the whole file read and decoded at
    once, split into lines, and every line matched against every rule."""
    try:
        data = absolute_path.read_bytes()
    except OSError as exc:
        return [], 0, [f"{relative_path}: unreadable, skipped ({exc})"]
    warnings: list[str] = []
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = data.decode("utf-8", errors="replace")
        warnings.append(
            f"{relative_path}: not valid UTF-8 from byte {exc.start}; "
            "undecodable bytes replaced"
        )
    hits: list[RawHit] = []
    uncarried: list[int] = []  # the lines of raw values with characters XML cannot carry
    # a leading byte-order mark is not part of line 1
    for line_number, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = line.rstrip("\r")
        for rule in rules:
            hit = parse_line(line, rule, source_file=relative_path, line_number=line_number)
            if hit is not None:
                value = "".join("\ufffd" if char in _NOT_XML else char for char in hit.rawValue)
                if value != hit.rawValue:
                    uncarried.append(line_number)
                hits.append(hit._replace(rawValue=value))
    if uncarried:
        warnings.append(f"{relative_path}: line {uncarried[0]} holds characters XML "
                        "cannot carry; replaced with U+FFFD")
    return hits, len(data), warnings


def walk_files_by_os_walk(root: Path, on_unreadable=None) -> list[tuple[str, Path]]:
    """Reference for ``fswalk.walk_files``: ``os.walk`` plus a stat per check."""

    def report(error: OSError) -> None:
        if on_unreadable is not None:
            where = Path(error.filename or root).relative_to(root).as_posix()
            on_unreadable(where, error)

    entries: list[tuple[str, Path]] = []
    for dirpath, _, filenames in os.walk(root, onerror=report, followlinks=False):
        for filename in filenames:
            path = Path(dirpath) / filename
            if path.is_symlink() or not path.is_file():
                continue
            entries.append((path.relative_to(root).as_posix(), path))
    entries.sort(key=lambda entry: entry[0])
    return entries


# --- Reference decoders --------------------------------------------------------

# canon's readers as they were before the trusted decode and the per-class
# XML plan: every node is built through its checking constructor, which
# normalizes each field again and collapses empty child nodes, and each XML
# name is resolved through the two helpers below. The scalar decoding and
# the warnings are canon's own; the differential tests compare the nodes,
# warnings and errors the two give.

def _local_name(tag: str) -> str | None:
    """Strip the namespace; foreign namespaces make the element unknown."""
    if not tag.startswith("{"):
        return tag
    uri, _, local = tag[1:].partition("}")
    if uri == canon.ENGMETA_NAMESPACE:
        return local
    return None


def content_field(cls: type):
    """The field ``cls`` carries as XML text content, if it has one."""
    return next((spec for spec in schema(cls) if spec.placement == CONTENT), None)


def from_xml_checked(text: str) -> canon.ReadResult:
    root = ElementTree.fromstring(text)
    warnings: list[str] = []
    dataset = _decode_element_checked(root, EngMetaDataset, "", warnings)
    return canon.ReadResult(dataset, tuple(warnings))


def _decode_element_checked(element, cls: type, path: str, warnings: list[str]):
    kwargs: dict[str, object] = {}
    lists: dict[str, list] = {}
    label = path or "engMeta"

    for name, raw in element.attrib.items():
        spec = field_by_element(cls, name)
        if spec is None or spec.placement != ATTRIBUTE:
            warnings.append(f"{label}: unknown attribute {name!r} skipped")
            continue
        if raw == "":
            warnings.append(f"{label}: empty attribute {name!r} treated as absent")
            continue
        kwargs[spec.attr] = canon._scalar_from_text(raw, spec.value_type, f"{label}.{name}")

    content_spec = content_field(cls)
    text = element.text or ""
    if content_spec is not None:
        if text != "":
            kwargs[content_spec.attr] = canon._scalar_from_text(
                text, content_spec.value_type, f"{label}.{content_spec.element}"
            )
    elif text.strip():
        warnings.append(f"{label}: stray text {text.strip()!r} skipped")

    counters: dict[str, int] = {}
    for child in element:
        if child.tail and child.tail.strip():
            warnings.append(f"{label}: stray text {child.tail.strip()!r} skipped")
        name = _local_name(child.tag)
        spec = field_by_element(cls, name) if name is not None else None
        if spec is None or spec.placement != CHILD:
            shown = name if name is not None else child.tag
            warnings.append(f"{label}: unknown element <{shown}> skipped")
            continue
        index = counters.get(spec.element, 0)
        counters[spec.element] = index + 1
        child_path = f"{path}.{spec.element}" if path else spec.element
        if spec.kind in (SCALAR_LIST, NODE_LIST):
            child_path = f"{child_path}[{index}]"
        elif index > 0:
            warnings.append(f"{label}: repeated element <{spec.element}> skipped")
            continue
        if spec.kind in (SCALAR, SCALAR_LIST):
            value = canon._decode_scalar_child(child, spec, child_path, warnings)
            if value is None:
                continue
        else:
            value = _decode_element_checked(child, spec.value_type, child_path, warnings)
        if spec.kind in (SCALAR, NODE):
            kwargs[spec.attr] = value
        else:
            lists.setdefault(spec.attr, []).append(value)

    for attr, items in lists.items():
        kwargs[attr] = tuple(items)
    return cls(**kwargs)


def _scalar_checked(raw, spec, path: str, warnings: list[str], warn_repeats):
    """canon._scalar_from_json, after the repeated keys of a tagged value's object."""
    if spec.value_type is TAGGED and isinstance(raw, dict):
        warn_repeats(raw, path)
    return canon._scalar_from_json(raw, spec, path, warnings)


def from_json_checked(text: str) -> canon.ReadResult:
    """canon.from_json through the checked constructors. A repeated key keeps its
    first value, with a warning when its object is decoded, as the XML reader
    keeps the first of a repeated element."""
    warnings: list[str] = []
    repeats: dict[int, list[str]] = {}  # id of a parsed object -> the keys it repeats
    parsed: list[dict] = []  # every object, even a skipped value, stays alive: ids stay unique

    def first_values(pairs):
        obj: dict = {}
        parsed.append(obj)
        for key, value in pairs:
            if key in obj:
                repeats.setdefault(id(obj), []).append(key)
            else:
                obj[key] = value
        return obj

    def warn_repeats(obj, label: str) -> None:
        warnings.extend(f"{label}: repeated key {key!r} skipped" for key in repeats.get(id(obj), ()))

    dataset = _decode_obj_checked(json.loads(text, object_pairs_hook=first_values),
                                  EngMetaDataset, "", warnings, warn_repeats)
    return canon.ReadResult(dataset, tuple(warnings))


def _decode_obj_checked(obj: dict, cls: type, path: str, warnings: list[str], warn_repeats):
    kwargs: dict[str, object] = {}
    label = path or "engMeta"
    warn_repeats(obj, label)
    for key, raw in obj.items():
        spec = field_by_element(cls, key)
        if spec is None:
            warnings.append(f"{label}: unknown key {key!r} skipped")
            continue
        key_path = f"{path}.{key}" if path else key
        if spec.kind == SCALAR:
            value = _scalar_checked(raw, spec, key_path, warnings, warn_repeats)
            if value is not None:
                kwargs[spec.attr] = value
        elif spec.kind == SCALAR_LIST:
            values = [
                _scalar_checked(item, spec, f"{key_path}[{i}]", warnings, warn_repeats)
                for i, item in enumerate(canon._expect(raw, list, key_path))
            ]
            kwargs[spec.attr] = tuple(value for value in values if value is not None)
        elif spec.kind == NODE:
            kwargs[spec.attr] = _decode_obj_checked(
                canon._expect(raw, dict, key_path), spec.value_type, key_path, warnings,
                warn_repeats,
            )
        else:
            kwargs[spec.attr] = tuple(
                _decode_obj_checked(canon._expect(item, dict, f"{key_path}[{i}]"),
                                    spec.value_type, f"{key_path}[{i}]", warnings, warn_repeats)
                for i, item in enumerate(canon._expect(raw, list, key_path))
            )
    return cls(**kwargs)


# --- Reference XML writer ------------------------------------------------------
#
# canon.to_xml as it was before the per-class tag templates: each child is
# dispatched on its field kind, every scalar goes through ``scalar_to_text``
# and every text through its escape, and the tags are formatted per element.
# It runs canon's structural gate as the writer does; the differential tests
# compare the bytes the two write, and the message of the error they raise.

def _escape_text(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _escape_attribute(text: str) -> str:
    return (
        _escape_text(text)
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


def to_xml_by_kind_dispatch(dataset: EngMetaDataset) -> str:
    canon._require_valid(dataset)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    _write_element(lines, "engMeta", dataset, 0)
    return "\n".join(lines) + "\n"


def _write_element(lines: list[str], tag: str, node, depth: int) -> None:
    pad = "  " * depth
    specs = schema(type(node))
    attr_text = ""
    for spec in specs:
        value = getattr(node, spec.attr)
        if spec.placement == ATTRIBUTE and value is not None:
            attr_text += f' {spec.element}="{_escape_attribute(scalar_to_text(value))}"'
    content = content_field(type(node))
    text = None if content is None else getattr(node, content.attr)
    if text is not None:
        lines.append(f"{pad}<{tag}{attr_text}>{_escape_text(scalar_to_text(text))}</{tag}>")
        return

    lines.append(f"{pad}<{tag}{attr_text}>")
    opened = len(lines)
    for spec in specs:
        value = getattr(node, spec.attr)
        if spec.placement != CHILD or value is None or value == ():
            continue
        if spec.kind == SCALAR:
            _write_scalar_element(lines, spec, value, depth + 1)
        elif spec.kind == SCALAR_LIST:
            for item in value:
                _write_scalar_element(lines, spec, item, depth + 1)
        elif spec.kind == NODE:
            _write_element(lines, spec.element, value, depth + 1)
        else:
            for item in value:
                _write_element(lines, spec.element, item, depth + 1)
    if len(lines) == opened:  # nothing inside: close the element where it opens
        lines[-1] = f"{pad}<{tag}{attr_text}/>"
    else:
        lines.append(f"{pad}</{tag}>")


def _write_scalar_element(lines: list[str], spec, value, depth: int) -> None:
    pad = "  " * depth
    attr_text = ""
    if spec.value_type is TAGGED:
        type_name = scalar_type_name(value)
        if type_name != "string":
            attr_text = f' type="{type_name}"'
    lines.append(
        f"{pad}<{spec.element}{attr_text}>{_escape_text(scalar_to_text(value))}</{spec.element}>"
    )


# --- Reference harvest -----------------------------------------------------------

def harvest_checked(root_dir, algorithm: str = "SHA-256") -> HarvestResult:
    """harvest.harvest as it was before the trusted listing: each file's whole
    bytes hashed at once, the nodes built through their checking constructors,
    and the type read from ``PurePath.suffix``."""
    root = Path(root_dir)
    files: list[FileInfo] = []
    errors: list[HarvestError] = []

    def unreadable_directory(relative_path: str, exc: OSError) -> None:
        errors.append(HarvestError(relative_path, f"unreadable directory: {exc}"))

    for relative_path, absolute_path in walk_files(root, unreadable_directory):
        if re.search("[\ud800-\udfff]", relative_path):
            raw_name = os.fsencode(relative_path)
            relative_path = raw_name.decode("utf-8", "replace")
            errors.append(HarvestError(relative_path, f"file name {raw_name!r} is not UTF-8; "
                                       "listed with U+FFFD for its undecodable bytes"))
        try:
            data = absolute_path.read_bytes()
            size = len(data)
            checksum = Checksum(hashlib.new(algorithm.replace("-", "").lower(), data).hexdigest(),
                                algorithm)
        except OSError as read_error:
            try:
                size = absolute_path.stat().st_size
            except OSError as exc:
                errors.append(HarvestError(relative_path, f"stat failed: {exc}"))
                continue
            checksum = None
            errors.append(HarvestError(relative_path, f"unreadable: {read_error}"))
        suffix = Path(relative_path).suffix
        files.append(FileInfo(filename=relative_path, checksum=checksum, sizeBytes=size,
                              fileType=suffix[1:].lower() if len(suffix) > 1 else None))
    return HarvestResult(algorithm, tuple(files), tuple(errors))


# --- Reference validation ----------------------------------------------------
#
# validation.validate as it was written before the field rules: one
# hand-written check per node class, a table of URI fields, and the
# blank-string sweep. The library derives its checks from the rules
# declared on the model's fields; the differential test compares the two
# finding for finding.

_HEX_RE = re.compile(r"[0-9a-f]+")
_URI_FIELDS = {
    Software: ("url", "softwareSourceCode", "softwareApplication", "codeRepository"),
    FileInfo: ("link",),
    FileRef: ("link",),
}


def validate_by_class_checks(dataset, profile: str = "structural") -> ValidationReport:
    """validation.validate as hand-written per-class checks, before field rules."""
    findings: list[Finding] = []

    def error(path: str, message: str) -> None:
        findings.append(Finding("error", path, message))

    def warning(path: str, message: str) -> None:
        findings.append(Finding("warning", path, message))

    for node, path in _walk_nodes(dataset, ""):
        _check_blank_strings(node, path, error)
        _check_uris(node, path, error)
        check = _NODE_CHECKS.get(type(node))
        if check is not None:
            check(node, path, error, warning)

    if profile == "citable":
        if not dataset.titles:
            error("title", "citable records need at least one title")
        if not dataset.descriptions:
            error("description", "citable records need at least one description")
        if not dataset.dates:
            error("date", "citable records need at least one date")
        if not any(p.role == "author" for p in dataset.persons):
            error("person", "citable records need at least one person with role 'author'")

    return ValidationReport(profile, tuple(findings))


def _walk_nodes(node, path: str):
    yield node, path
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        prefix = f"{path}.{spec.element}" if path else spec.element
        if spec.kind == NODE and value is not None:
            yield from _walk_nodes(value, prefix)
        elif spec.kind == NODE_LIST:
            for i, item in enumerate(value):
                yield from _walk_nodes(item, f"{prefix}[{i}]")


def _field_path(path: str, element: str) -> str:
    return f"{path}.{element}" if path else element


def _check_blank_strings(node, path, error) -> None:
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        if spec.kind == SCALAR and isinstance(value, str) and not value.strip():
            error(_field_path(path, spec.element), "must not be blank")
        elif spec.kind == SCALAR_LIST:
            for i, item in enumerate(value):
                if isinstance(item, str) and not item.strip():
                    error(f"{_field_path(path, spec.element)}[{i}]", "must not be blank")


def _is_uri_reference(text: str) -> bool:
    return bool(text) and not any(ch.isspace() or ord(ch) < 0x20 for ch in text)


def _check_uris(node, path, error) -> None:
    for attr in _URI_FIELDS.get(type(node), ()):
        value = getattr(node, attr)
        if value is not None and not _is_uri_reference(value):
            error(_field_path(path, attr), "not a valid URI reference")


def _check_membership(value, list_name, path, report) -> None:
    if value is not None and value not in load_codes()[list_name]:
        report(path, f"{value!r} is not in the {list_name} code list")


def _check_title(node: Title, path, error, warning) -> None:
    _check_membership(node.titleType, "titleTypes", _field_path(path, "titleType"), error)


def _check_description(node: Description, path, error, warning) -> None:
    _check_membership(
        node.descriptionType, "descriptionTypes", _field_path(path, "descriptionType"), warning
    )


def _check_dated_event(node: DatedEvent, path, error, warning) -> None:
    if node.date is not None and not is_iso_date_or_datetime(node.date):
        error(_field_path(path, "date"), f"{node.date!r} is not an ISO-8601 date or date-time")
    _check_membership(node.dateType, "dateTypes", _field_path(path, "dateType"), warning)


def _check_person(node: PersonOrOrganization, path, error, warning) -> None:
    _check_membership(node.role, "roles", _field_path(path, "role"), error)


def _check_funding(node: FundingReference, path, error, warning) -> None:
    _check_membership(
        node.funderIdentifierType,
        "funderIdentifierTypes",
        _field_path(path, "funderIdentifierType"),
        warning,
    )


def _check_related_identifier(node: RelatedIdentifier, path, error, warning) -> None:
    if node.identifier is None:
        error(_field_path(path, "identifier"), "related identifier needs an identifier")
    if node.relatedIdentifierType is None:
        error(_field_path(path, "relatedIdentifierType"), "type code is required")
    else:
        _check_membership(
            node.relatedIdentifierType,
            "relatedIdentifierTypes",
            _field_path(path, "relatedIdentifierType"),
            warning,
        )
    if node.relationType is None:
        error(_field_path(path, "relationType"), "relation type code is required")
    else:
        _check_membership(
            node.relationType, "relationTypes", _field_path(path, "relationType"), warning
        )


def _check_resource_type(node: ResourceType, path, error, warning) -> None:
    _check_membership(
        node.resourceTypeGeneral, "resourceTypes", _field_path(path, "resourceTypeGeneral"), warning
    )


def _check_pid(node: PersistentIdentifier, path, error, warning) -> None:
    if node.value is None:
        error(_field_path(path, "value"), "persistent identifier needs a value")
    if node.scheme is None:
        error(_field_path(path, "scheme"), "persistent identifier needs a scheme")


def _check_checksum(node: Checksum, path, error, warning) -> None:
    if node.algorithm is None:
        error(_field_path(path, "algorithm"), "checksum needs an algorithm")
        return
    expected_length = CHECKSUM_ALGORITHMS.get(node.algorithm)
    if expected_length is None:
        allowed = ", ".join(sorted(CHECKSUM_ALGORITHMS))
        error(_field_path(path, "algorithm"), f"{node.algorithm!r} is not one of: {allowed}")
        return
    if node.digest is None:
        error(_field_path(path, "digest"), "checksum needs a digest")
        return
    if not _HEX_RE.fullmatch(node.digest):
        error(_field_path(path, "digest"), "digest must be lowercase hex")
    elif len(node.digest) != expected_length:
        error(
            _field_path(path, "digest"),
            f"{node.algorithm} digests have {expected_length} hex chars, "
            f"got {len(node.digest)}",
        )


def _check_file_info(node: FileInfo, path, error, warning) -> None:
    if node.sizeBytes is not None and node.sizeBytes < 0:
        error(_field_path(path, "sizeBytes"), "must be >= 0")


def _check_variable(node: Variable, path, error, warning) -> None:
    if node.uncertainty is not None:
        if not isinstance(node.value, (int, Decimal)) or isinstance(node.value, bool):
            error(
                _field_path(path, "uncertainty"),
                "uncertainty needs a numeric value to qualify",
            )
        if node.uncertainty < 0:
            error(_field_path(path, "uncertainty"), "must be >= 0")


def _check_temporal(node: TemporalResolution, path, error, warning) -> None:
    if node.numberOfTimesteps is not None and node.numberOfTimesteps < 0:
        error(_field_path(path, "numberOfTimesteps"), "must be >= 0")
    if node.interval is not None and node.interval <= 0:
        error(_field_path(path, "interval"), "must be > 0")


def _check_spatial(node: SpatialResolution, path, error, warning) -> None:
    if node.numberOfCells is not None and node.numberOfCells < 0:
        error(_field_path(path, "numberOfCells"), "must be >= 0")


def _check_environment(node: Environment, path, error, warning) -> None:
    for attr in ("nodes", "coresPerNode", "totalCores"):
        value = getattr(node, attr)
        if value is not None and value <= 0:
            error(_field_path(path, attr), "must be > 0")


def _check_step(node: ProcessingStep, path, error, warning) -> None:
    if node.stepType is not None and node.stepType not in STEP_TYPES:
        allowed = ", ".join(STEP_TYPES)
        error(_field_path(path, "stepType"), f"{node.stepType!r} is not one of: {allowed}")
    if node.date is not None and not is_iso_date_or_datetime(node.date):
        error(_field_path(path, "date"), f"{node.date!r} is not an ISO-8601 date or date-time")


def _check_system(node: ObservedSystem, path, error, warning) -> None:
    for attr in ("controlledVariables", "measuredVariables", "parameters"):
        seen: dict[str, int] = {}
        for i, variable in enumerate(getattr(node, attr)):
            if variable.name is None:
                continue
            if variable.name in seen:
                error(
                    f"{_field_path(path, attr)}[{i}].name",
                    f"duplicate variable name {variable.name!r} "
                    f"(first at index {seen[variable.name]})",
                )
            else:
                seen[variable.name] = i


_NODE_CHECKS = {
    Title: _check_title,
    Description: _check_description,
    DatedEvent: _check_dated_event,
    PersonOrOrganization: _check_person,
    FundingReference: _check_funding,
    RelatedIdentifier: _check_related_identifier,
    ResourceType: _check_resource_type,
    PersistentIdentifier: _check_pid,
    Checksum: _check_checksum,
    FileInfo: _check_file_info,
    Variable: _check_variable,
    TemporalResolution: _check_temporal,
    SpatialResolution: _check_spatial,
    Environment: _check_environment,
    ProcessingStep: _check_step,
    ObservedSystem: _check_system,
}


# --- Reference crosswalk ----------------------------------------------------
#
# The repository-block crosswalk as one hand-written fill function per
# block, claiming every field by name. ``flatten`` derives the same mapping
# from the schema; the differential tests compare their outputs byte for byte.

class _BlockBuilder:
    """Collects fields for one block and records the source of every leaf."""

    def __init__(self, block_name: str, report: "_ReportBuilder"):
        self.block_name = block_name
        self.report = report
        self._primitives: dict[str, list] = {}
        self._single_primitives: dict[str, object] = {}
        self._compounds: dict[str, list[dict]] = {}
        self._single_compounds: dict[str, dict] = {}
        self._deduplicated: set[str] = set()  # multi-primitive fields without repeats
        self._order: dict[tuple[str, str], None] = {}  # (typeName, shape), first use order

    def _note_order(self, type_name: str, shape: str) -> None:
        self._order.setdefault((type_name, shape))

    def claim(self, type_name: str, path: str, value):
        if value is not None:
            self.report.mapped(path, f"{self.block_name}.{type_name}")
        return value

    def primitive(self, type_name: str, path: str, value) -> None:
        if value is None:
            return
        self.claim(type_name, path, value)
        self._single_primitives[type_name] = value
        self._note_order(type_name, "single-primitive")

    def primitive_entry(self, type_name: str, path: str, value, *, dedup: bool = False) -> None:
        if value is None:
            return
        self.claim(type_name, path, value)
        self._primitives.setdefault(type_name, []).append(value)
        if dedup:
            self._deduplicated.add(type_name)
        self._note_order(type_name, "multi-primitive")

    def compound_entry(self, type_name: str, submap: dict) -> None:
        """Add one compound instance; exact duplicates collapse in build()."""
        cleaned = {key: value for key, value in submap.items() if value is not None}
        if not cleaned:
            return
        self._compounds.setdefault(type_name, []).append(cleaned)
        self._note_order(type_name, "multi-compound")

    def single_compound(self, type_name: str, submap: dict) -> None:
        cleaned = {key: value for key, value in submap.items() if value is not None}
        if not cleaned:
            return
        self._single_compounds[type_name] = cleaned
        self._note_order(type_name, "single-compound")

    def build(self) -> MetadataBlock:
        fields = []
        for type_name, shape in self._order:
            if shape == "single-primitive":
                fields.append(BlockField(type_name, False, "primitive", self._single_primitives[type_name]))
            elif shape == "multi-primitive":
                values = self._primitives[type_name]
                if type_name in self._deduplicated:
                    values = _unique(values, scalar_key)
                fields.append(BlockField(type_name, True, "primitive", list(values)))
            elif shape == "single-compound":
                fields.append(BlockField(type_name, False, "compound", self._single_compounds[type_name]))
            else:
                fields.append(BlockField(type_name, True, "compound", _unique(self._compounds[type_name], _compound_key)))
        return MetadataBlock(self.block_name, tuple(fields))


def _unique(entries: list, key) -> list:
    """The entries in order, dropping exact duplicates of earlier ones.

    Duplicates are judged type-strictly through ``key``: ``True`` and ``1``
    (or ``300`` and ``Decimal(300)``) serialize differently, so both are
    kept. Keys are built once all entries exist and freed on return, rather
    than held for the whole flattening.
    """
    seen = set()
    kept = []
    for entry in entries:
        entry_key = key(entry)
        if entry_key not in seen:
            seen.add(entry_key)
            kept.append(entry)
    return kept


def _compound_key(submap: dict) -> tuple:
    return tuple(sorted((name, scalar_key(value)) for name, value in submap.items()))


class _ReportBuilder:
    def __init__(self) -> None:
        self._mapped: list[MappedPath] = []
        self._dropped: list[DroppedPath] = []

    def mapped(self, path: str, field: str) -> None:
        self._mapped.append(MappedPath(path, field))

    def dropped(self, path: str, value) -> None:
        if value is not None:
            self._dropped.append(DroppedPath(path, DROP_REASON))

    def build(self) -> FlattenReport:
        return FlattenReport(tuple(self._mapped), tuple(self._dropped))


# The JSON writers as they were before the templates: one dict per node, or
# per block field, compound entry and report entry, handed to ``json.dumps``.
# ``canon.to_json`` and ``serialize_blocks_json`` write the same bytes from
# the schema and from the blocks' fixed shapes.

def _scalar_to_json(spec, value):
    if spec.value_type is TAGGED:
        return {"type": scalar_type_name(value), "text": scalar_to_text(value)}
    if spec.value_type is Decimal:
        return scalar_to_text(value)
    return value


def node_to_obj(node) -> dict:
    """The documented JSON object of a node: ``canon.to_json`` writes ``json.dumps`` of it."""
    obj: dict[str, object] = {}
    for spec in schema(type(node)):
        value = getattr(node, spec.attr)
        if value is None or value == ():
            continue
        if spec.kind == SCALAR:
            obj[spec.element] = _scalar_to_json(spec, value)
        elif spec.kind == SCALAR_LIST:
            obj[spec.element] = [_scalar_to_json(spec, item) for item in value]
        elif spec.kind == NODE:
            obj[spec.element] = node_to_obj(value)
        else:
            obj[spec.element] = [node_to_obj(item) for item in value]
    return obj


def _primitive_to_json(value):
    if isinstance(value, Decimal):
        return scalar_to_text(value)
    if isinstance(value, (bool, int, str)):
        return value
    raise FlattenStructureError(
        f"compound fields may contain only primitive sub-fields, got {type(value).__name__}"
    )


def _compound_to_json(submap) -> dict:
    if not isinstance(submap, dict):
        raise FlattenStructureError("compound values must be maps of sub-fields")
    return {key: _primitive_to_json(item) for key, item in submap.items()}


_RENDER = {"primitive": _primitive_to_json, "compound": _compound_to_json}


def _field_to_obj(field: BlockField) -> dict:
    try:
        render = _RENDER[field.typeClass]
    except (KeyError, TypeError):  # TypeError: an unhashable typeClass
        raise FlattenStructureError(f"unknown typeClass {field.typeClass!r}") from None
    value = [render(entry) for entry in field.value] if field.multiple else render(field.value)
    return {
        "typeName": field.typeName,
        "multiple": field.multiple,
        "typeClass": field.typeClass,
        "value": value,
    }


def serialize_blocks_json_by_dicts(blocks: list[MetadataBlock], report: FlattenReport) -> str:
    """``flatten.serialize_blocks_json`` as dicts handed to ``json.dumps``."""
    obj: dict[str, object] = {}
    for block in blocks:
        if block.blockName not in BLOCK_NAMES:
            raise FlattenStructureError(f"unknown block name {block.blockName!r}")
        obj[block.blockName] = [_field_to_obj(field) for field in block.fields]
    obj["_flattenReport"] = {
        "mapped": [{"path": m.path, "field": m.field} for m in report.mappedPaths],
        "dropped": [{"path": d.path, "reason": d.reason} for d in report.droppedPaths],
    }
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def flatten_by_fill_functions(dataset: EngMetaDataset) -> tuple[list[MetadataBlock], FlattenReport]:
    """The blocks and report ``flatten`` gives, from one hand-written fill function per block."""
    report = _ReportBuilder()
    citation = _BlockBuilder("citation", report)
    process = _BlockBuilder("process", report)
    discipline = _BlockBuilder("engMeta", report)

    _fill_citation(dataset, citation)
    _fill_process(dataset, process, report)
    _fill_discipline(dataset, discipline)

    blocks = [citation.build(), process.build(), discipline.build()]
    return blocks, report.build()


def _person_submap(block: _BlockBuilder, type_name: str, path: str,
                   person: PersonOrOrganization, extra: dict | None = None) -> dict:
    submap = dict(extra or {})
    submap["name"] = block.claim(type_name, f"{path}.name", person.name)
    if person.identifier is not None:
        submap["identifierValue"] = block.claim(
            type_name, f"{path}.identifier.value", person.identifier.value
        )
        submap["identifierScheme"] = block.claim(
            type_name, f"{path}.identifier.scheme", person.identifier.scheme
        )
    submap["affiliation"] = block.claim(type_name, f"{path}.affiliation", person.affiliation)
    submap["role"] = block.claim(type_name, f"{path}.role", person.role)
    return submap


def _variable_submap(block: _BlockBuilder, type_name: str, path: str,
                     variable: Variable, extra: dict | None = None) -> dict:
    submap = dict(extra or {})
    submap["name"] = block.claim(type_name, f"{path}.name", variable.name)
    submap["value"] = block.claim(type_name, f"{path}.value", variable.value)
    submap["unit"] = block.claim(type_name, f"{path}.unit", variable.unit)
    submap["uncertainty"] = block.claim(type_name, f"{path}.uncertainty", variable.uncertainty)
    submap["symbol"] = block.claim(type_name, f"{path}.symbol", variable.symbol)
    return submap


def _fill_citation(ds: EngMetaDataset, block: _BlockBuilder) -> None:
    for i, title in enumerate(ds.titles):
        block.compound_entry("title", {
            "text": block.claim("title", f"title[{i}].text", title.text),
            "titleType": block.claim("title", f"title[{i}].titleType", title.titleType),
        })
    for i, description in enumerate(ds.descriptions):
        block.compound_entry("description", {
            "text": block.claim("description", f"description[{i}].text", description.text),
            "descriptionType": block.claim(
                "description", f"description[{i}].descriptionType", description.descriptionType
            ),
        })
    for i, date in enumerate(ds.dates):
        block.compound_entry("date", {
            "date": block.claim("date", f"date[{i}].date", date.date),
            "dateType": block.claim("date", f"date[{i}].dateType", date.dateType),
        })
    for i, keyword in enumerate(ds.keywords):
        block.primitive_entry("keyword", f"keyword[{i}]", keyword)
    for i, subject in enumerate(ds.subject):
        block.primitive_entry("subject", f"subject[{i}]", subject)
    for i, person in enumerate(ds.persons):
        block.compound_entry("person", _person_submap(block, "person", f"person[{i}]", person))
    for i, funding in enumerate(ds.fundingReferences):
        prefix = f"fundingReference[{i}]"
        block.compound_entry("fundingReference", {
            "funderName": block.claim("fundingReference", f"{prefix}.funderName", funding.funderName),
            "awardNumber": block.claim("fundingReference", f"{prefix}.awardNumber", funding.awardNumber),
            "funderIdentifierType": block.claim(
                "fundingReference", f"{prefix}.funderIdentifierType", funding.funderIdentifierType
            ),
        })
    block.primitive("project", "project", ds.project)
    for i, related in enumerate(ds.context):
        prefix = f"context[{i}]"
        block.compound_entry("context", {
            "identifier": block.claim("context", f"{prefix}.identifier", related.identifier),
            "relatedIdentifierType": block.claim(
                "context", f"{prefix}.relatedIdentifierType", related.relatedIdentifierType
            ),
            "relationType": block.claim("context", f"{prefix}.relationType", related.relationType),
        })
    if ds.resourceType is not None:
        block.single_compound("resourceType", {
            "text": block.claim("resourceType", "resourceType.text", ds.resourceType.text),
            "resourceTypeGeneral": block.claim(
                "resourceType", "resourceType.resourceTypeGeneral", ds.resourceType.resourceTypeGeneral
            ),
        })
    if ds.rightsStatement is not None:
        block.single_compound("rightsStatement", {
            "license": block.claim("rightsStatement", "rightsStatement.license", ds.rightsStatement.license),
            "accessConditions": block.claim(
                "rightsStatement", "rightsStatement.accessConditions", ds.rightsStatement.accessConditions
            ),
        })
    if ds.worked is not None:
        block.primitive("success", "worked.success", ds.worked.success)
        block.primitive("successNote", "worked.note", ds.worked.note)
    if ds.pid is not None:
        block.single_compound("pid", {
            "value": block.claim("pid", "pid.value", ds.pid.value),
            "scheme": block.claim("pid", "pid.scheme", ds.pid.scheme),
        })
    for i, info in enumerate(ds.files):
        prefix = f"file[{i}]"
        submap = {
            "filename": block.claim("file", f"{prefix}.filename", info.filename),
            "link": block.claim("file", f"{prefix}.link", info.link),
            "sizeBytes": block.claim("file", f"{prefix}.sizeBytes", info.sizeBytes),
            "fileType": block.claim("file", f"{prefix}.fileType", info.fileType),
        }
        if info.pid is not None:
            submap["pidValue"] = block.claim("file", f"{prefix}.pid.value", info.pid.value)
            submap["pidScheme"] = block.claim("file", f"{prefix}.pid.scheme", info.pid.scheme)
        if info.checksum is not None:
            submap["checksumAlgorithm"] = block.claim(
                "file", f"{prefix}.checksum.algorithm", info.checksum.algorithm
            )
            submap["checksumDigest"] = block.claim(
                "file", f"{prefix}.checksum.digest", info.checksum.digest
            )
        block.compound_entry("file", submap)
    block.primitive("storage", "storage", ds.storage)
    block.primitive("format", "format", ds.format)


def _software_submap(block: _BlockBuilder, path: str, software: Software) -> dict:
    scalars = (
        "name", "softwareVersion", "programmingLanguage", "operatingSystem", "url",
        "softwareSourceCode", "softwareApplication", "codeRepository", "citation",
        "referencePublication",
    )
    submap = {
        attr: block.claim("software", f"{path}.{attr}", getattr(software, attr))
        for attr in scalars
    }
    if software.license is not None:
        submap["license"] = block.claim("software", f"{path}.license.license", software.license.license)
        submap["accessConditions"] = block.claim(
            "software", f"{path}.license.accessConditions", software.license.accessConditions
        )
    return submap


def _method_entries(block: _BlockBuilder, path: str, method: Method, family: str) -> None:
    block.compound_entry(family, {
        "name": block.claim(family, f"{path}.name", method.name),
    })
    parameter_family = f"{family}Parameter"
    for j, parameter in enumerate(method.parameters):
        block.compound_entry(parameter_family, _variable_submap(
            block, parameter_family, f"{path}.parameters[{j}]", parameter,
            extra={family: method.name},
        ))


def _fill_process(ds: EngMetaDataset, block: _BlockBuilder, report: _ReportBuilder) -> None:
    for i, step in enumerate(ds.processingSteps):
        prefix = f"processingStep[{i}]"
        block.primitive_entry("stepType", f"{prefix}.stepType", step.stepType, dedup=True)

        # step structure is not searchable in flat blocks; the PROV sidecar
        # keeps it
        report.dropped(f"{prefix}.date", step.date)
        if step.actor is not None:
            actor_prefix = f"{prefix}.actor"
            report.dropped(f"{actor_prefix}.name", step.actor.name)
            if step.actor.identifier is not None:
                report.dropped(f"{actor_prefix}.identifier.value", step.actor.identifier.value)
                report.dropped(f"{actor_prefix}.identifier.scheme", step.actor.identifier.scheme)
            report.dropped(f"{actor_prefix}.affiliation", step.actor.affiliation)
            report.dropped(f"{actor_prefix}.role", step.actor.role)
        for element, refs in (("input", step.inputs), ("output", step.outputs)):
            for j, ref in enumerate(refs):
                ref_prefix = f"{prefix}.{element}[{j}]"
                report.dropped(f"{ref_prefix}.name", ref.name)
                report.dropped(f"{ref_prefix}.link", ref.link)
                report.dropped(f"{ref_prefix}.pid", ref.pid)

        if step.method is not None:
            _method_entries(block, f"{prefix}.method", step.method, "method")
        if step.errorMethod is not None:
            _method_entries(block, f"{prefix}.errorMethod", step.errorMethod, "errorMethod")

        for j, software in enumerate(step.software):
            software_prefix = f"{prefix}.software[{j}]"
            block.compound_entry("software", _software_submap(block, software_prefix, software))
            for k, contributor in enumerate(software.contributor):
                block.compound_entry("softwareContributor", _person_submap(
                    block, "softwareContributor",
                    f"{software_prefix}.contributor[{k}]", contributor,
                    extra={"software": software.name},
                ))

        for j, instrument in enumerate(step.instrument):
            instrument_prefix = f"{prefix}.instrument[{j}]"
            block.compound_entry("instrument", {
                "name": block.claim("instrument", f"{instrument_prefix}.name", instrument.name),
                "description": block.claim(
                    "instrument", f"{instrument_prefix}.description", instrument.description
                ),
                "identifier": block.claim(
                    "instrument", f"{instrument_prefix}.identifier", instrument.identifier
                ),
            })

        if step.environment is not None:
            environment_prefix = f"{prefix}.environment"
            submap = {
                attr: block.claim("environment", f"{environment_prefix}.{attr}",
                                  getattr(step.environment, attr))
                for attr in ("name", "nodes", "coresPerNode", "totalCores")
            }
            if step.environment.compiler is not None:
                submap["compilerName"] = block.claim(
                    "environment", f"{environment_prefix}.compiler.name",
                    step.environment.compiler.name,
                )
                submap["compilerFlags"] = block.claim(
                    "environment", f"{environment_prefix}.compiler.flags",
                    step.environment.compiler.flags,
                )
            block.compound_entry("environment", submap)

        block.primitive_entry(
            "executionCommand", f"{prefix}.executionCommand", step.executionCommand, dedup=True
        )


def _fill_discipline(ds: EngMetaDataset, block: _BlockBuilder) -> None:
    system = ds.system
    if system is None:
        return
    block.primitive("systemDescription", "system.description", system.description)

    for i, component in enumerate(system.components):
        prefix = f"system.components[{i}]"
        submap = {
            "name": block.claim("component", f"{prefix}.name", component.name),
            "identifier": block.claim("component", f"{prefix}.identifier", component.identifier),
        }
        if component.forceField is not None:
            submap["forceField"] = block.claim(
                "component", f"{prefix}.forceField.name", component.forceField.name
            )
            for j, parameter in enumerate(component.forceField.parameters):
                block.compound_entry("forceFieldParameter", _variable_submap(
                    block, "forceFieldParameter",
                    f"{prefix}.forceField.parameters[{j}]", parameter,
                    extra={"forceField": component.forceField.name},
                ))
        block.compound_entry("component", submap)

    for i, condition in enumerate(system.boundaryConditions):
        block.primitive_entry("boundaryCondition", f"system.boundaryConditions[{i}]", condition)

    for attr, family in (
        ("controlledVariables", "controlledVariable"),
        ("measuredVariables", "measuredVariable"),
        ("parameters", "parameter"),
    ):
        for i, variable in enumerate(getattr(system, attr)):
            block.compound_entry(family, _variable_submap(
                block, family, f"system.{attr}[{i}]", variable
            ))

    if system.spatialResolution is not None:
        for attr in ("numberOfCells", "scale", "scaleUnit"):
            block.primitive(attr, f"system.spatialResolution.{attr}",
                            getattr(system.spatialResolution, attr))
    if system.temporalResolution is not None:
        for attr in ("numberOfTimesteps", "interval", "intervalUnit"):
            block.primitive(attr, f"system.temporalResolution.{attr}",
                            getattr(system.temporalResolution, attr))


def to_prov_by_hand(dataset: EngMetaDataset) -> prov.ProvDocument:
    """``prov.to_prov`` as it was before its used entities came from the
    schema: each used step field written out on its own."""
    builder = prov._Builder()
    for i, step in enumerate(dataset.processingSteps):
        activity = prov.Activity(f"act_{i}", step.date, step.stepType)
        builder.activities.append(activity)

        if step.actor is not None:
            identifier = step.actor.identifier.value if step.actor.identifier else None
            agent = builder.agent(step.actor.name, identifier)
            builder.relate("wasAssociatedWith", activity.id, agent.id)

        for ref in step.inputs:
            entity = prov._file_entity(builder, ref)
            if entity is not None:
                builder.relate("used", activity.id, entity.id)
        if step.method is not None:
            entity = builder.entity("method", repr(step.method), step.method.name or "method")
            builder.relate("used", activity.id, entity.id)
        if step.errorMethod is not None:
            entity = builder.entity(
                "errorMethod", repr(step.errorMethod), step.errorMethod.name or "error method"
            )
            builder.relate("used", activity.id, entity.id)
        for instrument in step.instrument:
            entity = builder.entity("instrument", repr(instrument), instrument.name or "instrument")
            builder.relate("used", activity.id, entity.id)
        for software in step.software:
            label = software.name or software.url or software.softwareSourceCode or "software"
            entity = builder.entity("software", repr(software), label)
            builder.relate("used", activity.id, entity.id)
        if step.environment is not None:
            entity = builder.entity(
                "environment", repr(step.environment), step.environment.name or "environment"
            )
            builder.relate("used", activity.id, entity.id)
        if step.executionCommand is not None:
            entity = builder.entity("executionCommand", step.executionCommand, step.executionCommand)
            builder.relate("used", activity.id, entity.id)

        for ref in step.outputs:
            entity = prov._file_entity(builder, ref)
            if entity is not None:
                builder.relate("wasGeneratedBy", entity.id, activity.id)

    return prov.ProvDocument(
        tuple(builder.activities),
        tuple(builder.agents.values()),
        tuple(builder.entities.values()),
        tuple(builder.relations),
    )


# --- Path reads that look each segment up themselves ----------------------

def get_path_by_node_checks(dataset, path) -> list:
    """``get_path`` as it read before it resolved paths through the writers'
    rule: each segment is looked up on each node it reaches, skipping
    anything that is not a node, an unknown element and an index on a
    field that is not a list."""
    current = [dataset]
    for segment in _as_path(path).segments:
        gathered = []
        for node in current:
            if not isinstance(node, _Node):
                continue  # scalar mid-path: nothing below it
            spec = field_by_element(type(node), segment.name)
            if spec is None:
                continue
            value = getattr(node, spec.attr)
            if spec.kind in (SCALAR, NODE):
                if segment.index not in (None, 0):
                    continue
                if value is not None:
                    gathered.append(value)
            else:
                if segment.index is None:
                    gathered.extend(value)
                elif segment.index < len(value):
                    gathered.append(value[segment.index])
        current = gathered
        if not current:
            return []
    return current


# --- PROV's end time through a parsed date-time -----------------------------

def _parse_iso(text: str):
    """The date or date-time the text spells in the ISO grammar; None if neither."""
    candidate = text.strip()
    if candidate.endswith(("Z", "z")):
        candidate = candidate[:-1] + "+00:00"
    match = _ISO_RE.fullmatch(candidate)
    if match is None:
        return None
    try:
        kind = datetime.date if match["time"] is None else datetime.datetime
        return kind.fromisoformat(candidate)
    except ValueError:
        return None


def end_time_by_datetime_parse(date) -> str:
    """PROV-N's end-time slot as it was chosen when the date-time was parsed
    and kept: the date when it is in xsd:dateTime form and parses as a
    date-time (a date alone is not one), else "-"."""
    if date is None or not prov._XSD_DATETIME.fullmatch(date):
        return "-"
    return date if isinstance(_parse_iso(date), datetime.datetime) else "-"
