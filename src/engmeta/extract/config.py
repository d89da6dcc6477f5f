"""Extraction config files: rule grammar, parsing and target checking.

The format is line-oriented and diff-friendly:

    # comment
    [rule nsteps]
    target = system.temporalResolution.numberOfTimesteps
    source = *.mdp
    key = nsteps
    delimiter = =
    type = integer

Every rule needs ``target``, ``source`` and ``key``; ``delimiter`` defaults
to "=", ``type`` to string and ``occurrence`` to first. Values are taken
verbatim after the first "=" and trimmed. The ``type`` must fill the target
field: string and date fill text fields, integer fills integer and decimal
fields, decimal fills decimal fields, boolean fills boolean fields, and a
variable's ``value`` takes every type.

A target is either a fully indexed scalar path, or (for occurrence=all and
for grouped rules) a path with exactly one index-less list segment that
marks where successive instances are appended. Rules sharing a ``group``
must share that open list segment: their hits are joined index-wise into
one node per instance (e.g. a variable whose name and value sit on
different lines).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal

from ..errors import ConfigError, PathError
from ..model import (
    NODE,
    NODE_LIST,
    SCALAR,
    SCALAR_LIST,
    SCALAR_TYPE_NAMES,
    TAGGED,
    EngMetaDataset,
    Variable,
)
from ..paths import MetadataPath, PathSegment, parse_path, resolve_specs

# rule value type -> the field types its values fill; a TAGGED field
# (Variable.value) takes every type
_FILLS = {
    "string": (str,),
    "integer": (int, Decimal),
    "decimal": (Decimal,),
    "boolean": (bool,),
    "date": (str,),
}
VALUE_TYPES = tuple(_FILLS)
OCCURRENCES = ("first", "last", "all")

_FIELD_NAMES = ("target", "source", "key", "delimiter", "type", "unit", "group", "occurrence")
_HEADER_RE = re.compile(r"\[rule\s+([^\s\]]+)\]")


@dataclass(frozen=True)
class TargetShape:
    """How a rule's target writes: fixed scalar or open list appends."""

    open_segment: int | None  # position of the index-less list segment, if any
    node_type: type | None  # node class of the open list, when it is a node list


@dataclass(frozen=True)
class ExtractionRule:
    id: str
    target: MetadataPath
    source: str
    key: str
    delimiter: str = "="
    valueType: str = "string"
    unit: str | None = None
    group: str | None = None
    occurrence: str = "first"
    line: int = 0  # header line in the config file, for diagnostics
    shape: TargetShape = field(default=TargetShape(None, None), compare=False)


@dataclass(frozen=True)
class ExtractionConfig:
    rules: tuple[ExtractionRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))


def analyze_target(rule_id: str, path: MetadataPath, *, grouped: bool, occurrence: str,
                   unit: str | None, value_type: str, line: int) -> TargetShape:
    """Check a rule target, and the type of the values it takes, against the schema."""
    try:
        resolved = resolve_specs(path)
    except PathError as exc:
        raise ConfigError(f"rule {rule_id!r}: bad target: {exc}", line) from None
    for segment, spec in resolved:
        # set_path refuses any other index on a field that is not a list
        if spec.kind in (SCALAR, NODE) and segment.index not in (None, 0):
            raise ConfigError(
                f"rule {rule_id!r}: target {path}: {segment.name} is not a list", line
            )

    open_positions = [
        i
        for i, (segment, spec) in enumerate(resolved)
        if spec.kind in (NODE_LIST, SCALAR_LIST) and segment.index is None
    ]
    terminal_spec = resolved[-1][1]
    if terminal_spec.kind not in (SCALAR, SCALAR_LIST):
        raise ConfigError(
            f"rule {rule_id!r}: target {path} does not address a scalar field", line
        )
    field_type = terminal_spec.value_type
    if field_type is not TAGGED and field_type not in _FILLS[value_type]:
        raise ConfigError(
            f"rule {rule_id!r}: type {value_type} cannot fill target {path}, "
            f"a {SCALAR_TYPE_NAMES[field_type]} field",
            line,
        )

    open_segment: int | None = None
    node_type: type | None = None
    if grouped or occurrence == "all":
        if len(open_positions) != 1:
            raise ConfigError(
                f"rule {rule_id!r}: target {path} needs exactly one index-less "
                f"list segment for {'grouped rules' if grouped else 'occurrence=all'}",
                line,
            )
        open_segment = open_positions[0]
        open_spec = resolved[open_segment][1]
        if open_spec.kind == NODE_LIST:
            node_type = open_spec.value_type
        if grouped:
            if open_spec.kind != NODE_LIST or open_segment == len(resolved) - 1:
                raise ConfigError(
                    f"rule {rule_id!r}: grouped rules must target a field inside "
                    f"a node list (got {path})",
                    line,
                )
        # appended instances are built from scalar fields reachable through
        # singular child nodes; list segments after the open one would be
        # ambiguous across instances
        for _, spec in resolved[open_segment + 1:]:
            if spec.kind in (NODE_LIST, SCALAR_LIST):
                raise ConfigError(
                    f"rule {rule_id!r}: target {path} nests a list inside the "
                    f"open list segment",
                    line,
                )
    elif open_positions:
        segment = resolved[open_positions[0]][0]
        raise ConfigError(
            f"rule {rule_id!r}: target {path} has index-less list segment "
            f"{segment.name!r}; give it an index or use occurrence=all / a group",
            line,
        )

    # resolve_specs lets only nodes and node lists precede the final segment
    owner_type = resolved[-2][1].value_type if len(resolved) > 1 else EngMetaDataset
    if unit is not None and owner_type is not Variable:
        raise ConfigError(
            f"rule {rule_id!r}: unit only applies when the target is a "
            f"variable field (got {path})",
            line,
        )

    return TargetShape(open_segment, node_type)


def parse_config(text: str) -> ExtractionConfig:
    """Parse config text; all errors carry line numbers."""
    rules: list[ExtractionRule] = []
    seen_ids: dict[str, int] = {}

    current_id: str | None = None
    current_line = 0
    current_fields: dict[str, str] = {}
    field_lines: dict[str, int] = {}

    def finish() -> None:
        if current_id is None:
            return
        rules.append(_build_rule(current_id, current_line, current_fields, field_lines))

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            match = _HEADER_RE.fullmatch(line)
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
        if name not in _FIELD_NAMES:
            raise ConfigError(
                f"unknown field {name!r}; expected one of: {', '.join(_FIELD_NAMES)}", lineno
            )
        if name in current_fields:
            raise ConfigError(
                f"field {name!r} already set on line {field_lines[name]}", lineno
            )
        current_fields[name] = value
        field_lines[name] = lineno

    finish()
    _check_groups(rules)
    return ExtractionConfig(tuple(rules))


def _build_rule(rule_id: str, header_line: int, fields: dict[str, str],
                field_lines: dict[str, int]) -> ExtractionRule:
    for mandatory in ("target", "source", "key"):
        if mandatory not in fields:
            raise ConfigError(f"rule {rule_id!r}: missing mandatory field {mandatory!r}", header_line)

    delimiter = fields.get("delimiter", "=")
    if delimiter == "":
        raise ConfigError(f"rule {rule_id!r}: delimiter must not be empty", field_lines["delimiter"])

    value_type = fields.get("type", "string")
    if value_type not in VALUE_TYPES:
        raise ConfigError(
            f"rule {rule_id!r}: bad type {value_type!r}; expected one of: "
            f"{', '.join(VALUE_TYPES)}",
            field_lines["type"],
        )

    occurrence = fields.get("occurrence", "first")
    if occurrence not in OCCURRENCES:
        raise ConfigError(
            f"rule {rule_id!r}: bad occurrence {occurrence!r}; expected one of: "
            f"{', '.join(OCCURRENCES)}",
            field_lines["occurrence"],
        )

    if fields["key"] == "":
        raise ConfigError(f"rule {rule_id!r}: key must not be empty", field_lines["key"])
    if fields["source"] == "":
        raise ConfigError(f"rule {rule_id!r}: source must not be empty", field_lines["source"])

    try:
        target = parse_path(fields["target"])
    except PathError as exc:
        raise ConfigError(f"rule {rule_id!r}: bad target: {exc}", field_lines["target"]) from None

    group = fields.get("group") or None
    unit = fields.get("unit") or None
    shape = analyze_target(
        rule_id, target, grouped=group is not None, occurrence=occurrence,
        unit=unit, value_type=value_type, line=header_line,
    )

    return ExtractionRule(
        id=rule_id,
        target=target,
        source=fields["source"],
        key=fields["key"],
        delimiter=delimiter,
        valueType=value_type,
        unit=unit,
        group=group,
        occurrence=occurrence,
        line=header_line,
        shape=shape,
    )


def _open_prefix(rule: ExtractionRule) -> tuple[PathSegment, ...]:
    assert rule.shape.open_segment is not None
    return rule.target.segments[: rule.shape.open_segment + 1]


def _check_groups(rules: list[ExtractionRule]) -> None:
    prefixes: dict[str, tuple[tuple[PathSegment, ...], str]] = {}
    for rule in rules:
        if rule.group is None:
            continue
        prefix = _open_prefix(rule)
        known = prefixes.get(rule.group)
        if known is None:
            prefixes[rule.group] = (prefix, rule.id)
        elif known[0] != prefix:
            raise ConfigError(
                f"group {rule.group!r}: rules {known[1]!r} and {rule.id!r} "
                f"target different lists",
                rule.line,
            )
