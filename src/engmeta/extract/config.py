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

One function checks a rule's own fields for parsed and built rules alike:
the parser calls it so that an error names the faulty field's line, and the
rule's constructor calls it again. A rule's plan (its open list, and the
field it fills inside each appended node) is derived when the rule is
built, and a config's application order when the config is built, so an
``ExtractionRule`` built by hand is checked as a parsed one is.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ConfigError, PathError
from ..model import (
    NODE_LIST,
    SCALAR,
    SCALAR_LIST,
    SCALAR_TYPE_NAMES,
    SCALAR_TYPES_BY_NAME,
    EngMetaDataset,
    Variable,
    fills,
    text_fault,
)
from ..paths import MetadataPath, parse_path, resolve_specs

# rule value type -> the type of the values ``coerce`` gives for it (date: str)
_COERCED = {**SCALAR_TYPES_BY_NAME, "date": str}
VALUE_TYPES = tuple(_COERCED)
OCCURRENCES = ("first", "last", "all")

_FIELD_NAMES = ("target", "source", "key", "delimiter", "type", "unit", "group", "occurrence")
# a rule's own fields in the order they are checked, each with its choices,
# or None for text that must not be empty
_FIELD_CHECKS = (("delimiter", None), ("type", VALUE_TYPES), ("occurrence", OCCURRENCES),
                 ("key", None), ("source", None), ("unit", None), ("group", None))
_HEADER_RE = re.compile(r"\[rule\s+([^\s\]]+)\]")


class TargetShape(NamedTuple):
    """How a rule's target writes: fixed scalar or open list appends."""

    node_type: type | None  # node class of the open list, when it is a node list
    open_list: MetadataPath | None  # the target up to its open segment
    # for a node list: the (attribute, class) of each child node inside the
    # appended node, then the scalar's attribute
    in_node: tuple[tuple[tuple[str, type], ...], str] | None


class _Checked:
    """Base of a checked named tuple: ``_make``/``_replace`` run its constructor too."""

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class _RuleFields(NamedTuple):
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


class ExtractionRule(_Checked, _RuleFields):
    """One extraction rule; checked, and its plan ``shape`` derived, when it is built."""

    def __new__(cls, *args, **kwargs):
        rule = super().__new__(cls, *args, **kwargs)
        object.__setattr__(rule, "shape", analyze_target(rule))
        return rule


class _ConfigFields(NamedTuple):
    rules: tuple[ExtractionRule, ...] = ()


class ExtractionConfig(_Checked, _ConfigFields):
    """Rules in declaration order; ``steps``, derived, is the order they apply in.

    A group's members apply together, at the group's first rule; every other
    rule applies alone.
    """

    def __new__(cls, rules=()):
        config = super().__new__(cls, tuple(rules))
        steps: list[list[ExtractionRule]] = []
        groups: dict[str, list[ExtractionRule]] = {}
        for rule in config.rules:
            if not isinstance(rule, ExtractionRule):
                raise ConfigError(f"expected ExtractionRule entries, got {type(rule).__name__}", 0)
            members = [] if rule.group is None else groups.setdefault(rule.group, [])
            if not members:
                steps.append(members)
            elif members[0].shape.open_list != rule.shape.open_list:
                raise ConfigError(f"group {rule.group!r}: rules {members[0].id!r} and "
                                  f"{rule.id!r} target different lists", rule.line)
            members.append(rule)
        object.__setattr__(config, "steps", tuple(map(tuple, steps)))
        return config


def _check_fields(rule_id: str, values: dict, lines: dict[str, int], line: int) -> None:
    """Check a rule's own fields, keyed by config name, in ``_FIELD_CHECKS`` order.

    An absent field is not checked: its default is valid. An error names the
    field's line from ``lines``, and otherwise ``line``.
    """
    for name, choices in _FIELD_CHECKS:
        if name not in values:
            continue
        value = values[name]
        if choices is None:
            if not isinstance(value, str):
                raise ConfigError(f"rule {rule_id!r}: {name} must be text, got {value!r}",
                                  lines.get(name, line))
            if value == "":
                raise ConfigError(f"rule {rule_id!r}: {name} must not be empty",
                                  lines.get(name, line))
            fault = text_fault(value) if name == "unit" else None  # written into documents
            if fault is not None:
                raise ConfigError(f"rule {rule_id!r}: unit {value!r} {fault}",
                                  lines.get(name, line))
        elif value not in choices:
            raise ConfigError(
                f"rule {rule_id!r}: bad {name} {value!r}; expected one of: {', '.join(choices)}",
                lines.get(name, line),
            )


def analyze_target(rule: ExtractionRule) -> TargetShape:
    """Check a rule's fields, its target, and the type of the values it takes,
    against the schema, and derive how the rule writes."""
    rule_id, path, line = rule.id, rule.target, rule.line
    values = {**rule._asdict(), "type": rule.valueType}  # keyed by config name
    for name in ("unit", "group"):
        if values[name] is None:  # None leaves it unset, as a rule file that omits it does
            del values[name]
    _check_fields(rule_id, values, {}, line)
    if not isinstance(path, MetadataPath):  # the engine reads its segments
        raise ConfigError(f"rule {rule_id!r}: target must be a MetadataPath, "
                          f"got {type(path).__name__}", line)
    try:
        resolved = resolve_specs(path)
    except PathError as exc:
        raise ConfigError(f"rule {rule_id!r}: bad target: {exc}", line) from None

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
    if not fills(_COERCED[rule.valueType], field_type):
        raise ConfigError(
            f"rule {rule_id!r}: type {rule.valueType} cannot fill target {path}, "
            f"a {SCALAR_TYPE_NAMES[field_type]} field",
            line,
        )

    grouped = rule.group is not None
    shape = TargetShape(None, None, None)
    if grouped or rule.occurrence == "all":
        if len(open_positions) != 1:
            raise ConfigError(
                f"rule {rule_id!r}: target {path} needs exactly one index-less "
                f"list segment for {'grouped rules' if grouped else 'occurrence=all'}",
                line,
            )
        open_segment = open_positions[0]
        open_spec = resolved[open_segment][1]
        if grouped:
            if open_spec.kind != NODE_LIST:
                raise ConfigError(
                    f"rule {rule_id!r}: grouped rules must target a field inside "
                    f"a node list (got {path})",
                    line,
                )
        # appended instances are built from scalar fields reachable through
        # singular child nodes; list segments after the open one would be
        # ambiguous across instances
        inside = [spec for _, spec in resolved[open_segment + 1:]]
        if any(spec.kind in (NODE_LIST, SCALAR_LIST) for spec in inside):
            raise ConfigError(
                f"rule {rule_id!r}: target {path} nests a list inside the "
                f"open list segment",
                line,
            )
        open_list = MetadataPath(path.segments[: open_segment + 1])
        if open_spec.kind == NODE_LIST:
            in_node = (tuple((spec.attr, spec.value_type) for spec in inside[:-1]),
                       inside[-1].attr)
            shape = TargetShape(open_spec.value_type, open_list, in_node)
        else:
            shape = TargetShape(None, open_list, None)
    elif open_positions:
        segment = resolved[open_positions[0]][0]
        raise ConfigError(
            f"rule {rule_id!r}: target {path} has index-less list segment "
            f"{segment.name!r}; give it an index or use occurrence=all / a group",
            line,
        )

    # resolve_specs lets only nodes and node lists precede the final segment
    owner_type = resolved[-2][1].value_type if len(resolved) > 1 else EngMetaDataset
    if rule.unit is not None and owner_type is not Variable:
        raise ConfigError(
            f"rule {rule_id!r}: unit only applies when the target is a "
            f"variable field (got {path})",
            line,
        )
    return shape


def parse_config(text: str) -> ExtractionConfig:
    """Parse config text; all errors carry line numbers."""
    rules: list[ExtractionRule] = []
    seen_ids: dict[str, int] = {}
    # the open rule: (id, header line, {name: (value, line)})
    section: tuple[str, int, dict[str, tuple[str, int]]] | None = None

    # a leading byte-order mark is not part of line 1
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            match = _HEADER_RE.fullmatch(line)
            if match is None:
                raise ConfigError(f"bad rule header {line!r}; expected [rule <id>]", lineno)
            if section is not None:
                rules.append(_build_rule(*section))
            rule_id = match.group(1)
            if rule_id in seen_ids:
                raise ConfigError(
                    f"duplicate rule id {rule_id!r} (first declared on line "
                    f"{seen_ids[rule_id]})",
                    lineno,
                )
            seen_ids[rule_id] = lineno
            section = (rule_id, lineno, {})
            continue
        name, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"expected 'name = value', got {line!r}", lineno)
        name = name.strip()
        if section is None:
            raise ConfigError("field line before any [rule ...] header", lineno)
        if name not in _FIELD_NAMES:
            raise ConfigError(
                f"unknown field {name!r}; expected one of: {', '.join(_FIELD_NAMES)}", lineno
            )
        fields = section[2]
        if name in fields:
            raise ConfigError(f"field {name!r} already set on line {fields[name][1]}", lineno)
        fields[name] = (value.strip(), lineno)

    if section is not None:
        rules.append(_build_rule(*section))
    return ExtractionConfig(tuple(rules))


def _build_rule(rule_id: str, header_line: int,
                fields: dict[str, tuple[str, int]]) -> ExtractionRule:
    for mandatory in ("target", "source", "key"):
        if mandatory not in fields:
            raise ConfigError(f"rule {rule_id!r}: missing mandatory field {mandatory!r}", header_line)
    # only the fields the section gives, so ExtractionRule supplies the
    # defaults; an empty unit or group reads as unset
    values = {name: value for name, (value, _) in fields.items()
              if value or name not in ("unit", "group")}
    _check_fields(rule_id, values, {name: line for name, (_, line) in fields.items()},
                  header_line)
    try:
        values["target"] = parse_path(values["target"])
    except PathError as exc:
        raise ConfigError(f"rule {rule_id!r}: bad target: {exc}", fields["target"][1]) from None
    if "type" in values:
        values["valueType"] = values.pop("type")
    return ExtractionRule(rule_id, line=header_line, **values)
