"""Structural and citable validation of metadata documents.

The structural profile checks every constraint that applies to values that
are actually present (codes, digest shapes, ISO dates, count ranges, ...).
It never requires a node to exist: partially filled documents are the
normal output of automated extraction. The citable profile adds the minimum
a publishable record needs: a title, an author, a description and a date.

The field-local constraints are the rules declared on the model's fields
(``FieldSpec.rules``); each present value is checked straight against its
field's ``FieldRules``, an absent one only for ``required``. Only the two
cross-field checks are code here: a checksum's algorithm and digest, and a
variable's uncertainty, which needs a numeric value. Nodes are checked in
document order, each before its child nodes; per node, findings come as:
blank strings, the cross-field check, then the ruled fields in declaration
order, each field's rules in ``FieldRules`` order.

Violations are findings, not exceptions; a report always enumerates every
problem found.
"""

from __future__ import annotations

import re
from decimal import Decimal
from functools import cache
from typing import NamedTuple

from . import codes as codetables
from .isodates import is_iso_date_or_datetime
from .model import (
    NODE,
    NODE_LIST,
    SCALAR,
    SCALAR_LIST,
    TAGGED,
    Checksum,
    EngMetaDataset,
    FieldRules,
    Variable,
    schema,
)

PROFILES = ("structural", "citable")

_HEX_RE = re.compile(r"[0-9a-f]+")


class Finding(NamedTuple):
    severity: str  # "error" | "warning"
    path: str
    message: str


class ValidationReport(NamedTuple):
    profile: str
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(dataset: EngMetaDataset, profile: str = "structural") -> ValidationReport:
    """Check the document against the given profile; never raises on content."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")

    findings: list[Finding] = []

    def error(path: str, message: str) -> None:
        findings.append(Finding("error", path, message))

    def warning(path: str, message: str) -> None:
        findings.append(Finding("warning", path, message))

    stack = [(dataset, "")]  # pre-order: a node's checks, then its child nodes in order
    while stack:
        node, path = stack.pop()
        texts, cross_field, ruled, children = _plan(type(node))
        for attr, element, listed in texts:
            value = getattr(node, attr)
            if listed:  # the model declares every scalar list str
                for i, item in enumerate(value):
                    if not item.strip():
                        error(f"{_field_path(path, element)}[{i}]", "must not be blank")
            elif type(value) is str and not value.strip():
                error(_field_path(path, element), "must not be blank")
        if cross_field is not None:
            cross_field(node, path, error, warning)
        for attr, element, rules, codes in ruled:
            value = getattr(node, attr)
            if value is not None:
                _check_value(value, rules, codes, path, element, error, warning)
            elif rules.required is not None:
                error(_field_path(path, element), rules.required)
        for attr, element, listed in children:  # last field first, so the first pops first
            value = getattr(node, attr)
            if value:
                prefix = f"{path}.{element}" if path else element
                if listed:
                    stack += reversed([(item, f"{prefix}[{i}]") for i, item in enumerate(value)])
                else:
                    stack.append((value, prefix))

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


def _field_path(path: str, element: str) -> str:
    return f"{path}.{element}" if path else element


@cache
def _plan(cls: type) -> tuple:
    """One node class's checks as data: its text fields (attr, element, listed), its
    cross-field check or None, its ruled fields (attr, element, rules, code set or None;
    a misnamed code list fails here) and its node fields alike, last field first."""
    specs = schema(cls)
    texts = tuple(
        (spec.attr, spec.element, spec.kind == SCALAR_LIST) for spec in specs
        if spec.kind in (SCALAR, SCALAR_LIST) and spec.value_type in (str, TAGGED)
    )
    ruled = tuple(
        (spec.attr, spec.element, spec.rules,
         None if spec.rules.codes is None else frozenset(codetables.codes(spec.rules.codes)))
        for spec in specs if spec.rules is not None
    )
    children = tuple((spec.attr, spec.element, spec.kind == NODE_LIST)
                     for spec in reversed(specs) if spec.kind in (NODE, NODE_LIST))
    return texts, _CROSS_FIELD.get(cls), ruled, children


def _check_value(value, rules: FieldRules, codes, path: str, element: str, error, warning) -> None:
    """Check a present value against its field's rules, in declaration order."""
    if codes is not None and value not in codes:
        report = error if rules.severity == "error" else warning
        report(_field_path(path, element), f"{value!r} is not in the {rules.codes} code list")
    if rules.one_of and value not in rules.one_of:
        error(_field_path(path, element), f"{value!r} is not one of: {', '.join(rules.one_of)}")
    if rules.iso_date and not is_iso_date_or_datetime(value):
        error(_field_path(path, element), f"{value!r} is not an ISO-8601 date or date-time")
    if rules.uri and (not value or any(ch.isspace() or ord(ch) < 0x20 for ch in value)):
        error(_field_path(path, element), "not a valid URI reference")
    if rules.at_least is not None and value < rules.at_least:
        error(_field_path(path, element), f"must be >= {rules.at_least}")
    if rules.above is not None and value <= rules.above:
        error(_field_path(path, element), f"must be > {rules.above}")
    if rules.unique_names:
        first: dict[str, int] = {}
        for i, variable in enumerate(value):
            name = variable.name
            if name in first:
                error(f"{_field_path(path, element)}[{i}].name",
                      f"duplicate variable name {name!r} (first at index {first[name]})")
            elif name is not None:
                first[name] = i


def _check_checksum(node: Checksum, path, error, warning) -> None:
    if node.algorithm is None:
        error(_field_path(path, "algorithm"), "checksum needs an algorithm")
        return
    expected_length = codetables.CHECKSUM_ALGORITHMS.get(node.algorithm)
    if expected_length is None:
        allowed = ", ".join(sorted(codetables.CHECKSUM_ALGORITHMS))
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


def _check_variable(node: Variable, path, error, warning) -> None:
    if node.uncertainty is not None and type(node.value) not in (int, Decimal):
        error(_field_path(path, "uncertainty"), "uncertainty needs a numeric value to qualify")


# the checks that read more than one field
_CROSS_FIELD = {Checksum: _check_checksum, Variable: _check_variable}
