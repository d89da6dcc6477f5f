"""Structural and citable validation of metadata documents.

The structural profile checks every constraint that applies to values that
are actually present (codes, digest shapes, ISO dates, count ranges, ...).
It never requires a node to exist: partially filled documents are the
normal output of automated extraction. The citable profile adds the minimum
a publishable record needs: a title, an author, a description and a date.

The field-local constraints are the rules declared on the model's fields
(``FieldSpec.rules``); each node class's table of checks is derived from
them once. Only the two cross-field checks are code here: a checksum's
algorithm and digest, and a variable's uncertainty, which needs a numeric
value. Nodes are checked in document order, each before its child nodes;
per node, findings come in table order: blank strings, the cross-field
check, then the field rules in declaration order.

Violations are findings, not exceptions; a report always enumerates every
problem found.
"""

from __future__ import annotations

import operator
import re
from decimal import Decimal
from functools import cache, partial
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
        checks, children = _plan(type(node))
        for check in checks:
            check(node, path, error, warning)
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
def _plan(cls: type) -> tuple[tuple, tuple]:
    """The checks of one node class, each called as ``check(node, path, error, warning)``,
    and its node fields as (attr, element, listed), last field first."""
    specs = schema(cls)
    texts = tuple(
        (spec.attr, spec.element, spec.kind == SCALAR_LIST) for spec in specs
        if spec.kind in (SCALAR, SCALAR_LIST) and spec.value_type in (str, TAGGED)
    )
    ruled = tuple(
        (spec.attr, spec.element, spec.rules.required, _rule_tests(spec.rules))
        for spec in specs if spec.rules is not None
    )
    checks = [partial(_check_blank, texts)] if texts else []
    if cls in _CROSS_FIELD:
        checks.append(_CROSS_FIELD[cls])
    if ruled:
        checks.append(partial(_check_rules, ruled))
    children = tuple((spec.attr, spec.element, spec.kind == NODE_LIST)
                     for spec in reversed(specs) if spec.kind in (NODE, NODE_LIST))
    return tuple(checks), children


def _check_blank(texts, node, path, error, warning) -> None:
    for attr, element, listed in texts:
        value = getattr(node, attr)
        if listed:  # scalar lists hold strings only
            for i, item in enumerate(value):
                if not item.strip():
                    error(f"{_field_path(path, element)}[{i}]", "must not be blank")
        elif isinstance(value, str) and not value.strip():
            error(_field_path(path, element), "must not be blank")


def _check_rules(ruled, node, path, error, warning) -> None:
    for attr, element, required, tests in ruled:
        value = getattr(node, attr)
        if value is None:
            if required is not None:
                error(_field_path(path, element), required)
            continue
        for test in tests:
            for severity, suffix, message in test(value):
                report = error if severity == "error" else warning
                report(_field_path(path, element) + suffix, message)


def _rule_tests(rules) -> tuple:
    """One test per declared rule, for a present value.

    ``test(value)`` gives a ``(severity, path suffix, message)`` triple for
    each problem it finds.
    """
    tests = []
    if rules.codes is not None:
        template = f"{{!r}} is not in the {rules.codes} code list"
        tests.append(_member_of(frozenset(codetables.codes(rules.codes)), rules.severity, template))
    if rules.one_of:
        template = f"{{!r}} is not one of: {', '.join(rules.one_of)}"
        tests.append(_member_of(frozenset(rules.one_of), "error", template))
    if rules.iso_date:
        tests.append(_iso_date)
    if rules.uri:
        tests.append(_uri_reference)
    if rules.at_least is not None:
        tests.append(_bound(operator.ge, rules.at_least, f"must be >= {rules.at_least}"))
    if rules.above is not None:
        tests.append(_bound(operator.gt, rules.above, f"must be > {rules.above}"))
    if rules.unique_names:
        tests.append(_unique_names)
    return tuple(tests)


def _member_of(allowed: frozenset, severity: str, template: str):
    return lambda value: () if value in allowed else ((severity, "", template.format(value)),)


def _bound(holds, limit, message: str):
    return lambda value: () if holds(value, limit) else (("error", "", message),)


def _iso_date(value: str):
    if not is_iso_date_or_datetime(value):
        yield "error", "", f"{value!r} is not an ISO-8601 date or date-time"


def _uri_reference(value: str):
    if not value or any(ch.isspace() or ord(ch) < 0x20 for ch in value):
        yield "error", "", "not a valid URI reference"


def _unique_names(variables: tuple):
    first: dict[str, int] = {}
    for i, variable in enumerate(variables):
        if variable.name in first:
            yield "error", f"[{i}].name", (
                f"duplicate variable name {variable.name!r} (first at index {first[variable.name]})"
            )
        elif variable.name is not None:
            first[variable.name] = i


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
    if node.uncertainty is not None and (
        not isinstance(node.value, (int, Decimal)) or isinstance(node.value, bool)
    ):
        error(_field_path(path, "uncertainty"), "uncertainty needs a numeric value to qualify")


# the checks that read more than one field
_CROSS_FIELD = {Checksum: _check_checksum, Variable: _check_variable}
