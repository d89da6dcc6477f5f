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
order, each field's rules in ``FieldRules`` order. The code lists that the
rules name are read once, on first use, from the bundled ``codes.json``,
which stays editable.

Violations are findings, not exceptions; a report always enumerates every
problem found.
"""

from __future__ import annotations

import json
import pkgutil
import re
from decimal import Decimal
from functools import cache
from typing import NamedTuple

from .isodates import is_iso_date_or_datetime
from .model import (
    CHECKSUM_ALGORITHMS,
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
    """Check the document against the given profile; never raises on content.

    Anything but an ``EngMetaDataset`` (a bare node, say, which both writers
    would otherwise write as a root of the wrong shape) raises TypeError.
    """
    if not isinstance(dataset, EngMetaDataset):
        raise TypeError(f"expected an EngMetaDataset, got {type(dataset).__name__}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")

    findings: list[Finding] = []
    _check(dataset, "", findings)
    if profile == "citable":
        if not dataset.titles:
            _add(findings, "", "title", "citable records need at least one title")
        if not dataset.descriptions:
            _add(findings, "", "description", "citable records need at least one description")
        if not dataset.dates:
            _add(findings, "", "date", "citable records need at least one date")
        if not any(p.role == "author" for p in dataset.persons):
            _add(findings, "", "person",
                 "citable records need at least one person with role 'author'")
    return ValidationReport(profile, tuple(findings))


def _add(findings: list[Finding], path: str, element: str, message: str,
         severity: str = "error") -> None:
    """Report a finding on the field ``element`` (with any index) of the node at ``path``."""
    findings.append(Finding(severity, f"{path}.{element}" if path else element, message))


def _check(node, path: str, findings: list[Finding]) -> None:
    """Check a node, then its child nodes in declaration and list order."""
    texts, cross_field, ruled, children = _plan(type(node))
    for attr, element, listed in texts:
        value = getattr(node, attr)
        if listed:  # the model declares every scalar list str
            for i, item in enumerate(value):
                if not item.strip():
                    _add(findings, path, f"{element}[{i}]", "must not be blank")
        elif type(value) is str and not value.strip():
            _add(findings, path, element, "must not be blank")
    if cross_field is not None:
        cross_field(node, path, findings)
    for attr, element, rules, codes in ruled:
        value = getattr(node, attr)
        if value is not None:
            _check_value(value, rules, codes, path, element, findings)
        elif rules.required is not None:
            _add(findings, path, element, rules.required)
    for attr, element, listed in children:
        value = getattr(node, attr)
        if value:
            prefix = f"{path}.{element}" if path else element
            if listed:
                for i, item in enumerate(value):
                    _check(item, f"{prefix}[{i}]", findings)
            else:
                _check(value, prefix, findings)


@cache
def load_codes() -> dict[str, tuple[str, ...]]:
    """The bundled code lists (codes.json), keyed by list name; read once, on first use."""
    # pkgutil, not importlib.resources, which imports inspect on Python 3.12+
    data = json.loads(pkgutil.get_data(__package__, "codes.json"))
    return {name: tuple(values) for name, values in data.items()}


@cache
def _plan(cls: type) -> tuple:
    """One node class's checks as data: its text fields (attr, element, listed), its
    cross-field check or None, its ruled fields (attr, element, rules, code set or None;
    a misnamed code list fails here) and its node fields alike, in declaration order."""
    specs = schema(cls)
    texts = tuple(
        (spec.attr, spec.element, spec.kind == SCALAR_LIST) for spec in specs
        if spec.kind in (SCALAR, SCALAR_LIST) and spec.value_type in (str, TAGGED)
    )
    ruled = tuple(
        (spec.attr, spec.element, spec.rules,
         None if spec.rules.codes is None else frozenset(load_codes()[spec.rules.codes]))
        for spec in specs if spec.rules is not None
    )
    children = tuple((spec.attr, spec.element, spec.kind == NODE_LIST)
                     for spec in specs if spec.kind in (NODE, NODE_LIST))
    return texts, _CROSS_FIELD.get(cls), ruled, children


def _check_value(value, rules: FieldRules, codes, path: str, element: str,
                 findings: list[Finding]) -> None:
    """Check a present value against its field's rules, in declaration order."""
    if codes is not None and value not in codes:
        _add(findings, path, element, f"{value!r} is not in the {rules.codes} code list",
             rules.severity)
    if rules.one_of and value not in rules.one_of:
        _add(findings, path, element, f"{value!r} is not one of: {', '.join(rules.one_of)}")
    if rules.iso_date and not is_iso_date_or_datetime(value):
        _add(findings, path, element, f"{value!r} is not an ISO-8601 date or date-time")
    # the model refuses empty text and the C0 controls that are not whitespace
    if rules.uri and any(ch.isspace() for ch in value):
        _add(findings, path, element, "not a valid URI reference")
    if rules.at_least is not None and value < rules.at_least:
        _add(findings, path, element, f"must be >= {rules.at_least}")
    if rules.above is not None and value <= rules.above:
        _add(findings, path, element, f"must be > {rules.above}")
    if rules.unique_names:
        first: dict[str, int] = {}
        for i, variable in enumerate(value):
            name = variable.name
            if name in first:
                _add(findings, path, f"{element}[{i}].name",
                     f"duplicate variable name {name!r} (first at index {first[name]})")
            elif name is not None:
                first[name] = i


def _check_checksum(node: Checksum, path: str, findings: list[Finding]) -> None:
    if node.algorithm is None:
        _add(findings, path, "algorithm", "checksum needs an algorithm")
        return
    expected_length = CHECKSUM_ALGORITHMS.get(node.algorithm)
    if expected_length is None:
        allowed = ", ".join(sorted(CHECKSUM_ALGORITHMS))
        _add(findings, path, "algorithm", f"{node.algorithm!r} is not one of: {allowed}")
        return
    if node.digest is None:
        _add(findings, path, "digest", "checksum needs a digest")
        return
    if not _HEX_RE.fullmatch(node.digest):
        _add(findings, path, "digest", "digest must be lowercase hex")
    elif len(node.digest) != expected_length:
        _add(findings, path, "digest", f"{node.algorithm} digests have {expected_length} "
             f"hex chars, got {len(node.digest)}")


def _check_variable(node: Variable, path: str, findings: list[Finding]) -> None:
    if node.uncertainty is not None and type(node.value) not in (int, Decimal):
        _add(findings, path, "uncertainty", "uncertainty needs a numeric value to qualify")


# the checks that read more than one field
_CROSS_FIELD = {Checksum: _check_checksum, Variable: _check_variable}
