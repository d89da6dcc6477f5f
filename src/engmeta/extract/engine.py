"""Scanning files and assembling hits into a metadata document.

Matching is line-oriented: after stripping leading whitespace a line
matches a rule when it starts with the rule's key, followed (optionally
after spaces or tabs) by the delimiter; the raw value is everything after
that first delimiter, trimmed. Raw values are coerced to the rule's value
type; failures are recorded and skipped, never fatal.

Assembly is deterministic regardless of scan order: files are processed in
lexicographic path order, lines in file order, rules in declaration order.
Scalar targets follow first-wins (later differing values are recorded as
conflicts); open list targets append, skipping entries the list already
contains, so scanning duplicated inputs cannot duplicate metadata. The
parallel mode distributes the per-file scans over a thread pool and feeds
the same ordered assembly, which is why both modes produce byte-identical
documents.
"""

from __future__ import annotations

import fnmatch
import os
import time
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

from ..errors import CoercionError, ExtractionRootError, PathIndexGapError
from ..fswalk import walk_files
from ..isodates import is_iso_date_or_datetime
from ..merging import Conflict
from ..model import (
    NODE,
    SCALAR,
    EngMetaDataset,
    Variable,
    field_by_element,
    scalar_key,
    scalars_equal,
)
from ..paths import (
    MetadataPath,
    PathSegment,
    append_node,
    get_path,
    resolve_specs,
    set_path,
)
from .config import ExtractionConfig, ExtractionRule

MODES = ("serial", "parallel")

WORKERS_ENV_VAR = "ENGMETA_WORKERS"

_BOOLEAN_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True)
class RawHit:
    """One matching line, before any type conversion."""

    ruleId: str
    sourceFile: str
    lineNumber: int
    rawValue: str


@dataclass(frozen=True)
class CoercionFailure:
    ruleId: str
    sourceFile: str
    lineNumber: int
    rawValue: str
    reason: str


@dataclass(frozen=True)
class ExtractionReport:
    rulesMatched: tuple[str, ...] = ()
    rulesUnmatched: tuple[str, ...] = ()
    hitsPerRule: dict[str, int] = field(default_factory=dict)
    conflicts: tuple[Conflict, ...] = ()
    coercionFailures: tuple[CoercionFailure, ...] = ()
    warnings: tuple[str, ...] = ()
    filesScanned: int = 0
    bytesScanned: int = 0
    elapsedSeconds: float = 0.0

    def to_obj(self) -> dict:
        """JSON-ready representation (written by the CLI --report flag)."""
        return {
            "rulesMatched": list(self.rulesMatched),
            "rulesUnmatched": list(self.rulesUnmatched),
            "hitsPerRule": dict(self.hitsPerRule),
            "conflicts": [
                {
                    "path": c.path,
                    "base": str(c.base),
                    "overlay": str(c.overlay),
                    "chosen": str(c.chosen),
                }
                for c in self.conflicts
            ],
            "coercionFailures": [
                {
                    "rule": f.ruleId,
                    "file": f.sourceFile,
                    "line": f.lineNumber,
                    "rawValue": f.rawValue,
                    "reason": f.reason,
                }
                for f in self.coercionFailures
            ],
            "warnings": list(self.warnings),
            "filesScanned": self.filesScanned,
            "bytesScanned": self.bytesScanned,
            "elapsedSeconds": self.elapsedSeconds,
        }


def parse_line(
    line: str,
    rule: ExtractionRule,
    *,
    source_file: str = "<memory>",
    line_number: int = 1,
) -> RawHit | None:
    """Match one line against one rule; non-matching lines give None."""
    stripped = line.lstrip()
    if not stripped.startswith(rule.key):
        return None
    rest = stripped[len(rule.key):]
    rest = rest.lstrip(" \t")
    if not rest.startswith(rule.delimiter):
        return None
    raw_value = rest[len(rule.delimiter):].strip()
    if raw_value == "":
        return None
    return RawHit(rule.id, source_file, line_number, raw_value)


def coerce(raw_value: str, value_type: str):
    """Convert raw text to the rule's value type; raises CoercionError."""
    if value_type == "string":
        return raw_value
    if value_type == "integer":
        body = raw_value[1:] if raw_value[:1] in "+-" else raw_value
        if not body.isdigit():
            raise CoercionError(f"{raw_value!r} is not an integer")
        return int(raw_value)
    if value_type == "decimal":
        try:
            value = Decimal(raw_value)
        except InvalidOperation:
            raise CoercionError(f"{raw_value!r} is not a decimal number") from None
        if not value.is_finite():
            raise CoercionError(f"{raw_value!r} is not a finite decimal")
        return value
    if value_type == "boolean":
        word = raw_value.lower()
        if word not in _BOOLEAN_WORDS:
            accepted = ", ".join(sorted(_BOOLEAN_WORDS))
            raise CoercionError(f"{raw_value!r} is not a boolean (accepted: {accepted})")
        return _BOOLEAN_WORDS[word]
    if value_type == "date":
        if not is_iso_date_or_datetime(raw_value):
            raise CoercionError(f"{raw_value!r} is not an ISO-8601 date or date-time")
        return raw_value
    raise CoercionError(f"unknown value type {value_type!r}")


def glob_matches(pattern: str, relative_path: str) -> bool:
    """Patterns with a '/' match the relative path, others the basename."""
    if "/" in pattern:
        return fnmatch.fnmatchcase(relative_path, pattern)
    return fnmatch.fnmatchcase(os.path.basename(relative_path), pattern)


def scan_file(
    absolute_path: Path,
    relative_path: str,
    rules: list[ExtractionRule],
) -> tuple[list[RawHit], int, list[str]]:
    """All hits in one file, plus bytes read and warnings."""
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
    for line_number, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        for rule in rules:
            hit = parse_line(line, rule, source_file=relative_path, line_number=line_number)
            if hit is not None:
                hits.append(hit)
    return hits, len(data), warnings


@dataclass(frozen=True)
class AssembleResult:
    dataset: EngMetaDataset
    conflicts: tuple[Conflict, ...]
    coercionFailures: tuple[CoercionFailure, ...]
    warnings: tuple[str, ...]


def assemble(hits: list[RawHit], config: ExtractionConfig) -> AssembleResult:
    """Build a document from raw hits; deterministic for any hit order."""
    by_file: dict[str, dict[str, list[RawHit]]] = {}
    for hit in hits:
        by_file.setdefault(hit.sourceFile, {}).setdefault(hit.ruleId, []).append(hit)
    for per_rule in by_file.values():
        for rule_hits in per_rule.values():
            rule_hits.sort(key=lambda h: h.lineNumber)

    state = _AssemblyState(config)
    for source_file in sorted(by_file):
        state.take_file(source_file, by_file[source_file])
    state.resolve_deferred()
    return AssembleResult(
        state.dataset,
        tuple(state.conflicts),
        tuple(state.failures),
        tuple(state.warnings),
    )


class _AssemblyState:
    """Builds the document hit by hit, files in sorted order.

    Writes whose list indices are not reachable yet (a later-sorting file
    holds the earlier steps) are deferred and retried once everything else
    is in; only writes that stay unplaceable end up as warnings.
    """

    def __init__(self, config: ExtractionConfig):
        self.config = config
        self.dataset = EngMetaDataset()
        self.conflicts: list[Conflict] = []
        self.failures: list[CoercionFailure] = []
        self.warnings: list[str] = []
        self.deferred: list[tuple[str, object]] = []  # (description, retry thunk)
        # list path -> (stored tuple, keys of its entries); see _seen_keys
        self._list_keys: dict[MetadataPath, tuple[tuple, set]] = {}

    def take_file(self, source_file: str, per_rule: dict[str, list[RawHit]]) -> None:
        handled_groups: set[str] = set()
        for rule in self.config.rules:
            if rule.group is not None:
                if rule.group not in handled_groups:
                    handled_groups.add(rule.group)
                    self._take_group(rule.group, source_file, per_rule)
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
                if rule.shape.open_segment is None:
                    self._write_scalar(rule, hit, value)
                else:
                    self._append_open(rule, value)

    def _coerced(self, rule: ExtractionRule, hit: RawHit):
        try:
            return coerce(hit.rawValue, rule.valueType)
        except CoercionError as exc:
            self.failures.append(
                CoercionFailure(rule.id, hit.sourceFile, hit.lineNumber, hit.rawValue, str(exc))
            )
            return None

    def _write_scalar(self, rule: ExtractionRule, hit: RawHit, value) -> None:
        if not self._apply_scalar(rule, value):
            self.deferred.append((
                f"rule {rule.id!r} ({hit.sourceFile}:{hit.lineNumber}): "
                f"target {rule.target} not reachable",
                lambda: self._apply_scalar(rule, value),
            ))

    def _apply_scalar(self, rule: ExtractionRule, value) -> bool:
        existing = get_path(self.dataset, rule.target)
        if existing:
            if not scalars_equal(existing[0], value):
                self.conflicts.append(
                    Conflict(str(rule.target), existing[0], value, existing[0])
                )
            return True
        try:
            updated = set_path(self.dataset, rule.target, value)
        except PathIndexGapError:
            return False
        self.dataset = updated
        self._attach_unit(rule, rule.target.segments)
        return True

    def resolve_deferred(self) -> None:
        while self.deferred:
            remaining = []
            progress = False
            for description, retry in self.deferred:
                if retry():
                    progress = True
                else:
                    remaining.append((description, retry))
            self.deferred = remaining
            if not progress:
                break
        for description, _ in self.deferred:
            self.warnings.append(f"{description}; hit skipped")
        self.deferred = []

    def _attach_unit(self, rule: ExtractionRule, segments: tuple[PathSegment, ...]) -> None:
        if rule.unit is None:
            return
        unit_path = MetadataPath(segments[:-1] + (PathSegment("unit"),))
        if not get_path(self.dataset, unit_path):
            self.dataset = set_path(self.dataset, unit_path, rule.unit)

    def _append_open(self, rule: ExtractionRule, value) -> None:
        open_position = rule.shape.open_segment
        prefix = rule.target.segments[: open_position + 1]
        suffix = rule.target.segments[open_position + 1:]
        if not suffix:
            # scalar list target, e.g. each hit is one keyword
            self._append_scalar(MetadataPath(prefix), value)
            return
        # node list target: each hit creates one new node
        node_type = _open_node_type(rule)
        node = _build_node(node_type, {tuple(s.name for s in suffix): value})
        if rule.unit is not None and isinstance(node, Variable) and node.unit is None:
            node = replace(node, unit=rule.unit)
        self._append_deduplicated(MetadataPath(prefix), node)

    def _append_scalar(self, list_path: MetadataPath, value) -> None:
        stored = self._stored_list(list_path)
        seen = self._seen_keys(list_path, stored, scalar_key)
        if scalar_key(value) in seen:
            return
        *parents, last = list_path.segments
        indexed = MetadataPath((*parents, PathSegment(last.name, len(stored))))
        self.dataset = set_path(self.dataset, indexed, value)
        self._remember_last(list_path, seen, scalar_key)

    def _append_deduplicated(self, list_path: MetadataPath, node) -> None:
        if not self._apply_append(list_path, node):
            self.deferred.append((
                f"append to {list_path} not reachable",
                lambda: self._apply_append(list_path, node),
            ))

    def _apply_append(self, list_path: MetadataPath, node) -> bool:
        seen = self._seen_keys(list_path, self._stored_list(list_path), _node_key)
        if node in seen:
            return True
        try:
            updated = append_node(self.dataset, list_path, node)
        except PathIndexGapError:
            return False
        self.dataset = updated
        self._remember_last(list_path, seen, _node_key)
        return True

    def _stored_list(self, list_path: MetadataPath) -> tuple:
        """The tuple stored at an index-less list path; () while its owner is absent."""
        *parents, last = list_path.segments
        owners = get_path(self.dataset, MetadataPath(tuple(parents))) if parents else [self.dataset]
        if not owners:
            return ()
        owner = owners[0]
        return getattr(owner, field_by_element(type(owner), last.name).attr)

    def _seen_keys(self, list_path: MetadataPath, stored: tuple, key) -> set:
        """Dedup keys of a stored list, rebuilt whenever the stored tuple changed.

        Any write elsewhere in the list (an indexed rule, a unit) replaces the
        tuple, so keys cached for the old tuple are never trusted for the new.
        """
        cached = self._list_keys.get(list_path)
        if cached is not None and cached[0] is stored:
            return cached[1]
        keys = {key(item) for item in stored}
        self._list_keys[list_path] = (stored, keys)
        return keys

    def _remember_last(self, list_path: MetadataPath, seen: set, key) -> None:
        stored = self._stored_list(list_path)
        seen.add(key(stored[-1]))
        self._list_keys[list_path] = (stored, seen)

    def _take_group(self, group: str, source_file: str,
                    per_rule: dict[str, list[RawHit]]) -> None:
        members = [r for r in self.config.rules if r.group == group]
        present = [r for r in members if per_rule.get(r.id)]
        if not present:
            return
        counts = {r.id: len(per_rule[r.id]) for r in present}
        instance_count = min(counts.values())
        if len(set(counts.values())) > 1:
            detail = ", ".join(f"{rid}={n}" for rid, n in sorted(counts.items()))
            self.warnings.append(
                f"group {group!r} in {source_file}: mismatched instance counts "
                f"({detail}); surplus dropped"
            )
        first = present[0]
        open_position = first.shape.open_segment
        prefix = first.target.segments[: open_position + 1]
        node_type = _open_node_type(first)
        for instance in range(instance_count):
            values: dict[tuple[str, ...], object] = {}
            unit: str | None = None
            for rule in present:
                hit = per_rule[rule.id][instance]
                value = self._coerced(rule, hit)
                if value is None:
                    continue
                suffix = tuple(
                    s.name for s in rule.target.segments[rule.shape.open_segment + 1:]
                )
                values[suffix] = value
                if rule.unit is not None and unit is None:
                    unit = rule.unit
            if not values:
                continue
            node = _build_node(node_type, values)
            if unit is not None and isinstance(node, Variable) and node.unit is None:
                node = replace(node, unit=unit)
            self._append_deduplicated(MetadataPath(prefix), node)


def _node_key(node):
    # nodes are their own dedup key: they hash and compare by canonical key
    return node


def _open_node_type(rule: ExtractionRule) -> type:
    resolved = resolve_specs(rule.target)
    return resolved[rule.shape.open_segment][1].value_type


def _build_node(node_type: type, values: dict[tuple[str, ...], object]):
    node = node_type()
    for suffix, value in values.items():
        node = _set_relative(node, suffix, value)
    return node


def _set_relative(node, suffix: tuple[str, ...], value):
    # config validation guarantees the suffix runs through singular nodes
    # down to one scalar field
    name, rest = suffix[0], suffix[1:]
    spec = field_by_element(type(node), name)
    if spec is None:
        raise AssertionError(f"no element {name!r} in {type(node).__name__}")
    if not rest:
        if spec.kind != SCALAR:
            raise AssertionError(f"{name!r} is not scalar")
        return replace(node, **{spec.attr: value})
    if spec.kind != NODE:
        raise AssertionError(f"{name!r} cannot hold nested instance fields")
    child = getattr(node, spec.attr) or spec.value_type()
    return replace(node, **{spec.attr: _set_relative(child, rest, value)})


def _positive_env_workers() -> int | None:
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def extract(
    root_dir: str | Path,
    config: ExtractionConfig,
    mode: str = "serial",
    workers: int | None = None,
) -> tuple[EngMetaDataset, ExtractionReport]:
    """Scan a directory tree and assemble the extracted metadata.

    Serial and parallel modes produce identical documents; parallel only
    changes how the per-file scans are scheduled.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    root = Path(root_dir)
    if not root.is_dir():
        raise ExtractionRootError(f"extraction root {root} is not a readable directory")

    started = time.perf_counter()
    warnings: list[str] = []

    def unreadable_directory(relative_path: str, exc: OSError) -> None:
        warnings.append(f"{relative_path}: unreadable directory, skipped ({exc})")

    all_files = walk_files(root, unreadable_directory)
    work: list[tuple[str, Path, list[ExtractionRule]]] = []
    for relative_path, absolute_path in all_files:
        applicable = [r for r in config.rules if glob_matches(r.source, relative_path)]
        if applicable:
            work.append((relative_path, absolute_path, applicable))

    if mode == "parallel" and len(work) > 1:
        from concurrent.futures import ThreadPoolExecutor

        worker_count = workers or _positive_env_workers() or os.cpu_count() or 1
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            scanned = list(
                pool.map(lambda item: scan_file(item[1], item[0], item[2]), work)
            )
    else:
        scanned = [scan_file(abs_path, rel, rules) for rel, abs_path, rules in work]

    hits: list[RawHit] = []
    bytes_scanned = 0
    for file_hits, nbytes, file_warnings in scanned:
        hits.extend(file_hits)
        warnings.extend(file_warnings)
        bytes_scanned += nbytes

    assembled = assemble(hits, config)

    hits_per_rule: dict[str, int] = {}
    for hit in hits:
        hits_per_rule[hit.ruleId] = hits_per_rule.get(hit.ruleId, 0) + 1
    matched = tuple(r.id for r in config.rules if hits_per_rule.get(r.id))
    unmatched = tuple(r.id for r in config.rules if not hits_per_rule.get(r.id))

    report = ExtractionReport(
        rulesMatched=matched,
        rulesUnmatched=unmatched,
        hitsPerRule=hits_per_rule,
        conflicts=assembled.conflicts,
        coercionFailures=assembled.coercionFailures,
        warnings=tuple(warnings) + assembled.warnings,
        filesScanned=len(work),
        bytesScanned=bytes_scanned,
        elapsedSeconds=time.perf_counter() - started,
    )
    return assembled.dataset, report
