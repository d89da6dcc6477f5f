"""Scanning files and assembling hits into a metadata document.

Matching is line-oriented: after stripping leading whitespace a line
matches a rule when it starts with the rule's key, followed (optionally
after spaces or tabs) by the delimiter; the raw value is everything after
that first delimiter, trimmed. Raw values are coerced to the rule's value
type; failures are recorded and skipped, never fatal.

Scanning streams each file line by line, so memory grows with the longest
line, not with the file. Each line is decoded on its own (UTF-8 never puts
a newline byte inside a character), and a line is matched only against the
rules whose key it starts with: the rules of the longest such key, which
include those of every key that prefixes it, in declaration order. A rule
source without wildcard characters is looked up by name, and only real
patterns go through ``fnmatch``; either way each distinct source is matched
once per file.

Each file is assembled as soon as it is scanned, so memory holds one
file's hits, not the tree's, and only the steps with hits in the file are
visited. Assembly, and the report, do not depend on the walk's order: files
are processed in lexicographic path order, lines in file order, rules in
declaration order.
A step writes either a scalar or a list. Scalar targets follow first-wins
(later differing values are recorded as conflicts); open list targets
append, skipping entries the list already contains, so scanning duplicated
inputs cannot duplicate metadata. A file's entries for one list (a group's
instances, or an ``occurrence = all`` rule's values) are appended with one
write, or wait as one write until every file is in. Group instances are
built from the coerced values without a second check: ``coerce`` gives each
value as the model stores it, and each rule's ``shape`` says where in the
node its value goes and whether it widens to a ``Decimal`` (an integer in a
decimal field). Extraction runs the plan the config derived (its steps,
each rule's shape) and derives none of it again.

Both modes run this one path, so they produce byte-identical documents.
"parallel" is kept as an alias of "serial": scanning is pure Python and
cheap next to assembly, so a thread pool measured no faster.
"""

from __future__ import annotations

import codecs
import fnmatch
import os
import time
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import NamedTuple

from ..errors import CoercionError, ExtractionRootError, PathIndexGapError
from ..fswalk import utf8_name, walk_files
from ..isodates import is_iso_date_or_datetime
from ..model import (
    SCALAR_TYPES_BY_NAME,
    Conflict,
    EngMetaDataset,
    _trusted_node,
    field_by_element,
    number_from_text,
    scalar_key,
    scalar_to_text,
    text_fault,
    xml_text,
)
from ..paths import MetadataPath, PathSegment, append_nodes, get_path, set_path
from .config import ExtractionConfig, ExtractionRule

MODES = ("serial", "parallel")

# the characters that make a source a pattern for fnmatch
_WILDCARDS = frozenset("*?[")

_BOOLEAN_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class RawHit(NamedTuple):
    """One matching line, before any type conversion."""

    ruleId: str
    sourceFile: str
    lineNumber: int
    rawValue: str


class CoercionFailure(NamedTuple):
    ruleId: str
    sourceFile: str
    lineNumber: int
    rawValue: str
    reason: str


class ExtractionReport(NamedTuple):
    rulesMatched: tuple[str, ...]
    rulesUnmatched: tuple[str, ...]
    hitsPerRule: dict[str, int]
    conflicts: tuple[Conflict, ...]
    coercionFailures: tuple[CoercionFailure, ...]
    warnings: tuple[str, ...]
    filesScanned: int
    bytesScanned: int
    elapsedSeconds: float

    def to_obj(self) -> dict:
        """JSON-ready representation (written by the CLI --report flag): each
        field under its name, in field order, tuples as lists, conflict values
        as text and coercion failures keyed rule, file, line, rawValue, reason."""
        obj = {key: list(value) if isinstance(value, tuple) else value
               for key, value in self._asdict().items()}
        obj["conflicts"] = [{"path": c.path, "base": scalar_to_text(c.base),
                             "overlay": scalar_to_text(c.overlay),
                             "chosen": scalar_to_text(c.chosen)} for c in self.conflicts]
        obj["coercionFailures"] = [dict(zip(("rule", "file", "line", "rawValue", "reason"), f))
                                   for f in self.coercionFailures]
        return obj


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
    """Convert raw text to the rule's value type; raises CoercionError.

    Each value comes out as the model stores it, except that a decimal field
    stores an integer as a ``Decimal``; assembly builds group instances from
    these values unchecked.
    """
    if value_type in ("string", "date"):
        if value_type == "date" and not is_iso_date_or_datetime(raw_value):
            raise CoercionError(f"{raw_value!r} is not an ISO-8601 date or date-time")
        if raw_value == "":  # no scanned value: parse_line gives none
            raise CoercionError("'' is empty")
        fault = text_fault(raw_value)  # none in a scanned value, which holds U+FFFD instead
        if fault is not None:
            raise CoercionError(f"{raw_value!r} {fault}")
        return raw_value
    if value_type in ("integer", "decimal"):
        try:
            return number_from_text(raw_value, SCALAR_TYPES_BY_NAME[value_type])
        except ValueError as exc:
            raise CoercionError(f"{raw_value!r} {exc}") from None
    if value_type == "boolean":
        word = raw_value.lower()
        if word not in _BOOLEAN_WORDS:
            accepted = ", ".join(sorted(_BOOLEAN_WORDS))
            raise CoercionError(f"{raw_value!r} is not a boolean (accepted: {accepted})")
        return _BOOLEAN_WORDS[word]
    raise CoercionError(f"unknown value type {value_type!r}")


def glob_matches(pattern: str, relative_path: str) -> bool:
    """Patterns with a '/' match the relative path, others the basename."""
    if "/" in pattern:
        return fnmatch.fnmatchcase(relative_path, pattern)
    return fnmatch.fnmatchcase(os.path.basename(relative_path), pattern)


def _line_rules(rules: list[ExtractionRule]) -> tuple:
    """A file's rules keyed for line lookup: every distinct key, the distinct key
    lengths longest first, and for each key the rules whose key prefixes it
    (itself included), in declaration order."""
    keys = tuple(dict.fromkeys(rule.key for rule in rules))
    return (keys, tuple(sorted({len(key) for key in keys}, reverse=True)),
            {key: tuple(rule for rule in rules if key.startswith(rule.key)) for key in keys})


def scan_file(
    absolute_path: Path,
    relative_path: str,
    rules: list[ExtractionRule],
) -> tuple[list[RawHit], int, list[str]]:
    """All hits in one file, plus bytes read and warnings.

    The file is read one line at a time. A line, stripped of leading
    whitespace, reaches ``parse_line`` only for the rules whose key it starts
    with: every key that prefixes the line prefixes the longest such key, so
    that key's rules are the line's candidates. Hits keep line order, and
    declaration order within a line. U+FFFD stands for each undecodable
    byte, and for each character of a raw value that XML cannot carry (an
    ANSI colour code's ESC, say); one warning names the first such byte, and
    one the first such line.
    """
    return _scan(absolute_path, relative_path, _line_rules(rules))


def _scan(absolute_path: Path, relative_path: str,
          line_rules: tuple) -> tuple[list[RawHit], int, list[str]]:
    keys, lengths, by_key = line_rules
    hits: list[RawHit] = []
    nbytes = 0
    # the offset of the first undecodable byte, and the first line of a value
    # with a character XML cannot carry
    bad_byte = uncarried_line = None
    try:
        with open(absolute_path, "rb") as handle:
            # a leading byte-order mark is read but is not part of line 1
            if handle.read(3) == codecs.BOM_UTF8:
                nbytes = 3
            else:
                handle.seek(0)
            for line_number, raw in enumerate(handle, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    line = raw.decode("utf-8", errors="replace")
                    if bad_byte is None:
                        bad_byte = nbytes + exc.start
                nbytes += len(raw)
                # the line keeps its "\r\n": a match ends before it, and the
                # value is trimmed
                stripped = line.lstrip()
                if not stripped.startswith(keys):
                    continue
                for length in lengths:
                    candidates = by_key.get(stripped[:length])
                    if candidates is not None:
                        break
                for rule in candidates:
                    hit = parse_line(stripped, rule, source_file=relative_path,
                                     line_number=line_number)
                    if hit is None:
                        continue
                    if text_fault(hit.rawValue) is not None:
                        hit = hit._replace(rawValue=xml_text(hit.rawValue))
                        if uncarried_line is None:
                            uncarried_line = line_number
                    hits.append(hit)
    except OSError as exc:
        return [], 0, [f"{relative_path}: unreadable, skipped ({exc})"]
    warnings = []
    if bad_byte is not None:
        warnings.append(f"{relative_path}: not valid UTF-8 from byte {bad_byte}; "
                        "undecodable bytes replaced")
    if uncarried_line is not None:
        warnings.append(f"{relative_path}: line {uncarried_line} holds characters XML "
                        "cannot carry; replaced with U+FFFD")
    return hits, nbytes, warnings


class AssembleResult(NamedTuple):
    dataset: EngMetaDataset
    conflicts: tuple[Conflict, ...]
    coercionFailures: tuple[CoercionFailure, ...]
    warnings: tuple[str, ...]


def assemble(hits: list[RawHit], config: ExtractionConfig) -> AssembleResult:
    """Build a document from raw hits; deterministic for any hit order.

    The hits are regrouped by file and put through ``extract``'s per-file
    assembly, file by file in sorted order.
    """
    by_file: dict[str, list[RawHit]] = {}
    for hit in hits:
        by_file.setdefault(hit.sourceFile, []).append(hit)
    state = _AssemblyState(config)
    for source_file in sorted(by_file):
        state.take_file(source_file, sorted(by_file[source_file], key=lambda h: h.lineNumber))
    return state.result()


class _AssemblyState:
    """Builds the document file by file, in sorted order, in two kinds of step.

    A list step appends a file's entries for one list (a group's instances,
    or a scalar list's values) as one batch, deduplicated against the list
    and within the batch, with one write; a scalar step writes one value.
    A write whose list indices are not reachable yet (a later-sorting file
    holds the earlier steps) is deferred as one record, (warning, retry,
    entry count), and retried once everything else is in: a batch as one
    write, since all its entries share one reachability. Each entry of a
    write that stays unplaceable gives the warning once.
    """

    def __init__(self, config: ExtractionConfig):
        self.steps = config.steps
        self.dataset = EngMetaDataset()
        self.conflicts: list[Conflict] = []
        self.failures: list[CoercionFailure] = []
        self.warnings: list[str] = []
        self.deferred: list[tuple[str, object, int]] = []  # (warning, retry, entry count)
        self.hits_per_rule: dict[str, int] = {}  # in order of each rule's first hit
        # list path -> (stored tuple, its entries as a set); see _append
        self._list_keys: dict[MetadataPath, tuple[tuple, set]] = {}
        # rule id -> the index of the step it applies in
        self._step_of = {rule.id: index for index, members in enumerate(self.steps)
                         for rule in members}

    def take_file(self, source_file: str, hits: list[RawHit]) -> None:
        """Assemble one file's hits, given in line order."""
        per_rule: dict[str, list[RawHit]] = {}
        for hit in hits:
            per_rule.setdefault(hit.ruleId, []).append(hit)
        for rule_id, rule_hits in per_rule.items():
            self.hits_per_rule[rule_id] = self.hits_per_rule.get(rule_id, 0) + len(rule_hits)
        step_of = self._step_of
        for index in sorted({step_of[rule_id] for rule_id in per_rule if rule_id in step_of}):
            members = self.steps[index]
            rule = members[0]
            if rule.shape.open_list is not None:
                self._take_list(members, source_file, per_rule)
                continue
            rule_hits = per_rule[rule.id]
            hit = rule_hits[0] if rule.occurrence == "first" else rule_hits[-1]
            value = self._coerced(rule, hit)
            if value is not None and not self._apply_scalar(rule, value):
                self.deferred.append((
                    f"rule {rule.id!r} ({hit.sourceFile}:{hit.lineNumber}): target "
                    f"{rule.target} not reachable; hit skipped",
                    partial(self._apply_scalar, rule, value), 1,
                ))

    def result(self) -> AssembleResult:
        """End the pass: retry the deferred writes while any of them succeeds."""
        pending = self.deferred
        while pending:
            remaining = [record for record in pending if not record[1]()]
            if len(remaining) == len(pending):
                break
            pending = remaining
        for warning, _, count in pending:
            self.warnings.extend([warning] * count)
        return AssembleResult(
            self.dataset, tuple(self.conflicts), tuple(self.failures), tuple(self.warnings)
        )

    def _coerced(self, rule: ExtractionRule, hit: RawHit):
        try:
            return coerce(hit.rawValue, rule.valueType)
        except CoercionError as exc:
            self.failures.append(
                CoercionFailure(rule.id, hit.sourceFile, hit.lineNumber, hit.rawValue, str(exc))
            )
            return None

    def _apply_scalar(self, rule: ExtractionRule, value) -> bool:
        """Write a value first-wins, with the rule's unit; False while unreachable."""
        existing = get_path(self.dataset, rule.target)
        if existing:
            if scalar_key(existing[0]) != scalar_key(value):
                self.conflicts.append(
                    Conflict(str(rule.target), existing[0], value, existing[0])
                )
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

    def _append(self, list_path: MetadataPath, items) -> bool:
        """Append, in order and with one write, the items the list does not hold yet.

        False, with nothing written, while the list is unreachable. The set of the
        entries is cached per list and trusted only for the tuple it was built from:
        any other write to the list (an indexed rule, a unit) replaces the tuple.
        """
        stored = self._stored_list(list_path)
        cached = self._list_keys.get(list_path)
        seen = cached[1] if cached is not None and cached[0] is stored else set(stored)
        fresh = [item for item in dict.fromkeys(items) if item not in seen]
        if fresh:
            try:
                self.dataset = append_nodes(self.dataset, list_path, fresh)
            except PathIndexGapError:
                return False
            seen.update(fresh)
            stored = self._stored_list(list_path)
        self._list_keys[list_path] = (stored, seen)
        return True

    def _stored_list(self, list_path: MetadataPath) -> tuple:
        """The tuple stored at an index-less list path; () while its owner is absent."""
        *parents, last = list_path.segments
        owners = get_path(self.dataset, MetadataPath(tuple(parents))) if parents else [self.dataset]
        if not owners:
            return ()
        owner = owners[0]
        return getattr(owner, field_by_element(type(owner), last.name).attr)

    def _take_list(self, members: tuple[ExtractionRule, ...], source_file: str,
                   per_rule: dict[str, list[RawHit]]) -> None:
        """Append one file's entries for a list with one write, or defer them as one.

        A scalar list's rule (``occurrence = all``, alone in its step) gives
        its coerced values, e.g. keywords; a group joins its members' hits
        index-wise into one node each, as each rule's ``shape.in_node``
        places its value.
        """
        present = [rule for rule in members if rule.id in per_rule]
        counts = {rule.id: len(per_rule[rule.id]) for rule in present}
        if len(set(counts.values())) > 1:
            detail = ", ".join(f"{rid}={n}" for rid, n in sorted(counts.items()))
            self.warnings.append(
                f"group {present[0].group!r} in {source_file}: mismatched instance "
                f"counts ({detail}); surplus dropped"
            )
        shape = present[0].shape
        entries = []
        for instance in range(min(counts.values())):
            fields: dict = {}
            unit = None
            for rule in present:
                value = self._coerced(rule, per_rule[rule.id][instance])
                if value is None:
                    continue
                if shape.node_type is None:  # a scalar list: the value is the entry
                    entries.append(value)
                    continue
                owners, attr, widen = rule.shape.in_node
                target = fields
                for owner, owner_type in owners:
                    target = target.setdefault(owner, (owner_type, {}))[1]
                target[attr] = Decimal(value) if widen else value
                unit = unit or rule.unit
            if not fields:
                continue
            # config accepts a unit only on a variable field, and variables
            # sit in lists only, so the node is a Variable; the model stores
            # the unit as a plain str
            if unit is not None:
                fields.setdefault("unit", str.__str__(unit))
            entries.append(_node_from(shape.node_type, fields))
        if entries and not self._append(shape.open_list, entries):
            self.deferred.append((f"append to {shape.open_list} not reachable; hit skipped",
                                  partial(self._append, shape.open_list, entries), len(entries)))


def _node_from(cls: type, fields: dict):
    """A node built unchecked from canonical values.

    ``fields`` maps attributes to scalars as the model stores them, or to a
    (class, fields) pair for a child node; no field set is empty.
    """
    return _trusted_node(cls, {
        attr: _node_from(*value) if type(value) is tuple else value
        for attr, value in fields.items()
    })


def extract(
    root_dir: str | Path,
    config: ExtractionConfig,
    mode: str = "serial",
    workers: int | None = None,
) -> tuple[EngMetaDataset, ExtractionReport]:
    """Scan a directory tree and assemble the extracted metadata.

    ``mode`` is "serial" or "parallel"; both run the same scan and give
    identical documents. ``workers`` is accepted and ignored, so that
    callers written for a worker pool keep working.
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

    state = _AssemblyState(config)
    files_scanned = 0
    bytes_scanned = 0
    sources = dict.fromkeys(rule.source for rule in config.rules)
    # a source without wildcard characters matches only the path or name it spells
    patterns = tuple(source for source in sources if _WILDCARDS.intersection(source))
    names = sources.keys() - patterns
    # the matched sources -> their rules, keyed for line lookup
    line_rules: dict[frozenset[str], tuple] = {}
    for fs_name, absolute_path in walk_files(root, unreadable_directory):
        relative_path, note = utf8_name(fs_name)
        matched = frozenset(
            names & {relative_path, os.path.basename(relative_path)}
        ).union(source for source in patterns if glob_matches(source, relative_path))
        if not matched:
            continue
        if note is not None:
            warnings.append(f"{relative_path}: {note}")
        if matched not in line_rules:
            line_rules[matched] = _line_rules([r for r in config.rules if r.source in matched])
        file_hits, nbytes, file_warnings = _scan(absolute_path, relative_path,
                                                 line_rules[matched])
        state.take_file(relative_path, file_hits)
        warnings.extend(file_warnings)
        files_scanned += 1
        bytes_scanned += nbytes
    assembled = state.result()

    hits_per_rule = state.hits_per_rule
    matched = tuple(r.id for r in config.rules if hits_per_rule.get(r.id))
    unmatched = tuple(r.id for r in config.rules if not hits_per_rule.get(r.id))

    report = ExtractionReport(
        rulesMatched=matched,
        rulesUnmatched=unmatched,
        hitsPerRule=hits_per_rule,
        conflicts=assembled.conflicts,
        coercionFailures=assembled.coercionFailures,
        warnings=tuple(warnings) + assembled.warnings,
        filesScanned=files_scanned,
        bytesScanned=bytes_scanned,
        elapsedSeconds=time.perf_counter() - started,
    )
    return assembled.dataset, report
