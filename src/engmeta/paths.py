"""Metadata paths: dotted addresses into the document tree.

A path is a dot-separated chain of element names with optional zero-based
indices, e.g. ``processingStep[0].software[0].name``. Reads return every
addressed value (an index-less list segment means "all entries"); writes
address exactly one scalar location and create missing intermediate nodes on
demand, with list writes allowed at most one position past the current end.
Reads and writes resolve a path by one rule (``_resolve``): where a write
raises PathTargetError (``project[1]``, a segment below a scalar, a document
that is not a node), a read returns nothing.
Appends (``append_nodes``) add entries to the end of an index-less list and
check them with the list check the node constructors run.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import PathIndexGapError, PathSyntaxError, PathTargetError
from .model import (
    ELEMENT_VOCABULARY,
    NODE,
    NODE_LIST,
    SCALAR,
    SCALAR_LIST,
    EngMetaDataset,
    FieldSpec,
    _Node,
    _check_scalar,
    _normalize_field,
    field_by_element,
)

_SEGMENT_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:\[(\d+)\])?")


class PathSegment(NamedTuple):
    name: str
    index: int | None = None

    def __str__(self) -> str:
        return self.name if self.index is None else f"{self.name}[{self.index}]"


class MetadataPath(NamedTuple):
    segments: tuple[PathSegment, ...]

    def __str__(self) -> str:
        return ".".join(str(seg) for seg in self.segments)


def parse_path(text: str) -> MetadataPath:
    """Parse path text; raises PathSyntaxError with the failing offset."""
    if not text:
        raise PathSyntaxError("empty path", 0)
    segments: list[PathSegment] = []
    pos = 0
    while True:
        match = _SEGMENT_RE.match(text, pos)
        if match is None or match.start() != pos:
            raise PathSyntaxError("expected element name", pos)
        name = match.group(1)
        if name not in ELEMENT_VOCABULARY:
            raise PathSyntaxError(f"unknown element {name!r}", pos)
        index = None
        if match.group(2) is not None:
            try:
                index = int(match.group(2))
            except ValueError:  # more digits than int() converts
                raise PathSyntaxError("index too large", match.start(2)) from None
        segments.append(PathSegment(name, index))
        pos = match.end()
        if pos == len(text):
            break
        if text[pos] != ".":
            raise PathSyntaxError("expected '.' between segments", pos)
        pos += 1
        if pos == len(text):
            raise PathSyntaxError("trailing '.'", pos)
    return MetadataPath(tuple(segments))


def _as_path(path: str | MetadataPath) -> MetadataPath:
    """Text parsed, which gives valid segments; a built path with its segments checked."""
    if not isinstance(path, MetadataPath):
        return parse_path(path)
    segments = path.segments
    if type(segments) is not tuple or not segments or not all(
            isinstance(s, PathSegment) and type(s.name) is str
            and (s.index is None or type(s.index) is int and s.index >= 0) for s in segments):
        raise PathTargetError(f"path segments must be a non-empty tuple of PathSegments of a str "
                              f"name and a non-negative int or None index, got {segments!r}")
    return path


def get_path(dataset: EngMetaDataset, path: str | MetadataPath) -> list:
    """All values the path addresses; a path that resolves nowhere gives []."""
    parsed = _as_path(path)
    try:
        resolved = _resolve(parsed, type(dataset))
    except PathTargetError:
        return []
    current = [dataset]
    for segment, spec in resolved:
        gathered = []
        for node in current:
            value = getattr(node, spec.attr)
            if spec.kind in (SCALAR, NODE):
                if value is not None:
                    gathered.append(value)
            elif segment.index is None:
                gathered.extend(value)
            elif segment.index < len(value):
                gathered.append(value[segment.index])
        current = gathered
    return current


def resolve_specs(path: str | MetadataPath) -> list[tuple[PathSegment, FieldSpec]]:
    """Resolve each segment to its field spec, starting at ``EngMetaDataset``.

    Raises PathTargetError when a segment does not exist in its context, when
    a scalar appears before the final segment, or when a field that is not a
    list has an index but 0.
    """
    return _resolve(_as_path(path), EngMetaDataset)


def _resolve(parsed: MetadataPath, root: type) -> list[tuple[PathSegment, FieldSpec]]:
    if not issubclass(root, _Node):
        raise PathTargetError(f"{parsed}: a {root.__name__} is not a document node")
    cls: type | None = root
    resolved: list[tuple[PathSegment, FieldSpec]] = []
    for position, segment in enumerate(parsed.segments):
        if cls is None:
            raise PathTargetError(
                f"{parsed}: {parsed.segments[position - 1].name} is a scalar, "
                f"nothing below it"
            )
        spec = field_by_element(cls, segment.name)
        if spec is None:
            raise PathTargetError(f"{parsed}: no element {segment.name!r} in {cls.__name__}")
        if spec.kind in (SCALAR, NODE) and segment.index not in (None, 0):
            raise PathTargetError(f"{parsed}: {segment.name} is not a list")
        resolved.append((segment, spec))
        cls = spec.value_type if spec.kind in (NODE, NODE_LIST) else None
    return resolved


def set_path(dataset, path: str | MetadataPath, value):
    """Return a copy of the dataset with one scalar location set.

    Intermediate nodes are created on demand; list indices may point at most
    one past the current end (append). The input document is not modified.
    Any node can stand in for the dataset; the path is then relative to it.
    """
    parsed = _as_path(path)

    def write_scalar(current, segment: PathSegment, spec: FieldSpec):
        if spec.kind in (NODE, NODE_LIST):
            raise PathTargetError(f"{parsed}: {segment.name} is not a scalar field")
        if spec.kind == SCALAR_LIST and segment.index is None:
            raise PathTargetError(f"{parsed}: {segment.name} needs an index for writing")
        try:
            checked = _check_scalar(spec, value)
        except (TypeError, ValueError) as exc:
            raise PathTargetError(f"{parsed}: {exc}") from None
        if spec.kind == SCALAR:
            return checked
        return _place(current, segment, checked, parsed)

    return _write(dataset, parsed, _resolve(parsed, type(dataset)), 0, write_scalar)


def append_nodes(dataset, list_path: str | MetadataPath, items):
    """Append prebuilt nodes, or scalars, in order, with one write.

    The final segment must name a list, index-less; intermediate segments
    behave as in set_path. The items pass the list check every node
    constructor runs, before anything is written: scalars are checked as
    set_path checks them, nodes against the list's node class, and empty
    nodes are skipped, since documents never hold content-free nodes. A
    failed check raises PathTargetError. When nothing is left to append the
    document is returned unchanged. As with set_path, any node can stand in
    for the dataset.
    """
    parsed = _as_path(list_path)
    resolved = _resolve(parsed, type(dataset))
    final_segment, final_spec = resolved[-1]
    if final_spec.kind not in (NODE_LIST, SCALAR_LIST) or final_segment.index is not None:
        raise PathTargetError(f"{parsed}: not an index-less list")
    try:
        added = _normalize_field(final_spec, items)
    except (TypeError, ValueError) as exc:
        raise PathTargetError(f"{parsed}: {exc}") from None
    if not added:
        return dataset
    return _write(dataset, parsed, resolved, 0, lambda current, _segment, _spec: current + added)


def _write(node, path: MetadataPath, resolved, pos: int, leaf):
    """Copy of node with the final field of the path replaced by leaf's result.

    ``leaf(current, segment, spec)`` returns the new value of the final
    field. Missing intermediate nodes are created; a list index may point
    at most one past the current end. Only the fields along the path are
    rebuilt: callers write checked scalars or non-empty nodes, so every
    node on the path stays non-empty and canonical.
    """
    segment, spec = resolved[pos]
    if pos == len(resolved) - 1:
        return node._replaced(spec.attr, leaf(getattr(node, spec.attr), segment, spec))

    # _resolve guarantees intermediate segments name nodes (index 0 at most) or node lists
    if spec.kind == NODE:
        child = getattr(node, spec.attr) or spec.value_type()
        return node._replaced(spec.attr, _write(child, path, resolved, pos + 1, leaf))

    if segment.index is None:
        raise PathTargetError(f"{path}: {segment.name} needs an index for writing")
    current = getattr(node, spec.attr)
    if segment.index < len(current):
        child = current[segment.index]
    else:
        _check_no_gap(current, segment, path)
        child = spec.value_type()
    new_child = _write(child, path, resolved, pos + 1, leaf)
    return node._replaced(spec.attr, _place(current, segment, new_child, path))


def _place(current: tuple, segment: PathSegment, item, path) -> tuple:
    index = segment.index
    if index < len(current):
        return current[:index] + (item,) + current[index + 1 :]
    _check_no_gap(current, segment, path)
    return current + (item,)


def _check_no_gap(current: tuple, segment: PathSegment, path) -> None:
    if segment.index > len(current):
        raise PathIndexGapError(
            f"{path}: index {segment.index} would leave a gap "
            f"({segment.name} has {len(current)} entries)"
        )
