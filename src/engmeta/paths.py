"""Metadata paths: dotted addresses into the document tree.

A path is a dot-separated chain of element names with optional zero-based
indices, e.g. ``processingStep[0].software[0].name``. Reads return every
addressed value (an index-less list segment means "all entries"); writes
address exactly one scalar location and create missing intermediate nodes on
demand, with list writes allowed at most one position past the current end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PathIndexGapError, PathSyntaxError, PathTargetError
from .model import (
    ELEMENT_VOCABULARY,
    NODE,
    NODE_LIST,
    SCALAR,
    SCALAR_LIST,
    EngMetaDataset,
    FieldSpec,
    _check_scalar,
    field_by_element,
)

_SEGMENT_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:\[(\d+)\])?")


@dataclass(frozen=True)
class PathSegment:
    name: str
    index: int | None = None

    def __str__(self) -> str:
        return self.name if self.index is None else f"{self.name}[{self.index}]"


@dataclass(frozen=True)
class MetadataPath:
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
        index = int(match.group(2)) if match.group(2) is not None else None
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
    return path if isinstance(path, MetadataPath) else parse_path(path)


def get_path(dataset: EngMetaDataset, path: str | MetadataPath) -> list:
    """All values the path addresses; missing elements/indices give []."""
    current = [dataset]
    for segment in _as_path(path).segments:
        gathered = []
        for node in current:
            if not hasattr(type(node), "__dataclass_fields__"):
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


def resolve_specs(path: str | MetadataPath) -> list[tuple[PathSegment, FieldSpec]]:
    """Resolve each segment to its field spec, starting at the document root.

    Raises PathTargetError when a segment does not exist in its context or
    when a scalar appears before the final segment.
    """
    parsed = _as_path(path)
    cls: type | None = EngMetaDataset
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
        resolved.append((segment, spec))
        cls = spec.value_type if spec.kind in (NODE, NODE_LIST) else None
    return resolved


def set_path(
    dataset: EngMetaDataset, path: str | MetadataPath, value
) -> EngMetaDataset:
    """Return a copy of the dataset with one scalar location set.

    Intermediate nodes are created on demand; list indices may point at most
    one past the current end (append). The input document is not modified.
    """
    parsed = _as_path(path)

    def write_scalar(current, segment: PathSegment, spec: FieldSpec):
        if spec.kind in (NODE, NODE_LIST):
            raise PathTargetError(f"{parsed}: {segment.name} is not a scalar field")
        if spec.kind == SCALAR and segment.index not in (None, 0):
            raise PathTargetError(f"{parsed}: {segment.name} is not a list")
        if spec.kind == SCALAR_LIST and segment.index is None:
            raise PathTargetError(f"{parsed}: {segment.name} needs an index for writing")
        try:
            checked = _check_scalar(spec, value)
        except (TypeError, ValueError) as exc:
            raise PathTargetError(f"{parsed}: {exc}") from None
        if spec.kind == SCALAR:
            return checked
        return _place(current, segment, checked, parsed)

    return _write(dataset, parsed, resolve_specs(parsed), 0, write_scalar)


def append_node(dataset: EngMetaDataset, list_path: str | MetadataPath, item) -> EngMetaDataset:
    """Append a prebuilt node to the node list the path addresses.

    The final segment must name a node list (index-less); intermediate
    segments behave as in set_path. Appending an empty node changes
    nothing: documents never hold content-free nodes.
    """
    parsed = _as_path(list_path)
    resolved = resolve_specs(parsed)
    final_segment, final_spec = resolved[-1]
    if final_spec.kind != NODE_LIST or final_segment.index is not None:
        raise PathTargetError(f"{parsed}: not an index-less node list")
    if not isinstance(item, final_spec.value_type):
        raise PathTargetError(
            f"{parsed}: expected {final_spec.value_type.__name__}, "
            f"got {type(item).__name__}"
        )
    if item.is_empty():
        return dataset
    return _write(dataset, parsed, resolved, 0, lambda current, _segment, _spec: current + (item,))


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

    # resolve_specs guarantees intermediate segments name nodes or node lists
    if spec.kind == NODE:
        if segment.index not in (None, 0):
            raise PathTargetError(f"{path}: {segment.name} is not a list")
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
