"""Small independent helpers used to cross-check module output in tests."""

from dataclasses import replace

from engmeta.errors import PathIndexGapError
from engmeta.extract.engine import _AssemblyState
from engmeta.merging import Conflict
from engmeta.model import NODE, NODE_LIST, SCALAR, SCALAR_LIST, scalars_equal, schema
from engmeta.paths import MetadataPath, PathSegment, append_node, get_path, set_path


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
    return replace(base, **updates) if updates else base


class ListScanAssembly(_AssemblyState):
    """Assembly that deduplicates appends by scanning the stored list."""

    def _append_scalar(self, list_path: MetadataPath, value) -> None:
        current = get_path(self.dataset, list_path)
        if any(scalars_equal(item, value) for item in current):
            return
        *parents, last = list_path.segments
        indexed = MetadataPath((*parents, PathSegment(last.name, len(current))))
        self.dataset = set_path(self.dataset, indexed, value)

    def _apply_append(self, list_path: MetadataPath, node) -> bool:
        if _already_in(get_path(self.dataset, list_path), node):
            return True
        try:
            self.dataset = append_node(self.dataset, list_path, node)
        except PathIndexGapError:
            return False
        return True


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
