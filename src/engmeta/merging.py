"""Combining two metadata documents into one.

Documents assembled from different sources (extraction runs, harvests,
manual edits) overlap; merging is deterministic: list fields concatenate
(overlay entries already present in the base are dropped), scalar fields
that disagree produce a conflict record resolved by the chosen policy.
"""

from __future__ import annotations

from .model import (
    NODE,
    SCALAR,
    Conflict,
    EngMetaDataset,
    scalar_key,
    schema,
)

POLICIES = ("first-wins", "overlay-wins")


def merge(
    base: EngMetaDataset, overlay: EngMetaDataset, policy: str = "first-wins"
) -> tuple[EngMetaDataset, list[Conflict]]:
    """Merge overlay into base; returns the result and all conflicts found."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    conflicts: list[Conflict] = []
    merged = _merge_node(base, overlay, "", policy, conflicts)
    return merged, conflicts


def _merge_node(base, overlay, path: str, policy: str, conflicts: list[Conflict]):
    merged_node = base
    for spec in schema(type(base)):
        left = getattr(base, spec.attr)
        right = getattr(overlay, spec.attr)
        field_path = f"{path}.{spec.element}" if path else spec.element

        if spec.kind == SCALAR:
            if left is None:
                merged = right
            elif right is None or scalar_key(left) == scalar_key(right):
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
        elif right:  # lists concatenate, dropping overlay entries the base already has
            present = set(left)  # nodes hash by their type-strict canonical key
            extra = tuple(item for item in right if item not in present)
            merged = left + extra if extra else left
        else:
            merged = left

        if merged is not left:  # both sides hold canonical values already
            merged_node = merged_node._replaced(spec.attr, merged)

    return merged_node
