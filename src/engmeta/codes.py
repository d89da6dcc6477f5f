"""Controlled code lists.

The lists live in a bundled JSON table (codes.json) so deployments can adjust
them without touching code; the model's field rules name them. Only the
processing-step types (declared with their field in ``model``) and checksum
algorithms are fixed, because other behavior depends on them.
"""

from __future__ import annotations

import json
import pkgutil
from functools import lru_cache

from .model import STEP_TYPES  # noqa: F401  (re-exported)

# Fixed: algorithm code -> required hex digest length.
CHECKSUM_ALGORITHMS = {"MD5": 32, "SHA-256": 64}


@lru_cache(maxsize=1)
def load_codes() -> dict[str, tuple[str, ...]]:
    """Return the bundled code lists, keyed by list name."""
    # pkgutil, not importlib.resources, which imports inspect on Python 3.12+
    data = json.loads(pkgutil.get_data(__package__, "codes.json"))
    return {name: tuple(values) for name, values in data.items()}


def codes(list_name: str) -> tuple[str, ...]:
    """The values of one named code list (e.g. 'roles', 'dateTypes')."""
    table = load_codes()
    if list_name not in table:
        raise KeyError(f"unknown code list: {list_name}")
    return table[list_name]
