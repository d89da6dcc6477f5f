"""ISO-8601 dates in Python 3.10's ``fromisoformat`` grammar on every version.

One predicate, ``is_iso_date_or_datetime``, serves every caller: the
``iso_date`` field rule, ``type = date`` coercion and PROV-N's end time,
which first requires the xsd:dateTime form and so a time part.

3.11 widened ``fromisoformat`` to most of ISO 8601 (``20200101``,
``2020-W01-1``), so a text must match the 3.10 grammar before
``fromisoformat`` checks its calendar and clock values. The grammar also
bounds an offset's minutes and seconds below 60, which ``fromisoformat``
would otherwise carry into the hours (``+01:99`` read as ``+02:39``).
"""

from __future__ import annotations

import datetime as _dt
import re

# YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]], * any one character
_ISO_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?P<time>.[0-9]{2}(?::[0-9]{2}(?::[0-9]{2}"
    r"(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:[+-][0-9]{2}:[0-5][0-9](?::[0-5][0-9](?:\.[0-9]{6})?)?)?)?",
    re.DOTALL,
)


def is_iso_date_or_datetime(text: str) -> bool:
    """True when the text spells an ISO-8601 date or date-time."""
    candidate = text.strip()
    if candidate.endswith(("Z", "z")):  # which fromisoformat only learned in 3.11
        candidate = candidate[:-1] + "+00:00"
    match = _ISO_RE.fullmatch(candidate)
    if match is None:
        return False
    try:
        (_dt.date if match["time"] is None else _dt.datetime).fromisoformat(candidate)
    except ValueError:
        return False
    return True
