"""A fixed unit of interpreter work that measures the machine's current speed.

On a shared host the speed of plain Python code changes by a large factor
from one moment to the next, for every program alike, and each CPU changes
on its own (other tenants, frequency scaling). Units of fixed work timed on
a command's CPU before, during and after the command tell how fast that CPU
was while the command ran; dividing the command's time by their median gives
a time that moves with the program, not with the host.

``probe()`` returns the CPU time of one unit of work, in seconds.
``normalised(seconds, probe_s)`` rescales a time to a machine on which a
unit takes ``REFERENCE_S``: the result is in seconds at that reference
speed. The probe does not call engmeta, so no change to the program can
move it.
"""

from __future__ import annotations

import hashlib
import re
import time
import xml.etree.ElementTree as ET

# CPU seconds one unit takes on the reference machine (a 2-CPU cloud host in
# its faster state); reported times are rescaled to that speed.
REFERENCE_S = 0.0065

_LINES = [f"key{i % 53} = {i * 7919 % 100003} unit{i % 7}" for i in range(7000)]
_PATTERN = re.compile(r"^(\w+)\s*=\s*(\d+)\s+(\w+)$")


def _unit() -> int:
    """Regex scanning, dict and list building, XML and hashing, as engmeta does."""
    table: dict[str, list[int]] = {}
    for line in _LINES:
        match = _PATTERN.match(line)
        table.setdefault(match.group(1), []).append(int(match.group(2)))
    root = ET.Element("dataset")
    for key, values in sorted(table.items()):
        ET.SubElement(root, "entry", name=key).text = str(sum(values))
    data = ET.tostring(root)
    parsed = ET.fromstring(data)
    digest = hashlib.sha256(data * 16).digest()
    return len(parsed) + digest[0]


def probe() -> float:
    """CPU time of one unit on the calling thread: the speed of its CPU right now.

    CPU time rather than wall time, so that a process sharing the CPU does
    not count against the unit.
    """
    started = time.thread_time()
    _unit()
    return time.thread_time() - started


def normalised(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s
