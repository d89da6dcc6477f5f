"""Output checks against the generator's facts.

Every check is one operation: it is attempted once and either passes or
fails. The checks read the program's outputs with the standard library
(ElementTree, json, hashlib) and compare them with ``facts.json``; none of
them calls engmeta.
"""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET
from pathlib import Path

CHECKSUM_SAMPLE = 8


class Checks:
    """Counts attempted and failed operations and keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def exit_code(self, name: str, call, expected: int = 0) -> bool:
        return self.check(name, call.exit_code == expected,
                          f"exit {call.exit_code}, expected {expected}: "
                          f"{_tail(call.stderr)}")


def _tail(path: Path) -> str:
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return "(no stderr)"
    return lines[-1] if lines else "(empty stderr)"


def _parse(name: str, checks: Checks, data: bytes):
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        checks.check(name, False, f"not well-formed XML: {exc}")
        return None
    return root


def _file_entries(root) -> list[list]:
    entries = []
    for element in root.findall("file"):
        size = element.findtext("sizeBytes")
        entries.append([element.findtext("filename"),
                        int(size) if size is not None and size.isdigit() else size])
    return entries


def _check_document(checks: Checks, label: str, root, facts: dict, files: int) -> None:
    counts = dict(facts["counts"], file=files)
    for path, expected in counts.items():
        found = len(root.findall(path))
        checks.check(f"{label}: {path} count", found == expected, f"{found} != {expected}")
    found = [len(step.findall("method/parameters")) for step in root.findall("processingStep")]
    expected = facts["step_parameters"]
    checks.check(f"{label}: parameters per step", found == expected, f"{found} != {expected}")
    wrong = {path: root.findtext(path) for path, value in facts["first_wins"].items()
             if root.findtext(path) != value}
    checks.check(f"{label}: first-wins values", not wrong, f"differ at {sorted(wrong)[:3]}")


def check_extracted(checks: Checks, facts: dict, serial: bytes, parallel: bytes,
                    report: dict) -> None:
    """The serial and parallel extract outputs and the serial run's report."""
    checks.check("extract: parallel output identical to serial", serial == parallel,
                 f"{len(serial)} vs {len(parallel)} bytes")
    root = _parse("extract: document", checks, serial)
    if root is not None:
        _check_document(checks, "extract", root, facts, len(facts["manifest"]))
        checks.check("extract: manifest entries", _file_entries(root) == facts["manifest"])
    conflicts = len(report.get("conflicts", ()))
    checks.check("extract: conflicts", conflicts == facts["conflicts"],
                 f"{conflicts} != {facts['conflicts']}")
    scanned = report.get("filesScanned")
    checks.check("extract: files scanned", scanned == facts["files_scanned"],
                 f"{scanned} != {facts['files_scanned']}")
    problems = len(report.get("coercionFailures", ())) + len(report.get("warnings", ()))
    checks.check("extract: no coercion failures or warnings", problems == 0, str(problems))


def check_merged(checks: Checks, facts: dict, merged: bytes, corpus: Path,
                 rng: random.Random) -> None:
    """harvest --merge-into output: extracted content plus the harvested listing."""
    root = _parse("harvest: document", checks, merged)
    if root is None:
        return
    manifest, listing = facts["manifest"], facts["corpus"]
    _check_document(checks, "harvest", root, facts, len(manifest) + len(listing))
    entries = _file_entries(root)
    checks.check("harvest: extracted entries kept first", entries[: len(manifest)] == manifest)
    checks.check("harvest: harvested names and sizes", entries[len(manifest):] == listing)
    names = {name for name, _ in listing}
    harvested = root.findall("file")[len(manifest):]
    for element in rng.sample(harvested, min(CHECKSUM_SAMPLE, len(harvested))):
        name = element.findtext("filename")
        checksum = element.find("checksum")
        digest = checksum.text if checksum is not None else None
        algorithm = checksum.get("algorithm") if checksum is not None else None
        actual = hashlib.sha256((corpus / name).read_bytes()).hexdigest() if name in names else None
        checks.check(f"harvest: checksum of {name}",
                     algorithm == "SHA-256" and digest == actual, f"{algorithm} {digest}")


def _load_json(checks: Checks, name: str, text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        checks.check(name, False, f"not JSON: {exc}")
        return None


def check_validate(checks: Checks, stdout: str) -> None:
    payload = _load_json(checks, "validate: report", stdout)
    if payload is not None:
        checks.check("validate: citable and valid",
                     payload.get("valid") is True and payload.get("profile") == "citable",
                     f"{payload.get('findings', [])[:2]}")


def _field_count(blocks: dict, block: str, type_name: str) -> int:
    for field in blocks.get(block, ()):
        if field.get("typeName") == type_name:
            value = field.get("value")
            return len(value) if isinstance(value, list) else 1
    return 0


def check_blocks(checks: Checks, facts: dict, text: str) -> None:
    blocks = _load_json(checks, "to-dataverse: blocks", text)
    if blocks is None:
        return
    counts = facts["counts"]
    expected = {
        ("citation", "file"): len(facts["manifest"]) + len(facts["corpus"]),
        ("citation", "keyword"): counts["keyword"],
        ("engMeta", "controlledVariable"): counts["system/controlledVariables"],
        ("process", "methodParameter"): sum(facts["step_parameters"]),
    }
    for (block, type_name), count in expected.items():
        found = _field_count(blocks, block, type_name)
        checks.check(f"to-dataverse: {block}.{type_name} entries", found == count,
                     f"{found} != {count}")
    checks.check("to-dataverse: flatten report", "_flattenReport" in blocks)


def check_prov(checks: Checks, facts: dict, text: str) -> None:
    activities = sum(1 for line in text.splitlines() if line.lstrip().startswith("activity("))
    expected = facts["counts"]["processingStep"]
    checks.check("to-prov: one activity per step", activities == expected,
                 f"{activities} != {expected}")
