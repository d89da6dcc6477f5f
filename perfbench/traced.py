"""The traced run: each module's public functions, called in-process.

Spans and counts are recorded here, around the calls into engmeta, not
inside it. Each iteration makes four passes over the workload:

1. the pipeline with tracing off (the baseline for the tracing overhead);
2. extraction taken apart: ``walk_files``, ``scan_file`` per file and
   ``assemble``;
3. the pipeline with a span around every call: ``parse_config``,
   ``extract`` (serial), ``to_xml``, ``from_xml``, ``harvest``, ``merge``,
   ``validate``, ``flatten``/``serialize_blocks_json`` and
   ``to_prov``/``serialize_prov_n``. It mirrors the CLI pipeline: extract
   writes XML, harvest reads it back, and each publish command reads the
   merged document again;
4. ``extract`` in parallel mode.

After the iterations, ``scan_file``, ``assemble``, ``merge`` and ``flatten``
are timed at 1/4, 1/2 and all of their workload-sized input, and the
log-log slope of time against input size is reported as the layer's
scaling exponent (1 is linear, 2 quadratic).
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import engmeta
from engmeta.extract import assemble, glob_matches, scan_file
from engmeta.fswalk import walk_files

import checks as oracle

MIB = 1024 * 1024
FRACTIONS = (0.25, 0.5, 1.0)
MIN_TIMED_S = 0.2  # repeat short calls until they add up to this
MAX_REPEATS = 200

# per-layer metric -> unit; "_s" metrics are medians of per-iteration times
UNITS = {
    "walk.files": "count", "walk.s": "s",
    "config.rules": "count", "config.parse_s": "s",
    "scan.files": "count", "scan.mib": "MiB", "scan.lines": "count", "scan.hits": "count",
    "scan.s": "s", "scan.mib_per_s": "MiB/s", "scan.hit_share": "ratio",
    "assemble.hits": "count", "assemble.s": "s", "assemble.us_per_hit": "us",
    "assemble.kept_share": "ratio", "assemble.conflicts": "count", "assemble.warnings": "count",
    "extract.serial_s": "s", "extract.parallel_s": "s", "extract.glue_s": "s",
    "canon.to_xml_s": "s", "canon.from_xml_s": "s", "canon.xml_mib": "MiB",
    "validate.s": "s", "validate.findings": "count",
    "harvest.files": "count", "harvest.mib": "MiB", "harvest.s": "s", "harvest.mib_per_s": "MiB/s",
    "merge.s": "s", "merge.base_entries": "count", "merge.overlay_entries": "count",
    "merge.kept_share": "ratio", "merge.conflicts": "count",
    "flatten.s": "s", "flatten.serialize_s": "s", "flatten.mapped": "count",
    "flatten.dropped": "count",
    "prov.s": "s", "prov.serialize_s": "s", "prov.statements": "count",
    "assemble.exponent": "slope", "merge.exponent": "slope", "flatten.exponent": "slope",
    "scan.exponent": "slope",
    "trace.pipeline_s": "s", "trace.overhead_s": "s",
}

# span name -> per-layer time metric (sums over the spans of one iteration)
_SPAN_METRICS = {
    "config.parse": "config.parse_s", "extract.serial": "extract.serial_s",
    "extract.parallel": "extract.parallel_s", "canon.to_xml": "canon.to_xml_s",
    "canon.from_xml": "canon.from_xml_s", "harvest": "harvest.s", "merge": "merge.s",
    "validate": "validate.s", "flatten": "flatten.s", "flatten.serialize": "flatten.serialize_s",
    "prov": "prov.s", "prov.serialize": "prov.serialize_s", "walk": "walk.s", "scan": "scan.s",
    "assemble": "assemble.s", "pipeline": "trace.pipeline_s",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"run": self.run_id, "id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def seconds(self, run_id: str) -> dict[str, float]:
        """Total time per span name within one run."""
        totals: dict[str, float] = {}
        for record in self.spans:
            if record["run"] == run_id:
                elapsed = (record["end_ns"] - record["start_ns"]) / 1e9
                totals[record["name"]] = totals.get(record["name"], 0.0) + elapsed
        return totals


class _Off:
    """Tracing switched off: the same calls, no spans."""

    def span(self, name: str):
        return nullcontext()


def _entries(node) -> int:
    """List entries anywhere in a document."""
    total = 0
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, tuple):
            total += len(value) + sum(_entries(v) for v in value if dataclasses.is_dataclass(v))
        elif dataclasses.is_dataclass(value):
            total += _entries(value)
    return total


def _leaves(node) -> int:
    """Populated scalar values anywhere in a document."""
    total = 0
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(item):
                total += _leaves(item)
            elif item is not None:
                total += 1
    return total


def _shrink(node, fraction: float):
    """The document with every list cut to its first ``fraction`` of entries."""
    updates = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, tuple):
            kept = value[: math.ceil(len(value) * fraction)]
            updates[field.name] = tuple(
                _shrink(v, fraction) if dataclasses.is_dataclass(v) else v for v in kept
            )
        elif dataclasses.is_dataclass(value):
            updates[field.name] = _shrink(value, fraction)
    return dataclasses.replace(node, **updates)


def pipeline(tracer, root: Path, rules_text: str) -> dict:
    """The CLI pipeline in-process; returns what the checks and counts need."""
    with tracer.span("pipeline"):
        with tracer.span("cli.extract"):
            with tracer.span("config.parse"):
                config = engmeta.parse_config(rules_text)
            with tracer.span("extract.serial"):
                extracted, report = engmeta.extract(root, config, "serial")
            with tracer.span("canon.to_xml"):
                extracted_xml = engmeta.to_xml(extracted)
        with tracer.span("cli.harvest_merge"):
            with tracer.span("canon.from_xml"):
                base = engmeta.from_xml(extracted_xml).dataset
            with tracer.span("harvest"):
                harvested = engmeta.harvest(root, "SHA-256")
            overlay = harvested.to_dataset()
            with tracer.span("merge"):
                merged, conflicts = engmeta.merge(base, overlay, "first-wins")
            with tracer.span("canon.to_xml"):
                merged_xml = engmeta.to_xml(merged)
        with tracer.span("cli.publish"):
            with tracer.span("canon.from_xml"):
                document = engmeta.from_xml(merged_xml).dataset
            with tracer.span("validate"):
                validation = engmeta.validate(document, "citable")
            with tracer.span("canon.from_xml"):
                document = engmeta.from_xml(merged_xml).dataset
            with tracer.span("flatten"):
                blocks, flat_report = engmeta.flatten(document)
            with tracer.span("flatten.serialize"):
                blocks_json = engmeta.serialize_blocks_json(blocks, flat_report)
            with tracer.span("canon.from_xml"):
                document = engmeta.from_xml(merged_xml).dataset
            with tracer.span("prov"):
                prov = engmeta.to_prov(document)
            with tracer.span("prov.serialize"):
                provn = engmeta.serialize_prov_n(prov)
    return {
        "config": config, "report": report, "extracted_xml": extracted_xml,
        "base": base, "overlay": overlay, "harvested": harvested, "merged": merged,
        "merge_conflicts": conflicts, "merged_xml": merged_xml, "validation": validation,
        "flat_report": flat_report, "blocks_json": blocks_json, "prov": prov, "provn": provn,
    }


def layers(tracer, root: Path, config) -> dict:
    """Extraction taken apart: walk, scan every file, assemble."""
    with tracer.span("layers"):
        with tracer.span("walk"):
            files = walk_files(root)
        work = []
        for relative, absolute in files:
            rules = [r for r in config.rules if glob_matches(r.source, relative)]
            if rules:
                work.append((relative, absolute, rules))
        hits, scanned_bytes = [], 0
        for relative, absolute, rules in work:
            with tracer.span("scan"):
                file_hits, size, _ = scan_file(absolute, relative, rules)
            hits.extend(file_hits)
            scanned_bytes += size
        with tracer.span("assemble"):
            assembled = assemble(hits, config)
    return {"files": files, "work": work, "hits": hits, "bytes": scanned_bytes,
            "assembled": assembled}


def _check(checks: oracle.Checks, facts: dict, out: dict, parallel_xml: str,
           rng: random.Random, corpus: Path) -> None:
    serial = out["extracted_xml"].encode("utf-8")
    oracle.check_extracted(checks, facts, serial, parallel_xml.encode("utf-8"),
                           out["report"].to_obj())
    oracle.check_merged(checks, facts, out["merged_xml"].encode("utf-8"), corpus, rng)
    checks.check("validate: citable and valid", out["validation"].ok)
    oracle.check_blocks(checks, facts, out["blocks_json"])
    oracle.check_prov(checks, facts, out["provn"])


def _counts(out: dict, parts: dict, lines: dict[str, int]) -> dict[str, float]:
    work = parts["work"]
    attempts = sum(lines[relative] * len(rules) for relative, _, rules in work)
    hits = len(parts["hits"])
    assembled = parts["assembled"]
    base, overlay, merged = out["base"], out["overlay"], out["merged"]
    harvested = out["harvested"].files
    prov = out["prov"]
    return {
        "walk.files": len(parts["files"]),
        "config.rules": len(out["config"].rules),
        "scan.files": len(work),
        "scan.mib": parts["bytes"] / MIB,
        "scan.lines": sum(lines.values()),
        "scan.hits": hits,
        "scan.hit_share": hits / attempts if attempts else 0.0,
        "assemble.hits": hits,
        "assemble.kept_share": _leaves(assembled.dataset) / hits if hits else 0.0,
        "assemble.conflicts": len(assembled.conflicts),
        "assemble.warnings": len(assembled.warnings),
        "canon.xml_mib": len(out["merged_xml"].encode("utf-8")) / MIB,
        "validate.findings": len(out["validation"].findings),
        "harvest.files": len(harvested),
        "harvest.mib": sum(info.sizeBytes or 0 for info in harvested) / MIB,
        "merge.base_entries": _entries(base),
        "merge.overlay_entries": _entries(overlay),
        "merge.kept_share": (_entries(merged) - _entries(base)) / max(1, _entries(overlay)),
        "merge.conflicts": len(out["merge_conflicts"]),
        "flatten.mapped": len(out["flat_report"].mappedPaths),
        "flatten.dropped": len(out["flat_report"].droppedPaths),
        "prov.statements": (len(prov.activities) + len(prov.agents) + len(prov.entities)
                            + len(prov.relations)),
    }


def _per_call(call) -> float:
    """Seconds per call, repeating calls that are too short to time once."""
    repeats, started = 0, time.perf_counter()
    while True:
        call()
        repeats += 1
        elapsed = time.perf_counter() - started
        if elapsed >= MIN_TIMED_S or repeats >= MAX_REPEATS:
            return elapsed / repeats


def _slope(sizes: list[float], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    spread = sum((x - mean_x) ** 2 for x in xs)
    if spread == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / spread


def scaling(tracer: Tracer, scratch: Path, out: dict, parts: dict, lines: dict) -> dict:
    """Scaling exponents of scan, assemble, merge and flatten."""
    config = out["config"]
    points: dict[str, tuple[list, list]] = {
        name: ([], []) for name in ("scan", "assemble", "merge", "flatten")
    }

    def record(name: str, size: float, call) -> None:
        with tracer.span(f"scaling.{name}"):
            seconds = _per_call(call)
        points[name][0].append(size)
        points[name][1].append(seconds)

    for fraction in FRACTIONS:
        copies = []
        for relative, absolute, rules in parts["work"]:
            if fraction < 1:
                data = absolute.read_bytes()
                cut = data.find(b"\n", int(len(data) * fraction))
                copy = scratch / f"{fraction}" / relative
                copy.parent.mkdir(parents=True, exist_ok=True)
                copy.write_bytes(data if cut < 0 else data[: cut + 1])
                absolute = copy
            copies.append((relative, absolute, rules))
        size = sum(path.stat().st_size for _, path, _ in copies)
        record("scan", size, lambda: [scan_file(path, relative, file_rules)
                                      for relative, path, file_rules in copies])

        hits = [h for h in parts["hits"] if h.lineNumber <= lines[h.sourceFile] * fraction]
        record("assemble", max(1, len(hits)), lambda: assemble(hits, config))

        base, overlay = out["base"], out["overlay"]
        if fraction < 1:
            base, overlay = _shrink(base, fraction), _shrink(overlay, fraction)
        record("merge", _entries(base) + _entries(overlay),
               lambda: engmeta.merge(base, overlay, "first-wins"))

        merged = out["merged"] if fraction == 1 else _shrink(out["merged"], fraction)
        record("flatten", _entries(merged), lambda: engmeta.flatten(merged))

    return {f"{name}.exponent": _slope(*xy) for name, xy in points.items()}


def run(work: Path, facts: dict, seconds: float, workers: int,
        checks: oracle.Checks) -> tuple[dict, dict, list]:
    """Traced iterations for ``seconds``, then the scaling runs.

    Returns per-iteration time samples, the counts (the same on every
    iteration) and the spans.
    """
    corpus = work / "corpus"
    rules_text = (work / "rules.conf").read_text(encoding="utf-8")
    rng = random.Random(f"checksums/{facts['workload']}/{facts['seed']}")
    tracer = Tracer()
    samples: dict[str, list[float]] = {}
    started = time.perf_counter()
    last = 0.0
    iteration = 0
    while iteration == 0 or time.perf_counter() - started + 2 * last <= seconds:
        begun = time.perf_counter()
        tracer.run_id = f"{facts['workload']}/{facts['seed']}/{iteration}"

        untraced_started = time.perf_counter()
        pipeline(_Off(), corpus, rules_text)
        untraced = time.perf_counter() - untraced_started

        # the parts of extraction right before the whole, so that both see
        # the machine at the same speed
        parts = layers(tracer, corpus, engmeta.parse_config(rules_text))
        out = pipeline(tracer, corpus, rules_text)
        with tracer.span("extract.parallel"):
            parallel, _ = engmeta.extract(corpus, out["config"], "parallel", workers)
        _check(checks, facts, out, engmeta.to_xml(parallel), rng, corpus)

        totals = tracer.seconds(tracer.run_id)
        sample = {metric: totals.get(span, 0.0) for span, metric in _SPAN_METRICS.items()}
        sample["extract.glue_s"] = (sample["extract.serial_s"] - sample["walk.s"]
                                    - sample["scan.s"] - sample["assemble.s"])
        sample["trace.overhead_s"] = sample["trace.pipeline_s"] - untraced
        for name, value in sample.items():
            samples.setdefault(name, []).append(value)
        iteration += 1
        last = time.perf_counter() - begun

    lines = {relative: absolute.read_bytes().count(b"\n") + 1
             for relative, absolute, _ in parts["work"]}
    counts = _counts(out, parts, lines)
    tracer.run_id = f"{facts['workload']}/{facts['seed']}/scaling"
    counts.update(scaling(tracer, work / "scaling", out, parts, lines))
    return samples, counts, tracer.spans


def metrics(samples: dict[str, list[float]], counts: dict[str, float]) -> dict[str, dict]:
    values = {name: statistics.median(series) for name, series in samples.items()}
    values.update(counts)
    values["scan.mib_per_s"] = values["scan.mib"] / values["scan.s"]
    values["harvest.mib_per_s"] = values["harvest.mib"] / values["harvest.s"]
    values["assemble.us_per_hit"] = (values["assemble.s"] / values["assemble.hits"] * 1e6
                                     if values["assemble.hits"] else 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
