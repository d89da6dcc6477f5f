"""Seeded synthetic campaign corpora for the pipeline benchmark.

``generate(workload, seed, dest)`` writes three things under ``dest``:

- ``corpus/``: the directory tree a user would point ``engmeta extract`` and
  ``engmeta harvest`` at;
- ``rules.conf``: the extraction rules for that tree;
- ``facts.json``: what the generator knows it wrote (list sizes, step count,
  file names and sizes, first-wins values and expected conflicts).

The facts are computed from the generator's own choices, never by running
engmeta, so the runner can use them as an independent oracle. The same seed
and scale give the same bytes. ``scale`` shrinks the per-file counts and
file sizes (tests use it to stay fast); the benchmark runs at scale 1.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("dense-hits", "big-logs", "file-catalogue")

MIB = 1024 * 1024

STEP_TYPES = ("data generation", "post processing", "analysis", "visualization")

_WORDS = (
    "argon", "benzene", "cavity", "diffusion", "elastic", "flux", "gradient",
    "hydrate", "interface", "jet", "kinetic", "lattice", "membrane", "nozzle",
    "osmotic", "porous", "quench", "rotor", "shear", "turbulent", "umbrella",
    "vortex", "wetting", "xylene", "yield", "zeolite",
)


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _decimal(rng: random.Random, digits: int = 3) -> str:
    """A decimal in engmeta's canonical text form (no trailing zeros)."""
    whole = rng.randrange(1, 1000)
    frac = rng.randrange(1, 10 ** digits)
    return f"{whole}.{frac:0{digits}d}".rstrip("0")


def _date(rng: random.Random) -> str:
    return (f"20{rng.randrange(10, 24)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
            f"T{rng.randrange(24):02d}:{rng.randrange(60):02d}:00")


class _Writer:
    """Writes corpus files and records each one's relative path and size."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[str, int] = {}

    def text(self, relative: str, content: str) -> None:
        self.bytes(relative, content.encode("utf-8"))

    def bytes(self, relative: str, data: bytes) -> None:
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self.files[relative] = len(data)

    def chunks(self, relative: str, chunks) -> None:
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        size = 0
        with path.open("wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
                size += len(chunk)
        self.files[relative] = size


class _Rules:
    def __init__(self) -> None:
        self.blocks: list[str] = []
        self.count = 0

    def add(self, rule_id: str, **fields: str) -> None:
        lines = [f"[rule {rule_id}]"] + [f"{name} = {value}" for name, value in fields.items()]
        self.blocks.append("\n".join(lines))
        self.count += 1

    def text(self) -> str:
        return "\n\n".join(self.blocks) + "\n"


def _readme(rng: random.Random, writer: _Writer, rules: _Rules, workload: str) -> list[str]:
    """Citation fields every workload carries; returns the README keywords."""
    keywords = [f"{workload} {_words(rng, 2)} {i}" for i in range(3)]
    lines = [
        f"Campaign notes ({workload})",
        "=" * 40,
        f"Title: {_words(rng, 4).capitalize()} campaign",
        f"Summary: Synthetic {workload} campaign about {_words(rng, 6)}",
        f"Project: Project-{rng.randrange(10000):04d}",
        f"Author: {rng.choice(_WORDS).capitalize()} {rng.choice(_WORDS).capitalize()}",
        "Role: author",
        f"Date: {_date(rng)[:10]}",
    ]
    lines += [f"Keyword: {keyword}" for keyword in keywords]
    lines += ["", "Notes", "-----", f"Raw output is kept for {rng.randrange(2, 12)} years."]
    writer.text("README.txt", "\n".join(lines) + "\n")
    for rule_id, target, key, extra in (
        ("title", "title[0].text", "Title", {}),
        ("summary", "description[0].text", "Summary", {}),
        ("project", "project", "Project", {}),
        ("author", "person[0].name", "Author", {}),
        ("role", "person[0].role", "Role", {}),
        ("created", "date[0].date", "Date", {"type": "date"}),
        ("readme-keywords", "keyword", "Keyword", {"occurrence": "all"}),
    ):
        rules.add(rule_id, target=target, source="README.txt", key=key, delimiter=":", **extra)
    return keywords


def _dense_hits(rng: random.Random, writer: _Writer, rules: _Rules, scale: float) -> dict:
    """Many tiny files whose hits all land in open lists."""
    n_windows, n_stages = 20, 30
    tags, controls, params = (_scaled(n, scale) for n in (40, 40, 40))
    keywords = _readme(rng, writer, rules, "dense-hits")

    rules.add("tags", target="keyword", source="md.mdp", key="tag", occurrence="all")
    rules.add("ctrl-name", target="system.controlledVariables.name", source="md.mdp",
              key="Control", group="controls")
    rules.add("ctrl-value", target="system.controlledVariables.value", source="md.mdp",
              key="Setpoint", type="decimal", group="controls")
    for w in range(n_windows):
        lines = [f"; umbrella window {w:02d}", "integrator = md",
                 f"nsteps = {rng.randrange(10**5, 10**7)}", f"dt = {_decimal(rng)}"]
        for i in range(tags):
            lines.append(f"tag = w{w:02d}-t{i:03d} {_words(rng, 2)}")
            lines.append(f"nstxout = {rng.randrange(100, 5000)}")
        for i in range(controls):
            lines.append(f"Control = w{w:02d}-c{i:03d}-{rng.choice(_WORDS)}")
            lines.append(f"Setpoint = {_decimal(rng)}")
            lines.append(f"tc-grps = {_words(rng, 1)}")
        writer.text(f"windows/w{w:02d}/md.mdp", "\n".join(lines) + "\n")

    step_types = []
    for s in range(n_stages):
        name = f"stage_{s:02d}.log"
        step_type = rng.choice(STEP_TYPES)
        step_types.append(step_type)
        lines = [f"Stage {s} log", f"StepType: {step_type}", f"Completed: {_date(rng)}"]
        for i in range(params):
            lines.append(f"Parameter: s{s:02d}-p{i:03d}-{rng.choice(_WORDS)}")
            lines.append(f"Value: {_words(rng, 2)}")
            lines.append(f"  iteration {rng.randrange(10**6)} residual {rng.random():.6e}")
        writer.text(f"logs/{name}", "\n".join(lines) + "\n")
        rules.add(f"s{s:02d}-type", target=f"processingStep[{s}].stepType", source=name,
                  key="StepType", delimiter=":")
        rules.add(f"s{s:02d}-date", target=f"processingStep[{s}].date", source=name,
                  key="Completed", delimiter=":", type="date")
        for field, key in (("name", "Parameter"), ("value", "Value")):
            rules.add(f"s{s:02d}-param-{field}", target=f"processingStep[{s}].method.parameters.{field}",
                      source=name, key=key, delimiter=":", group=f"s{s:02d}-params")

    return {
        "files_scanned": 1 + n_windows + n_stages,
        "conflicts": 0,
        "counts": {
            "keyword": len(keywords) + n_windows * tags,
            "system/controlledVariables": n_windows * controls,
            "processingStep": n_stages,
            "file": 0,
        },
        "step_parameters": [params] * n_stages,
        "first_wins": {f"processingStep[{s + 1}]/stepType": t for s, t in enumerate(step_types)},
        "manifest": [],
    }


# The 24 scalar rules of the big-logs workload: (key, target, type, value maker).
_HEADER_KEYS = (
    ("nsteps", "system.temporalResolution.numberOfTimesteps", "integer",
     lambda rng: str(rng.randrange(10**5, 10**8))),
    ("dt", "system.temporalResolution.interval", "decimal", lambda rng: _decimal(rng, 4)),
    ("time_unit", "system.temporalResolution.intervalUnit", "string",
     lambda rng: rng.choice(("ps", "fs", "ns"))),
    ("ncells", "system.spatialResolution.numberOfCells", "integer",
     lambda rng: str(rng.randrange(10**3, 10**7))),
    ("grid_scale", "system.spatialResolution.scale", "decimal", _decimal),
    ("grid_unit", "system.spatialResolution.scaleUnit", "string",
     lambda rng: rng.choice(("nm", "um", "mm"))),
    ("system_desc", "system.description", "string", lambda rng: _words(rng, 5)),
    ("step_type", "processingStep[0].stepType", "string", lambda rng: rng.choice(STEP_TYPES)),
    ("finished_at", "processingStep[0].date", "date", _date),
    ("command", "processingStep[0].executionCommand", "string",
     lambda rng: f"mdrun -deffnm {rng.choice(_WORDS)} -nt {rng.randrange(1, 129)}"),
    ("cluster", "processingStep[0].environment.name", "string",
     lambda rng: f"{rng.choice(_WORDS)}-{rng.randrange(100)}"),
    ("nodes", "processingStep[0].environment.nodes", "integer",
     lambda rng: str(rng.randrange(1, 512))),
    ("cores_per_node", "processingStep[0].environment.coresPerNode", "integer",
     lambda rng: str(rng.choice((16, 24, 32, 48, 64, 128)))),
    ("total_cores", "processingStep[0].environment.totalCores", "integer",
     lambda rng: str(rng.randrange(16, 65536))),
    ("compiler", "processingStep[0].environment.compiler.name", "string",
     lambda rng: rng.choice(("gcc", "icc", "clang")) + f"-{rng.randrange(5, 14)}"),
    ("cflags", "processingStep[0].environment.compiler.flags", "string",
     lambda rng: f"-O{rng.randrange(1, 4)} -march={rng.choice(_WORDS)}"),
    ("program", "processingStep[0].software[0].name", "string",
     lambda rng: rng.choice(("Gromacs", "LAMMPS", "ls1-mardyn", "OpenFOAM"))),
    ("version", "processingStep[0].software[0].softwareVersion", "string",
     lambda rng: f"{rng.randrange(2015, 2024)}.{rng.randrange(10)}"),
    ("language", "processingStep[0].software[0].programmingLanguage", "string",
     lambda rng: rng.choice(("C", "C++", "Fortran"))),
    ("os", "processingStep[0].software[0].operatingSystem", "string",
     lambda rng: f"Linux {rng.randrange(3, 7)}.{rng.randrange(20)}"),
    ("method", "processingStep[0].method.name", "string",
     lambda rng: f"{rng.choice(_WORDS)} sampling"),
    ("storage", "storage", "string", lambda rng: f"/archive/{rng.choice(_WORDS)}/{rng.randrange(999)}"),
    ("format", "format", "string", lambda rng: rng.choice(("trr", "xtc", "netcdf", "hdf5"))),
    ("license", "rightsStatement.license", "string",
     lambda rng: rng.choice(("CC-BY-4.0", "CC0-1.0", "ODbL-1.0", "MIT"))),
)


def _energy_line(rng: random.Random) -> str:
    return (f"   {rng.randrange(10**7):>10d}   {rng.uniform(-9e4, 0):.5e}   "
            f"{rng.uniform(0, 9e4):.5e}   {rng.uniform(250, 350):.3f}")


def _big_logs(rng: random.Random, writer: _Writer, rules: _Rules, scale: float) -> dict:
    """A few long logs with sparse scalar hits, one huge output, binary trajectories."""
    n_logs = 16
    log_lines = _scaled(12000, scale)
    big_bytes = _scaled(64 * MIB, scale)
    traj_bytes = _scaled(64 * MIB, scale)
    keywords = _readme(rng, writer, rules, "big-logs")

    for key, target, value_type, _ in _HEADER_KEYS:
        rules.add(key, target=target, source="run_*.log", key=key, type=value_type)
    rules.add("converged", target="worked.success", source="*.out", key="Converged",
              delimiter=":", type="boolean")

    pool = [_energy_line(rng) for _ in range(4000)]
    pool += ["           Step           Time", "   Energies (kJ/mol)",
             "          Bond          Angle    Proper Dih.  Ryckaert-Bell.          LJ-14"]
    first_values: dict[str, str] = {}
    conflicts = 0
    for log in range(n_logs):
        values = {key: make(rng) for key, _, _, make in _HEADER_KEYS}
        if log == 0:
            first_values = values
        else:
            conflicts += sum(values[key] != first_values[key] for key in values)
        header = [f"{key} = {values[key]}" for key in values]
        body = rng.choices(pool, k=log_lines - 2 * len(header) - 2)
        content = ["Run log, header echo follows"] + header + body + ["Final settings"] + header
        writer.text(f"logs/run_{log:02d}.log", "\n".join(content) + "\n")

    block = ("\n".join(_energy_line(rng) for _ in range(16000)) + "\n").encode("ascii")

    trailer = b"\nConverged: yes\n"

    def big_output():
        left = big_bytes - len(trailer)
        index = 0
        while left > 0:
            chunk = (f"# frame block {index}\n".encode("ascii") + block)[:left]
            left -= len(chunk)
            index += 1
            yield chunk
        yield trailer

    writer.chunks("output/final.out", big_output())

    base = rng.randbytes(4 * MIB)

    def trajectory():
        left = traj_bytes
        while left > 0:
            offset = rng.randrange(len(base))
            chunk = (base[offset:] + base[:offset])[:left]
            left -= len(chunk)
            yield chunk

    for t in range(4):
        writer.chunks(f"traj/traj_{t}.trr", trajectory())

    # first-wins values, keyed by ElementTree path (positions are 1-based there)
    first_wins = {
        target.replace("[0]", "[1]").replace(".", "/"): first_values[key]
        for key, target, value_type, _ in _HEADER_KEYS
        if value_type in ("string", "integer", "date")
    }
    return {
        "files_scanned": 1 + n_logs + 1,
        "conflicts": conflicts,
        "counts": {
            "keyword": len(keywords),
            "system/controlledVariables": 0,
            "processingStep": 1,
            "file": 0,
        },
        "step_parameters": [0],
        "first_wins": first_wins,
        "manifest": [],
    }


def _file_catalogue(rng: random.Random, writer: _Writer, rules: _Rules, scale: float) -> dict:
    """Many small files plus a manifest of archived files with sizes."""
    n_dirs = 15
    per_dir = _scaled(70, scale)
    keywords = _readme(rng, writer, rules, "file-catalogue")
    suffixes = (".dat", ".csv", ".xvg", ".log", ".edr")
    for d in range(n_dirs):
        for f in range(per_dir):
            size = rng.randrange(64, 4096)
            writer.bytes(f"data/d{d:02d}/f{f:04d}{rng.choice(suffixes)}", rng.randbytes(size))

    manifest = [
        (f"tape/volume_{i % 7}/run_{i:05d}.tar", rng.randrange(10**6, 10**11))
        for i in range(n_dirs * per_dir)
    ]
    lines = ["# tape archive manifest", f"# volumes: 7, written {_date(rng)}"]
    for name, size in manifest:
        lines += [f"Filename: {name}", f"Size: {size}", f"Owner: {rng.choice(_WORDS)}"]
    writer.text("MANIFEST.txt", "\n".join(lines) + "\n")
    rules.add("manifest-name", target="file.filename", source="MANIFEST.txt",
              key="Filename", delimiter=":", group="manifest")
    rules.add("manifest-size", target="file.sizeBytes", source="MANIFEST.txt",
              key="Size", delimiter=":", type="integer", group="manifest")

    return {
        "files_scanned": 2,
        "conflicts": 0,
        "counts": {
            "keyword": len(keywords),
            "system/controlledVariables": 0,
            "processingStep": 0,
            "file": len(manifest),
        },
        "step_parameters": [],
        "first_wins": {},
        "manifest": [list(entry) for entry in manifest],
    }


_SHAPES = {
    "dense-hits": _dense_hits,
    "big-logs": _big_logs,
    "file-catalogue": _file_catalogue,
}


def generate(workload: str, seed: int, dest: Path, scale: float = 1.0) -> dict:
    """Write the workload's corpus, rules and facts under dest; returns the facts."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    dest = Path(dest)
    rng = random.Random(f"{workload}/{seed}")
    writer = _Writer(dest / "corpus")
    rules = _Rules()
    facts = _SHAPES[workload](rng, writer, rules, scale)
    (dest / "rules.conf").write_text(rules.text(), encoding="utf-8")
    facts.update(
        workload=workload,
        seed=seed,
        rules=rules.count,
        corpus=sorted([name, size] for name, size in writer.files.items()),
    )
    (dest / "facts.json").write_text(json.dumps(facts, indent=1) + "\n", encoding="utf-8")
    return facts
