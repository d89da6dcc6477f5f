"""Deterministic scaling guards: count calls of model primitives, never time.

Linear work at N and 2N inputs gives a call-count ratio near 2; work that
rescans or re-normalises whole lists per entry gives a ratio near 4.
"""

import importlib
import json

from engmeta import model, paths
from engmeta.canon import to_json
from engmeta.extract import assemble, engine, parse_config
from engmeta.extract.engine import RawHit, scan_file
from engmeta.flatten import flatten, serialize_blocks_json
from engmeta.merging import merge
from engmeta.model import EngMetaDataset, FileInfo

# the package attribute ``engmeta.flatten`` is the function, not the module
crosswalk = importlib.import_module("engmeta.flatten")

N = 200
MAX_RATIO = 2.2

KEYWORDS = parse_config(
    "[rule kw]\ntarget = keyword\nsource = *\nkey = Keyword\noccurrence = all\n"
)


def _counting(monkeypatch, module, name: str, counter: list) -> None:
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _calls(monkeypatch, patches, action) -> int:
    counter = [0]
    with monkeypatch.context() as patched:
        for module, name in patches:
            _counting(patched, module, name, counter)
        action()
    return counter[0]


def _assemble_keywords(count: int) -> None:
    hits = [RawHit("kw", "run.log", line, f"word{line}") for line in range(1, count + 1)]
    assert len(assemble(hits, KEYWORDS).dataset.keywords) == count


def test_assembly_checks_each_scalar_a_bounded_number_of_times(monkeypatch):
    patches = [(model, "_check_scalar"), (paths, "_check_scalar")]
    small = _calls(monkeypatch, patches, lambda: _assemble_keywords(N))
    large = _calls(monkeypatch, patches, lambda: _assemble_keywords(2 * N))
    assert small >= N
    assert large <= MAX_RATIO * small, (small, large)


def _scan_with_distinct_keys(tmp_path, rule_count: int) -> None:
    """Scan N lines, each matching one of ``rule_count`` rules with distinct keys."""
    config = parse_config("".join(
        f"[rule r{i}]\ntarget = keyword\nsource = *\nkey = k{i:02d}\noccurrence = all\n"
        for i in range(rule_count)
    ))
    target = tmp_path / f"keys{rule_count}.log"
    target.write_text("".join(f"k{line % rule_count:02d} = v{line}\n" for line in range(N)),
                      encoding="utf-8")
    hits, _, _ = scan_file(target, "keys.log", list(config.rules))
    assert len(hits) == N


def test_scan_matches_each_line_only_against_the_rules_keyed_for_it(monkeypatch, tmp_path):
    patches = [(engine, "parse_line")]
    few = _calls(monkeypatch, patches, lambda: _scan_with_distinct_keys(tmp_path, 8))
    many = _calls(monkeypatch, patches, lambda: _scan_with_distinct_keys(tmp_path, 32))
    assert few == many == N


CONTROLS = parse_config(
    "[rule vn]\ntarget = system.controlledVariables.name\nsource = *\nkey = VN\ngroup = v\n"
    "[rule vv]\ntarget = system.controlledVariables.value\nsource = *\nkey = VV\n"
    "type = decimal\nunit = K\ngroup = v\n"
)


def _assemble_group(count: int) -> None:
    hits = [RawHit("vn", "run.log", 2 * i + 1, f"T{i}") for i in range(count)]
    hits += [RawHit("vv", "run.log", 2 * i + 2, str(i)) for i in range(count)]
    assert len(assemble(hits, CONTROLS).dataset.system.controlledVariables) == count


def test_assembly_copies_the_dataset_root_once_per_list_and_file(monkeypatch):
    # one group's instances in one file are one batch, written with one path write
    patches = [(EngMetaDataset, "_replaced")]
    small = _calls(monkeypatch, patches, lambda: _assemble_group(N))
    large = _calls(monkeypatch, patches, lambda: _assemble_group(2 * N))
    assert small == large == 1


def _listing(prefix: str, first: int, count: int) -> EngMetaDataset:
    return EngMetaDataset(files=tuple(
        FileInfo(filename=f"{prefix}/{i}.dat", sizeBytes=i) for i in range(first, first + count)
    ))


def _merge_listings(count: int) -> None:
    # half of the overlay is already in the base
    base = _listing("run", 0, count)
    overlay = _listing("run", count // 2, count)
    merged, _ = merge(base, overlay)
    assert len(merged.files) == count + count // 2


def test_merge_tags_each_scalar_a_bounded_number_of_times(monkeypatch):
    # merge hashes entries through canonical_key, which keys each scalar once
    patches = [(model, "scalar_key")]
    small = _calls(monkeypatch, patches, lambda: _merge_listings(N))
    large = _calls(monkeypatch, patches, lambda: _merge_listings(2 * N))
    assert small >= N
    assert large <= MAX_RATIO * small, (small, large)


def _flatten_listing(count: int) -> None:
    # half of the files repeat an earlier one
    half = _listing("run", 0, count // 2).files
    blocks, report = flatten(EngMetaDataset(files=half + half))
    assert len(blocks[0].fields[0].value) == count // 2
    assert len(report.mappedPaths) == 2 * count


def test_flatten_keys_each_scalar_a_bounded_number_of_times(monkeypatch):
    patches = [(crosswalk, "scalar_key")]
    small = _calls(monkeypatch, patches, lambda: _flatten_listing(N))
    large = _calls(monkeypatch, patches, lambda: _flatten_listing(2 * N))
    assert small >= N
    assert large <= MAX_RATIO * small, (small, large)


def _serialize_listing(count: int) -> None:
    blocks, report = flatten(_listing("run", 0, count))
    assert serialize_blocks_json(blocks, report).count('"path": ') == 2 * count
    assert to_json(_listing("run", 0, count)).count('"filename": ') == count


def test_block_json_writes_entries_without_the_generic_writer(monkeypatch):
    # the block JSON and canonical JSON are written from templates, never
    # through the stdlib's generic encoder
    patches = [(json.JSONEncoder, "encode")]
    assert _calls(monkeypatch, patches, lambda: _serialize_listing(N)) == 0
    assert _calls(monkeypatch, patches, lambda: _serialize_listing(2 * N)) == 0
