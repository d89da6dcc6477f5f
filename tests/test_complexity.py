"""Deterministic scaling guards: count calls of model primitives, never time.

Linear work at N and 2N inputs gives a call-count ratio near 2; work that
rescans or re-normalises whole lists per entry gives a ratio near 4.
"""

from engmeta import model, paths
from engmeta.extract import assemble, parse_config
from engmeta.extract.engine import RawHit
from engmeta.merging import merge
from engmeta.model import EngMetaDataset, FileInfo

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
    patches = [(model, "scalar_type_name")]
    small = _calls(monkeypatch, patches, lambda: _merge_listings(N))
    large = _calls(monkeypatch, patches, lambda: _merge_listings(2 * N))
    assert small >= N
    assert large <= MAX_RATIO * small, (small, large)
