"""Technical-metadata harvesting from the file system.

Walks a directory tree and records, per regular file, the relative path,
size, checksum and an extension-derived format hint. Size and checksum come
from the same read, so they agree even for a file that changes meanwhile.
Unreadable files and directories are reported as errors. A file whose name
is not UTF-8, or holds a character XML cannot carry (a control character),
is listed with U+FFFD in place of each byte that does not decode and each
such character (``fswalk.utf8_name``, which extraction shares), and
reported as an error that gives the name's bytes; two names that differ
only in those bytes are both listed. The listing is sorted by the names as
the file system gives them and is deterministic, so repeated harvests of
unchanged trees are identical.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import NamedTuple

from .fswalk import utf8_name, walk_files
from .model import CHECKSUM_ALGORITHMS, Checksum, EngMetaDataset, FileInfo, _trusted_node

_HASHERS = {"MD5": hashlib.md5, "SHA-256": hashlib.sha256}
_CHUNK_SIZE = 1024 * 1024


class HarvestError(NamedTuple):
    path: str
    message: str


class HarvestResult(NamedTuple):
    algorithm: str
    files: tuple[FileInfo, ...] = ()
    errors: tuple[HarvestError, ...] = ()

    def to_dataset(self) -> EngMetaDataset:
        """The harvested listing as a document (for merging or output)."""
        return EngMetaDataset(files=self.files)


def _digest(path: Path, algorithm: str) -> tuple[str, int]:
    """Hex digest and size of the bytes read, so the two always agree."""
    hasher = _HASHERS[algorithm]()
    size = 0
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(_CHUNK_SIZE), b""):
            hasher.update(chunk)
            size += len(chunk)
    return hasher.hexdigest(), size


def _file_type(relative_path: str) -> str | None:
    name = relative_path.rpartition("/")[2]
    dot = name.rfind(".")
    return name[dot + 1:].lower() if 0 < dot < len(name) - 1 else None


def harvest(root_dir: str | Path, algorithm: str = "SHA-256") -> HarvestResult:
    """Collect technical metadata for every regular file under root.

    A file's ``fileType`` is the text after its base name's last dot,
    lowercased (``x.TAR.GZ`` gives ``gz``); a name with no dot, or whose
    last dot is its first or last character (``.bashrc``, ``a.``), has none.
    """
    if algorithm not in CHECKSUM_ALGORITHMS:
        allowed = ", ".join(sorted(CHECKSUM_ALGORITHMS))
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of: {allowed}")
    algorithm = Checksum(algorithm=algorithm).algorithm  # a (str, Enum) code as its value
    root = Path(root_dir)
    if not root.is_dir():
        raise NotADirectoryError(f"harvest root {root} is not a readable directory")

    files: list[FileInfo] = []
    errors: list[HarvestError] = []

    def unreadable_directory(relative_path: str, exc: OSError) -> None:
        errors.append(HarvestError(relative_path, f"unreadable directory: {exc}"))

    for relative_path, absolute_path in walk_files(root, unreadable_directory):
        relative_path, note = utf8_name(relative_path)
        if note is not None:
            errors.append(HarvestError(relative_path, note))
        # from here every value is canonical (a name XML can carry, a size, a
        # hex digest, a checked algorithm), so the nodes are built unchecked
        try:
            digest, size = _digest(absolute_path, algorithm)
            checksum = _trusted_node(Checksum, {"digest": digest, "algorithm": algorithm})
        except OSError as read_error:
            # unreadable: record the size alone, when the file still has one
            try:
                size = absolute_path.stat().st_size
            except OSError as exc:
                errors.append(HarvestError(relative_path, f"stat failed: {exc}"))
                continue
            checksum = None
            errors.append(HarvestError(relative_path, f"unreadable: {read_error}"))
        values = {"filename": relative_path, "checksum": checksum, "sizeBytes": size,
                  "fileType": _file_type(relative_path)}
        files.append(_trusted_node(FileInfo, {k: v for k, v in values.items() if v is not None}))
    return HarvestResult(algorithm, tuple(files), tuple(errors))
