"""Command-line interface.

Subcommands tie the library together: ``extract`` runs the config-driven
scanner over a directory tree, ``validate`` checks a document against a
profile, ``to-prov`` emits PROV-N provenance, ``to-dataverse`` emits the
repository block JSON and ``harvest`` collects technical file metadata.

Payload goes to standard output (or --out); everything informational goes
to standard error. Exit codes: 0 success, 1 validation errors found,
2 usage error, 3 I/O error.

A file named by --out or --report is written whole to a new file beside it,
which replaces it only once every output of the command is written, so a
failed write leaves every previous file as it was.
A symlink (``/dev/stdout`` too), a device (``/dev/null``), a FIFO or a file
with other hard links is written in place.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import stat
import sys
from typing import TYPE_CHECKING

from .errors import CanonError, ConfigError, EngMetaError

if TYPE_CHECKING:
    from .model import EngMetaDataset

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3

_ALGORITHM_CODES = {"md5": "MD5", "sha256": "SHA-256"}


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write a command's outputs, each a ``(payload, path)``; a path of None is stdout.

    Each file to replace is written whole to a temporary file beside it, and
    only when all are written do they replace their targets, one rename each.
    A failure removes every temporary file not yet renamed, so one before the
    first rename leaves every target as it was. Then the targets written in
    place get their bytes, and stdout last.
    """
    staged: list[tuple[str, str]] = []  # (temporary, target) not yet renamed
    in_place: list[tuple[str, str]] = []
    try:
        for payload, out in outputs:
            if out is None:
                continue
            try:
                target = os.lstat(out)
            except FileNotFoundError:
                target = None
            # Only a single-linked regular file is replaced. A symlink (/dev/stdout too), a
            # device, a FIFO or a file with other hard links is written in place, so what it
            # leads to gets the bytes.
            if target is not None and not (stat.S_ISREG(target.st_mode) and target.st_nlink == 1):
                in_place.append((payload, out))
                continue
            temporary, handle = _new_file_beside(out)
            staged.append((temporary, out))
            with handle:
                if target is not None:  # a plain write keeps the permission bits it finds
                    os.chmod(temporary, target.st_mode & 0o777)
                handle.write(payload)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    except BaseException:
        for temporary, _ in staged:
            os.remove(temporary)
        raise
    for payload, out in in_place:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    for payload, out in outputs:
        if out is None:
            sys.stdout.write(payload)


def _new_file_beside(out: str):
    """The name of a new file beside ``out`` and the file, open for writing."""
    for attempt in itertools.count():
        temporary = f"{out}.{os.getpid()}.{attempt}.tmp"
        try:  # the mode is 0o666 less the umask, as a plain write gives
            return temporary, open(temporary, "x", encoding="utf-8")
        except FileExistsError:
            continue  # not this call's file (a killed run's, say): leave it, take the next name
        except OSError as exc:
            exc.filename = out  # name the file asked for, as a plain write's error does
            raise


def _read_text(path: str, error_type: type[EngMetaError]) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error_type(f"{path}: not valid UTF-8 from byte {exc.start}") from None


def _read_document(path: str) -> EngMetaDataset:
    """Load a document from XML or JSON, sniffing the format."""
    from . import canon

    text = _read_text(path, CanonError)
    text = text.removeprefix("\ufeff")  # a byte-order mark; json.loads refuses one
    result = canon.from_xml(text) if text.lstrip().startswith("<") else canon.from_json(text)
    for warning in result.warnings:
        _info(f"warning: {path}: {warning}")
    return result.dataset


def _serialize(dataset: EngMetaDataset, fmt: str) -> str:
    from . import canon

    return canon.to_xml(dataset) if fmt == "xml" else canon.to_json(dataset)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engmeta",
        description="Metadata tooling for computational-engineering research data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("extract", help="extract metadata from files under a directory")
    cmd.add_argument("--config", required=True, help="extraction rule file")
    cmd.add_argument("--root", required=True, help="directory tree to scan")
    cmd.add_argument("--mode", choices=["serial", "parallel"], default="serial",
                     help="parallel is an alias of serial: both run one scan")
    cmd.add_argument("--format", choices=["xml", "json"], default="xml")
    cmd.add_argument("--out", help="write the document here instead of stdout")
    cmd.add_argument("--report", help="write the extraction report (JSON) here")
    cmd.set_defaults(run=_cmd_extract)

    cmd = commands.add_parser("validate", help="validate a metadata document")
    cmd.add_argument("--in", dest="infile", required=True, help="document (XML or JSON)")
    cmd.add_argument("--profile", choices=["structural", "citable"], default="structural")
    cmd.set_defaults(run=_cmd_validate)

    cmd = commands.add_parser("to-prov", help="convert processing steps to PROV-N")
    cmd.add_argument("--in", dest="infile", required=True)
    cmd.add_argument("--out")
    cmd.set_defaults(run=_cmd_to_prov)

    cmd = commands.add_parser("to-dataverse", help="flatten into repository metadata blocks")
    cmd.add_argument("--in", dest="infile", required=True)
    cmd.add_argument("--out")
    cmd.set_defaults(run=_cmd_to_dataverse)

    cmd = commands.add_parser("harvest", help="collect technical metadata from files")
    cmd.add_argument("--root", required=True)
    cmd.add_argument("--algorithm", choices=sorted(_ALGORITHM_CODES), default="sha256")
    cmd.add_argument("--merge-into", dest="merge_into", help="merge the listing into this document")
    cmd.add_argument("--format", choices=["xml", "json"], default="xml")
    cmd.add_argument("--out")
    cmd.set_defaults(run=_cmd_harvest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK

    try:
        return args.run(args)
    except ConfigError as exc:
        _info(f"error: config: {exc}")
        return EXIT_USAGE
    except CanonError as exc:
        _info(f"error: {exc}")
        return EXIT_INVALID
    except OSError as exc:  # ExtractionRootError and NotADirectoryError are OSErrors
        _info(f"error: {exc}")
        return EXIT_IO
    except EngMetaError as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE


def _cmd_extract(args) -> int:
    from .extract import extract, parse_config

    config = parse_config(_read_text(args.config, EngMetaError))  # exit 2, as a config error
    dataset, report = extract(args.root, config, mode=args.mode)
    outputs = [(_serialize(dataset, args.format), args.out)]
    if args.report is not None:
        outputs.append((json.dumps(report.to_obj(), indent=2) + "\n", args.report))
    _emit(*outputs)
    for warning in report.warnings:
        _info(f"warning: {warning}")
    _info(
        f"extract: {report.filesScanned} files, {len(report.rulesMatched)} of "
        f"{len(report.rulesMatched) + len(report.rulesUnmatched)} rules matched, "
        f"{len(report.conflicts)} conflicts, "
        f"{len(report.coercionFailures)} coercion failures"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .validation import validate

    dataset = _read_document(args.infile)
    report = validate(dataset, args.profile)
    for finding in report.findings:
        _info(f"{finding.severity}: {finding.path}: {finding.message}")
    payload = {
        "profile": report.profile,
        "findings": [f._asdict() for f in report.findings],
        "valid": report.ok,
    }
    _emit((json.dumps(payload, indent=2) + "\n", None))
    _info(f"validate: {len(report.errors)} errors, {len(report.warnings)} warnings")
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_to_prov(args) -> int:
    from .prov import serialize_prov_n, to_prov

    dataset = _read_document(args.infile)
    _emit((serialize_prov_n(to_prov(dataset)), args.out))
    return EXIT_OK


def _cmd_to_dataverse(args) -> int:
    from .flatten import flatten, serialize_blocks_json

    dataset = _read_document(args.infile)
    blocks, report = flatten(dataset)
    _emit((serialize_blocks_json(blocks, report), args.out))
    return EXIT_OK


def _cmd_harvest(args) -> int:
    from .harvest import harvest

    result = harvest(args.root, _ALGORITHM_CODES[args.algorithm])
    for error in result.errors:
        _info(f"warning: {error.path}: {error.message}")
    dataset = result.to_dataset()
    if args.merge_into:
        from .merging import merge

        base = _read_document(args.merge_into)
        dataset, _ = merge(base, dataset, "first-wins")  # lists merge without conflicts
    _emit((_serialize(dataset, args.format), args.out))
    _info(f"harvest: {len(result.files)} files, {len(result.errors)} errors")
    return EXIT_OK


def run() -> None:
    sys.exit(main())
