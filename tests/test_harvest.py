import enum
import hashlib
import os
import random
import shutil
import stat
import subprocess
from pathlib import Path

import pytest

from engmeta.canon import from_xml, to_xml
from engmeta.harvest import HarvestError, harvest
from engmeta.validation import validate

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_empty_directory_gives_empty_listing(tmp_path):
    result = harvest(tmp_path)
    assert result.files == ()
    assert result.errors == ()


def test_zero_byte_file_matches_known_empty_digest(tmp_path):
    (tmp_path / "empty.bin").write_bytes(b"")
    result = harvest(tmp_path, "SHA-256")
    assert result.files[0].checksum.digest == SHA256_EMPTY


def test_size_and_extension(tmp_path):
    (tmp_path / "a.log").write_bytes(b"hello")
    result = harvest(tmp_path)
    info = result.files[0]
    assert info.filename == "a.log"
    assert info.sizeBytes == 5
    assert info.fileType == "log"


def test_extensionless_and_hidden_files(tmp_path):
    (tmp_path / "Makefile").write_text("all:\n")
    (tmp_path / ".hidden").write_text("x")
    result = harvest(tmp_path)
    assert [info.filename for info in result.files] == [".hidden", "Makefile"]
    assert result.files[0].fileType is None
    assert result.files[1].fileType is None


def test_listing_sorted_by_relative_path(tmp_path):
    (tmp_path / "b").mkdir()
    (tmp_path / "a").mkdir()
    (tmp_path / "b" / "one.txt").write_text("1")
    (tmp_path / "a" / "two.txt").write_text("2")
    (tmp_path / "zzz.txt").write_text("3")
    result = harvest(tmp_path)
    assert [info.filename for info in result.files] == ["a/two.txt", "b/one.txt", "zzz.txt"]


def test_symlinks_not_followed(tmp_path):
    (tmp_path / "real.txt").write_text("data")
    os.symlink(tmp_path / "real.txt", tmp_path / "alias.txt")
    result = harvest(tmp_path)
    assert [info.filename for info in result.files] == ["real.txt"]


def test_checksums_match_independent_oracle(tmp_path):
    """20 random files checked against the coreutils checksum tools."""
    rng = random.Random(42)
    paths = []
    for i in range(20):
        path = tmp_path / f"blob-{i:02d}.bin"
        path.write_bytes(rng.randbytes(rng.randint(0, 65536)))
        paths.append(path)

    for algorithm, tool in (("SHA-256", "sha256sum"), ("MD5", "md5sum")):
        if shutil.which(tool) is None:
            pytest.skip(f"{tool} not available")
        result = harvest(tmp_path, algorithm)
        assert len(result.files) == 20
        for info in result.files:
            output = subprocess.run(
                [tool, str(tmp_path / info.filename)],
                capture_output=True, text=True, check=True,
            ).stdout
            assert info.checksum.digest == output.split()[0]
            assert info.checksum.algorithm == algorithm


def test_repeated_harvest_is_stable(tmp_path):
    (tmp_path / "x.dat").write_bytes(b"abc")
    (tmp_path / "y.dat").write_bytes(b"def")
    assert harvest(tmp_path) == harvest(tmp_path)


def test_result_dataset_is_structurally_valid(tmp_path):
    (tmp_path / "numbers.csv").write_text("1,2,3\n")
    dataset = harvest(tmp_path).to_dataset()
    assert validate(dataset, "structural").ok


def test_unknown_algorithm_rejected(tmp_path):
    with pytest.raises(ValueError):
        harvest(tmp_path, "SHA-1")


def test_algorithm_given_as_enum_member_is_listed_as_its_value(tmp_path):
    algorithm = enum.Enum("Algorithm", {"MD5": "MD5"}, type=str).MD5
    (tmp_path / "a.txt").write_text("hi\n")
    result, plain = harvest(tmp_path, algorithm), harvest(tmp_path, "MD5")
    assert type(result.algorithm) is str
    assert type(result.files[0].checksum.algorithm) is str
    assert to_xml(result.to_dataset()) == to_xml(plain.to_dataset())


def test_missing_root_rejected(tmp_path):
    with pytest.raises(NotADirectoryError):
        harvest(tmp_path / "nowhere")


def test_unreadable_file_flagged_run_continues(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("file permissions do not bind as root")
    good = tmp_path / "good.txt"
    good.write_text("fine")
    bad = tmp_path / "bad.txt"
    bad.write_text("secret")
    bad.chmod(0)
    try:
        result = harvest(tmp_path)
        assert [e.path for e in result.errors] == ["bad.txt"]
        assert any(info.filename == "good.txt" and info.checksum for info in result.files)
    finally:
        bad.chmod(0o644)


def test_size_comes_from_the_bytes_hashed(tmp_path, monkeypatch):
    """A file that grows between stat and read keeps a size matching its digest."""
    (tmp_path / "grown.log").write_bytes(b"0123456789")
    real_stat = Path.stat

    def stale_stat(self, *args, **kwargs):
        result = real_stat(self, *args, **kwargs)
        if self.name != "grown.log":
            return result
        fields = list(result)
        fields[stat.ST_SIZE] = 4  # the size before the file grew
        return os.stat_result(fields)

    monkeypatch.setattr(Path, "stat", stale_stat)
    info = harvest(tmp_path).files[0]
    assert info.sizeBytes == 10
    assert info.checksum.digest == hashlib.sha256(b"0123456789").hexdigest()


def test_unopenable_file_keeps_size_without_checksum(tmp_path, monkeypatch):
    (tmp_path / "good.txt").write_text("fine")
    (tmp_path / "bad.txt").write_text("secret")
    real_open = Path.open

    def guarded_open(self, *args, **kwargs):
        if self.name == "bad.txt":
            raise PermissionError(13, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", guarded_open)
    result = harvest(tmp_path)
    assert [(info.filename, info.sizeBytes, info.checksum is None) for info in result.files] == [
        ("bad.txt", 6, True),
        ("good.txt", 4, False),
    ]
    assert [(e.path, e.message.split(":")[0]) for e in result.errors] == [("bad.txt", "unreadable")]


def test_unreadable_directory_reported(tmp_path, make_unlistable):
    (tmp_path / "ok").mkdir()
    (tmp_path / "ok" / "a.txt").write_text("a")
    (tmp_path / "locked").mkdir()
    (tmp_path / "locked" / "b.txt").write_text("b")
    make_unlistable(tmp_path / "locked")
    result = harvest(tmp_path)
    assert [info.filename for info in result.files] == ["ok/a.txt"]
    assert [e.path for e in result.errors] == ["locked"]
    assert result.errors[0].message.startswith("unreadable directory: ")


def test_non_utf8_file_names_are_listed_replaced_and_reported(non_utf8_tree):
    result = harvest(non_utf8_tree)
    names = [info.filename for info in result.files]
    assert names == ["bad\ufffdname.txt", "bad\ufffdname.txt", "good.txt"]
    assert result.errors == tuple(
        HarvestError("bad\ufffdname.txt", f"file name {raw!r} is not UTF-8; "
                     "listed with U+FFFD for its undecodable bytes")
        for raw in (b"bad\xfename.txt", b"bad\xffname.txt")
    )
    dataset = result.to_dataset()
    assert validate(dataset).ok
    assert from_xml(to_xml(dataset)).dataset == dataset


def test_file_names_xml_cannot_carry_are_listed_replaced_and_reported(tmp_path):
    for name in ("a\x01b.log", "c\x1b[0m.log", "ok.log"):
        (tmp_path / name).write_text("x")
    try:
        with open(os.path.join(os.fsencode(tmp_path), b"d\x02\xff.log"), "wb") as handle:
            handle.write(b"x")
    except OSError:
        pytest.skip("the file system refuses names that are not UTF-8")
    result = harvest(tmp_path)
    names = [info.filename for info in result.files]
    assert names == ["a\ufffdb.log", "c\ufffd[0m.log", "d\ufffd\ufffd.log", "ok.log"]
    assert result.errors == tuple(
        HarvestError(name, f"file name {raw!r} holds characters XML cannot carry; "
                     "listed with U+FFFD for each")
        for name, raw in zip(names, (b"a\x01b.log", b"c\x1b[0m.log", b"d\x02\xff.log"))
    )
    dataset = result.to_dataset()
    assert from_xml(to_xml(dataset)).dataset == dataset
