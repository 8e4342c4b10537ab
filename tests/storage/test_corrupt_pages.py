"""CRC32 page integrity: corruption is detected, retired formats are rejected."""

from __future__ import annotations

import struct

import pytest

from repro.storage import CorruptPageError, FileDiskManager, PageError

_HEADER = struct.Struct("<8sqqq")


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "pages.db")


def flip_byte(path: str, offset: int, mask: int = 0x40) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)[0]
        f.seek(offset)
        f.write(bytes([byte ^ mask]))


def page_offset(page_size: int, page_id: int) -> int:
    return _HEADER.size + page_id * page_size


def write_retired_v1(path: str, page_size: int, payloads) -> None:
    """Synthesize a file in the retired ``RPRODISK`` length-only format."""
    with open(path, "wb") as f:
        f.write(_HEADER.pack(b"RPRODISK", page_size, len(payloads), -1))
        for data in payloads:
            framed = struct.pack("<i", len(data)) + data
            f.write(framed.ljust(page_size, b"\x00"))


def magic_of(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read(8)


class TestFileDiskChecksums:
    def test_new_files_are_version_2(self, path):
        with FileDiskManager(path, page_size=128) as disk:
            assert disk.usable_page_size == 128 - 8
        assert magic_of(path) == b"RPRODSK2"
        with FileDiskManager(path) as reopened:
            assert reopened.usable_page_size == 128 - 8

    def test_payload_bit_flip_detected(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        disk.write_page(pid, b"payload-bytes")
        disk.close()
        # Flip one bit inside the payload, past the 8-byte frame.
        flip_byte(path, page_offset(128, pid) + 8 + 3)
        reopened = FileDiskManager(path)
        with pytest.raises(CorruptPageError, match="CRC32"):
            reopened.read_page(pid)
        reopened.close()

    def test_corrupt_length_detected(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        disk.write_page(pid, b"x" * 16)
        disk.close()
        with open(path, "r+b") as f:
            f.seek(page_offset(128, pid))
            f.write(struct.pack("<i", 10_000))
        reopened = FileDiskManager(path)
        with pytest.raises(CorruptPageError, match="length"):
            reopened.read_page(pid)
        reopened.close()

    def test_crc_mismatch_detected(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        disk.write_page(pid, b"y" * 16)
        disk.close()
        # Corrupt the stored checksum itself.
        flip_byte(path, page_offset(128, pid) + 4)
        reopened = FileDiskManager(path)
        with pytest.raises(CorruptPageError):
            reopened.read_page(pid)
        reopened.close()

    def test_retired_v1_file_rejected(self, path):
        write_retired_v1(path, 128, [b"hello", b"world"])
        before = open(path, "rb").read()
        with pytest.raises(PageError, match="RPRODISK"):
            FileDiskManager(path)
        assert open(path, "rb").read() == before

    @pytest.mark.parametrize("size", [1, 10, _HEADER.size - 1])
    def test_short_foreign_file_not_overwritten(self, tmp_path, size):
        notes = tmp_path / "notes.txt"
        notes.write_bytes(b"n" * size)
        with pytest.raises(PageError, match="not a repro page file"):
            FileDiskManager(str(notes))
        assert notes.read_bytes() == b"n" * size

    def test_empty_file_counts_as_new(self, path):
        open(path, "wb").close()
        with FileDiskManager(path, page_size=128) as disk:
            disk.write_page(disk.allocate(), b"fresh")
        assert magic_of(path) == b"RPRODSK2"
        with FileDiskManager(path) as reopened:
            assert reopened.read_page(0) == b"fresh"

    def test_recycled_page_reads_empty(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        disk.write_page(pid, b"stale")
        disk.deallocate(pid)
        again = disk.allocate()
        assert again == pid
        # The stale free-link/frame must not survive as readable data.
        assert disk.read_page(again) == b""
        disk.close()

    def test_empty_page_validates(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        assert disk.read_page(pid) == b""
        disk.write_page(pid, b"")
        assert disk.read_page(pid) == b""
        disk.close()

    def test_oversize_respects_v2_frame(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        with pytest.raises(PageError):
            disk.write_page(pid, b"x" * (disk.usable_page_size + 1))
        disk.close()
