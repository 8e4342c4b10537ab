"""Columnar dataset persistence: one flat, memory-mapped slab file.

The columnar engine's single source of truth is the contiguous
:class:`~repro.core.columns.ColumnStore`.  This module persists a
column batch in one format, ``RPROCOL3``, and reads it back through one
reader.

:func:`save_columns_file` writes a flat file: a CRC-checked header, a
per-slab CRC table, then the raw column slabs in a fixed order
(``oid``, ``tref``, then each bound plane of ``mlo, mhi, vlo, vhi``),
8 bytes per element and 8-byte aligned, so a round trip is byte-exact.
:func:`map_columns` opens it as :class:`MappedColumns`: zero-copy
``np.memmap`` views per column, slab CRCs verified lazily on first
touch, and the derived ``slo``/``shi`` shift planes recomputed lazily
per mapped slab; :meth:`MappedColumns.columns` materializes the whole
batch.  This is how a 1M-object dataset reloads without full
deserialization: opening validates only the fixed header, and a probe
that touches two columns faults in two slabs, not the whole file.

A truncated file or a flipped bit raises
:class:`~repro.storage.disk.CorruptPageError` instead of decoding
garbage.  Column files of the retired formats — ``RPROCOL2`` page-chain
streams and header-only ``RPROCOLS`` streams — are rejected with a
:class:`~repro.storage.disk.PageError` naming their magic, never
decoded.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

import numpy as np

from ..geometry.box import NDIMS
from ..geometry.kernels import KineticBatch
from .disk import CorruptPageError, PageError

__all__ = [
    "save_columns_file",
    "map_columns",
    "MappedColumns",
]

_MAGIC_V3 = b"RPROCOL3"
#: Magics of the retired column formats: rejected by name, never decoded.
_RETIRED_MAGICS = (b"RPROCOL2", b"RPROCOLS")
_HEAD_V3 = struct.Struct("<8sBqq")  # magic, version, n, ndims
_VERSION_V3 = 3

#: Slab order: ``oid``, ``tref``, then each bound plane
#: dimension-major (``mlo[0], mlo[1], mhi[0], …``).
_N_SLABS = 2 + 4 * NDIMS
_SLAB_NAMES = tuple(
    ["oid", "tref"]
    + [f"{name}{dim}" for name in ("mlo", "mhi", "vlo", "vhi") for dim in range(NDIMS)]
)
_CRC_TABLE = struct.Struct(f"<{_N_SLABS}I")
_HEAD_CRC = struct.Struct("<I")
#: Full v3 header: fixed fields + slab CRC table + header CRC, padded
#: so the first slab starts 8-byte aligned (zero-copy float64 views).
_V3_HEADER_SIZE = -(-(_HEAD_V3.size + _CRC_TABLE.size + _HEAD_CRC.size) // 8) * 8


def _v3_header(n: int, slab_crcs: List[int]) -> bytes:
    """The padded ``RPROCOL3`` header for ``n`` rows."""
    head = _HEAD_V3.pack(_MAGIC_V3, _VERSION_V3, n, NDIMS)
    head += _CRC_TABLE.pack(*slab_crcs)
    head += _HEAD_CRC.pack(zlib.crc32(head))
    return head.ljust(_V3_HEADER_SIZE, b"\0")


def _parse_v3_header(buf) -> tuple:
    """Validate a v3 header; returns ``(n, ndims, slab_crcs)``.

    ``buf`` is any byte buffer at least ``_V3_HEADER_SIZE`` long.  The
    header carries its own CRC32, so a flipped bit in the bookkeeping
    (row count, slab table) is caught *before* any slab is trusted.
    """
    if len(buf) < _V3_HEADER_SIZE:
        raise CorruptPageError("column slab header truncated")
    _, version, n, ndims = _HEAD_V3.unpack_from(buf, 0)
    if version != _VERSION_V3:
        raise ValueError(f"unsupported column-slab version {version}")
    crcs = _CRC_TABLE.unpack_from(buf, _HEAD_V3.size)
    declared = _HEAD_CRC.unpack_from(buf, _HEAD_V3.size + _CRC_TABLE.size)[0]
    actual = zlib.crc32(bytes(buf[: _HEAD_V3.size + _CRC_TABLE.size]))
    if actual != declared:
        raise CorruptPageError("column slab header failed its CRC32 check")
    if n < 0:
        raise CorruptPageError(f"column slab header declares {n} rows")
    return n, ndims, crcs


def save_columns_file(path, cols) -> int:
    """Write one column batch as a flat ``RPROCOL3`` slab image.

    Slabs land in the fixed slab order, each 8 bytes per element and
    8-byte aligned, so :func:`map_columns` can hand out zero-copy views.
    Returns the number of bytes written.
    """
    n = len(cols)
    slabs: List[bytes] = [
        np.ascontiguousarray(cols.oid, dtype="<i8").tobytes(),
        np.ascontiguousarray(cols.tref, dtype="<f8").tobytes(),
    ]
    for column in (cols.mlo, cols.mhi, cols.vlo, cols.vhi):
        for dim in range(NDIMS):
            slabs.append(np.ascontiguousarray(column[dim], dtype="<f8").tobytes())
    head = _v3_header(n, [zlib.crc32(slab) for slab in slabs])
    with open(path, "wb") as fh:
        fh.write(head)
        for slab in slabs:
            fh.write(slab)
    return _V3_HEADER_SIZE + sum(len(slab) for slab in slabs)


class MappedColumns:
    """Read-only column access over a memory-mapped ``RPROCOL3`` file.

    Opening validates the header (magic, version, CRC) and the file
    size against the declared row count — nothing else is read, so a
    1M-row dataset opens in microseconds.  Column properties are
    zero-copy ``np.memmap`` views into the slabs; each slab's CRC32 is
    verified once, lazily, the first time it is touched, so integrity
    still holds end to end without an upfront full-file scan.  The
    derived shift planes (``slo = mlo - vlo·tref``) are not stored in
    the file; they are recomputed lazily from the mapped slabs and
    cached, exactly like a fresh :class:`~repro.core.columns.
    ColumnStore` pack would produce them.

    Duck-compatible with the read side of ``ColumnStore``: ``batch()``
    yields the same :class:`~repro.geometry.kernels.KineticBatch` the
    engine sweeps, so a mapped dataset drops straight into
    :class:`~repro.core.columnar.ColumnarJoinEngine` via
    ``UpdateColumns``-style consumption or the kernels directly.
    """

    __slots__ = ("path", "n", "_raw", "_crcs", "_verified", "_slo", "_shi")

    def __init__(self, path):
        self.path = path
        raw = np.memmap(path, dtype=np.uint8, mode="r")
        n, ndims, crcs = _parse_v3_header(raw[: _V3_HEADER_SIZE])
        if ndims != NDIMS:
            raise ValueError(
                f"slab image has {ndims} dimensions, library has {NDIMS}"
            )
        expected = _V3_HEADER_SIZE + _N_SLABS * 8 * n
        if raw.size < expected:
            raise CorruptPageError(
                f"column slab image truncated: expected {expected} bytes, "
                f"found {raw.size}"
            )
        self.n = n
        self._raw = raw
        self._crcs = crcs
        self._verified = [False] * _N_SLABS
        self._slo = None
        self._shi = None

    def _slab_bytes(self, index: int, count: int = 1):
        """Raw view over ``count`` adjacent slabs starting at ``index``,
        CRC-verifying each on first touch."""
        n = self.n
        for i in range(index, index + count):
            if not self._verified[i]:
                off = _V3_HEADER_SIZE + i * 8 * n
                if zlib.crc32(self._raw[off : off + 8 * n]) != self._crcs[i]:
                    raise CorruptPageError(
                        f"column slab {_SLAB_NAMES[i]!r} failed its CRC32 check"
                    )
                self._verified[i] = True
        off = _V3_HEADER_SIZE + index * 8 * n
        return self._raw[off : off + count * 8 * n]

    @property
    def oid(self) -> np.ndarray:
        return self._slab_bytes(0).view("<i8")

    @property
    def tref(self) -> np.ndarray:
        return self._slab_bytes(1).view("<f8")

    def _plane(self, first_slab: int) -> np.ndarray:
        """One ``(NDIMS, n)`` bound plane: adjacent dim slabs, one view."""
        return self._slab_bytes(first_slab, NDIMS).view("<f8").reshape(NDIMS, self.n)

    @property
    def mlo(self) -> np.ndarray:
        return self._plane(2)

    @property
    def mhi(self) -> np.ndarray:
        return self._plane(2 + NDIMS)

    @property
    def vlo(self) -> np.ndarray:
        return self._plane(2 + 2 * NDIMS)

    @property
    def vhi(self) -> np.ndarray:
        return self._plane(2 + 3 * NDIMS)

    @property
    def slo(self) -> np.ndarray:
        """Lazily recomputed pre-shifted lower bounds (cached)."""
        if self._slo is None:
            self._slo = self.mlo - self.vlo * self.tref
        return self._slo

    @property
    def shi(self) -> np.ndarray:
        """Lazily recomputed pre-shifted upper bounds (cached)."""
        if self._shi is None:
            self._shi = self.mhi - self.vhi * self.tref
        return self._shi

    def batch(self) -> KineticBatch:
        """The mapped dataset as one sweep-ready kinetic batch."""
        return KineticBatch(
            self.mlo, self.mhi, self.vlo, self.vhi,
            np.asarray(self.tref), self.slo, self.shi,
        )

    def columns(self):
        """Materialize into ``UpdateColumns`` (full deserialization)."""
        from ..core.columns import UpdateColumns

        return UpdateColumns(
            oid=np.array(self.oid, dtype=np.int64),
            mlo=np.array(self.mlo, dtype=float),
            mhi=np.array(self.mhi, dtype=float),
            vlo=np.array(self.vlo, dtype=float),
            vhi=np.array(self.vhi, dtype=float),
            tref=np.array(self.tref, dtype=float),
        )

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        touched = sum(self._verified)
        return (
            f"MappedColumns(n={self.n}, slabs={_N_SLABS}, "
            f"verified={touched}/{_N_SLABS})"
        )


def map_columns(path) -> MappedColumns:
    """Open a persisted ``RPROCOL3`` slab image as :class:`MappedColumns`.

    Zero-copy and lazily verified.  Nothing writes other column files:
    a retired ``RPROCOL2`` or ``RPROCOLS`` stream raises
    :class:`~repro.storage.disk.PageError` naming its magic, and any
    other file raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic in _RETIRED_MAGICS:
        raise PageError(f"{path}: {magic!r} is not an RPROCOL3 slab image")
    if magic != _MAGIC_V3:
        raise ValueError("not a column-page stream")
    return MappedColumns(path)
