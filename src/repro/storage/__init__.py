"""Simulated disk substrate: pages, I/O accounting, LRU buffering.

The paper's experiments assume disk-resident data: 4 KiB pages behind a
50-page LRU buffer, with cost reported in physical page I/Os.  This
package reproduces that environment in memory so the I/O *counts* are
exact while the experiments stay laptop-fast.
"""

from .buffer import DEFAULT_BUFFER_PAGES, BufferPool, PageCodec
from .column_pages import MappedColumns, map_columns, save_columns_file
from .disk import DEFAULT_PAGE_SIZE, CorruptPageError, DiskManager, PageError
from .file_disk import FileDiskManager
from .serializer import BytesCodec, StructReader, StructWriter

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_BUFFER_PAGES",
    "CorruptPageError",
    "DiskManager",
    "FileDiskManager",
    "PageError",
    "save_columns_file",
    "map_columns",
    "MappedColumns",
    "BufferPool",
    "PageCodec",
    "BytesCodec",
    "StructReader",
    "StructWriter",
]
