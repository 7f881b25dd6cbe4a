"""Persistent cache for class number tables.

The file is the table's own row: ClassNumberTable.sixths, the int64 row of
6 H(n) for n = 0..max_n (entry 0 is 0 and stands for H(0) = -1/12), in numpy's
.npy format, written by np.save and read by np.load without pickles.  A loaded
row passes through ClassNumberTable and so through the same certificate, the
class number relations, as a built one.  The cache location is
``~/.cache/mockform/hurwitz_sixths.npy`` unless overridden by the
MOCKFORM_CACHE environment variable.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .class_numbers import MAX_TABLE_N, ClassNumberTable, build_table


# the longest file read_table loads: an int64 row to MAX_TABLE_N behind np.load's largest default header
_MAX_FILE_BYTES = 8 * (MAX_TABLE_N + 1) + 10_240


class CacheError(ValueError):
    """Raised for an unreadable, truncated or malformed cache file, or one whose row is not the Hurwitz table."""


def default_cache_path() -> Path:
    env = os.environ.get("MOCKFORM_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mockform" / "hurwitz_sixths.npy"


def write_table(path, table: ClassNumberTable) -> None:
    """Write the table atomically: a killed or concurrent writer never leaves a truncated cache.

    The row goes to the sibling ``<name>.<pid>.tmp``, which then replaces
    the cache in one rename; on failure the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:     # np.save would append .npy to a path
            np.save(fh, table.sixths, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_table(path) -> ClassNumberTable:
    """The table a cache file holds; CacheError unless it is a certified int64 row of 6 H(n)."""
    path = Path(path)
    # numpy's own message for a text file or a pickle would suggest loading it unsafely
    refused = (f"cache file {path} is not a .npy int64 row of 6 H(n) with entry 0 equal to 0; "
               f"rebuild with --rebuild-cache")
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            row = np.load(fh, allow_pickle=False) if size <= _MAX_FILE_BYTES else None
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}; rebuild with --rebuild-cache") from exc
    except (ValueError, EOFError) as exc:
        raise CacheError(refused) from exc
    if row is None:     # refused before np.load reads the data
        raise CacheError(f"cache file {path} of {size} bytes is longer than a row of 6 H(n) to "
                         f"MAX_TABLE_N = {MAX_TABLE_N}; rebuild with --rebuild-cache")
    if not (isinstance(row, np.ndarray) and row.dtype == np.int64 and row.ndim == 1
            and row.size and row[0] == 0):
        raise CacheError(refused)
    try:
        return ClassNumberTable(row)
    except ValueError as exc:
        raise CacheError(f"invalid table data in {path}: {exc}; rebuild with --rebuild-cache") from exc


def load_or_build(path, max_n: int, rebuild: bool = False) -> ClassNumberTable:
    """Return a table covering 0..max_n, reusing the cache when possible.

    A corrupted file is an error, never silently rebuilt; an absent or
    merely too-small cache is extended and rewritten.
    """
    path = Path(path)
    if not rebuild and max_n <= MAX_TABLE_N and path.exists():     # else build_table refuses a longer one
        table = read_table(path)
        if table.max_n >= max_n:
            return table
    table = build_table(max_n)
    write_table(path, table)
    return table
