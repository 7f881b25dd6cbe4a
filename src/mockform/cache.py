"""Line-oriented persistent cache for class number tables.

Format: a header ``MOCKFORM-CACHE v1 max_n=<N>`` followed by one line per
entry ``<n> <numerator>/<denominator>``, contiguous from n = 0.  Rationals
are never serialized as floats.  The cache location is ``~/.cache/mockform``
unless overridden by the MOCKFORM_CACHE environment variable.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from .class_numbers import ClassNumberTable, build_table

CACHE_VERSION = 1
_HEADER_RE = re.compile(r"^MOCKFORM-CACHE v(\d+) max_n=(\d+)$")


class CacheError(ValueError):
    """Raised for unreadable, truncated or version-mismatched cache files."""


def default_cache_path() -> Path:
    env = os.environ.get("MOCKFORM_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mockform" / "hurwitz_table.txt"


def write_table(path, table: ClassNumberTable) -> None:
    """Write the table atomically: a killed or concurrent writer never leaves a truncated cache.

    The text goes to the sibling ``<name>.<pid>.tmp``, which then replaces
    the cache in one rename; on failure the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"MOCKFORM-CACHE v{CACHE_VERSION} max_n={table.max_n}"]
    for n, value in enumerate(table):
        lines.append(f"{n} {value.numerator}/{value.denominator}")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="ascii")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_table(path) -> ClassNumberTable:
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise CacheError(f"empty cache file {path}")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise CacheError(f"malformed cache header in {path}: {lines[0]!r}")
    version, max_n = int(m.group(1)), int(m.group(2))
    if version != CACHE_VERSION:
        raise CacheError(
            f"cache version {version} in {path} is not supported "
            f"(expected {CACHE_VERSION}); rebuild with --rebuild-cache")
    if len(lines) - 1 != max_n + 1:
        raise CacheError(
            f"truncated cache {path}: header promises {max_n + 1} entries, "
            f"found {len(lines) - 1}")
    if lines[1].split() != ["0", "-1/12"]:
        raise CacheError(f"invalid table data in {path}: the table must start with H(0) = -1/12")
    sixths = [0]
    for n, line in enumerate(lines[2:], 1):
        try:
            idx, frac = line.split()
            num, den = frac.split("/")
            if int(idx) != n:
                raise ValueError(f"entry out of order: expected n={n}")
            six, rem = divmod(6 * int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise CacheError(f"malformed cache line {n + 2} in {path}: {line!r}") from exc
        if rem or not -2 ** 63 <= six < 2 ** 63:
            raise CacheError(f"invalid table data in {path}: H({n}) = {frac} is not the Hurwitz class number")
        sixths.append(six)
    try:
        return ClassNumberTable(sixths)
    except ValueError as exc:
        raise CacheError(f"invalid table data in {path}: {exc}") from exc


def load_or_build(path, max_n: int, rebuild: bool = False) -> ClassNumberTable:
    """Return a table covering 0..max_n, reusing the cache when possible.

    A corrupted or version-mismatched file is an error, never silently
    rebuilt; an absent or merely too-small cache is extended and rewritten.
    """
    path = Path(path)
    if not rebuild and path.exists():
        table = read_table(path)
        if table.max_n >= max_n:
            return table
    table = build_table(max_n)
    write_table(path, table)
    return table
