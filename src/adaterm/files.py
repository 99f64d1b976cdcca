"""Output files that are never left half-written, and the one CSV format.

A table is written with one ``%`` format for its rows, built from its
column kinds, and goes to disk in chunks of ``CHUNK_ROWS`` lines through
a temp file that is moved into place only once the whole table is written.
"""

from __future__ import annotations

import csv
import errno
import io
import itertools
import os
from pathlib import Path

CHUNK_ROWS = 1024

# A float cell as f"{x:.17g}", which reads back to the same bits; an int
# cell as str() (never %d, which truncates a float); a text cell as quoted.
_CELL_FORMATS = {float: "%.17g", int: "%s", str: "%s"}


class OutputError(OSError):
    """An output file could not be written; the message names its path."""


class _QuotedText(dict):
    """Each text cell of a table as ``csv.writer`` writes it in a row of the
    table's width, worked out once per distinct value."""

    def __init__(self, width):
        super().__init__()
        self._buffer = io.StringIO()
        self._writer = csv.writer(self._buffer)
        # csv quotes an empty cell only when it is the whole row.
        self._padding = [""] * (width - 1)

    def __missing__(self, text):
        self._buffer.seek(0)
        self._buffer.truncate()
        self._writer.writerow([text, *self._padding])
        # Drop the padding's commas and the "\r\n" line end.
        self[text] = quoted = self._buffer.getvalue()[: -len(self._padding) - 2]
        return quoted


def _write_table(fh, header, rows, kinds):
    writer = csv.writer(fh)
    writer.writerow(header)
    line = ",".join(_CELL_FORMATS[kind] for kind in kinds) + "\r\n"
    texts = [i for i, kind in enumerate(kinds) if kind is str]
    quoted = _QuotedText(len(kinds))
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
        lines = []
        for row in chunk:
            if texts:
                row = list(row)
                for i in texts:
                    row[i] = quoted[row[i]]
            lines.append(line % tuple(row))
        fh.write("".join(lines))


def write_csv(path, header, rows, kinds):
    """Write ``header`` and ``rows`` to ``path`` through a temp file in the
    same directory, moved into place with ``os.replace`` once the whole
    table is written (``write_csvs`` of one table).

    ``kinds`` names each column's type, ``float``, ``int`` or ``str``, and
    gives the table its one row format: a ``float`` cell (numpy ``float64``
    included) as ``f"{x:.17g}"``, which reads back to the same bits, an
    ``int`` cell as ``str()``, and a ``str`` cell as ``csv.writer`` quotes
    it, worked out once per distinct value.  The bytes are those of
    ``csv.writer``.  Rows are formatted and written ``CHUNK_ROWS`` at a
    time, so a table is never held whole as text.

    If the write raises, the temp file is removed and ``path`` is left as
    it was: the old file, or none.  An ``OSError`` (``path`` is a
    directory, its directory is missing, the disk is full) is raised as an
    ``OutputError`` that names ``path``.
    """
    write_csvs([(path, header, rows, kinds)])


def write_csvs(tables):
    """Write several ``(path, header, rows, kinds)`` tables as one output,
    each as ``write_csv`` does.

    Every table goes to its temp file first, and every path is checked not
    to be a directory; only then is any temp file moved into place.  If a
    table or a check fails, every temp file is removed and no path changes.
    A path listed twice is written once, with its later table, as writing
    the tables in turn would leave it.  An ``OSError`` is raised as an
    ``OutputError`` that names its path.
    """
    staged = {}  # path -> its temp file
    path = None
    try:
        for path, header, rows, kinds in tables:
            path = Path(path)
            staged[path] = tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(tmp, "w", newline="") as fh:
                _write_table(fh, header, rows, kinds)
        for path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, tmp in staged.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OutputError(f"Cannot write {path}: {exc.strerror or exc}") from exc
        raise
