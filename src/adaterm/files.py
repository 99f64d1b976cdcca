"""Output files that are never left half-written, and the one CSV format."""

from __future__ import annotations

import contextlib
import csv
import os
from pathlib import Path


class OutputError(OSError):
    """An output file could not be written; the message names its path."""


@contextlib.contextmanager
def atomic_write(path):
    """Open ``path`` for writing CSV text through a temp file in the same
    directory, moved into place with ``os.replace`` when the block ends.

    If the block raises, the temp file is removed and ``path`` is left as
    it was: the old file, or none.  An ``OSError`` (``path`` is a
    directory, its directory is missing, the disk is full) is raised as an
    ``OutputError`` that names ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OutputError(f"Cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` to ``path`` through ``atomic_write``:
    each float (numpy ``float64`` included) as ``f"{x:.17g}"``, which reads
    back to the same bits, and any other cell as ``csv`` writes it."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [f"{x:.17g}" if isinstance(x, float) else x for x in row] for row in rows
        )
