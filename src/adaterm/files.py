"""Output files that are never left half-written."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, binary=False):
    """Open ``path`` for writing CSV text, or bytes if ``binary``, through a
    temp file in the same directory, moved into place with ``os.replace``
    when the block ends.

    If the block raises, the temp file is removed and ``path`` is left as
    it was: the old file, or none.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
