"""Atomic text writes shared by every emitter of the package."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temp file in the same directory and a
    rename, so readers see the old file or the whole new one, never a
    partial write.  The directory must exist; the temp file is removed on
    any failure, interrupts included."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
