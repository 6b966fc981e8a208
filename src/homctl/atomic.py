"""Atomic text-file writes shared by every writer of the package."""

from __future__ import annotations

import os
import tempfile

# mkstemp creates its file 0600; the written file gets the mode open() gives
_UMASK = os.umask(0)
os.umask(_UMASK)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a unique temporary file in its directory.

    A failed write leaves ``path`` as it was and removes the temporary file.
    An ``OSError`` names ``path``, not the temporary file.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
