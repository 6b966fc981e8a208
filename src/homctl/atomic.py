"""Atomic text-file writes shared by every writer of the package."""

from __future__ import annotations

import os

# a new file, whose mode 0o666 goes through the current umask as open()'s does
_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a unique temporary file in its directory.

    A failed write leaves ``path`` as it was and removes the temporary file.
    An ``OSError`` names ``path``, not the temporary file.
    """
    tmp = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
        fd = os.open(name, _FLAGS, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
