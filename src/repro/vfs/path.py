"""Path utilities shared by all file systems.

Paths are absolute, ``/``-separated, with no ``.``/``..`` resolution (the
workloads never generate them).  Component names may not contain ``/`` or
be empty.

Nothing here is memoized: a path the aging loop builds is used about
three times and then never again, so a process-wide cache would mostly
hold dead names.  A path that is already canonical costs a few substring
tests and comes back as the same object.
"""

from __future__ import annotations

from typing import List

from ..errors import InvalidArgumentError


def normalize_path(path: str) -> str:
    """Canonical form: leading '/', no trailing '/', no empty components."""
    # canonical already: no empty component (no '//', no trailing '/'
    # unless root) and no component that could be '.' or '..'
    if (path[:1] == "/" and "//" not in path and "/." not in path
            and (path[-1] != "/" or path == "/")):
        return path
    if not path or not path.startswith("/"):
        raise InvalidArgumentError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise InvalidArgumentError(f"'.' and '..' unsupported: {path!r}")
    return "/" + "/".join(parts)


def split_path(path: str) -> List[str]:
    """Components of a normalized path; [] for the root."""
    path = normalize_path(path)
    return path[1:].split("/") if path != "/" else []


def parent_of(path: str) -> str:
    path = normalize_path(path)
    if path == "/":
        raise InvalidArgumentError("root has no parent")
    return path[:path.rfind("/")] or "/"


def basename_of(path: str) -> str:
    path = normalize_path(path)
    if path == "/":
        raise InvalidArgumentError("root has no name")
    return path[path.rfind("/") + 1:]


def join(parent: str, name: str) -> str:
    if "/" in name or not name:
        raise InvalidArgumentError(f"bad component {name!r}")
    parent = normalize_path(parent)
    return parent + name if parent == "/" else parent + "/" + name
