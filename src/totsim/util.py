"""Small helpers for deterministic file IO and content hashing."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

__all__ = [
    "stable_hash",
    "dump_json",
    "atomic_output",
    "atomic_write_text",
    "write_json",
    "read_json",
    "write_jsonl",
    "read_jsonl",
]


def stable_hash(obj: Any) -> str:
    """Return a sha256 hex digest of ``obj``'s canonical JSON, :func:`dump_json`.

    Its keys are sorted, so the digest depends only on content, never on
    dict insertion order.
    """
    return hashlib.sha256(dump_json(obj).encode("utf-8")).hexdigest()


def dump_json(obj: Any) -> str:
    """Serialize with sorted keys and stable separators for reproducible bytes."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


@contextmanager
def atomic_output(path: Path | str) -> Iterator[BinaryIO]:
    """Yield a binary handle on a temp file that replaces ``path`` on success.

    Readers never observe a half-written file even if the process dies
    mid-write; on any error the temp file is removed and ``path`` is left
    as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` via a temp file and rename."""
    with atomic_output(path) as handle:
        handle.write(text.encode("utf-8"))


def write_json(path: Path | str, obj: Any) -> None:
    atomic_write_text(path, dump_json(obj) + "\n")


def read_json(path: Path | str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_jsonl(path: Path | str, rows: Iterable[dict[str, Any]]) -> None:
    atomic_write_text(path, "".join(dump_json(row) + "\n" for row in rows))


def read_jsonl(path: Path | str) -> Iterator[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
