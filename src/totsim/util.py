"""Small helpers for deterministic file IO and content hashing; every text file is read here."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterable, Iterator, TextIO

from .errors import TotsimError

if TYPE_CHECKING:
    from importlib.abc import Traversable

__all__ = [
    "stable_hash",
    "dump_json",
    "atomic_output",
    "atomic_write_text",
    "write_json",
    "open_text",
    "TextLines",
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
    """Serialize with sorted keys and stable separators for reproducible bytes.

    A read-only sequence that is not a list (an index's term vocabulary, say)
    is written as the list of its items.
    """
    return json.dumps(
        obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"), default=_sequence_items
    )


def _sequence_items(obj: Any) -> list:
    if isinstance(obj, Sequence) and not isinstance(obj, (str, bytes, bytearray)):
        return list(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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


def write_jsonl(path: Path | str, rows: Iterable[dict[str, Any]]) -> None:
    atomic_write_text(path, "".join(dump_json(row) + "\n" for row in rows))


@contextmanager
def open_text(path: Path | str | Traversable, error: type = TotsimError) -> Iterator[TextIO]:
    """Yield ``path`` as UTF-8 text, a leading BOM dropped; a non-UTF-8 byte raises ``error``."""
    source = Path(path) if isinstance(path, str) else path
    try:
        with source.open(encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise error(f"{source.name}: not UTF-8 text ({exc.reason})") from None


class TextLines:
    """``(line_no, line)`` for each line of a text file that is not whitespace-only."""

    def __init__(self, path: Path | str, error: type = TotsimError):
        self.path = Path(path)
        self._error = error

    def __iter__(self) -> Iterator[tuple[int, str]]:
        with open_text(self.path, self._error) as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.isspace():
                    yield line_no, line

    def error(self, line_no: int, message: str) -> TotsimError:
        return self._error(f"{self.path.name} line {line_no}: {message}")


# What converting a decoded value of the wrong shape raises: a missing key, a bad enum name.
_BAD_VALUE = (KeyError, ValueError, TypeError, AttributeError)


def _problem(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg})"
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def read_json(path: Path | str, convert: Callable = lambda x: x, error=TotsimError) -> Any:
    """``convert`` of the JSON in ``path``; a bad file or value raises ``error`` naming it."""
    with open_text(path, error) as handle:
        text = handle.read()
    try:
        return convert(json.loads(text))
    except _BAD_VALUE as exc:
        raise error(f"{Path(path).name}: {_problem(exc)}") from exc


def read_jsonl(path: Path | str, convert: Callable = lambda x: x, error=TotsimError) -> Iterator:
    """``convert`` of each JSON line of ``path``, as :func:`read_json`, naming the line."""
    lines = TextLines(path, error)
    for line_no, line in lines:
        try:
            row = convert(json.loads(line.strip()))
        except _BAD_VALUE as exc:
            raise lines.error(line_no, _problem(exc)) from exc
        yield row
