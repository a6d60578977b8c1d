"""An index's terms held as packed integer codes, and their JSON form.

A CJK index's terms are character bigrams, millions of them at Wikipedia
scale, and one Python string per term costs about 80 B where a packed code
takes 8 B.  A :class:`Vocabulary` packs every term of one or two code points
that holds no U+0000 into one ``uint64`` code and keeps only the other terms
as strings, and reads as the sorted list of all of them.  Its JSON form is
an index meta's ``terms`` array: :func:`terms_json` writes it a chunk at a
time and :func:`parse_meta` reads it back a few strings at a time, so
neither holds more than a chunk of terms as strings.

:mod:`totsim.retrieval` imports this module inside the functions that
build, save, load or search an index, so stages that never touch an index
never load it, and it imports numpy and orjson inside the functions that
use them, as every module of the package does.
"""

from __future__ import annotations

import bisect
import collections.abc
import itertools
import json
import operator
import re
from array import array
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Vocabulary", "pack", "decode", "terms_json", "parse_meta"]

# Every packed code is at least this: its first code point is not U+0000.
_CODE_FLOOR = 1 << 32

# Terms decoded, written or read at a time.
_CHUNK = 4096

# Postings numbered at a time, which bounds the memory that takes.
_POSTINGS_SLICE = 1 << 14


def _code_points(text: str) -> np.ndarray:
    """``text``'s code points as uint64."""
    import numpy as np

    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.uint64)


def _prefix_codes(terms: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each term's code of its first two code points, and whether a :class:`Vocabulary` packs it.

    A missing point counts as U+0000, so a term a vocabulary packs (one or
    two code points, no U+0000) gets its own code, ``cp0 << 32 | cp1``, and
    the codes that sort before any other term are exactly those up to its
    prefix code.
    """
    import numpy as np

    lengths = np.fromiter(map(len, terms), np.int64, len(terms))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    joined = "".join(terms)
    points = _code_points(joined + "\0\0")
    first, second = points[starts], points[starts + 1]
    first[lengths < 1] = 0
    second[lengths < 2] = 0
    packs = (lengths >= 1) & (lengths <= 2)
    if "\0" in joined:
        packs[np.searchsorted(ends, np.flatnonzero(points[:-2] == 0), "right")] = False
    return first << 32 | second, packs


def pack(words: list[str], runs: list[str], n: int) -> tuple[np.ndarray, list[str]]:
    """The tokens of ``words`` and of the character ``n``-grams of CJK ``runs``.

    Tokens a :class:`Vocabulary` packs come as their uint64 codes, each in
    any order, and the other words as a list; ``runs`` must be empty unless
    ``n`` is 1 or 2.  A run shorter than ``n`` is one token.  The n-grams
    are packed straight from the runs' code points, so none is ever a
    Python string.
    """
    import numpy as np

    codes, packs = _prefix_codes(words)
    longer = list(itertools.compress(words, (~packs).tolist()))
    if not runs:
        return codes[packs], longer
    # the runs between U+0000 separators, which no CJK run holds
    points = _code_points("\0" + "\0".join(runs) + "\0")
    inside = points != 0
    if n == 1:
        grams = [points[inside] << 32]
    else:
        pairs = inside[:-1] & inside[1:]
        lone = inside[1:-1] & ~inside[:-2] & ~inside[2:]  # runs of one point
        grams = [(points[:-1][pairs] << 32) | points[1:][pairs], points[1:-1][lone] << 32]
    return np.concatenate([codes[packs], *grams]), longer


def decode(codes: np.ndarray) -> list[str]:
    """The terms that ``codes`` pack, in their order."""
    import numpy as np

    points = np.zeros((codes.size, 3), dtype="<u4")
    points[:, 0] = codes >> 32
    points[:, 1] = codes & 0xFFFFFFFF
    # each term ends in U+0000, which no packed term holds, and a one-point
    # term loses its padding
    keep = np.ones(points.shape, dtype=bool)
    keep[:, 1] = points[:, 1] != 0
    return points[keep].tobytes().decode("utf-32-le", "surrogatepass").split("\0")[:-1]


def _longer_prefixes(longer: list[str]) -> tuple[np.ndarray, bool]:
    """:func:`_prefix_codes` of ``longer`` a chunk at a time, and whether any term packs."""
    import numpy as np

    prefixes, packs = [np.zeros(0, dtype=np.uint64)], False
    for start in range(0, len(longer), _CHUNK):
        chunk_prefixes, chunk_packs = _prefix_codes(longer[start : start + _CHUNK])
        prefixes.append(chunk_prefixes)
        packs = packs or bool(chunk_packs.any())
    return np.concatenate(prefixes), packs


class Vocabulary(collections.abc.Sequence):
    """An index's distinct terms in sorted order, without one Python object per term.

    A term of one or two code points that holds no U+0000 (every CJK
    bigram, say) is the code ``cp0 << 32 | cp1`` (``cp1`` 0 for one point) in
    the ascending uint64 array ``codes``: codes sort as their terms do, since
    the padding sorts below every code point.  Each other term is a ``str``
    in the ascending list ``longer``, and ``codes_before[j]`` (int64) counts
    the codes that sort before ``longer[j]``.  Term ``t`` is the ``t``-th in
    the merged order, which is ``sorted()``'s.

    It reads as a sequence of ``str``: ``len``, indexing, iteration in term
    order, and ``==`` with any sequence of strings.
    """

    __slots__ = ("codes", "longer", "codes_before")
    __hash__ = None

    def __init__(self, codes: np.ndarray, longer: list[str], codes_before: np.ndarray):
        self.codes = codes
        self.longer = longer
        self.codes_before = codes_before

    @classmethod
    def of(cls, terms: Iterable[str]) -> Vocabulary:
        """``terms``, read once and numbered in the order given (see :meth:`ascends`)."""
        import numpy as np

        codes, longer, codes_before = array("Q"), [], array("q")
        terms = iter(terms)
        while chunk := list(itertools.islice(terms, _CHUNK)):
            prefixes, packs = _prefix_codes(chunk)
            rest = np.flatnonzero(~packs)
            # each longer term follows this chunk's codes before it, and all earlier ones
            codes_before.frombytes((len(codes) + rest - np.arange(rest.size)).tobytes())
            longer += [chunk[k] for k in rest.tolist()]
            codes.frombytes(prefixes[packs].tobytes())
        codes_before = np.frombuffer(codes_before, dtype=np.int64)
        return cls(np.frombuffer(codes, dtype=np.uint64), longer, codes_before)

    @classmethod
    def of_postings(cls, term_of: np.ndarray, seen: dict[str, int]) -> Vocabulary:
        """The vocabulary of an index build's postings, whose terms it numbers in place.

        ``term_of`` (int64) holds each posting's packed code or, below every
        code, the first-seen number that ``seen`` gives each term that does
        not pack; each becomes its term's number.
        """
        import numpy as np

        codes = term_of[term_of >= _CODE_FLOOR].view(np.uint64)
        codes.sort()  # in place: numpy.unique would sort a second copy
        distinct = np.empty(codes.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=distinct[1:])
        codes = codes[distinct]
        del distinct
        longer = sorted(seen)
        terms = cls(codes, longer, np.searchsorted(codes, _longer_prefixes(longer)[0], "right"))
        # each code's term number, and each first-seen number's
        code_numbers = np.arange(codes.size)
        code_numbers += np.searchsorted(terms.codes_before, code_numbers, "right")
        longer_numbers = np.empty(len(longer), dtype=np.int64)
        longer_numbers[np.fromiter(map(seen.__getitem__, longer), np.int64, len(longer))] = (
            terms.codes_before + np.arange(len(longer))
        )
        for start in range(0, term_of.size, _POSTINGS_SLICE):
            part = term_of[start : start + _POSTINGS_SLICE]
            packed = part >= _CODE_FLOOR
            part[packed] = code_numbers[np.searchsorted(codes, part[packed].view(np.uint64))]
            np.logical_not(packed, out=packed)
            part[packed] = longer_numbers[part[packed]]
        return terms

    def ascends(self) -> bool:
        """Whether the terms strictly ascend in the order they were given."""
        import numpy as np

        prefixes, packs = _longer_prefixes(self.longer)
        return (
            bool(np.all(self.codes[1:] > self.codes[:-1]))
            and all(map(operator.lt, self.longer, itertools.islice(self.longer, 1, None)))
            and not packs
            and np.array_equal(self.codes_before, np.searchsorted(self.codes, prefixes, "right"))
        )

    def __len__(self) -> int:
        return self.codes.size + len(self.longer)

    def __getitem__(self, number):
        number = range(len(self))[number]  # from the end if negative; a slice gives a range
        if isinstance(number, range):
            return [self[i] for i in number]
        # the number of longer terms before term `number`
        j = bisect.bisect_left(
            range(len(self.longer)), number, key=lambda j: j + int(self.codes_before[j])
        )
        if j < len(self.longer) and j + int(self.codes_before[j]) == number:
            return self.longer[j]
        return decode(self.codes[number - j : number - j + 1])[0]

    def __iter__(self) -> Iterator[str]:
        for chunk in self.chunks():
            yield from chunk

    def __eq__(self, other) -> bool:
        if not isinstance(other, collections.abc.Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Vocabulary({list(self)!r})"

    def chunks(self, size: int = _CHUNK) -> Iterator[list[str]]:
        """The terms in term order as lists of ``size`` (the last one shorter)."""
        import numpy as np

        numbers = self.codes_before + np.arange(len(self.longer))  # each longer term's
        for start in range(0, len(self), size):
            stop = min(start + size, len(self))
            first, last = np.searchsorted(numbers, [start, stop]).tolist()
            codes = decode(self.codes[start - first : stop - last])
            # the codes before each longer term, then the term
            terms: list[str] = []
            taken = 0
            for number, term in zip(numbers[first:last].tolist(), self.longer[first:last]):
                before = number - start - len(terms) + taken
                terms += codes[taken:before]
                terms.append(term)
                taken = before
            terms += codes[taken:]
            yield terms

    def numbers(self, terms: Iterable[str]) -> list[int | None]:
        """Each term's number, or ``None`` for a term the vocabulary lacks."""
        import numpy as np

        terms = list(terms)
        packed, packs = _prefix_codes(terms)
        packed = packed[packs]
        at = np.searchsorted(self.codes, packed)
        found = at < self.codes.size
        found[found] = self.codes[at[found]] == packed[found]
        at += np.searchsorted(self.codes_before, at, "right")  # each code's number
        code_numbers = iter(np.where(found, at, -1).tolist())
        numbers: list[int | None] = []
        for term, packed_term in zip(terms, packs.tolist()):
            if packed_term:
                number = next(code_numbers)
            else:
                j = bisect.bisect_left(self.longer, term)
                found_term = j < len(self.longer) and self.longer[j] == term
                number = j + int(self.codes_before[j]) if found_term else -1
            numbers.append(None if number < 0 else number)
        return numbers


def terms_json(terms: Vocabulary) -> Iterator[bytes]:
    """The bytes inside the brackets of ``terms``' JSON array, as ``orjson`` writes it.

    They come a chunk of decoded terms at a time, so the array is never
    held whole.
    """
    import orjson

    for number, chunk in enumerate(terms.chunks()):
        if number:
            yield b","
        yield orjson.dumps(chunk)[1:-1]


# JSON's whitespace, which may stand between any two tokens.
_JSON_SPACE = re.compile(r"[ \t\n\r]*")

# Up to _CHUNK JSON strings that hold no escape, separated by commas.
_PLAIN_STRINGS = re.compile(r'"[^"\\]*"(?:[ \t\n\r]*,[ \t\n\r]*"[^"\\]*"){0,%d}' % (_CHUNK - 1))


class _NotAString(Exception):
    """An entry of a JSON array that is not a string."""


class _JsonStrings:
    """The strings of the JSON array at ``text[start]``, decoded a few at a time.

    Iterating decodes the strings with the json module: each run of up to
    ``_CHUNK`` strings without escapes in one ``json.loads`` call, and a
    string with escapes on its own with its scanner, which undoes them.  It
    then sets ``end`` to the position after the array.  It raises
    :class:`_NotAString` at the first entry that is not a string, and
    ``json.JSONDecodeError`` where the array is cut short or malformed.
    """

    def __init__(self, text: str, start: int):
        self.text, self.start, self.end = text, start, None

    def __iter__(self) -> Iterator[str]:
        text, space = self.text, _JSON_SPACE.match
        pos = space(text, self.start + 1).end()
        if text.startswith("]", pos):
            self.end = pos + 1
            return
        while True:
            plain = _PLAIN_STRINGS.match(text, pos)
            if plain:
                yield from json.loads(f"[{plain.group()}]")
                pos = plain.end()
            elif text.startswith('"', pos):
                term, pos = json.decoder.scanstring(text, pos + 1)
                yield term
            else:
                raise _NotAString
            pos = space(text, pos).end()
            if text.startswith("]", pos):
                self.end = pos + 1
                return
            if not text.startswith(",", pos):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
            pos = space(text, pos + 1).end()


def parse_meta(text: str):
    """The JSON value in ``text``, with an object's ``terms`` strings in a :class:`Vocabulary`.

    The ``terms`` array is read a few strings at a time (see
    :class:`_JsonStrings`), so it is never a list of strings; every other
    value, and a ``terms`` array holding anything but strings, is the json
    module's own reading.  Any key order and any whitespace between tokens
    are read, as ``json.loads`` reads them.
    """
    decoder = json.JSONDecoder()

    def skip(pos: int) -> int:
        return _JSON_SPACE.match(text, pos).end()

    pos = skip(0)
    if not text.startswith("{", pos):
        return decoder.decode(text)
    meta: dict = {}
    pos = skip(pos + 1)
    closed = text.startswith("}", pos)
    while not closed:
        if not text.startswith('"', pos):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", text, pos
            )
        key, pos = json.decoder.scanstring(text, pos + 1)
        pos = skip(pos)
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        pos = skip(pos + 1)
        if key == "terms" and text.startswith("[", pos):
            strings = _JsonStrings(text, pos)
            try:
                meta[key], pos = Vocabulary.of(strings), strings.end
            except _NotAString:
                meta[key], pos = decoder.raw_decode(text, pos)
        else:
            meta[key], pos = decoder.raw_decode(text, pos)
        pos = skip(pos)
        closed = text.startswith("}", pos)
        if not closed:
            if not text.startswith(",", pos):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
            pos = skip(pos + 1)
    if skip(pos + 1) != len(text):
        raise json.JSONDecodeError("Extra data", text, skip(pos + 1))
    return meta
