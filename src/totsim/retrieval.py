"""Lexical retrieval over a shared CSR inverted index, plus run file IO.

Two scoring functions run against the same index so that hyperparameter
sweeps measure ranking behavior, not indexing differences:

* BM25 with the Lucene ``idf = ln((N - df + 0.5) / (df + 0.5) + 1)`` and
  the usual ``tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))``
  saturation.
* Query likelihood with Dirichlet smoothing,
  ``sum_t log((tf + mu * ctf / CL) / (dl + mu))`` over query tokens with
  non-zero collection frequency.

The index is compressed sparse row: documents are numbered in ascending
``doc_id`` order, terms in sorted order, and the postings of term ``t``
are the slice ``offsets[t]:offsets[t + 1]`` of parallel doc-number and
term-frequency arrays.  It is built in one pass over documents in any
order, read one at a time (from a :class:`~totsim.corpus.CorpusFile`, say),
keeping only each document's id, length and postings, so no corpus is
held.  The terms are a :class:`~totsim.vocabulary.Vocabulary`, which holds
every CJK bigram as a packed integer code.  Each language's index is one
pickle-free ``.npz`` archive (format version 2) whose ``meta`` member holds
the document ids, terms, language and tokenizer as canonical JSON (sorted
keys, no spaces, non-ASCII text unescaped), which ``orjson`` writes straight
to bytes, the terms a chunk at a time; it is written with fixed member
timestamps, so the same corpus always gives the same bytes.

Scoring is term-at-a-time, one pass per query for a whole system pool: the
postings of the query's matched terms are gathered once, then each system
accumulates one addend per posting into its document.  Each document's
addends are summed in ascending order, so documents whose addends form
equal multisets get bit-equal scores, and rankings honour the
(-score, doc_id) rule exactly instead of by float summation noise.  Beyond
the addends, a query's work is sized by its candidate documents: each
candidate's length normalisation is computed once and gathered per posting,
and one system's sorted addends are freed before the next system's exist.

Tokenization is either lowercase word splitting for alphabetic scripts
or character n-grams over CJK runs (with word splitting applied to any
embedded non-CJK stretches), matching how mixed-script articles are
usually indexed without language-specific segmenters.

A :class:`RetrievalSystem` is one of the two scorers with its
hyperparameters, so every system this module runs is lexical.  Systems
outside the module (dense retrievers, say) join a pool only as run files,
which :func:`load_external_run` checks and reduces to target ranks.

numpy, orjson and ``array`` are imported inside the functions that use them:
importing this module, and with it the command line, loads none of them.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
import operator
import re
import zipfile
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import RunFileError, TotsimError
from .util import TextLines, atomic_output

if TYPE_CHECKING:
    import numpy as np

    from .vocabulary import Vocabulary

logger = logging.getLogger(__name__)

__all__ = [
    "Tokenizer",
    "tokenizer_for_language",
    "InvertedIndex",
    "build_index",
    "save_index",
    "load_index",
    "score_bm25",
    "score_ql_dirichlet",
    "RetrievalSystem",
    "default_lexical_pool",
    "LEXICAL_IDS",
    "run_search",
    "load_external_run",
    "DEFAULT_DEPTH",
    "INDEX_FORMAT",
    "INDEX_VERSION",
]

DEFAULT_DEPTH = 1000
INDEX_FORMAT = "totsim-index"
INDEX_VERSION = 2

MODE_WHITESPACE = "whitespace"
MODE_CJK_NGRAM = "cjk-ngram"

# Unicode blocks treated as CJK for n-gram segmentation: Han (unified,
# extension A, compatibility), kana, and hangul (syllables plus jamo).
_CJK_RANGES = (
    (0x1100, 0x11FF),
    (0x3040, 0x309F),
    (0x30A0, 0x30FF),
    (0x3130, 0x318F),
    (0x31F0, 0x31FF),
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xAC00, 0xD7A3),
    (0xF900, 0xFAFF),
)

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Splitting on a captured CJK run alternates non-CJK text (even positions)
# with CJK runs (odd positions).
_CJK_SPLIT_RE = re.compile(
    "([" + "".join(f"\\u{lo:04x}-\\u{hi:04x}" for lo, hi in _CJK_RANGES) + "]+)"
)

CJK_LANGUAGES = {"zh", "ja", "ko"}


@dataclass(frozen=True)
class Tokenizer:
    """Deterministic text to token mapping shared by indexing and querying."""

    mode: str = MODE_WHITESPACE
    ngram: int = 2

    def __post_init__(self) -> None:
        if self.mode not in (MODE_WHITESPACE, MODE_CJK_NGRAM):
            raise TotsimError(f"unknown tokenizer mode {self.mode!r}")
        if isinstance(self.ngram, bool) or not isinstance(self.ngram, int):
            raise TotsimError(f"ngram must be an integer, got {self.ngram!r}")
        if self.ngram < 1:
            raise TotsimError(f"ngram must be at least 1, got {self.ngram}")

    def tokenize(self, text: str) -> list[str]:
        if self.mode == MODE_WHITESPACE:
            return _WORD_RE.findall(text.lower())
        n = self.ngram
        tokens: list[str] = []
        for position, part in enumerate(_CJK_SPLIT_RE.split(text)):
            if position % 2 == 0:
                tokens.extend(_WORD_RE.findall(part.lower()))
            elif len(part) < n:
                tokens.append(part)
            else:
                tokens.extend(part[i : i + n] for i in range(len(part) - n + 1))
        return tokens

    def packed_tokens(self, text: str) -> tuple[np.ndarray, list[str]]:
        """:meth:`tokenize`'s tokens in any order, as :func:`~totsim.vocabulary.pack` gives them."""
        from .vocabulary import pack

        if self.mode == MODE_WHITESPACE or self.ngram > 2:
            return pack(self.tokenize(text), [], self.ngram)  # such n-grams never pack
        parts = _CJK_SPLIT_RE.split(text)
        words = [word for part in parts[::2] for word in _WORD_RE.findall(part.lower())]
        return pack(words, parts[1::2], self.ngram)

    def to_dict(self) -> dict:
        return {"mode": self.mode, "ngram": self.ngram}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "Tokenizer":
        return cls(mode=raw["mode"], ngram=raw["ngram"])


def tokenizer_for_language(language: str, mode: str | None = None) -> Tokenizer:
    """The configured ``mode``; without one, CJK codes get character bigrams, others words."""
    if mode is not None:
        return Tokenizer(mode=mode)
    if language in CJK_LANGUAGES:
        return Tokenizer(mode=MODE_CJK_NGRAM, ngram=2)
    return Tokenizer(mode=MODE_WHITESPACE)


# The numeric members of an index archive, besides ``meta``.
_INDEX_ARRAYS = ("offsets", "postings_docs", "postings_tfs", "doc_lengths")

@dataclass(eq=False)
class InvertedIndex:
    """CSR postings plus the document statistics both scorers need.

    Document number ``i`` is ``doc_ids[i]`` and term number ``t`` is
    ``terms[t]``, both strictly ascending; ``terms`` is a
    :class:`~totsim.vocabulary.Vocabulary` (a list given here becomes one).
    The postings of term ``t`` are
    ``postings_docs[offsets[t]:offsets[t + 1]]`` (int32 doc numbers,
    ascending) with ``postings_tfs`` (int32) alongside; ``doc_lengths``
    holds each document's token count, the sum of its term counts.  No
    per-term total is kept: a query's terms get their document and
    collection frequencies from the postings its search gathers.
    """

    language: str
    tokenizer: Tokenizer
    doc_ids: list[str]
    terms: Vocabulary
    offsets: np.ndarray
    postings_docs: np.ndarray
    postings_tfs: np.ndarray
    doc_lengths: np.ndarray
    collection_length: int = field(init=False)

    def __post_init__(self) -> None:
        import numpy as np

        from .vocabulary import Vocabulary

        if not isinstance(self.terms, Vocabulary):
            self.terms = Vocabulary.of(self.terms)
        ids = self.doc_ids
        for name, ascends in (
            ("doc_ids", all(map(operator.lt, ids, itertools.islice(ids, 1, None)))),
            ("terms", self.terms.ascends()),
        ):
            if not ascends:
                raise TotsimError(f"{self.language} index: {name} do not strictly ascend")
        n_postings = self.postings_docs.size
        arrays = [getattr(self, name) for name in _INDEX_ARRAYS]
        consistent = (
            all(array.ndim == 1 and array.dtype.kind in "iu" for array in arrays)
            and len(self.offsets) == len(self.terms) + 1
            and len(self.postings_tfs) == n_postings
            and int(self.offsets[0]) == 0
            and int(self.offsets[-1]) == n_postings
            and bool(np.all(self.offsets[1:] > self.offsets[:-1]))
            and _ascends_within_terms(self.offsets, self.postings_docs)
            and (not n_postings or int(self.postings_docs.min()) >= 0)
            and (not n_postings or int(self.postings_docs.max()) < len(self.doc_ids))
            and self.postings_tfs.min(initial=1) >= 1
            and np.array_equal(
                _tf_sums(self.postings_docs, self.postings_tfs, len(self.doc_ids)), self.doc_lengths
            )
        )
        if not consistent:
            raise TotsimError(f"{self.language} index: postings arrays do not fit together")
        self.collection_length = int(self.doc_lengths.sum())

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def avg_doc_length(self) -> float:
        if not self.doc_ids:
            return 0.0
        return self.collection_length / len(self.doc_ids)

    def term_id(self, term: str) -> int | None:
        """The term's number, or ``None`` when no document contains it."""
        return self.terms.numbers([term])[0]

    def doc_number(self, doc_id: str) -> int | None:
        """The document's number, or ``None`` when the index does not hold it."""
        return _position(self.doc_ids, doc_id)

    def match(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """The query's matched term numbers (ascending) and their counts in it.

        Tokens absent from the collection are dropped.
        """
        import numpy as np

        counts = Counter(self.tokenizer.tokenize(query))
        numbers = self.terms.numbers(counts)
        qtf_of = {t: qtf for t, qtf in zip(numbers, counts.values()) if t is not None}
        term_ids = np.array(sorted(qtf_of), dtype=np.int64)
        return term_ids, np.array([qtf_of[t] for t in term_ids.tolist()], dtype=np.float64)


# Postings checked or summed at a time by the index checks, which bounds
# the memory they take.
_CHECK_SLICE = 1 << 14


def _ascends_within_terms(offsets: np.ndarray, docs: np.ndarray) -> bool:
    """Whether each term's postings name strictly ascending doc numbers.

    ``offsets`` must ascend.  Pair ``p`` compares ``docs[p]`` with
    ``docs[p + 1]``; the pairs that cross into the next term are exempt.
    """
    import numpy as np

    for start in range(0, docs.size - 1, _CHECK_SLICE):
        stop = min(start + _CHECK_SLICE, docs.size - 1)
        rising = docs[start + 1 : stop + 1] > docs[start:stop]
        # the terms that start after a pair of this slice
        starts = offsets[np.searchsorted(offsets, start + 1) : np.searchsorted(offsets, stop + 1)]
        rising[starts - (start + 1)] = True
        if not rising.all():
            return False
    return True


# build_index's int64 sort keys stay below this.
_KEY_LIMIT = 1 << 63


def _tf_sums(docs: np.ndarray, tfs: np.ndarray, doc_count: int) -> np.ndarray:
    """Each document's sum of term counts, as float64."""
    import numpy as np

    sums = np.zeros(doc_count)
    for start in range(0, docs.size, _CHECK_SLICE):
        part = slice(start, start + _CHECK_SLICE)
        # bincount counts intp; the cast lets uint64 doc numbers through on any numpy
        sums += np.bincount(docs[part].astype(np.intp), tfs[part], minlength=doc_count)
    return sums


def _position(names: list[str], name: str) -> int | None:
    position = bisect.bisect_left(names, name)
    return position if position < len(names) and names[position] == name else None


def build_index(corpus, tokenizer: Tokenizer) -> InvertedIndex:
    """Index every document body in ``corpus`` with ``tokenizer``.

    Only bodies are indexed; titles and aliases stay out so retrieval
    difficulty reflects the article text alone.  ``corpus`` is any iterable
    of documents with unique ids and a ``language``, a
    :class:`~totsim.corpus.CorpusFile` included, and is read in one pass in
    the order it yields them: each document leaves behind only its id, its
    length and its postings, so no corpus is held.  Documents are numbered
    in ascending ``doc_id`` order whatever that order is.
    """
    from array import array

    import numpy as np

    from .vocabulary import Vocabulary

    # Postings are collected in input order into compact buffers, so no
    # posting ever becomes a Python object.  A posting's term is its packed
    # code or, for a term that does not pack, a first-seen number.
    seen: dict[str, int] = {}
    ids: list[str] = []
    post_terms = array("Q")
    post_tfs = array("i")
    doc_terms = array("i")  # each document's number of distinct terms
    lengths = array("q")
    for doc in corpus:
        codes, longer = tokenizer.packed_tokens(doc.body)
        codes, code_tfs = np.unique(codes, return_counts=True)
        counts = Counter(longer)
        ids.append(doc.doc_id)
        lengths.append(int(code_tfs.sum()) + counts.total())
        for token in counts:
            if token not in seen:
                seen[token] = len(seen)
        post_terms.frombytes(codes.tobytes())
        post_terms.extend(map(seen.__getitem__, counts))
        post_tfs.frombytes(code_tfs.astype(np.int32).tobytes())
        post_tfs.extend(counts.values())
        doc_terms.append(codes.size + len(counts))
    # one permutation numbers the documents by ascending id
    order = sorted(range(len(ids)), key=ids.__getitem__)
    doc_ids = [ids[i] for i in order]
    del ids
    order = np.array(order, dtype=np.intp)
    number_of = np.empty(order.size, dtype=np.int32)  # by input position
    number_of[order] = np.arange(order.size, dtype=np.int32)
    doc_lengths = np.frombuffer(lengths, dtype=np.int64)[order]
    del order, lengths
    term_of = np.frombuffer(post_terms, dtype=np.int64)  # codes stay below 2**53
    terms = Vocabulary.of_postings(term_of, seen)
    del seen
    n_docs, n_terms = len(doc_ids), len(terms)
    # Each posting becomes one int64 key, (term * n_docs + doc) * span + tf
    # under sorted term numbers, so one in-place sort puts the postings in
    # term order, each term's in doc order, and the sorted keys unpack into
    # the int32 outputs.  The keys of `width` terms stay below _KEY_LIMIT;
    # where those of every term would not, each range of `width` term
    # numbers is keyed and sorted on its own and fills its slice of the outputs.
    tfs = np.frombuffer(post_tfs, dtype=np.int32)
    n_postings, span = tfs.size, int(tfs.max(initial=0)) + 1
    width = max(1, _KEY_LIMIT // (max(n_docs, 1) * span))
    del post_terms  # term_of keeps its buffer
    doc_of = np.repeat(number_of, np.frombuffer(doc_terms, dtype=np.int32))
    del number_of, doc_terms
    ranges = []
    for first in range(0, n_terms, width):
        # a single range turns term_of into its keys in place
        inside = slice(None) if width >= n_terms else (term_of >= first) & (term_of < first + width)
        keys = term_of[inside]
        keys -= first
        keys *= n_docs
        keys += doc_of[inside]
        keys *= span
        keys += tfs[inside]
        ranges.append(keys)
    del term_of, doc_of, tfs, post_tfs
    postings_docs = np.empty(n_postings, dtype=np.int32)
    postings_tfs = np.empty_like(postings_docs)
    offsets = np.zeros(n_terms + 1, dtype=np.int64)
    start = 0
    for first, keys in zip(range(0, n_terms, width), ranges):
        keys.sort()
        part = slice(start, start + keys.size)
        np.remainder(keys, span, out=postings_tfs[part], casting="unsafe")
        keys //= span
        np.remainder(keys, n_docs, out=postings_docs[part], casting="unsafe")
        keys //= n_docs
        counts = offsets[first + 1 : first + 1 + width]
        counts[:] = np.bincount(keys, minlength=counts.size)
        start = part.stop
        del keys  # so the index checks run without the last range's keys
    del ranges
    np.cumsum(offsets, out=offsets)
    index = InvertedIndex(
        language=corpus.language,
        tokenizer=tokenizer,
        doc_ids=doc_ids,
        terms=terms,
        offsets=offsets,
        postings_docs=postings_docs,
        postings_tfs=postings_tfs,
        doc_lengths=doc_lengths,
    )
    logger.info(
        "indexed %d documents, %d terms, %d total tokens",
        index.doc_count,
        len(terms),
        index.collection_length,
    )
    return index


def save_index(index: InvertedIndex, path: Path | str) -> None:
    """Write the index as one ``.npz`` archive; reload and re-save is byte-identical.

    Members are stored uncompressed with the zip format's fixed epoch
    timestamp (``numpy.savez`` stamps the current time), so the bytes
    depend only on the index.  ``orjson`` writes the meta as the bytes of
    :func:`~totsim.util.dump_json`'s text, without building that text; the
    terms go a chunk at a time, twice: once to size the ``.npy`` header.
    Each member is the ``.npy`` version 1.0 header followed by the array's
    own buffer, so no array is copied (``numpy.lib.format.write_array``
    copies into ``tobytes`` chunks of up to 16 MiB wherever the file is not
    a real one, as a zip member is not).
    """
    import numpy as np
    import orjson

    from .vocabulary import terms_json

    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "language": index.language,
        "tokenizer": index.tokenizer.to_dict(),
        "doc_ids": index.doc_ids,
        "terms": [],
    }
    meta_bytes = orjson.dumps(meta, option=orjson.OPT_SORT_KEYS)
    # only the tokenizer and the version follow the terms
    split = meta_bytes.rindex(b'"terms":[]') + len(b'"terms":[')
    size = len(meta_bytes) + sum(map(len, terms_json(index.terms)))
    header = {"descr": "|u1", "fortran_order": False, "shape": (size,)}
    npy = np.lib.format
    with atomic_output(path) as handle, zipfile.ZipFile(handle, "w") as archive:
        with archive.open(zipfile.ZipInfo("meta.npy"), "w", force_zip64=True) as member:
            npy.write_array_header_1_0(member, header)
            member.write(meta_bytes[:split])
            for piece in terms_json(index.terms):
                member.write(piece)
            member.write(meta_bytes[split:])
        for name in _INDEX_ARRAYS:
            array = getattr(index, name)
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as member:
                npy.write_array_header_1_0(member, npy.header_data_from_array_1_0(array))
                member.write(memoryview(np.ascontiguousarray(array)).cast("B"))


# Bytes of an archive member read at a time by _read_member.
_READ_CHUNK = 1 << 16


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array in ``archive``'s ``<name>.npy`` member, read a chunk at a time.

    ``numpy.load`` fills an array from a zip member in 256 KiB pieces, each
    held while the next is read; this reads 64 KiB chunks.  As with
    ``allow_pickle=False``, an object array is refused.
    """
    import numpy as np

    npy = np.lib.format
    read_header = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}
    with archive.open(f"{name}.npy") as member:
        version = npy.read_magic(member)
        if version not in read_header:
            raise ValueError(f"{name}: unsupported .npy version {version}")
        shape, fortran_order, dtype = read_header[version](member)
        if dtype.hasobject:
            raise ValueError(f"{name}: object arrays cannot be loaded")
        array = np.empty(shape, dtype, order="F" if fortran_order else "C")
        data = array.reshape(-1, order="A").view(np.uint8)
        for start in range(0, data.size, _READ_CHUNK):
            part = data[start : start + _READ_CHUNK]
            chunk = member.read(part.size)
            if len(chunk) < part.size:
                raise ValueError(f"{name}: ran out of data")
            part[:] = np.frombuffer(chunk, dtype=np.uint8)
    return array


def load_index(path: Path | str) -> InvertedIndex:
    """Read an index written by :func:`save_index`.

    Raises:
        TotsimError: the file is not a version-2 index archive (a version-1
            JSON index included), its meta lacks a key or holds a value of
            the wrong type, its doc ids or terms do not strictly ascend, or
            its arrays are not 1-D integers that fit together (each term's
            documents listed once, in ascending order; every term count
            positive; each document's length the sum of its term counts).
    """
    from .vocabulary import Vocabulary, parse_meta

    with open(path, "rb") as handle:
        if not zipfile.is_zipfile(handle):
            raise TotsimError(f"{path}: not a {INDEX_FORMAT} version {INDEX_VERSION} archive")
        handle.seek(0)
        try:
            with zipfile.ZipFile(handle) as archive:
                meta = parse_meta(_read_member(archive, "meta").tobytes().decode("utf-8"))
                if not isinstance(meta, dict) or meta.get("format") != INDEX_FORMAT:
                    raise TotsimError(f"{path}: not a {INDEX_FORMAT} file")
                if meta.get("version") != INDEX_VERSION:
                    raise TotsimError(
                        f"{path}: unsupported index version {meta.get('version')!r}"
                    )
                arrays = {name: _read_member(archive, name) for name in _INDEX_ARRAYS}
        except (KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise TotsimError(f"{path}: not a readable {INDEX_FORMAT} file ({exc})") from exc
    try:
        tokenizer = Tokenizer.from_dict(meta["tokenizer"])
        lists = {"doc_ids": meta["doc_ids"], "terms": meta["terms"]}
        language = meta["language"]
    except KeyError as exc:
        raise TotsimError(f"{path}: index meta: missing key {exc}") from None
    except (TypeError, TotsimError) as exc:
        raise TotsimError(f"{path}: index meta: bad tokenizer ({exc})") from None
    for key, value in lists.items():
        if key == "terms":
            strings = isinstance(value, Vocabulary)  # what parse_meta makes of them
        else:
            strings = isinstance(value, list) and all(isinstance(name, str) for name in value)
        if not strings:
            raise TotsimError(f"{path}: index meta: {key} is not a list of strings")
    try:
        return InvertedIndex(language=language, tokenizer=tokenizer, **lists, **arrays)
    except TotsimError as exc:
        raise TotsimError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class RetrievalSystem:
    """One lexical system of the pool: BM25 (``k1``, ``b``) or QL-Dirichlet (``mu``)."""

    system_id: str
    kind: str
    k1: float | None = None
    b: float | None = None
    mu: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "bm25":
            if self.k1 is None or self.b is None:
                raise TotsimError(f"system {self.system_id}: bm25 needs k1 and b")
        elif self.kind == "ql-dirichlet":
            if self.mu is None:
                raise TotsimError(f"system {self.system_id}: ql-dirichlet needs mu")
        else:
            raise TotsimError(f"system {self.system_id}: unknown kind {self.kind!r}")


def default_lexical_pool() -> list[RetrievalSystem]:
    """The seven-system hyperparameter grid every evaluation shares."""
    systems = []
    for k1, b in ((0.9, 0.4), (1.2, 0.75), (2.0, 0.75), (1.2, 0.4)):
        systems.append(
            RetrievalSystem(system_id=f"bm25-k{k1}-b{b}", kind="bm25", k1=k1, b=b)
        )
    for mu in (500, 1000, 2000):
        systems.append(
            RetrievalSystem(system_id=f"qld-mu{mu}", kind="ql-dirichlet", mu=float(mu))
        )
    return systems


# The lexical systems' ids, which every language's pool starts with.
LEXICAL_IDS = tuple(system.system_id for system in default_lexical_pool())


def _rank_pool(
    query: str, index: InvertedIndex, systems: Sequence[RetrievalSystem], depth: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each system's top ``depth`` (doc numbers, scores) for ``query``, from one gather.

    The query's terms come from :meth:`InvertedIndex.match`, so a repeated
    token adds ``qtf`` times its per-posting weight.  Each matched term's
    document frequency is its number of gathered postings and its collection
    frequency their tf sum, shared by every system.  Candidates are the
    documents in the gathered postings; each system's addends accumulate
    into one slot per candidate in ascending addend order.  Document
    lengths enter per candidate: BM25's normalisation and query
    likelihood's ``log(dl + mu)`` are computed once per candidate.
    """
    import numpy as np

    term_ids, qtf = index.match(query)
    # int64, so that any integer offsets the index accepts gather alike
    starts = index.offsets[term_ids].astype(np.int64)
    counts = index.offsets[term_ids + 1].astype(np.int64) - starts
    # Gathered posting j belongs to matched term owner[j] and sits at that
    # term's start plus j's rank among the term's gathered postings.
    owner = np.repeat(np.arange(len(term_ids)), counts)
    positions = np.arange(owner.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    candidates, slot = np.unique(index.postings_docs[positions], return_inverse=True)
    tf = index.postings_tfs[positions].astype(np.float64)
    del positions
    # integer-valued float64 sums are exact below 2**53, so ctf is exact
    ctf = np.bincount(owner, weights=tf, minlength=len(term_ids))
    weight = qtf[owner]
    idf_tf = np.log((index.doc_count - counts + 0.5) / (counts + 0.5) + 1.0)[owner] * tf
    lengths = index.doc_lengths[candidates]
    rankings = []
    for system in systems:
        # Operand order is part of the output: ``b * (dl / avgdl)`` for
        # ``b * dl / avgdl`` would change scores' last bits and run-file bytes.
        # Each posting gathers its candidate's normalisation, bit for bit the
        # value computed from the posting's own document length.
        if system.kind == "bm25":
            norm = system.k1 * (1.0 - system.b + system.b * lengths / index.avg_doc_length)
            addends = weight * (idf_tf * (system.k1 + 1.0) / (tf + norm[slot]))
        else:
            prior = system.mu * ctf / index.collection_length
            log_prior = np.log(prior)
            addends = weight * (np.log(tf + prior[owner]) - log_prior[owner])
        # bincount adds its weights in input order; equal addends are
        # interchangeable, so an unstable sort by value suffices.  Each
        # sorted copy replaces the array it was gathered by or from.
        order = np.argsort(addends)
        addends = addends[order]
        order = slot[order]  # each sorted addend's slot
        scores = np.bincount(order, weights=addends, minlength=candidates.size)
        del order, addends  # before the next system makes its own
        if system.kind != "bm25":
            base = float((qtf * log_prior).sum())
            scores = base + scores - qtf.sum() * np.log(lengths + system.mu)
        top = np.lexsort((candidates, -scores))[:depth]
        rankings.append((candidates[top], scores[top]))
    return rankings


def _pairs(query: str, index: InvertedIndex, system: RetrievalSystem, depth: int):
    [(numbers, scores)] = _rank_pool(query, index, [system], depth)
    return list(zip(map(index.doc_ids.__getitem__, numbers.tolist()), scores.tolist()))


def score_bm25(
    query: str,
    index: InvertedIndex,
    k1: float = 0.9,
    b: float = 0.4,
    depth: int = DEFAULT_DEPTH,
) -> list[tuple[str, float]]:
    """Rank documents containing at least one query token by BM25.

    Repeated query tokens contribute once per occurrence, and ties sort
    by ascending doc id.
    """
    return _pairs(query, index, RetrievalSystem("bm25", "bm25", k1=k1, b=b), depth)


def score_ql_dirichlet(
    query: str,
    index: InvertedIndex,
    mu: float = 1000.0,
    depth: int = DEFAULT_DEPTH,
) -> list[tuple[str, float]]:
    """Rank by Dirichlet-smoothed query log likelihood.

    Tokens absent from the whole collection are dropped; candidate
    documents are those containing at least one remaining token.  The
    score is ``sum_t qtf * log(prior_t)`` plus, per posting,
    ``qtf * (log(tf + prior_t) - log(prior_t))``, minus
    ``|matched| * log(dl + mu)``.
    """
    return _pairs(query, index, RetrievalSystem("qld", "ql-dirichlet", mu=mu), depth)


def run_search(
    systems: Sequence[RetrievalSystem],
    queries: Mapping[str, str],
    index: InvertedIndex,
    qrels: Mapping[str, str],
    run_paths: Sequence[Path | str],
    depth: int = DEFAULT_DEPTH,
) -> dict[str, dict[str, int]]:
    """Search every query with every system, writing each ranking as it is made.

    Queries run in sorted id order, one :func:`_rank_pool` gather each, and
    ``systems[i]``'s rankings go straight to ``run_paths[i]``, which is replaced
    only once every query is written; nothing holds a whole set.  Returns
    system id -> qrels query id -> the target's 1-based rank, or 0 when the
    query was not searched or its target is not in the top ``depth``.
    """
    ranks = {system.system_id: dict.fromkeys(qrels, 0) for system in systems}
    docs = [doc_id.encode("utf-8") for doc_id in index.doc_ids]
    rank_fields = [b" %d " % rank for rank in range(1, min(depth, index.doc_count) + 1)]
    with ExitStack() as stack:
        handles = [stack.enter_context(atomic_output(path)) for path in run_paths]
        for query_id in sorted(queries):
            rankings = _rank_pool(queries[query_id], index, systems, depth)
            target = index.doc_number(qrels[query_id]) if query_id in qrels else None
            for system, handle, (numbers, scores) in zip(systems, handles, rankings, strict=True):
                if not numbers.size:
                    continue
                numbers = numbers.tolist()
                if target in numbers:
                    ranks[system.system_id][query_id] = numbers.index(target) + 1
                ranked = map(docs.__getitem__, numbers)
                lines = _ranking_bytes(query_id, system.system_id, ranked, rank_fields, scores)
                handle.write(lines)
    return ranks


def _ranking_bytes(
    query_id: str, system_id: str, docs: Iterable[bytes], ranks: Sequence[bytes], scores: np.ndarray
) -> bytes:
    """One ranking in the six-column run format: query_id Q0 doc_id rank score system_id.

    ``docs`` holds the ranked doc ids as UTF-8 bytes, one per score, and
    ``ranks`` the rank column with its separators (b" 1 ", b" 2 ", ...), at
    least one per score.  Scores get their ``repr`` text.  One ``orjson`` call
    formats a ranking's scores; its shortest round-trip text equals ``repr``'s
    for magnitudes in [1e-4, 1e16), and ``repr`` writes the rest (orjson writes
    ``1e+16`` as ``1e16`` and infinities as ``null``).
    """
    import numpy as np
    import orjson

    values = scores.tolist()
    texts = orjson.dumps(values)[1:-1].split(b",")
    magnitudes = np.abs(scores)
    for i in np.flatnonzero((magnitudes < 1e-4) | ~(magnitudes < 1e16)).tolist():
        texts[i] = repr(values[i]).encode("ascii")
    # Five parts a line, filled column by column, so one join copies each byte once.
    parts = [f"{query_id} Q0 ".encode("utf-8"), b"", b"", b"", f" {system_id}\n".encode("utf-8")]
    parts *= len(values)
    parts[1::5] = docs
    parts[2::5] = ranks[: len(values)]
    parts[3::5] = texts
    return b"".join(parts)


def load_external_run(
    path: Path | str, targets: Mapping[str, str], depth: int = DEFAULT_DEPTH
) -> dict[str, int]:
    """Check a six-column run file and return each target's 1-based rank, or 0.

    Args:
        path: run file location.
        targets: query id -> target doc id for the queries the evaluation
            asks about.  The result covers exactly these ids: queries
            absent from the file rank 0 and give a single warning naming
            the count, while file queries outside the map are dropped
            (external systems often cover only the real query set and
            score zero elsewhere).
        depth: a target below a query's first ``depth`` documents ranks 0.

    Raises:
        RunFileError: a byte that is not UTF-8, malformed lines, NaN
            scores, mixed system tags, duplicate documents within a query,
            non-increasing ranks, or scores increasing with rank.
            Diagnostics name the offending line number.
    """
    path = Path(path)
    lines = TextLines(path, RunFileError)
    per_query: dict[str, list[tuple[int, float, int, bool]]] = {}
    seen_docs: dict[str, set[str]] = {}
    # One string object per distinct doc id: a run repeats each document
    # across many queries, and every query keeps the ids it has seen.
    doc_names: dict[str, str] = {}
    file_tag: str | None = None
    for line_no, line in lines:
        parts = line.split()
        if len(parts) != 6:
            raise lines.error(line_no, f"expected 6 columns, got {len(parts)}")
        query_id, _q0, doc_id, rank_str, score_str, tag = parts
        doc_id = doc_names.setdefault(doc_id, doc_id)
        try:
            rank = int(rank_str)
            score = float(score_str)
        except ValueError:
            raise lines.error(line_no, "rank must be an integer and score a number") from None
        if math.isnan(score):
            # NaN compares false with everything, so the order check
            # below would pass it and whatever follows it
            raise lines.error(line_no, "score is NaN")
        if file_tag is None:
            file_tag = tag
        elif tag != file_tag:
            raise lines.error(line_no, f"mixed system tags {file_tag!r} and {tag!r}")
        docs = seen_docs.setdefault(query_id, set())
        if doc_id in docs:
            raise lines.error(line_no, f"duplicate document {doc_id} for query {query_id}")
        docs.add(doc_id)
        is_target = doc_id == targets.get(query_id)
        per_query.setdefault(query_id, []).append((rank, score, line_no, is_target))
    ranks: dict[str, int] = {}
    for query_id, entries in per_query.items():
        entries.sort(key=lambda e: e[0])
        for (last_rank, last_score, *_), (rank, score, line_no, _) in zip(entries, entries[1:]):
            if rank <= last_rank:
                raise lines.error(line_no, f"rank {rank} does not increase for query {query_id}")
            if score > last_score:
                raise lines.error(line_no, f"score increases with rank for query {query_id}")
        ranks[query_id] = next((i for i, entry in enumerate(entries[:depth], 1) if entry[3]), 0)
    extra = ranks.keys() - targets.keys()
    if extra:
        logger.info(
            "%s: dropping %d queries outside the expected set", path.name, len(extra)
        )
    missing = targets.keys() - ranks.keys()
    if missing:
        logger.warning(
            "%s: %d expected queries missing from run; they will score zero", path.name, len(missing)
        )
    return {query_id: ranks.get(query_id, 0) for query_id in targets}
