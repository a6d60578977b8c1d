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
term-frequency arrays.  Each language's index is one pickle-free ``.npz``
archive (format version 2) whose ``meta`` member holds the document ids,
terms, language and tokenizer as canonical JSON; it is written with fixed
member timestamps, so the same corpus always gives the same bytes.

Scoring is term-at-a-time, one pass per query for a whole system pool: the
postings of the query's matched terms are gathered once, then each system
accumulates one addend per posting into its document.  Each document's
addends are summed in ascending order, so documents whose addends form
equal multisets get bit-equal scores, and rankings honour the
(-score, doc_id) rule exactly instead of by float summation noise.

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
import json
import logging
import math
import re
import zipfile
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import RunFileError, TotsimError
from .util import TextLines, atomic_output, dump_json

if TYPE_CHECKING:
    import numpy as np

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

    def to_dict(self) -> dict:
        return {"mode": self.mode, "ngram": self.ngram}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "Tokenizer":
        return cls(mode=raw["mode"], ngram=raw["ngram"])


def tokenizer_for_language(language: str) -> Tokenizer:
    """Character bigrams for CJK language codes, word splitting otherwise."""
    if language in CJK_LANGUAGES:
        return Tokenizer(mode=MODE_CJK_NGRAM, ngram=2)
    return Tokenizer(mode=MODE_WHITESPACE)


# The numeric members of an index archive, besides ``meta``.
_INDEX_ARRAYS = ("offsets", "postings_docs", "postings_tfs", "doc_lengths")


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings plus the document statistics both scorers need.

    Document number ``i`` is ``doc_ids[i]`` and term number ``t`` is
    ``terms[t]``, both ascending.  The postings of term ``t`` are
    ``postings_docs[offsets[t]:offsets[t + 1]]`` (int32 doc numbers,
    ascending) with ``postings_tfs`` (int32) alongside; ``doc_lengths``
    holds each document's token count.
    """

    language: str
    tokenizer: Tokenizer
    doc_ids: list[str]
    terms: list[str]
    offsets: np.ndarray
    postings_docs: np.ndarray
    postings_tfs: np.ndarray
    doc_lengths: np.ndarray
    collection_length: int = field(init=False)
    term_ctf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        import numpy as np

        n_postings = len(self.postings_docs)
        consistent = (
            len(self.offsets) == len(self.terms) + 1
            and len(self.doc_lengths) == len(self.doc_ids)
            and len(self.postings_tfs) == n_postings
            and int(self.offsets[0]) == 0
            and int(self.offsets[-1]) == n_postings
            and bool(np.all(np.diff(self.offsets) > 0))
            and bool(np.all((self.postings_docs >= 0) & (self.postings_docs < len(self.doc_ids))))
        )
        if not consistent:
            raise TotsimError(f"{self.language} index: postings arrays do not fit together")
        self.collection_length = int(self.doc_lengths.sum())
        self.term_ctf = (
            np.add.reduceat(self.postings_tfs.astype(np.int64), self.offsets[:-1])
            if n_postings
            else np.zeros(0, dtype=np.int64)
        )

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
        return _position(self.terms, term)

    def match(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """The query's matched term numbers (ascending) and their counts in it.

        Tokens absent from the collection are dropped.
        """
        import numpy as np

        counts = Counter(self.tokenizer.tokenize(query))
        qtf_of = {t: counts[token] for token in counts if (t := self.term_id(token)) is not None}
        term_ids = np.array(sorted(qtf_of), dtype=np.int64)
        return term_ids, np.array([qtf_of[t] for t in term_ids.tolist()], dtype=np.float64)


def _position(names: list[str], name: str) -> int | None:
    position = bisect.bisect_left(names, name)
    return position if position < len(names) and names[position] == name else None


def build_index(corpus, tokenizer: Tokenizer) -> InvertedIndex:
    """Index every document body in ``corpus`` with ``tokenizer``.

    Only bodies are indexed; titles and aliases stay out so retrieval
    difficulty reflects the article text alone.  Documents are numbered
    in ascending ``doc_id`` order whatever order ``corpus`` yields them in.
    """
    from array import array

    import numpy as np

    docs = sorted(corpus, key=lambda doc: doc.doc_id)
    # Postings are collected in doc order under first-seen term numbers,
    # then renumbered to sorted term order; a stable sort by term keeps
    # each term's postings in ascending doc order.  They go into compact
    # int32 buffers, so no posting ever becomes a Python object.
    seen: dict[str, int] = {}
    post_terms = array("i")
    post_tfs = array("i")
    doc_terms = array("i")  # each document's number of distinct terms
    lengths = array("q")
    for doc in docs:
        counts = Counter(tokenizer.tokenize(doc.body))
        lengths.append(counts.total())
        for token in counts:
            if token not in seen:
                seen[token] = len(seen)
        post_terms.extend(map(seen.__getitem__, counts))
        post_tfs.extend(counts.values())
        doc_terms.append(len(counts))
    terms = sorted(seen)
    renumber = np.empty(len(terms), dtype=np.int32)
    renumber[np.fromiter(map(seen.__getitem__, terms), dtype=np.int32, count=len(terms))] = (
        np.arange(len(terms), dtype=np.int32)
    )
    del seen
    term_of = renumber[np.frombuffer(post_terms, dtype=np.int32)]
    del renumber, post_terms
    order = np.argsort(term_of, kind="stable")
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=len(terms)), out=offsets[1:])
    del term_of
    doc_numbers = np.repeat(
        np.arange(len(docs), dtype=np.int32), np.frombuffer(doc_terms, dtype=np.int32)
    )
    postings_docs = doc_numbers[order]
    del doc_numbers
    postings_tfs = np.frombuffer(post_tfs, dtype=np.int32)[order]
    del order, post_tfs
    index = InvertedIndex(
        language=corpus.language,
        tokenizer=tokenizer,
        doc_ids=[doc.doc_id for doc in docs],
        terms=terms,
        offsets=offsets,
        postings_docs=postings_docs,
        postings_tfs=postings_tfs,
        doc_lengths=np.array(lengths, dtype=np.int64),
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
    depend only on the index.
    """
    import numpy as np

    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "language": index.language,
        "tokenizer": index.tokenizer.to_dict(),
        "doc_ids": index.doc_ids,
        "terms": index.terms,
    }
    members = {"meta": np.frombuffer(dump_json(meta).encode("utf-8"), dtype=np.uint8)}
    members.update((name, getattr(index, name)) for name in _INDEX_ARRAYS)
    with atomic_output(path) as handle, zipfile.ZipFile(handle, "w") as archive:
        for name, array in members.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def load_index(path: Path | str) -> InvertedIndex:
    """Read an index written by :func:`save_index`.

    Raises:
        TotsimError: the file is not a version-2 index archive (a version-1
            JSON index included), its meta lacks a key or holds a value of
            the wrong type, or its arrays do not fit together.
    """
    import numpy as np

    with open(path, "rb") as handle:
        if not zipfile.is_zipfile(handle):
            raise TotsimError(f"{path}: not a {INDEX_FORMAT} version {INDEX_VERSION} archive")
        handle.seek(0)
        try:
            with np.load(handle, allow_pickle=False) as archive:
                meta = json.loads(archive["meta"].tobytes())
                if not isinstance(meta, dict) or meta.get("format") != INDEX_FORMAT:
                    raise TotsimError(f"{path}: not a {INDEX_FORMAT} file")
                if meta.get("version") != INDEX_VERSION:
                    raise TotsimError(
                        f"{path}: unsupported index version {meta.get('version')!r}"
                    )
                arrays = {name: archive[name] for name in _INDEX_ARRAYS}
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
        if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
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
    token adds ``qtf`` times its per-posting weight.  Candidates are the
    documents in the gathered postings; each system's addends accumulate
    into one slot per candidate in ascending addend order.
    """
    import numpy as np

    term_ids, qtf = index.match(query)
    starts = index.offsets[term_ids]
    counts = index.offsets[term_ids + 1] - starts
    # Gathered posting j belongs to matched term owner[j] and sits at that
    # term's start plus j's rank among the term's gathered postings.
    owner = np.repeat(np.arange(len(term_ids)), counts)
    positions = np.arange(owner.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    docs = index.postings_docs[positions]
    tf = index.postings_tfs[positions].astype(np.float64)
    candidates, slot = np.unique(docs, return_inverse=True)
    weight = qtf[owner]
    idf_tf = np.log((index.doc_count - counts + 0.5) / (counts + 0.5) + 1.0)[owner] * tf
    lengths = index.doc_lengths[docs]
    rankings = []
    for system in systems:
        # Operand order is part of the output: ``b * (dl / avgdl)`` for
        # ``b * dl / avgdl`` would change scores' last bits and run-file bytes.
        if system.kind == "bm25":
            norm = system.k1 * (1.0 - system.b + system.b * lengths / index.avg_doc_length)
            addends = weight * (idf_tf * (system.k1 + 1.0) / (tf + norm))
        else:
            prior = system.mu * index.term_ctf[term_ids] / index.collection_length
            log_prior = np.log(prior)
            addends = weight * (np.log(tf + prior[owner]) - log_prior[owner])
        # bincount adds its weights in input order; equal addends are
        # interchangeable, so an unstable sort by value suffices.
        order = np.argsort(addends)
        scores = np.bincount(slot[order], weights=addends[order], minlength=candidates.size)
        if system.kind != "bm25":
            base = float((qtf * log_prior).sum())
            scores = base + scores - qtf.sum() * np.log(index.doc_lengths[candidates] + system.mu)
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
    import numpy as np

    ranks = {system.system_id: dict.fromkeys(qrels, 0) for system in systems}
    rank_fields = [f" {rank} " for rank in range(1, min(depth, index.doc_count) + 1)]
    with ExitStack() as stack:
        handles = [stack.enter_context(atomic_output(path)) for path in run_paths]
        for query_id in sorted(queries):
            rankings = _rank_pool(queries[query_id], index, systems, depth)
            target = _position(index.doc_ids, qrels[query_id]) if query_id in qrels else None
            for system, handle, (numbers, scores) in zip(systems, handles, rankings, strict=True):
                if target is not None and (hits := np.flatnonzero(numbers == target)).size:
                    ranks[system.system_id][query_id] = int(hits[0]) + 1
                if numbers.size:
                    doc_ids = map(index.doc_ids.__getitem__, numbers.tolist())
                    handle.write(
                        _run_lines(query_id, system.system_id, doc_ids, rank_fields, scores)
                    )
    return ranks


def _run_lines(
    query_id: str, system_id: str, doc_ids: Iterable[str], ranks: Iterable[str], scores: np.ndarray
) -> bytes:
    """One ranking in the six-column run format: query_id Q0 doc_id rank score system_id.

    ``ranks`` holds the rank column with its separators (" 1 ", " 2 ", ...).
    Scores get their ``repr`` text.  One ``orjson`` call formats a ranking's
    scores; its shortest round-trip text equals ``repr``'s for magnitudes in
    [1e-4, 1e16), and ``repr`` writes the rest (orjson writes ``1e+16`` as ``1e16``).
    """
    import numpy as np
    import orjson

    values = scores.tolist()
    texts = orjson.dumps(values).decode()[1:-1].split(",")
    magnitudes = np.abs(scores)
    for i in np.flatnonzero((magnitudes < 1e-4) | ~(magnitudes < 1e16)).tolist():
        texts[i] = repr(values[i])
    head, tail = f"{query_id} Q0 ", f" {system_id}\n"
    lines = map("".join, zip(doc_ids, ranks, texts))
    return (head + (tail + head).join(lines) + tail).encode("utf-8")


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
