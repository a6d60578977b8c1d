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

Scoring is term-at-a-time: a query gathers only the postings of its
matched terms and accumulates one addend per posting into its document.
The index keeps each query text's matched terms, so the systems of a
pool that score one query against it tokenize that query once.
Each document's addends are summed in ascending order, so documents whose
addends form equal multisets get bit-equal scores, and rankings honour the
(-score, doc_id) rule exactly instead of by float summation noise.

Tokenization is either lowercase word splitting for alphabetic scripts
or character n-grams over CJK runs (with word splitting applied to any
embedded non-CJK stretches), matching how mixed-script articles are
usually indexed without language-specific segmenters.

numpy is imported inside the index and scoring functions only: importing
this module, and with it the command line, does not load it.
"""

from __future__ import annotations

import bisect
import json
import logging
import re
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import RunFileError, TotsimError
from .util import atomic_output, atomic_write_text, dump_json

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
    "RunResult",
    "run_search",
    "write_run_file",
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
    _matches: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, default_factory=dict
    )

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
        position = bisect.bisect_left(self.terms, term)
        if position < len(self.terms) and self.terms[position] == term:
            return position
        return None

    def match(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """The query's matched term numbers (ascending) and their counts in it.

        Tokens absent from the collection are dropped.  The result is kept
        per query text, so the systems of a pool that score the same query
        against this index tokenize it once; its arrays are read-only.
        """
        import numpy as np

        cached = self._matches.get(query)
        if cached is None:
            qtf_of: dict[int, int] = {}
            for token, count in Counter(self.tokenizer.tokenize(query)).items():
                t = self.term_id(token)
                if t is not None:
                    qtf_of[t] = count
            term_ids = np.array(sorted(qtf_of), dtype=np.int64)
            qtf = np.array([qtf_of[t] for t in term_ids.tolist()], dtype=np.float64)
            term_ids.flags.writeable = qtf.flags.writeable = False
            cached = self._matches[query] = (term_ids, qtf)
        return cached

    def df(self, term: str) -> int:
        t = self.term_id(term)
        return 0 if t is None else int(self.offsets[t + 1] - self.offsets[t])

    def ctf(self, term: str) -> int:
        t = self.term_id(term)
        return 0 if t is None else int(self.term_ctf[t])


def build_index(corpus, tokenizer: Tokenizer) -> InvertedIndex:
    """Index every document body in ``corpus`` with ``tokenizer``.

    Only bodies are indexed; titles and aliases stay out so retrieval
    difficulty reflects the article text alone.  Documents are numbered
    in ascending ``doc_id`` order whatever order ``corpus`` yields them in.
    """
    import numpy as np

    docs = sorted(corpus, key=lambda doc: doc.doc_id)
    # Postings are collected in doc order under first-seen term numbers,
    # then renumbered to sorted term order; a stable sort by term keeps
    # each term's postings in ascending doc order.
    seen: dict[str, int] = {}
    post_terms: list[int] = []
    post_docs: list[int] = []
    post_tfs: list[int] = []
    lengths: list[int] = []
    for number, doc in enumerate(docs):
        tokens = tokenizer.tokenize(doc.body)
        lengths.append(len(tokens))
        for token, tf in Counter(tokens).items():
            post_terms.append(seen.setdefault(token, len(seen)))
            post_docs.append(number)
            post_tfs.append(tf)
    terms = sorted(seen)
    renumber = np.empty(len(terms), dtype=np.int64)
    renumber[[seen[term] for term in terms]] = np.arange(len(terms))
    term_of = renumber[np.asarray(post_terms, dtype=np.int64)]
    order = np.argsort(term_of, kind="stable")
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=len(terms)), out=offsets[1:])
    index = InvertedIndex(
        language=corpus.language,
        tokenizer=tokenizer,
        doc_ids=[doc.doc_id for doc in docs],
        terms=terms,
        offsets=offsets,
        postings_docs=np.asarray(post_docs, dtype=np.int32)[order],
        postings_tfs=np.asarray(post_tfs, dtype=np.int32)[order],
        doc_lengths=np.asarray(lengths, dtype=np.int64),
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
            JSON index included) or its arrays do not fit together.
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
    return InvertedIndex(
        language=meta["language"],
        tokenizer=Tokenizer.from_dict(meta["tokenizer"]),
        doc_ids=meta["doc_ids"],
        terms=meta["terms"],
        **arrays,
    )


def _score(
    query: str,
    index: InvertedIndex,
    depth: int,
    *,
    k1: float | None = None,
    b: float | None = None,
    mu: float | None = None,
) -> list[tuple[str, float]]:
    """Term-at-a-time scoring shared by BM25 (``k1``, ``b``) and QL (``mu``).

    The query's terms come from :meth:`InvertedIndex.match`: tokens absent
    from the collection are dropped and the rest counted, so a repeated
    token adds ``qtf`` times its per-posting weight.  Candidates are the
    documents in the gathered postings; their addends accumulate into one
    slot per document, visited in ascending addend order so every
    document's sum is taken in a canonical order.
    """
    import numpy as np

    term_ids, qtf = index.match(query)
    if not term_ids.size:
        return []
    starts = index.offsets[term_ids]
    counts = index.offsets[term_ids + 1] - starts
    # Gathered posting j belongs to matched term owner[j] and sits at that
    # term's start plus j's rank among the term's gathered postings.
    owner = np.repeat(np.arange(len(term_ids)), counts)
    positions = np.arange(owner.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    docs = index.postings_docs[positions]
    tf = index.postings_tfs[positions].astype(np.float64)
    if mu is None:
        df = counts.astype(np.float64)
        idf = np.log((index.doc_count - df + 0.5) / (df + 0.5) + 1.0)
        norm = k1 * (1.0 - b + b * index.doc_lengths[docs] / index.avg_doc_length)
        addends = qtf[owner] * (idf[owner] * tf * (k1 + 1.0) / (tf + norm))
    else:
        prior = mu * index.term_ctf[term_ids] / index.collection_length
        log_prior = np.log(prior)
        addends = qtf[owner] * (np.log(tf + prior[owner]) - log_prior[owner])
    # bincount adds its weights in input order; equal addends are
    # interchangeable, so an unstable sort by value suffices.
    order = np.argsort(addends)
    sums = np.bincount(docs[order], weights=addends[order], minlength=index.doc_count)
    candidates = np.flatnonzero(np.bincount(docs, minlength=index.doc_count))
    scores = sums[candidates]
    if mu is not None:
        base = float((qtf * log_prior).sum())
        scores = base + scores - qtf.sum() * np.log(index.doc_lengths[candidates] + mu)
    top = np.lexsort((candidates, -scores))[:depth]
    doc_ids = index.doc_ids
    return [
        (doc_ids[number], score)
        for number, score in zip(candidates[top].tolist(), scores[top].tolist())
    ]


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
    return _score(query, index, depth, k1=k1, b=b)


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
    return _score(query, index, depth, mu=mu)


@dataclass(frozen=True)
class RetrievalSystem:
    """One member of the system pool: a scorer configuration or an external run."""

    system_id: str
    kind: str
    k1: float | None = None
    b: float | None = None
    mu: float | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "bm25":
            if self.k1 is None or self.b is None:
                raise TotsimError(f"system {self.system_id}: bm25 needs k1 and b")
        elif self.kind == "ql-dirichlet":
            if self.mu is None:
                raise TotsimError(f"system {self.system_id}: ql-dirichlet needs mu")
        elif self.kind == "external":
            if self.path is None:
                raise TotsimError(f"system {self.system_id}: external needs a run path")
        else:
            raise TotsimError(f"system {self.system_id}: unknown kind {self.kind!r}")

    def to_dict(self) -> dict:
        raw: dict = {"system_id": self.system_id, "kind": self.kind}
        for key in ("k1", "b", "mu", "path"):
            value = getattr(self, key)
            if value is not None:
                raw[key] = value
        return raw

    @classmethod
    def from_dict(cls, raw: Mapping) -> "RetrievalSystem":
        return cls(
            system_id=raw["system_id"],
            kind=raw["kind"],
            k1=raw.get("k1"),
            b=raw.get("b"),
            mu=raw.get("mu"),
            path=raw.get("path"),
        )


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


@dataclass
class RunResult:
    """Per-query rankings produced by one system."""

    system_id: str
    rankings: dict[str, list[tuple[str, float]]]

    def query_ids(self) -> list[str]:
        return sorted(self.rankings)


def run_search(
    system: RetrievalSystem,
    queries: Mapping[str, str],
    index: InvertedIndex,
    depth: int = DEFAULT_DEPTH,
) -> RunResult:
    """Score every query with ``system`` against ``index``."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    for query_id in sorted(queries):
        text = queries[query_id]
        if system.kind == "bm25":
            ranking = score_bm25(text, index, k1=system.k1, b=system.b, depth=depth)
        elif system.kind == "ql-dirichlet":
            ranking = score_ql_dirichlet(text, index, mu=system.mu, depth=depth)
        else:
            raise TotsimError(f"system {system.system_id}: cannot execute kind {system.kind!r}")
        rankings[query_id] = ranking
    return RunResult(system_id=system.system_id, rankings=rankings)


def write_run_file(run: RunResult, path: Path | str) -> None:
    """Write the six-column run format: query_id Q0 doc_id rank score system_id."""
    lines = []
    for query_id in sorted(run.rankings):
        for rank, (doc_id, score) in enumerate(run.rankings[query_id], start=1):
            lines.append(f"{query_id} Q0 {doc_id} {rank} {score!r} {run.system_id}\n")
    atomic_write_text(path, "".join(lines))


def load_external_run(
    path: Path | str,
    expected_queries: Iterable[str],
    depth: int = DEFAULT_DEPTH,
    system_id: str | None = None,
) -> RunResult:
    """Parse and validate a six-column run file.

    Args:
        path: run file location.
        expected_queries: query ids the evaluation will ask about.  The
            returned result covers exactly these ids: queries absent
            from the file yield empty rankings and a single warning
            naming the count, while file queries outside the set are
            dropped (external systems often cover only the real query
            set and score zero elsewhere).
        depth: rankings are truncated to this many entries.
        system_id: overrides the file's system tag when given; the tag
            itself must still be uniform across the file.

    Raises:
        RunFileError: malformed lines, duplicate documents within a
            query, non-increasing ranks, or scores increasing with rank.
            Diagnostics name the offending line number.
    """
    path = Path(path)
    expected = set(expected_queries)
    per_query: dict[str, list[tuple[int, float, str, int]]] = {}
    seen_docs: dict[str, set[str]] = {}
    # One string object per distinct doc id: a run repeats each document
    # across many queries, and evaluate holds a whole pool of runs.
    doc_names: dict[str, str] = {}
    file_tag: str | None = None
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise RunFileError(f"{path.name} line {line_no}: expected 6 columns, got {len(parts)}")
            query_id, _q0, doc_id, rank_str, score_str, tag = parts
            doc_id = doc_names.setdefault(doc_id, doc_id)
            try:
                rank = int(rank_str)
                score = float(score_str)
            except ValueError:
                raise RunFileError(
                    f"{path.name} line {line_no}: rank must be an integer and score a number"
                ) from None
            if file_tag is None:
                file_tag = tag
            elif tag != file_tag:
                raise RunFileError(
                    f"{path.name} line {line_no}: mixed system tags {file_tag!r} and {tag!r}"
                )
            docs = seen_docs.setdefault(query_id, set())
            if doc_id in docs:
                raise RunFileError(
                    f"{path.name} line {line_no}: duplicate document {doc_id} for query {query_id}"
                )
            docs.add(doc_id)
            per_query.setdefault(query_id, []).append((rank, score, doc_id, line_no))
    rankings: dict[str, list[tuple[str, float]]] = {}
    for query_id, entries in per_query.items():
        entries.sort(key=lambda e: e[0])
        previous_rank: int | None = None
        previous_score: float | None = None
        for rank, score, doc_id, line_no in entries:
            if previous_rank is not None and rank <= previous_rank:
                raise RunFileError(
                    f"{path.name} line {line_no}: rank {rank} does not increase for query {query_id}"
                )
            if previous_score is not None and score > previous_score:
                raise RunFileError(
                    f"{path.name} line {line_no}: score increases with rank for query {query_id}"
                )
            previous_rank = rank
            previous_score = score
        rankings[query_id] = [(doc_id, score) for _, score, doc_id, _ in entries[:depth]]
    extra = set(rankings) - expected
    if extra:
        logger.info(
            "%s: dropping %d queries outside the expected set", path.name, len(extra)
        )
        for query_id in extra:
            del rankings[query_id]
    missing = expected - set(rankings)
    if missing:
        logger.warning(
            "%s: %d expected queries missing from run; they will score zero", path.name, len(missing)
        )
        for query_id in missing:
            rankings[query_id] = []
    return RunResult(system_id=system_id or file_tag or path.stem, rankings=rankings)
