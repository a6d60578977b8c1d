"""Corpus ingestion, language partitioning, and candidate filtering.

A corpus is a JSON Lines file, one article per line, with keys ``id``,
``title``, ``text`` and optional ``views``, ``aliases``, ``en_id``, and
``instance_of``.  Documents in a non-English corpus are partitioned by
whether their ``en_id`` resolves to a document in the English corpus:
resolvable links go to the bilingual partition, everything else is
monolingual.  Downstream sampling draws from partition pools that were
first filtered by popularity and article length and then labeled with a
domain derived from ``instance_of`` metadata.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import CorpusError
from .util import TextLines, read_jsonl

logger = logging.getLogger(__name__)

__all__ = [
    "Partition",
    "DomainLabel",
    "Document",
    "Corpus",
    "ingest_corpus",
    "partition_corpus",
    "filter_by_popularity",
    "filter_by_length",
    "load_domain_mapping",
    "default_domain_mapping",
    "assign_domain",
    "DEFAULT_TOP_FRACTION",
    "DEFAULT_MIN_CHARS",
]

DEFAULT_TOP_FRACTION = 0.2
DEFAULT_MIN_CHARS = 1000


class Partition(str, Enum):
    """Which corpus slice a document belongs to for sampling purposes."""

    MONOLINGUAL = "monolingual"
    BILINGUAL = "bilingual"
    FULL = "full"

    @property
    def initial(self) -> str:
        return self.value[0]


class DomainLabel(str, Enum):
    MOVIES = "Movies"
    PEOPLE = "People"
    GENERAL = "General"


@dataclass(frozen=True)
class Document:
    """One article: identifier, display names, body text, and metadata."""

    doc_id: str
    title: str
    body: str
    language: str
    aliases: tuple[str, ...] = ()
    page_views: int = 0
    en_link: str | None = None
    instance_of: tuple[str, ...] = ()

    @property
    def length_chars(self) -> int:
        return len(self.body)


class Corpus:
    """An in-memory document collection with unique ids.

    Iteration order is ascending ``doc_id`` regardless of input order, so
    every traversal of the same corpus is reproducible.
    """

    def __init__(self, language: str, documents: Iterable[Document]):
        self.language = language
        self._docs: dict[str, Document] = {}
        for doc in documents:
            if doc.doc_id in self._docs:
                raise CorpusError(f"duplicate document id {doc.doc_id!r}")
            self._docs[doc.doc_id] = doc
        self._order = sorted(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __iter__(self) -> Iterator[Document]:
        for doc_id in self._order:
            yield self._docs[doc_id]

    def get(self, doc_id: str) -> Document:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise CorpusError(f"unknown document id {doc_id!r} in {self.language} corpus") from None


def _parse_record(raw: object, language: str) -> Document:
    # A ValueError here is a bad article: read_jsonl names its line in a CorpusError.
    if not isinstance(raw, dict):
        raise ValueError("expected a JSON object")
    for key in ("id", "title", "text"):
        if key not in raw:
            raise ValueError(f"missing required key {key!r}")
    doc_id = raw["id"]
    # qrels and run lines split on whitespace, so an id may hold none
    if not isinstance(doc_id, str) or doc_id.split() != [doc_id]:
        raise ValueError("document id must be a non-empty string without whitespace")
    if not isinstance(raw["title"], str):
        raise ValueError("title must be a string")
    if not isinstance(raw["text"], str):
        raise ValueError("text must be a string")
    views = raw.get("views", 0)
    if not isinstance(views, int) or isinstance(views, bool) or views < 0:
        raise ValueError("views must be a non-negative integer")
    aliases = raw.get("aliases", [])
    if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
        raise ValueError("aliases must be a list of strings")
    en_link = raw.get("en_id")
    if en_link is not None and not isinstance(en_link, str):
        raise ValueError("en_id must be a string")
    instance_of = raw.get("instance_of", [])
    if not isinstance(instance_of, list) or not all(isinstance(c, str) for c in instance_of):
        raise ValueError("instance_of must be a list of strings")
    return Document(
        doc_id=doc_id,
        title=raw["title"],
        body=raw["text"],
        language=language,
        aliases=tuple(aliases),
        page_views=views,
        en_link=en_link,
        instance_of=tuple(instance_of),
    )


def ingest_corpus(path: Path | str, language: str) -> Corpus:
    """Parse a JSONL corpus file into a :class:`Corpus`.

    Args:
        path: JSON Lines file, one article object per line.
        language: language code the articles are written in.

    Raises:
        CorpusError: on a byte that is not UTF-8, unreadable JSON, missing
            or mistyped fields, or a duplicate document id.  Parse
            diagnostics name the line number.
    """
    documents = read_jsonl(path, lambda raw: _parse_record(raw, language), CorpusError)
    corpus = Corpus(language, documents)
    logger.info("ingested %d documents for language %s", len(corpus), language)
    return corpus


def partition_corpus(corpus: Corpus, english_corpus: Corpus) -> dict[str, Partition]:
    """Assign every document in ``corpus`` to monolingual or bilingual.

    A document is bilingual when its ``en_link`` resolves to a document in
    ``english_corpus``.  Dangling links are demoted to monolingual with one
    warning for them all rather than failing the run.
    """
    if corpus.language == "en":
        raise CorpusError("partitioning applies to non-English corpora only")
    if english_corpus.language != "en":
        raise CorpusError(
            f"expected an English reference corpus, got language {english_corpus.language!r}"
        )
    partitions = {
        doc.doc_id: Partition.BILINGUAL if doc.en_link in english_corpus else Partition.MONOLINGUAL
        for doc in corpus
    }
    dangling = [d for d in corpus if d.en_link is not None and d.en_link not in english_corpus]
    if dangling:
        logger.warning(
            "%d dangling English links demoted to monolingual (first: %s links to missing %s)",
            len(dangling), dangling[0].doc_id, dangling[0].en_link,
        )
    return partitions


def _snap_ceil(value: float) -> int:
    # Guards against binary float drift: 0.2 * 35 must give 7, not 8.
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    return math.ceil(value)


def filter_by_popularity(
    pool: Iterable[Document], top_fraction: float = DEFAULT_TOP_FRACTION
) -> list[Document]:
    """Keep the most viewed ``ceil(top_fraction * n)`` documents of ``pool``.

    Ties on ``page_views`` break by ascending ``doc_id`` so the survivor
    set is deterministic.  Returned in descending popularity order.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise CorpusError(f"top_fraction must be in (0, 1], got {top_fraction}")
    docs = sorted(pool, key=lambda d: (-d.page_views, d.doc_id))
    if not docs:
        raise CorpusError("popularity filter received an empty pool")
    keep = _snap_ceil(top_fraction * len(docs))
    return docs[:keep]


def filter_by_length(pool: Iterable[Document], min_chars: int = DEFAULT_MIN_CHARS) -> list[Document]:
    """Drop documents whose body is shorter than ``min_chars`` characters."""
    if min_chars < 0:
        raise CorpusError(f"min_chars must be non-negative, got {min_chars}")
    return [doc for doc in pool if doc.length_chars >= min_chars]


def load_domain_mapping(path: Path | str) -> dict[str, DomainLabel]:
    """Read a two-column TSV mapping metadata class ids to labels; ``#`` lines are skipped."""
    mapping: dict[str, DomainLabel] = {}
    labels = {label.value: label for label in DomainLabel}
    lines = TextLines(path, CorpusError)
    for line_no, line in lines:
        if line.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise lines.error(line_no, "expected two tab-separated columns")
        class_id, label = parts
        if label not in labels:
            raise lines.error(line_no, f"unknown domain label {label!r}")
        if mapping.setdefault(class_id, labels[label]) is not labels[label]:
            raise lines.error(line_no, f"class {class_id} is already {mapping[class_id].value}")
    return mapping


def default_domain_mapping() -> dict[str, DomainLabel]:
    """The mapping shipped with the package (humans and film classes)."""
    with resources.as_file(resources.files("totsim").joinpath("assets/domain_mapping.tsv")) as path:
        return load_domain_mapping(path)


def assign_domain(doc: Document, mapping: Mapping[str, DomainLabel]) -> DomainLabel:
    """Label a document by its first mapped ``instance_of`` entry.

    Entries are checked in stored order; documents with no mapped entry
    fall back to the general domain.
    """
    for class_id in doc.instance_of:
        if class_id in mapping:
            return mapping[class_id]
    return DomainLabel.GENERAL
