"""Shared factories and fixture paths."""

from __future__ import annotations

import io
import json
import shutil
import zipfile
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
import pytest

from totsim.corpus import Corpus, Document
from totsim.evaluation import RunResult
from totsim.retrieval import DEFAULT_DEPTH, load_external_run

DATA_DIR = Path(__file__).parent / "data"
TOY_DIR = DATA_DIR / "toy"


def make_doc(
    doc_id: str = "d1",
    title: str = "Title",
    body: str = "body text",
    language: str = "en",
    aliases: tuple[str, ...] = (),
    page_views: int = 0,
    en_link: str | None = None,
    instance_of: tuple[str, ...] = (),
) -> Document:
    return Document(
        doc_id=doc_id,
        title=title,
        body=body,
        language=language,
        aliases=aliases,
        page_views=page_views,
        en_link=en_link,
        instance_of=instance_of,
    )


def make_corpus(language: str = "en", *docs: Document) -> Corpus:
    return Corpus(language, docs)


def edit_index_array(path: Path, name: str, edit: Callable[[np.ndarray], np.ndarray]) -> None:
    """Replace the ``name`` member of the index archive at ``path`` with ``edit`` of it."""
    with zipfile.ZipFile(path) as archive:
        members = {member: archive.read(member) for member in archive.namelist()}
    buffer = io.BytesIO()
    np.save(buffer, edit(np.load(io.BytesIO(members[f"{name}.npy"]))))
    members[f"{name}.npy"] = buffer.getvalue()
    with zipfile.ZipFile(path, "w") as archive:
        for member, data in members.items():
            archive.writestr(member, data)


def edit_index_meta(path: Path, edit: Callable[[dict], object]) -> None:
    """Rewrite the ``meta`` member of the index archive at ``path`` after ``edit``."""

    def rewrite(raw: np.ndarray) -> np.ndarray:
        meta = json.loads(raw.tobytes())
        edit(meta)
        return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

    edit_index_array(path, "meta", rewrite)


# (array, how an index's array is spoiled, case name), for load_index and for
# search: each is refused as arrays that do not fit together.  Every spoiled
# array keeps its length.  doc-repeated-within-a-term copies each even posting
# over the next, so a term of two or more postings that starts at an even
# position lists its first document twice.  falling-unsigned-offsets swaps the
# second and third offsets, so the second term ends before it starts; stored
# unsigned, the difference of those two offsets wraps to a large positive one.
SPOILED_INDEX_ARRAYS: list[tuple[str, Callable[[np.ndarray], np.ndarray], str]] = [
    ("offsets", lambda offsets: offsets.astype(np.float64), "float-offsets"),
    ("doc_lengths", lambda lengths: lengths[:, None], "doc-lengths-a-column"),
    ("postings_tfs", lambda tfs: tfs + 0.5, "fractional-tfs"),
    ("postings_tfs", lambda tfs: -tfs, "negated-tfs"),
    ("postings_tfs", lambda tfs: tfs * 0, "zero-tfs"),
    ("doc_lengths", lambda lengths: lengths - lengths.max() - 1, "negative-doc-lengths"),
    ("postings_docs", lambda docs: docs.astype(bool), "boolean-doc-numbers"),
    ("postings_docs", lambda docs: docs - 1, "negative-doc-numbers"),
    (
        "offsets",
        lambda offsets: offsets[np.r_[0, 2, 1, 3 : offsets.size]].astype(np.uint32),
        "falling-unsigned-offsets",
    ),
    (
        "postings_docs",
        lambda docs: np.repeat(docs[::2], 2)[: docs.size],
        "doc-repeated-within-a-term",
    ),
    ("doc_lengths", lambda lengths: lengths * 0, "zero-doc-lengths"),
]


# (how an index's meta is spoiled, what the refusal says, case name), for
# load_index and for search
SPOILED_INDEX_META: list[tuple[Callable[[dict], object], str, str]] = [
    (lambda meta: meta.pop("terms"), "missing key 'terms'", "without-terms"),
    (lambda meta: meta.pop("tokenizer"), "missing key 'tokenizer'", "without-tokenizer"),
    (lambda meta: meta["tokenizer"].pop("ngram"), "missing key 'ngram'", "without-ngram"),
    (lambda meta: meta.update(tokenizer="cjk-ngram"), "bad tokenizer", "tokenizer-a-string"),
    (lambda meta: meta["tokenizer"].update(ngram="2"), "bad tokenizer", "ngram-a-string"),
    (lambda meta: meta.update(doc_ids=5), "doc_ids is not a list of strings", "doc-ids-a-number"),
    (lambda meta: meta.update(terms="ab"), "terms is not a list of strings", "terms-a-string"),
    (lambda meta: meta.update(terms=[1, 2]), "terms is not a list of strings", "terms-numbers"),
]


# (how an index's meta is put out of order, what the refusal says, case name),
# for load_index and for search: both lists are bisected, so each must
# strictly ascend.  Every spoil keeps the lists' lengths, so the arrays fit.
DISORDERED_INDEX_META: list[tuple[Callable[[dict], object], str, str]] = [
    (lambda meta: meta["terms"].reverse(), "terms do not strictly ascend", "terms-reversed"),
    (
        lambda meta: meta["terms"].__setitem__(1, meta["terms"][0]),
        "terms do not strictly ascend",
        "a-term-repeated",
    ),
    (lambda meta: meta["doc_ids"].reverse(), "doc_ids do not strictly ascend", "doc-ids-reversed"),
    (
        lambda meta: meta["doc_ids"].__setitem__(1, meta["doc_ids"][0]),
        "doc_ids do not strictly ascend",
        "a-doc-id-repeated",
    ),
]


def read_run(path: Path, queries: Iterable[str], depth: int = DEFAULT_DEPTH) -> RunResult:
    """The rankings of ``queries`` in a run file, read without checks, best first.

    Each ranking is cut at ``depth``; a query the file lacks gets an empty one,
    and file queries outside ``queries`` are dropped.  The result is named by
    the file's tag.  The file also goes through ``load_external_run``: its
    checks must pass, and the rank it gives each query's last-listed document
    must be that document's position in the ranking, or 0 below the cut.
    """
    tag = path.stem
    lines: dict[str, list[tuple[int, str, float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        query_id, _q0, doc_id, rank, score, tag = line.split()
        lines.setdefault(query_id, []).append((int(rank), doc_id, float(score)))
    rankings = {
        query_id: [(doc_id, score) for _, doc_id, score in sorted(lines.get(query_id, []))[:depth]]
        for query_id in queries
    }
    run = RunResult(system_id=tag, rankings=rankings)
    targets = {query_id: max(lines.get(query_id, [(0, "")]))[1] for query_id in rankings}
    assert load_external_run(path, targets, depth) == run.target_ranks(targets)
    return run


@pytest.fixture
def toy_dir() -> Path:
    return TOY_DIR


@pytest.fixture
def toy_copy(tmp_path: Path) -> Path:
    """A disposable copy of the toy pipeline directory.

    The config uses relative paths, so a copy keeps CLI tests from
    writing into the repository fixture.
    """
    target = tmp_path / "toy"
    shutil.copytree(TOY_DIR, target)
    return target
