"""Tokenization, indexing, scoring oracles, and run file IO."""

from __future__ import annotations

import io
import math
import random
import re
import subprocess
import sys
import tracemalloc
import zipfile
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import totsim.retrieval as retrieval
from conftest import SPOILED_INDEX_META, edit_index_meta, make_corpus, make_doc, read_run
from totsim.errors import RunFileError, TotsimError
from totsim.evaluation import RunResult
from totsim.retrieval import (
    DEFAULT_DEPTH,
    INDEX_FORMAT,
    InvertedIndex,
    RetrievalSystem,
    Tokenizer,
    build_index,
    default_lexical_pool,
    load_external_run,
    load_index,
    run_search,
    save_index,
    score_bm25,
    score_ql_dirichlet,
    tokenizer_for_language,
)
from totsim.retrieval import _run_lines

WS = Tokenizer(mode="whitespace")
CJK = Tokenizer(mode="cjk-ngram")


def fish_index() -> InvertedIndex:
    corpus = make_corpus(
        "en",
        make_doc("a", body="red fish blue fish"),
        make_doc("b", body="red car"),
        make_doc("c", body="green fish"),
    )
    return build_index(corpus, WS)


def test_whitespace_tokenizer_lowercases_and_splits() -> None:
    assert WS.tokenize("Hello, WORLD_x 42") == ["hello", "world", "x", "42"]
    assert WS.tokenize("") == []


def test_cjk_tokenizer_emits_character_bigrams() -> None:
    assert CJK.tokenize("東京タワー") == ["東京", "京タ", "タワ", "ワー"]
    assert CJK.tokenize("한국어") == ["한국", "국어"]


def test_cjk_tokenizer_word_splits_embedded_latin() -> None:
    assert CJK.tokenize("iPhone在中国") == ["iphone", "在中", "中国"]


def test_cjk_tokenizer_keeps_short_runs_whole() -> None:
    assert CJK.tokenize("中 a") == ["中", "a"]


def test_cjk_tokenizer_splits_runs_at_non_cjk() -> None:
    # The space breaks the run, so no bigram spans it.
    assert CJK.tokenize("東京 大阪") == ["東京", "大阪"]


# The per-character tokenizer the regex split replaced, kept as the oracle.
ORACLE_CJK_RANGES = (
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


def oracle_cjk_tokenize(text: str, ngram: int) -> list[str]:
    def is_cjk(ch: str) -> bool:
        return any(lo <= ord(ch) <= hi for lo, hi in ORACLE_CJK_RANGES)

    tokens: list[str] = []
    run: list[str] = []
    other: list[str] = []

    def flush_run() -> None:
        if not run:
            return
        joined = "".join(run)
        if len(joined) < ngram:
            tokens.append(joined)
        else:
            tokens.extend(joined[i : i + ngram] for i in range(len(joined) - ngram + 1))
        run.clear()

    def flush_other() -> None:
        if other:
            tokens.extend(re.findall(r"[^\W_]+", "".join(other).lower()))
            other.clear()

    for ch in text:
        if is_cjk(ch):
            flush_other()
            run.append(ch)
        else:
            flush_run()
            other.append(ch)
    flush_run()
    flush_other()
    return tokens


# Both ends of every CJK range and the code points just outside them.
RANGE_EDGES = [
    chr(code)
    for lo, hi in ORACLE_CJK_RANGES
    for code in (lo - 1, lo, hi, hi + 1)
]
MIXED_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(RANGE_EDGES + list(" _-.,1aZéß東京한국タ\n")),
        st.characters(),
    ),
    max_size=40,
)


@given(text=MIXED_TEXT, ngram=st.integers(min_value=1, max_value=3))
@settings(max_examples=400, deadline=None)
def test_cjk_tokenizer_matches_per_character_oracle(text: str, ngram: int) -> None:
    assert Tokenizer(mode="cjk-ngram", ngram=ngram).tokenize(text) == oracle_cjk_tokenize(
        text, ngram
    )


def test_cjk_tokenizer_range_edges_match_oracle() -> None:
    edges = "".join(RANGE_EDGES)
    for ngram in (1, 2, 3):
        tokenizer = Tokenizer(mode="cjk-ngram", ngram=ngram)
        for text in (edges, " ".join(RANGE_EDGES), "a" + edges + "b", edges[:2]):
            assert tokenizer.tokenize(text) == oracle_cjk_tokenize(text, ngram)


def test_tokenizer_validates_configuration() -> None:
    with pytest.raises(TotsimError):
        Tokenizer(mode="byte-pair")
    with pytest.raises(TotsimError):
        Tokenizer(mode="cjk-ngram", ngram=0)


@pytest.mark.parametrize("ngram", [2.0, True, "2"])
def test_tokenizer_refuses_an_ngram_that_is_not_an_integer(ngram) -> None:
    with pytest.raises(TotsimError, match="ngram must be an integer"):
        Tokenizer(mode="cjk-ngram", ngram=ngram)


def test_tokenizer_dict_round_trip() -> None:
    tokenizer = Tokenizer(mode="cjk-ngram", ngram=3)
    assert Tokenizer.from_dict(tokenizer.to_dict()) == tokenizer


def test_tokenizer_for_language() -> None:
    for code in ("zh", "ja", "ko"):
        assert tokenizer_for_language(code).mode == "cjk-ngram"
    assert tokenizer_for_language("en").mode == "whitespace"
    assert tokenizer_for_language("de").mode == "whitespace"


def test_build_index_statistics() -> None:
    index = fish_index()
    assert index.doc_count == 3
    assert index.collection_length == 8
    assert index.avg_doc_length == pytest.approx(8 / 3)
    assert dict(zip(index.doc_ids, index.doc_lengths.tolist())) == {"a": 4, "b": 2, "c": 2}
    fish = index.term_id("fish")
    span = slice(index.offsets[fish], index.offsets[fish + 1])
    postings = zip(index.postings_docs[span].tolist(), index.postings_tfs[span].tolist())
    assert {index.doc_ids[doc]: tf for doc, tf in postings} == {"a": 2, "c": 1}
    # each term's document frequency is the length of its postings slice
    df = (index.offsets[1:] - index.offsets[:-1]).tolist()
    assert dict(zip(index.terms, df)) == {"blue": 1, "car": 1, "fish": 2, "green": 1, "red": 2}
    ctf = index.term_ctf.tolist()
    assert dict(zip(index.terms, ctf)) == {"blue": 1, "car": 1, "fish": 3, "green": 1, "red": 2}
    assert index.term_id("absent") is None


def test_build_index_ignores_titles_and_aliases() -> None:
    corpus = make_corpus(
        "en", make_doc("a", title="unique_title", aliases=("secret",), body="plain words")
    )
    index = build_index(corpus, WS)
    assert index.terms == ["plain", "words"]
    assert index.term_id("unique_title") is None
    assert index.term_id("secret") is None


def reference_index(docs, tokenizer: Tokenizer) -> dict[str, list[int]]:
    """The CSR arrays and term totals of ``docs``, built term by term from per-document counts."""
    ordered = sorted(docs, key=lambda doc: doc.doc_id)
    counts = [Counter(tokenizer.tokenize(doc.body)) for doc in ordered]
    terms = sorted(set().union(*counts))
    postings = [
        [(number, count[term]) for number, count in enumerate(counts) if term in count]
        for term in terms
    ]
    return {
        "offsets": list(accumulate(map(len, postings), initial=0)),
        "postings_docs": [number for slice_ in postings for number, _ in slice_],
        "postings_tfs": [tf for slice_ in postings for _, tf in slice_],
        "doc_lengths": [sum(count.values()) for count in counts],
        "term_ctf": [sum(count[term] for count in counts) for term in terms],
        "terms": terms,
        "doc_ids": [doc.doc_id for doc in ordered],
    }


class DocList(list):
    """Documents in the order given, unlike a corpus, which iterates by id."""

    language = "zz"


BODY = st.one_of(
    # a small alphabet repeats tokens, and bodies of spaces and marks have none
    st.text(alphabet=st.sampled_from(list("東京都한국タab B1 ,_")), max_size=30),
    MIXED_TEXT,
)


@given(
    bodies=st.lists(BODY, max_size=8),
    tokenizer=st.builds(
        Tokenizer,
        mode=st.sampled_from(["cjk-ngram", "whitespace"]),
        ngram=st.integers(min_value=1, max_value=3),
    ),
    shuffle=st.randoms(use_true_random=False),
)
@example(bodies=[], tokenizer=CJK, shuffle=random.Random(0))
@example(bodies=["", " ,_", "東京東京 ab ab"], tokenizer=CJK, shuffle=random.Random(0))
@settings(max_examples=300, deadline=None)
def test_build_index_matches_a_naive_reference(
    bodies: list[str], tokenizer: Tokenizer, shuffle: random.Random
) -> None:
    docs = DocList(make_doc(f"d{number:02d}", body=body) for number, body in enumerate(bodies))
    shuffle.shuffle(docs)
    index = build_index(docs, tokenizer)
    expected = reference_index(docs, tokenizer)
    for name, values in expected.items():
        assert list(getattr(index, name)) == values, name
    arrays = [index.offsets, index.postings_docs, index.postings_tfs, index.doc_lengths]
    assert [array.dtype for array in arrays] == [np.int64, np.int32, np.int32, np.int64]


@pytest.mark.parametrize("documents", [1000, 4000])
def test_build_index_memory_per_posting(documents: int) -> None:
    rng = random.Random(documents)
    vocabulary = [f"w{number}" for number in range(1000)]
    corpus = make_corpus(
        "en",
        *(
            make_doc(f"d{number:05d}", body=" ".join(rng.choices(vocabulary, k=300)))
            for number in range(documents)
        ),
    )
    build_index(make_corpus("en", make_doc()), WS)  # loads what the build imports
    tracemalloc.start()
    try:
        index = build_index(corpus, WS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a Python int per posting, or a list slot holding one, would cost more
    assert peak <= 40 * len(index.postings_docs)


def test_index_round_trip_is_byte_identical(tmp_path: Path) -> None:
    index = fish_index()
    first = tmp_path / "first.npz"
    second = tmp_path / "second.npz"
    save_index(index, first)
    loaded = load_index(first)
    save_index(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert INDEX_FORMAT.encode("utf-8") in first.read_bytes()
    assert score_bm25("red fish", loaded) == score_bm25("red fish", index)


def test_index_bytes_do_not_depend_on_corpus_order(tmp_path: Path) -> None:
    docs = [make_doc(f"d{i}", body=f"w{i % 3} w{i % 5} shared") for i in range(12)]
    shuffled = docs[:]
    random.Random(5).shuffle(shuffled)
    assert shuffled != docs
    save_index(build_index(make_corpus("en", *docs), WS), tmp_path / "sorted.npz")
    save_index(build_index(make_corpus("en", *shuffled), WS), tmp_path / "shuffled.npz")
    assert (tmp_path / "sorted.npz").read_bytes() == (tmp_path / "shuffled.npz").read_bytes()


def test_load_index_rejects_foreign_files(tmp_path: Path) -> None:
    path = tmp_path / "bad.npz"
    path.write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(TotsimError):
        load_index(path)
    # A version-1 index was a single JSON document.
    path.write_text(
        '{"format": "totsim-index", "version": 1, "postings": {}}', encoding="utf-8"
    )
    with pytest.raises(TotsimError, match="version"):
        load_index(path)
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("other.npy", b"not an index")
    with pytest.raises(TotsimError):
        load_index(path)
    good = tmp_path / "good.npz"
    save_index(fish_index(), good)
    with zipfile.ZipFile(good) as source, zipfile.ZipFile(path, "w") as archive:
        for name in source.namelist():
            data = source.read(name)
            if name == "meta.npy":
                data = data.replace(b'"version":2', b'"version":9')
            archive.writestr(name, data)
    with pytest.raises(TotsimError, match="version 9"):
        load_index(path)
    # A well-formed archive whose arrays disagree is rejected too.
    with zipfile.ZipFile(good) as source, zipfile.ZipFile(path, "w") as archive:
        for name in source.namelist():
            data = source.read(name)
            if name == "doc_lengths.npy":
                buffer = io.BytesIO()
                np.save(buffer, np.array([4, 2], dtype=np.int64))
                data = buffer.getvalue()
            archive.writestr(name, data)
    with pytest.raises(TotsimError, match="do not fit"):
        load_index(path)


@pytest.mark.parametrize(
    ("spoil", "message"),
    [pytest.param(spoil, message, id=case) for spoil, message, case in SPOILED_INDEX_META],
)
def test_load_index_refuses_a_spoiled_meta(tmp_path: Path, spoil, message: str) -> None:
    # two terms, so a terms string of two characters would fit the arrays
    path = tmp_path / "index.npz"
    save_index(build_index(make_corpus("en", make_doc("a", body="ab ab cd")), WS), path)
    edit_index_meta(path, spoil)
    with pytest.raises(TotsimError, match=re.escape(f"{path}: index meta: {message}")):
        load_index(path)


def test_load_index_names_the_file_whose_arrays_do_not_fit(tmp_path: Path) -> None:
    path = tmp_path / "index.npz"
    docs = (make_doc("a", body="ab ab cd"), make_doc("b", body="cd"))
    save_index(build_index(make_corpus("en", *docs), WS), path)
    edit_index_meta(path, lambda meta: meta["doc_ids"].pop())
    with pytest.raises(
        TotsimError, match=re.escape(f"{path}: en index: postings arrays do not fit together")
    ):
        load_index(path)


def test_bm25_matches_hand_computed_scores() -> None:
    ranking = score_bm25("red fish", fish_index(), k1=1.2, b=0.75)
    assert [doc for doc, _ in ranking] == ["a", "b", "c"]
    scores = dict(ranking)
    assert scores["a"] == pytest.approx(0.9567714096509212, abs=1e-12)
    assert scores["b"] == pytest.approx(0.523548346501579, abs=1e-12)
    assert scores["c"] == pytest.approx(0.523548346501579, abs=1e-12)


def test_bm25_counts_repeated_query_tokens_twice() -> None:
    ranking = dict(score_bm25("fish fish", fish_index(), k1=1.2, b=0.75))
    assert ranking["a"] == pytest.approx(1.1331594348938285, abs=1e-12)


def test_bm25_breaks_score_ties_by_doc_id() -> None:
    # b and c score identically on this query, so order falls back to id.
    ranking = score_bm25("red fish", fish_index(), k1=1.2, b=0.75)
    assert [doc for doc, _ in ranking[1:]] == ["b", "c"]


def mirrored_index() -> InvertedIndex:
    # a and b hold the same term frequencies on mirrored terms, so every
    # system scores them from the same multiset of addends.
    corpus = make_corpus(
        "en",
        make_doc("a", body="x y y z z z"),
        make_doc("b", body="x x x y y z"),
        make_doc("c", body="w w w"),
    )
    return build_index(corpus, WS)


@pytest.mark.parametrize(
    "score",
    [
        lambda query, index: score_bm25(query, index, k1=1.2, b=0.75),
        lambda query, index: score_ql_dirichlet(query, index, mu=10.0),
    ],
    ids=["bm25", "ql"],
)
def test_exact_ties_break_by_doc_id_whatever_the_term_order(score) -> None:
    index = mirrored_index()
    for query in ("x y z", "z y x", "y z x"):
        ranking = score(query, index)
        assert [doc for doc, _ in ranking] == ["a", "b"]
        assert ranking[0][1] == ranking[1][1]


def test_bm25_ignores_unknown_tokens_and_empty_queries() -> None:
    index = fish_index()
    assert score_bm25("zebra", index) == []
    assert score_bm25("", index) == []
    with_known = score_bm25("zebra fish", index)
    assert [doc for doc, _ in with_known] == ["a", "c"]


def test_bm25_depth_truncation() -> None:
    ranking = score_bm25("fish red", fish_index(), depth=1)
    assert len(ranking) == 1
    assert ranking[0][0] == "a"


def test_ql_dirichlet_matches_hand_computed_scores() -> None:
    ranking = score_ql_dirichlet("red fish", fish_index(), mu=10.0)
    assert [doc for doc, _ in ranking] == ["a", "b", "c"]
    scores = dict(ranking)
    assert scores["a"] == pytest.approx(-2.27615183592589, abs=1e-12)
    assert scores["b"] == pytest.approx(-2.395294491098313, abs=1e-12)
    assert scores["c"] == pytest.approx(-2.4953779496552957, abs=1e-12)


def test_ql_drops_tokens_missing_from_collection() -> None:
    with_unknown = score_ql_dirichlet("zebra red fish", fish_index(), mu=10.0)
    without = score_ql_dirichlet("red fish", fish_index(), mu=10.0)
    assert with_unknown == without
    assert score_ql_dirichlet("zebra", fish_index(), mu=10.0) == []


def naive_bm25(query: str, corpus, tokenizer: Tokenizer, k1: float, b: float) -> dict[str, float]:
    """Reference scorer: full scan, no inverted index."""
    docs = {d.doc_id: tokenizer.tokenize(d.body) for d in corpus}
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n
    scores: dict[str, float] = {}
    query_tokens = tokenizer.tokenize(query)
    for doc_id, tokens in docs.items():
        score = 0.0
        hit = False
        for token in query_tokens:
            tf = tokens.count(token)
            if tf == 0:
                continue
            df = sum(1 for other in docs.values() if token in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(tokens) / avgdl))
            hit = True
        if hit:
            scores[doc_id] = score
    return scores


def test_bm25_agrees_with_naive_full_scan() -> None:
    words = ["apple", "pear", "plum", "fig", "date", "kiwi"]
    docs = [
        make_doc(f"d{i:02d}", body=" ".join(words[(i + j) % len(words)] for j in range(i % 7 + 2)))
        for i in range(25)
    ]
    corpus = make_corpus("en", *docs)
    index = build_index(corpus, WS)
    for query in ("apple fig", "plum plum date", "kiwi"):
        expected = naive_bm25(query, corpus, WS, k1=0.9, b=0.4)
        got = dict(score_bm25(query, index, k1=0.9, b=0.4))
        assert set(got) == set(expected)
        for doc_id, score in expected.items():
            assert got[doc_id] == pytest.approx(score, abs=1e-9)


def test_retrieval_system_validation() -> None:
    with pytest.raises(TotsimError, match="k1 and b"):
        RetrievalSystem(system_id="s", kind="bm25", k1=1.0)
    with pytest.raises(TotsimError, match="mu"):
        RetrievalSystem(system_id="s", kind="ql-dirichlet")
    # external systems enter a pool only as run files
    for kind in ("external", "dense"):
        with pytest.raises(TotsimError, match="unknown kind"):
            RetrievalSystem(system_id="s", kind=kind)


def test_default_pool_has_seven_fixed_systems() -> None:
    pool = default_lexical_pool()
    assert [s.system_id for s in pool] == [
        "bm25-k0.9-b0.4",
        "bm25-k1.2-b0.75",
        "bm25-k2.0-b0.75",
        "bm25-k1.2-b0.4",
        "qld-mu500",
        "qld-mu1000",
        "qld-mu2000",
    ]


def search(
    tmp_path: Path, systems: list[RetrievalSystem], queries: dict[str, str], index: InvertedIndex
) -> tuple[dict[str, dict[str, int]], list[RunResult]]:
    """``run_search`` into ``tmp_path`` without qrels: its ranks, and each run file read back."""
    paths = [tmp_path / f"{system.system_id}.run" for system in systems]
    ranks = run_search(systems, queries, index, {}, paths)
    return ranks, [read_run(path, queries) for path in paths]


def test_run_search_writes_each_systems_run_file(tmp_path: Path) -> None:
    index = fish_index()
    system = RetrievalSystem(system_id="bm25-test", kind="bm25", k1=1.2, b=0.75)
    path = tmp_path / "out.run"
    assert run_search([system], {"q2": "green", "q1": "red fish"}, index, {}, [path]) == {
        "bm25-test": {}
    }
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [line.split()[0] for line in lines] == ["q1", "q1", "q1", "q2"]
    run = read_run(path, ["q1", "q2"])
    assert run.rankings["q1"] == score_bm25("red fish", index, k1=1.2, b=0.75)
    top = run.rankings["q1"][0][1]
    assert lines[0].split() == ["q1", "Q0", "a", "1", repr(top), "bm25-test"]
    assert len(lines) == 4
    # repr round trips the float exactly
    assert float(lines[0].split()[4]) == top


def test_a_pool_tokenizes_each_query_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    queries = {"q1": "red fish", "q2": "green", "q3": "zebra", "q4": "Red  FISH"}
    pool = default_lexical_pool()
    # each system searching on its own is the reference
    expected = []
    for system in pool:
        _, [run] = search(tmp_path, [system], queries, fish_index())
        expected.append(run.rankings)
    index = fish_index()
    calls: list[str] = []
    tokenize = Tokenizer.tokenize

    def counting(self: Tokenizer, text: str) -> list[str]:
        calls.append(text)
        return tokenize(self, text)

    monkeypatch.setattr(Tokenizer, "tokenize", counting)
    ranks, runs = search(tmp_path, pool, queries, index)
    assert sorted(calls) == sorted(queries.values())
    assert list(ranks) == [run.system_id for run in runs] == [s.system_id for s in pool]
    assert [run.rankings for run in runs] == expected


def test_external_run_round_trip(tmp_path: Path) -> None:
    index = fish_index()
    system = RetrievalSystem(system_id="qld-mu500", kind="ql-dirichlet", mu=500.0)
    queries = {"q1": "red fish", "q2": "green"}
    path = tmp_path / "out.run"
    run_search([system], queries, index, {}, [path])
    loaded = read_run(path, ["q1", "q2"])
    assert loaded.system_id == "qld-mu500"
    expected = {q: score_ql_dirichlet(text, index, mu=500.0) for q, text in queries.items()}
    assert loaded.rankings == expected


def test_a_failed_search_leaves_no_run_file(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    rank_pool = retrieval._rank_pool

    def failing(query: str, *args):
        if query == "green":
            raise TotsimError("scoring failed")
        return rank_pool(query, *args)

    monkeypatch.setattr(retrieval, "_rank_pool", failing)
    pool = default_lexical_pool()
    paths = [tmp_path / f"{system.system_id}.run" for system in pool]
    # q1 is ranked and written before q2 fails
    with pytest.raises(TotsimError, match="scoring failed"):
        run_search(pool, {"q1": "red fish", "q2": "green"}, fish_index(), {}, paths)
    assert list(tmp_path.iterdir()) == []


WORDS = ("red", "fish", "blue", "car")


@st.composite
def search_cases(draw) -> tuple[list[str], dict[str, str], dict[str, str], int]:
    """A corpus over a few words, so scores tie often, with queries, qrels and a depth."""
    bodies = draw(
        st.lists(st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join), min_size=1, max_size=6)
    )
    # "zebra" matches no document
    texts = st.lists(st.sampled_from(WORDS + ("zebra",)), max_size=3).map(" ".join)
    queries = draw(st.dictionaries(st.sampled_from(["q0", "q1", "q2", "q3"]), texts, max_size=4))
    # qrels may name queries that were not searched and documents the index lacks
    targets = st.sampled_from([f"d{i}" for i in range(len(bodies))] + ["absent"])
    qrels = draw(st.dictionaries(st.sampled_from(["q0", "q1", "q2", "q3", "q4"]), targets))
    return bodies, queries, qrels, draw(st.integers(1, len(bodies)))


# q0's target d0 is second after the shorter d1: at the depth, then below it
BOUNDARY = (["red fish", "red", "fish"], {"q0": "red", "q1": "zebra"}, {"q0": "d0", "q2": "d1"})


@given(case=search_cases())
@example(case=(*BOUNDARY, 1))
@example(case=(*BOUNDARY, 2))
@settings(max_examples=100, deadline=None)
def test_run_search_writes_the_reference_rankings_and_their_target_ranks(
    tmp_path_factory, case: tuple[list[str], dict[str, str], dict[str, str], int]
) -> None:
    bodies, queries, qrels, depth = case
    docs = [make_doc(f"d{i}", body=body) for i, body in enumerate(bodies)]
    index = build_index(make_corpus("en", *docs), WS)
    pool = default_lexical_pool()
    tmp = tmp_path_factory.mktemp("search")
    paths = [tmp / f"{system.system_id}.run" for system in pool]
    ranks = run_search(pool, queries, index, qrels, paths, depth=depth)
    assert list(ranks) == [system.system_id for system in pool]
    for system, path in zip(pool, paths):
        if system.kind == "bm25":
            expected = {
                q: score_bm25(text, index, k1=system.k1, b=system.b, depth=depth)
                for q, text in queries.items()
            }
        else:
            expected = {
                q: score_ql_dirichlet(text, index, mu=system.mu, depth=depth)
                for q, text in queries.items()
            }
        assert read_run(path, queries, depth).rankings == expected
        # queries are written in sorted order, and those without candidates not at all
        written = [line.split()[0] for line in path.read_text(encoding="utf-8").splitlines()]
        assert written == sorted(written)
        assert set(written) == {q for q, ranking in expected.items() if ranking}
        # one rank row per qrels query: the target's position in the reference, or 0
        rows = {}
        for query_id, doc_id in qrels.items():
            doc_ids = [doc for doc, _ in expected.get(query_id, [])]
            rows[query_id] = doc_ids.index(doc_id) + 1 if doc_id in doc_ids else 0
        assert ranks[system.system_id] == rows


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_external_run_validates_format(tmp_path: Path) -> None:
    path = tmp_path / "bad.run"
    write_lines(path, ["q1 Q0 d1 1 0.5"])
    with pytest.raises(RunFileError, match="6 columns"):
        load_external_run(path, {"q1": "d1"})
    write_lines(path, ["q1 Q0 d1 one 0.5 sys"])
    with pytest.raises(RunFileError, match="line 1"):
        load_external_run(path, {"q1": "d1"})
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d2 2 0.4 other"])
    with pytest.raises(RunFileError, match="mixed system tags"):
        load_external_run(path, {"q1": "d1"})
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d1 2 0.4 sys"])
    with pytest.raises(RunFileError, match="duplicate document"):
        load_external_run(path, {"q1": "d1"})
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d2 1 0.4 sys"])
    with pytest.raises(RunFileError, match="does not increase"):
        load_external_run(path, {"q1": "d1"})
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d2 2 0.9 sys"])
    with pytest.raises(RunFileError, match="score increases"):
        load_external_run(path, {"q1": "d1"})


def test_external_run_rejects_nan_scores(tmp_path: Path) -> None:
    # a NaN compares false with every score, so it hid the rise from 0.5 to 0.9
    path = tmp_path / "nan.run"
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d2 2 nan sys", "q1 Q0 d3 3 0.9 sys"])
    with pytest.raises(RunFileError, match="line 2: score is NaN"):
        load_external_run(path, {"q1": "d1"})
    write_lines(path, ["q1 Q0 d1 1 NaN sys", "q1 Q0 d2 2 0.5 sys"])
    with pytest.raises(RunFileError, match="line 1: score is NaN"):
        load_external_run(path, {"q1": "d1"})


def test_external_run_fills_missing_queries(
    tmp_path: Path, caplog: pytest.LogCaptureFixture
) -> None:
    path = write_lines(tmp_path / "run.run", ["q1 Q0 d1 1 0.5 sys"])
    with caplog.at_level("WARNING"):
        ranks = load_external_run(path, {"q1": "d1", "q2": "d1"})
    assert ranks == {"q1": 1, "q2": 0}
    assert any("1 expected queries missing" in r.message for r in caplog.records)


def test_external_run_drops_queries_outside_expected_set(
    tmp_path: Path, caplog: pytest.LogCaptureFixture
) -> None:
    path = write_lines(
        tmp_path / "run.run", ["q1 Q0 d1 1 0.5 sys", "stray Q0 d2 1 0.7 sys"]
    )
    with caplog.at_level("INFO"):
        ranks = load_external_run(path, {"q1": "d1"})
    assert ranks == {"q1": 1}
    assert any("dropping 1 queries" in r.message for r in caplog.records)


def test_external_run_ranks_only_the_first_depth_documents(tmp_path: Path) -> None:
    path = write_lines(
        tmp_path / "run.run",
        ["q1 Q0 d1 1 0.9 sys", "q1 Q0 d2 2 0.8 sys", "q1 Q0 d3 3 0.7 sys"],
    )
    assert read_run(path, ["q1"], depth=2).rankings["q1"] == [("d1", 0.9), ("d2", 0.8)]
    assert load_external_run(path, {"q1": "d2"}, depth=2) == {"q1": 2}
    assert load_external_run(path, {"q1": "d3"}, depth=2) == {"q1": 0}
    assert load_external_run(path, {"q1": "d3"}, depth=3) == {"q1": 3}


@st.composite
def run_files(draw) -> tuple[list[str], dict[str, str], int]:
    """Shuffled run-file lines with tied scores and gaps between ranks, targets and a depth.

    Targets name file queries and queries the file lacks; some file queries
    have no target, and a target may sit at the depth, one below it, or
    nowhere in its query's ranking.
    """
    lines = []
    counts = draw(st.dictionaries(st.sampled_from(["q0", "q1", "q2", "q3"]), st.integers(1, 5)))
    for query_id, count in counts.items():
        ranks = sorted(draw(st.sets(st.integers(1, 20), min_size=count, max_size=count)))
        # scores drawn from few values, so neighbours often tie
        scores = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=count, max_size=count))
        scores.sort(reverse=True)
        for rank, score in zip(ranks, scores):
            lines.append(f"{query_id} Q0 d{rank} {rank} {score!r} sys")
    lines = draw(st.permutations(lines))
    doc_ids = st.sampled_from([f"d{rank}" for rank in range(1, 21)])
    targets = draw(st.dictionaries(st.sampled_from(["q0", "q1", "q2", "q3", "q4"]), doc_ids))
    return lines, targets, draw(st.integers(1, 6))


# q0 ranks d1, d2, d3: its target d3 is at depth 3, then one below depth 2;
# q1 is not in the file, and q2 in the file has no target
AT_DEPTH = (
    ["q0 Q0 d3 3 0.5 sys", "q2 Q0 d9 1 0.1 sys", "q0 Q0 d1 1 0.5 sys", "q0 Q0 d2 2 0.5 sys"],
    {"q0": "d3", "q1": "d1"},
)


@given(case=run_files())
@example(case=(*AT_DEPTH, 3))
@example(case=(*AT_DEPTH, 2))
@settings(max_examples=150, deadline=None)
def test_external_run_ranks_match_a_reference_read_of_the_file(
    tmp_path_factory, case: tuple[list[str], dict[str, str], int]
) -> None:
    lines, targets, depth = case
    path = write_lines(tmp_path_factory.mktemp("runs") / "sys.run", lines)
    # the reference sorts each query's lines by rank, cuts them at the depth
    # and takes the target's position
    reference = read_run(path, targets, depth).target_ranks(targets)
    assert load_external_run(path, targets, depth) == reference
    assert list(reference) == list(targets)


def test_default_depth() -> None:
    assert DEFAULT_DEPTH == 1000


# Where orjson's shortest round-trip text and repr's could part: zeros,
# both ends of [1e-4, 1e16) and the extremes of the double range.
EDGE_SCORES = [
    0.0,
    -0.0,
    1e-4,
    math.nextafter(1e-4, 0.0),
    1e16,
    math.nextafter(1e16, 0.0),
    5e-324,
    sys.float_info.max,
]


@given(
    scores=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8
    )
)
@example(scores=EDGE_SCORES)
@example(scores=[-score for score in EDGE_SCORES])
@settings(max_examples=200, deadline=None)
def test_run_file_round_trip_preserves_scores(tmp_path_factory, scores: list[float]) -> None:
    ordered = sorted(scores, reverse=True)
    rankings = {"q1": [(f"d{i}", s) for i, s in enumerate(ordered)]}
    run = RunResult(system_id="sys", rankings=rankings)
    path = tmp_path_factory.mktemp("runs") / "out.run"
    doc_ids, values = zip(*run.rankings["q1"])
    ranks = [f" {rank} " for rank in range(1, len(values) + 1)]
    path.write_bytes(_run_lines("q1", run.system_id, doc_ids, ranks, np.array(values)))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [line.split()[4] for line in lines] == [repr(score) for score in ordered]
    loaded = read_run(path, ["q1"])
    assert loaded.rankings == rankings


def test_importing_the_cli_does_not_load_numpy() -> None:
    # numpy and orjson are loaded by the index, search and run-writing code
    # paths only, array by the index build only, and requests (with urllib3) by
    # the HTTP backend only, so stages that never index, search or call a
    # hosted model keep their footprint.
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = {"array", "numpy", "orjson", "requests", "urllib3"}
    code = f"import sys; import totsim.cli; print({heavy!r} & set(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "set()"
