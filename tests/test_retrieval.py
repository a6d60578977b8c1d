"""Tokenization, indexing, scoring oracles, and run file IO."""

from __future__ import annotations

import io
import json
import math
import random
import re
import struct
import subprocess
import sys
import tracemalloc
import zipfile
from collections import Counter
from dataclasses import replace
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import totsim.retrieval as retrieval
from conftest import (
    DISORDERED_INDEX_META,
    SPOILED_INDEX_ARRAYS,
    SPOILED_INDEX_META,
    TOY_DIR,
    edit_index_array,
    edit_index_meta,
    make_corpus,
    make_doc,
    read_run,
)
from totsim.corpus import CorpusFile
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
from totsim.retrieval import _ranking_bytes
from totsim.util import dump_json
from totsim.vocabulary import Vocabulary, decode, parse_meta

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


@given(
    text=MIXED_TEXT,
    mode=st.sampled_from(["cjk-ngram", "whitespace"]),
    ngram=st.integers(min_value=1, max_value=3),
)
@example(text="a ab abc 𠮷 𠮷野 東京都 東", mode="cjk-ngram", ngram=2)
@settings(max_examples=400, deadline=None)
def test_packed_tokens_are_the_tokens(text: str, mode: str, ngram: int) -> None:
    tokenizer = Tokenizer(mode=mode, ngram=ngram)
    codes, longer = tokenizer.packed_tokens(text)
    assert codes.dtype == np.uint64
    assert all(len(token) > 2 for token in longer)
    assert Counter(decode(codes) + longer) == Counter(tokenizer.tokenize(text))


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


@pytest.mark.parametrize(
    ("code", "mode", "expected"), [("zh", "whitespace", WS), ("zz", "cjk-ngram", CJK)]
)
def test_a_configured_tokenizer_mode_overrides_the_language_default(
    code: str, mode: str, expected: Tokenizer
) -> None:
    assert tokenizer_for_language(code, mode) == expected


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
    assert index.term_id("absent") is None
    # fish's collection frequency is 3, so its Dirichlet prior is mu * 3 / 8
    prior = 10.0 * 3 / 8
    assert score_ql_dirichlet("fish", index, mu=10.0) == [
        ("a", pytest.approx(math.log((2 + prior) / (4 + 10.0)), abs=1e-12)),
        ("c", pytest.approx(math.log((1 + prior) / (2 + 10.0)), abs=1e-12)),
    ]


def test_build_index_ignores_titles_and_aliases() -> None:
    corpus = make_corpus(
        "en", make_doc("a", title="unique_title", aliases=("secret",), body="plain words")
    )
    index = build_index(corpus, WS)
    assert index.terms == ["plain", "words"]
    assert index.term_id("unique_title") is None
    assert index.term_id("secret") is None


def reference_index(docs, tokenizer: Tokenizer) -> dict[str, list[int]]:
    """The CSR arrays of ``docs``, built term by term from per-document counts."""
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
        "terms": terms,
        "doc_ids": [doc.doc_id for doc in ordered],
    }


PREFIX_WORDS = ["a", "ab", "abc", "𠮷", "𠮷野", "𠮷野家", "東", "東京", "東京都"]


class DocList(list):
    """Documents in the order given, unlike a corpus, which iterates by id."""

    language = "zz"


BODY = st.one_of(
    # a small alphabet repeats tokens, and bodies of spaces and marks have none
    st.text(alphabet=st.sampled_from(list("東京都한국タab B1 ,_")), max_size=30),
    MIXED_TEXT,
    # words either side of the two-code-point boundary, packed terms and str
    # terms sharing their prefixes, supplementary-plane points among them
    st.lists(st.sampled_from(PREFIX_WORDS) | MIXED_TEXT, max_size=6).map(" ".join),
    # one token hundreds of times, so a term count needs many bits of the sort key
    st.builds(
        lambda token, count, tail: f"{token} " * count + tail,
        st.sampled_from(["ab", "東京", "b1"]),
        st.integers(min_value=100, max_value=700),
        st.text(alphabet=st.sampled_from(list("東京ab ")), max_size=8),
    ),
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
@example(bodies=["ab " * 700, "", "b1 " * 300 + "ab"], tokenizer=WS, shuffle=random.Random(0))
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


@given(
    bodies=st.lists(BODY, min_size=1, max_size=8),
    tokenizer=st.sampled_from([CJK, WS]),
    terms_per_range=st.integers(min_value=1, max_value=3),
)
@example(bodies=["red fish blue fish", "red car", "ab " * 700], tokenizer=WS, terms_per_range=1)
@settings(max_examples=200, deadline=None)
def test_build_index_sorts_keys_that_would_overflow_a_range_of_terms_at_a_time(
    bodies: list[str], tokenizer: Tokenizer, terms_per_range: int
) -> None:
    docs = DocList(make_doc(f"d{number:02d}", body=body) for number, body in enumerate(bodies))
    expected = reference_index(docs, tokenizer)
    span = max(expected["postings_tfs"], default=0) + 1
    assume(len(expected["terms"]) > terms_per_range)  # at least two ranges
    # the keys of one more term per range would reach the limit
    limit = terms_per_range * len(docs) * span
    with mock.patch.object(retrieval, "_KEY_LIMIT", limit):
        index = build_index(docs, tokenizer)
    for name, values in expected.items():
        assert list(getattr(index, name)) == values, name


def postings_heavy_corpus(documents: int):
    """``documents`` bodies of 300 words drawn from 1,000, about 260 postings each."""
    rng = random.Random(documents)
    vocabulary = [f"w{number}" for number in range(1000)]
    return make_corpus(
        "en",
        *(
            make_doc(f"d{number:05d}", body=" ".join(rng.choices(vocabulary, k=300)))
            for number in range(documents)
        ),
    )


@pytest.fixture(scope="module")
def postings_heavy_index() -> InvertedIndex:
    return build_index(postings_heavy_corpus(4000), WS)


@pytest.mark.parametrize("documents", [1000, 4000])
def test_build_index_memory_per_posting(documents: int) -> None:
    corpus = postings_heavy_corpus(documents)
    build_index(make_corpus("en", make_doc()), WS)  # loads what the build imports
    tracemalloc.start()
    try:
        index = build_index(corpus, WS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 sort keys and the two int32 outputs are 16 B; a permutation
    # and gathered copies of the postings, or a Python int per posting, cost more
    assert peak <= 20 * len(index.postings_docs)


class StreamedCorpus:
    """``documents`` bodies of 3,199 characters, made one at a time, out of id order.

    Each body is 100 words of 31 characters drawn from 40, so its text
    outweighs its postings.
    """

    language = "en"

    def __init__(self, documents: int):
        self.documents = documents

    def __iter__(self):
        rng = random.Random(self.documents)
        words = rng.choices([f"w{number:02d}" + "x" * 28 for number in range(40)], k=12_000)
        for number in range(self.documents):
            start = number * 7 % 11_000
            doc_id = f"d{number * 7919 % self.documents:05d}"
            yield make_doc(doc_id, body=" ".join(words[start : start + 100]))


def test_build_index_holds_no_corpus_it_reads() -> None:
    corpus = StreamedCorpus(2000)
    body_bytes = sum(len(doc.body) for doc in corpus)
    assert body_bytes > 5_000_000
    build_index(make_corpus("en", make_doc()), WS)  # loads what the build imports
    tracemalloc.start()
    try:
        index = build_index(corpus, WS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding every article (as sorting them would) takes more than their text
    assert peak < body_bytes / 2
    held = build_index(make_corpus("en", *corpus), WS)
    assert (index.doc_ids, index.terms) == (held.doc_ids, held.terms)
    for name in retrieval._INDEX_ARRAYS:
        assert np.array_equal(getattr(index, name), getattr(held, name)), name


def test_save_index_copies_no_postings_array(
    tmp_path: Path, postings_heavy_index: InvertedIndex
) -> None:
    path = tmp_path / "en.npz"
    save_index(postings_heavy_index, path)  # loads what saving imports
    tracemalloc.start()
    try:
        save_index(postings_heavy_index, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with zipfile.ZipFile(path) as archive:
        meta_bytes = archive.getinfo("meta.npy").file_size
        postings_bytes = archive.getinfo("postings_docs.npy").file_size
    assert postings_bytes > 50 * meta_bytes
    # the meta's bytes (orjson keeps a buffer of up to twice their length), not a postings copy
    assert peak < 2 * meta_bytes + 64 * 1024


def test_load_index_holds_little_beyond_the_index_it_returns(
    tmp_path: Path, postings_heavy_index: InvertedIndex
) -> None:
    path = tmp_path / "en.npz"
    save_index(postings_heavy_index, path)
    load_index(path)  # loads what loading imports
    tracemalloc.start()
    try:
        index = load_index(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(index.postings_tfs, postings_heavy_index.postings_tfs)
    # an int64 copy of the term counts would take half the index again, a bool
    # array over the postings an eighth, and numpy.load's 256 KiB read pieces,
    # two alive at a time, a sixteenth: the bound admits none of those
    assert peak <= 1.05 * retained


def test_build_index_frees_its_term_dict_before_renumbering() -> None:
    # toy's zz articles: 320 of them hold 36,688 distinct CJK bigrams, so the
    # term dict weighs about as much as the postings
    corpus = CorpusFile(TOY_DIR / "corpus_zz.jsonl", "zz")
    build_index(make_corpus("zz", make_doc(language="zz")), CJK)  # loads what the build imports
    tracemalloc.start()
    try:
        index = build_index(corpus, CJK)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.terms) > 30_000
    # One str per bigram (about 3 MiB) with a first-seen dict over them
    # (1.6 MiB) took the build to 6.1 MiB; as packed codes its terms take
    # 0.3 MiB and it peaks near 2.9 MiB
    assert peak <= 4.5 * 2**20


def test_load_index_holds_the_toy_vocabulary_as_codes(tmp_path: Path) -> None:
    path = tmp_path / "zz.npz"
    save_index(build_index(CorpusFile(TOY_DIR / "corpus_zz.jsonl", "zz"), CJK), path)
    load_index(path)  # loads what loading imports
    tracemalloc.start()
    try:
        index = load_index(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.terms.codes.size > 30_000  # all but a few dozen Latin words
    # One str per bigram held 4.3 MiB and peaked at 4.6 MiB; packed codes
    # take 0.3 MiB beside the 1.2 MiB of postings arrays
    assert retained <= 2 * 2**20
    assert peak <= 3 * 2**20


def test_rank_pool_memory_per_gathered_posting(postings_heavy_index: InvertedIndex) -> None:
    index = postings_heavy_index
    # 100 of the corpus's 1,000 words: about 103,000 postings over 4,000 documents
    query = " ".join(f"w{number}" for number in range(100))
    term_ids, _ = index.match(query)
    gathered = int((index.offsets[term_ids + 1] - index.offsets[term_ids]).sum())
    pool = default_lexical_pool()
    retrieval._rank_pool(query, index, pool, DEFAULT_DEPTH)  # loads what scoring imports
    tracemalloc.start()
    try:
        retrieval._rank_pool(query, index, pool, DEFAULT_DEPTH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Five 8-byte arrays live through every system (owner, slot, tf, the
    # query weights, idf times tf), and one system's addends with their two
    # sorted copies: 64 B.  A document length gathered per posting, or one
    # system's sorted copies alive beside the next system's, costs more.
    assert peak <= 72 * gathered


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
@pytest.mark.parametrize("collection_length", [2**31 - 1, 2**31])
def test_term_totals_are_exact_up_to_and_past_the_int32_range(
    dtype, collection_length: int
) -> None:
    # one term makes up the whole collection, so its total is the collection's
    # length, its prior is mu, and each document scores log((dl + mu) / (dl + mu)) = 0
    lengths = [2**30, collection_length - 2**30]
    index = InvertedIndex(
        language="zz",
        tokenizer=WS,
        doc_ids=["x", "y"],
        terms=["a"],
        offsets=np.array([0, 2], dtype=np.int64),
        postings_docs=np.array([0, 1], dtype=np.int32),
        postings_tfs=np.array(lengths, dtype=dtype),
        doc_lengths=np.array(lengths, dtype=np.int64),
    )
    assert index.collection_length == collection_length
    # a total one off would move each score by about mu / CL / (dl + mu), 5e-10
    scores = dict(score_ql_dirichlet("a", index, mu=1e12))
    assert scores == pytest.approx({"x": 0.0, "y": 0.0}, abs=1e-12)


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


def test_index_members_are_numpys_own_npy_bytes_for_any_byte_order_or_stride(
    tmp_path: Path,
) -> None:
    index = fish_index()
    index = replace(
        index,
        postings_docs=np.repeat(index.postings_docs, 2)[::2],  # not contiguous
        postings_tfs=index.postings_tfs.astype(">i4"),
        doc_lengths=index.doc_lengths.astype(np.uint64),
    )
    path = tmp_path / "index.npz"
    save_index(index, path)
    with zipfile.ZipFile(path) as archive:
        for name in ("offsets", "postings_docs", "postings_tfs", "doc_lengths"):
            expected = io.BytesIO()
            np.save(expected, getattr(index, name), allow_pickle=False)
            assert archive.read(f"{name}.npy") == expected.getvalue(), name


def index_of_names(doc_ids: list[str], terms: list[str]) -> InvertedIndex:
    """An index over ``doc_ids`` and ``terms`` in which term t occurs once, in doc t mod n."""
    postings_docs = np.arange(len(terms), dtype=np.int32) % len(doc_ids)
    return InvertedIndex(
        language="zz",
        tokenizer=CJK,
        doc_ids=doc_ids,
        terms=terms,
        offsets=np.arange(len(terms) + 1, dtype=np.int64),
        postings_docs=postings_docs,
        postings_tfs=np.ones(len(terms), dtype=np.int32),
        doc_lengths=np.bincount(postings_docs, minlength=len(doc_ids)).astype(np.int64),
    )


# The characters JSON writers may escape or mangle, besides any other one.
JSON_EDGE_CHARACTERS = [
    '"', "\\", "/", "\x00", "\x08", "\x1f", "\x7f", "\u2028", "\u2029", "\ufeff", "\U0001f600"
]
NAME = st.text(
    alphabet=st.one_of(
        st.sampled_from(JSON_EDGE_CHARACTERS), st.characters(blacklist_categories=("Cs",))
    ),
    max_size=6,
)


@given(
    doc_ids=st.lists(NAME, min_size=1, max_size=6, unique=True),
    terms=st.lists(NAME, max_size=12, unique=True),
)
@example(doc_ids=JSON_EDGE_CHARACTERS, terms=[chr(code) for code in range(0x100)])
@settings(max_examples=200, deadline=None)
def test_index_meta_is_canonical_json_of_any_names(
    tmp_path_factory, doc_ids: list[str], terms: list[str]
) -> None:
    index = index_of_names(sorted(doc_ids), sorted(terms))
    path = tmp_path_factory.mktemp("index") / "zz.npz"
    save_index(index, path)
    meta = {
        "format": INDEX_FORMAT,
        "version": retrieval.INDEX_VERSION,
        "language": "zz",
        "tokenizer": CJK.to_dict(),
        "doc_ids": index.doc_ids,
        "terms": index.terms,
    }
    with np.load(path, allow_pickle=False) as archive:
        assert archive["meta"].tobytes() == dump_json(meta).encode("utf-8")
    loaded = load_index(path)
    assert (loaded.doc_ids, loaded.terms) == (index.doc_ids, index.terms)


@given(terms=st.lists(NAME | st.sampled_from(PREFIX_WORDS), max_size=40), size=st.integers(1, 5))
@example(terms=["", "\x00", "a", "a\x00", "ab", "abc", "b", "\ud800", "𠮷", "𠮷野"], size=2)
@settings(max_examples=300, deadline=None)
def test_vocabulary_reads_as_the_sorted_terms(terms: list[str], size: int) -> None:
    terms = sorted(set(terms))
    vocabulary = Vocabulary.of(terms)
    assert vocabulary.ascends()
    assert len(vocabulary) == len(terms)
    assert list(vocabulary) == [vocabulary[t] for t in range(len(terms))] == terms
    assert vocabulary == terms and terms == vocabulary and vocabulary != terms + ["?"]
    assert [term for chunk in vocabulary.chunks(size) for term in chunk] == terms
    others = ["", "\x00", "a", "zz", "abc", "東京", "東京都"]
    assert vocabulary.numbers(terms + others) == [
        terms.index(term) if term in terms else None for term in terms + others
    ]
    assert vocabulary[-1:] == terms[-1:]


@given(terms=st.lists(NAME | st.sampled_from(PREFIX_WORDS), max_size=12))
@example(terms=["abc", "a"])  # each part ascends, not their merge
@example(terms=["a", "\x00"])
@settings(max_examples=300, deadline=None)
def test_vocabulary_ascends_exactly_when_its_terms_do(terms: list[str]) -> None:
    expected = all(a < b for a, b in zip(terms, terms[1:]))
    assert Vocabulary.of(terms).ascends() is expected


@pytest.mark.parametrize(
    ("doc_ids", "terms", "name"),
    [
        (["x", "y"], ["red", "blue"], "terms"),
        (["x", "y"], ["b", "a"], "terms"),
        (["x", "y"], ["abc", "a"], "terms"),
        (["x", "y"], ["a", "a"], "terms"),
        (["x", "y"], ["abc", "abc"], "terms"),
        (["y", "x"], ["a", "b"], "doc_ids"),
        (["x", "x"], ["a", "b"], "doc_ids"),
    ],
)
def test_index_refuses_names_that_do_not_strictly_ascend(
    doc_ids: list[str], terms: list[str], name: str
) -> None:
    with pytest.raises(TotsimError, match=f"^zz index: {name} do not strictly ascend$"):
        index_of_names(doc_ids, terms)


@pytest.mark.parametrize(
    ("spoil", "message"),
    [pytest.param(spoil, message, id=case) for spoil, message, case in DISORDERED_INDEX_META],
)
def test_load_index_refuses_names_out_of_order(tmp_path: Path, spoil, message: str) -> None:
    # packed and str terms over three documents
    bodies = {"a": "red fish ab b", "b": "a red", "c": "ab"}
    docs = [make_doc(doc_id, body=body) for doc_id, body in bodies.items()]
    path = tmp_path / "index.npz"
    save_index(build_index(make_corpus("en", *docs), WS), path)
    edit_index_meta(path, spoil)
    with pytest.raises(TotsimError, match=re.escape(f"{path}: en index: {message}")):
        load_index(path)


# Terms that JSON writers escape in different ways, packed and str.
FOREIGN_TERMS = sorted(
    ["a", "ab", "abc", '"q', "back\\slash", "\x00", "\x1f", "\x7f", "\u2028"]
    + ["東京", "東京都", "𠮷野"]
)


def foreign_meta(index: InvertedIndex) -> dict:
    """The index's meta as json.loads reads it, keys in reverse order."""
    meta = {
        "terms": list(index.terms),
        "tokenizer": index.tokenizer.to_dict(),
        "language": index.language,
        "format": INDEX_FORMAT,
        "doc_ids": index.doc_ids,
        "version": retrieval.INDEX_VERSION,
    }
    return meta


def write_foreign_meta(path: Path, meta: dict, cut: int | None = None) -> None:
    """Replace the archive's meta with ``meta`` as ``json.dumps`` writes it with indents."""
    text = json.dumps(meta, ensure_ascii=True, indent=1)[:cut]
    edit_index_array(path, "meta", lambda _: np.frombuffer(text.encode("utf-8"), dtype=np.uint8))


def test_load_index_reads_a_meta_from_another_json_writer(tmp_path: Path) -> None:
    index = index_of_names(["d1", "d\u00e9"], FOREIGN_TERMS)
    canonical, path = tmp_path / "canonical.npz", tmp_path / "foreign.npz"
    save_index(index, canonical)
    save_index(index, path)
    write_foreign_meta(path, foreign_meta(index))
    with zipfile.ZipFile(path) as archive:
        assert b"\\u6771" in archive.read("meta.npy")  # 東, escaped
    expected, loaded = load_index(canonical), load_index(path)
    assert (loaded.language, loaded.tokenizer) == (expected.language, expected.tokenizer)
    assert (loaded.doc_ids, loaded.terms) == (expected.doc_ids, expected.terms) == (
        index.doc_ids,
        FOREIGN_TERMS,
    )
    for name in retrieval._INDEX_ARRAYS:
        assert np.array_equal(getattr(loaded, name), getattr(expected, name)), name
    # re-saved, it is the canonical archive again
    save_index(loaded, path)
    assert path.read_bytes() == canonical.read_bytes()


def test_load_index_refuses_a_foreign_meta_with_a_bad_terms_array(tmp_path: Path) -> None:
    index = index_of_names(["d1"], FOREIGN_TERMS)
    path = tmp_path / "foreign.npz"
    save_index(index, path)
    meta = foreign_meta(index)
    meta["terms"][3] = 5
    write_foreign_meta(path, meta)
    with pytest.raises(
        TotsimError, match=re.escape(f"{path}: index meta: terms is not a list of strings")
    ):
        load_index(path)
    # cut short inside the terms array
    meta = foreign_meta(index)
    text = json.dumps(meta, ensure_ascii=True, indent=1)
    write_foreign_meta(path, meta, cut=text.index("abc"))
    with pytest.raises(TotsimError, match=re.escape(f"{path}: not a readable {INDEX_FORMAT} file")):
        load_index(path)


@given(
    terms=st.lists(NAME, max_size=12, unique=True),
    write=st.sampled_from(
        [
            dump_json,
            json.dumps,
            lambda meta: json.dumps(meta, ensure_ascii=True, indent=1),
            lambda meta: json.dumps(meta, separators=(" ,\n", " :\t")),
        ]
    ),
)
@settings(max_examples=200, deadline=None)
def test_parse_meta_reads_what_json_loads_reads(terms: list[str], write) -> None:
    meta = {"terms": sorted(terms), "doc_ids": ["a"], "nested": {"terms": [1]}}
    parsed = parse_meta(write(meta))
    assert isinstance(parsed["terms"], Vocabulary)
    assert {**parsed, "terms": list(parsed["terms"])} == json.loads(write(meta))


def test_save_index_memory_stays_near_its_meta_bytes(tmp_path: Path) -> None:
    # About as many CJK bigrams as toy's zz index, each in one or two
    # documents, so the meta outweighs every postings array.
    rng = random.Random(37)
    han = [chr(code) for code in range(0x4E00, 0x6300)]
    corpus = make_corpus(
        "zz",
        *(make_doc(f"d{n:03d}", body="".join(rng.choices(han, k=130))) for n in range(290)),
    )
    index = build_index(corpus, CJK)
    assert 35_000 <= len(index.terms) <= 39_000
    path = tmp_path / "zz.npz"
    save_index(index, path)  # loads what saving imports
    tracemalloc.start()
    try:
        save_index(index, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with zipfile.ZipFile(path) as archive:
        meta_bytes = archive.getinfo("meta.npy").file_size
    # encoding the meta through a list of str chunks takes about 11 times its bytes
    assert peak < 4 * meta_bytes


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
    ("spoil", "problem"),
    [
        (lambda data: data[:-1], "doc_lengths: ran out of data"),
        (lambda data: data.replace(b"\x93NUMPY\x01", b"\x93NUMPY\x03"), "unsupported .npy"),
    ],
    ids=["truncated", "npy-version-3"],
)
def test_load_index_refuses_a_member_it_cannot_read(tmp_path: Path, spoil, problem: str) -> None:
    good, path = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_index(fish_index(), good)
    with zipfile.ZipFile(good) as source, zipfile.ZipFile(path, "w") as archive:
        for name in source.namelist():
            data = source.read(name)
            archive.writestr(name, spoil(data) if name == "doc_lengths.npy" else data)
    with pytest.raises(TotsimError, match=re.escape(f"{path}: not a readable")) as raised:
        load_index(path)
    assert problem in str(raised.value)


def test_load_index_refuses_a_byte_flipped_on_disk(tmp_path: Path) -> None:
    path = tmp_path / "index.npz"
    save_index(fish_index(), path)
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("doc_lengths.npy")
    raw = bytearray(path.read_bytes())
    # the member's data follows its 30-byte local header, its name and its extra field
    header = info.header_offset
    name_and_extra = sum(struct.unpack("<HH", raw[header + 26 : header + 30]))
    raw[header + 30 + name_and_extra + info.compress_size - 1] ^= 1
    path.write_bytes(raw)
    with pytest.raises(TotsimError, match="Bad CRC-32 for file 'doc_lengths.npy'"):
        load_index(path)


def test_load_index_refuses_an_object_array(tmp_path: Path) -> None:
    path = tmp_path / "index.npz"
    save_index(fish_index(), path)
    edit_index_array(path, "offsets", lambda offsets: offsets.astype(object))
    with pytest.raises(TotsimError, match="offsets: object arrays cannot be loaded"):
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


@pytest.mark.parametrize(
    ("name", "spoil"),
    [pytest.param(name, spoil, id=case) for name, spoil, case in SPOILED_INDEX_ARRAYS],
)
def test_load_index_refuses_arrays_of_the_wrong_shape_type_or_sign(
    tmp_path: Path, name: str, spoil
) -> None:
    # each spoiled array keeps its length, so only its shape, type or sign is wrong
    path = tmp_path / "index.npz"
    save_index(fish_index(), path)
    edit_index_array(path, name, spoil)
    with pytest.raises(
        TotsimError, match=re.escape(f"{path}: en index: postings arrays do not fit together")
    ):
        load_index(path)


def test_index_refuses_postings_out_of_order_within_a_term() -> None:
    index = fish_index()
    assert index.terms[2] == "fish" and list(index.postings_docs[2:4]) == [0, 2]
    assert list(index.postings_tfs[2:4]) == [2, 1]
    docs, tfs = index.postings_docs.copy(), index.postings_tfs.copy()
    # each document keeps its tf, so its length still fits; only the order is wrong
    docs[2:4], tfs[2:4] = [2, 0], [1, 2]
    with pytest.raises(TotsimError, match="en index: postings arrays do not fit together"):
        replace(index, postings_docs=docs, postings_tfs=tfs)


@given(
    term_sizes=st.lists(st.integers(min_value=1, max_value=4), max_size=8),
    data=st.data(),
    check_slice=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=300, deadline=None)
def test_postings_order_is_checked_a_slice_at_a_time(
    term_sizes: list[int], data: st.DataObject, check_slice: int
) -> None:
    bounds = list(accumulate(term_sizes, initial=0))
    docs = data.draw(st.lists(st.integers(0, 4), min_size=bounds[-1], max_size=bounds[-1]))
    expected = all(
        all(a < b for a, b in zip(docs[lo:hi], docs[lo + 1 : hi]))
        for lo, hi in zip(bounds, bounds[1:])
    )
    offsets = np.array(bounds, dtype=np.int64)
    with mock.patch.object(retrieval, "_CHECK_SLICE", check_slice):
        for dtype in (np.int32, np.uint64):
            ascends = retrieval._ascends_within_terms(offsets.astype(dtype), np.array(docs, dtype))
            assert ascends is expected


@pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64])
def test_offsets_of_any_integer_type_rank_alike(dtype) -> None:
    index = fish_index()
    other = replace(index, offsets=index.offsets.astype(dtype))
    assert score_bm25("red fish", other) == score_bm25("red fish", index)
    assert score_ql_dirichlet("red fish", other) == score_ql_dirichlet("red fish", index)


def test_index_checks_doc_lengths_a_slice_of_postings_at_a_time(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(retrieval, "_CHECK_SLICE", 2)
    index = fish_index()
    assert list(index.doc_lengths) == [4, 2, 2]
    replace(index, postings_docs=index.postings_docs.astype(np.uint64))  # unsigned numbers fit
    # the same total, spread over the documents wrongly
    with pytest.raises(TotsimError, match="en index: postings arrays do not fit together"):
        replace(index, doc_lengths=np.array([4, 3, 1], dtype=np.int64))


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


def per_posting_bm25(query: str, index: InvertedIndex, k1: float, b: float) -> dict[int, float]:
    """Reference BM25 by doc number: each posting normalised by its own document's length.

    Every expression has ``_rank_pool``'s operands in its order, and each
    document's addends are summed in ascending order, so the two agree to
    the last bit.
    """
    term_ids, qtf = index.match(query)
    starts, stops = index.offsets[term_ids].tolist(), index.offsets[term_ids + 1].tolist()
    gathered = [(t, p) for t, span in enumerate(zip(starts, stops)) for p in range(*span)]
    owner = np.array([t for t, _ in gathered], dtype=np.intp)
    positions = np.array([p for _, p in gathered], dtype=np.intp)
    counts = np.bincount(owner, minlength=len(term_ids))
    docs = index.postings_docs[positions]
    tf = index.postings_tfs[positions].astype(np.float64)
    lengths = index.doc_lengths[docs]
    norm = k1 * (1.0 - b + b * lengths / index.avg_doc_length)
    idf = np.log((index.doc_count - counts + 0.5) / (counts + 0.5) + 1.0)
    addends = qtf[owner] * (idf[owner] * tf * (k1 + 1.0) / (tf + norm))
    scores: dict[int, float] = {}
    for doc, addend in sorted(zip(docs.tolist(), addends.tolist()), key=lambda pair: pair[1]):
        scores[doc] = scores.get(doc, 0.0) + addend
    return scores


@given(
    bodies=st.lists(
        st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join), min_size=1, max_size=8
    ),
    query=st.lists(st.sampled_from(WORDS + ("zebra",)), max_size=5).map(" ".join),
    k1=st.sampled_from([0.9, 1.2, 2.0]) | st.floats(0.01, 5.0),
    b=st.sampled_from([0.4, 0.75]) | st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_per_candidate_bm25_normalisation_matches_a_per_posting_reference_bit_for_bit(
    bodies: list[str], query: str, k1: float, b: float
) -> None:
    # a few words over short bodies, so lengths and whole scores tie often
    docs = [make_doc(f"d{i}", body=body) for i, body in enumerate(bodies)]
    index = build_index(make_corpus("en", *docs), WS)
    system = RetrievalSystem("bm25", "bm25", k1=k1, b=b)
    [(numbers, scores)] = retrieval._rank_pool(query, index, [system], index.doc_count)
    expected = per_posting_bm25(query, index, k1, b)
    assert [struct.pack("<d", score) for score in scores.tolist()] == [
        struct.pack("<d", expected[number]) for number in numbers.tolist()
    ]
    assert sorted(numbers.tolist()) == sorted(expected)


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
@example(scores=[math.inf, 1.0, -math.inf])
@settings(max_examples=200, deadline=None)
def test_run_file_round_trip_preserves_scores(tmp_path_factory, scores: list[float]) -> None:
    ordered = sorted(scores, reverse=True)
    # ids outside ASCII are written as their UTF-8 bytes
    rankings = {"問q1": [(f"d{i}-東é", s) for i, s in enumerate(ordered)]}
    run = RunResult(system_id="sys", rankings=rankings)
    path = tmp_path_factory.mktemp("runs") / "out.run"
    doc_ids, values = zip(*run.rankings["問q1"])
    docs = [doc_id.encode("utf-8") for doc_id in doc_ids]
    ranks = [b" %d " % rank for rank in range(1, len(values) + 1)]
    path.write_bytes(_ranking_bytes("問q1", run.system_id, docs, ranks, np.array(values)))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [line.split()[4] for line in lines] == [repr(score) for score in ordered]
    loaded = read_run(path, ["問q1"])
    assert loaded.rankings == rankings
    assert load_external_run(path, {"問q1": doc_ids[0]}) == {"問q1": 1}


def test_importing_the_cli_does_not_load_numpy() -> None:
    # numpy and orjson are loaded by the index, search and run-writing code
    # paths only, array and totsim.vocabulary by the index code paths only,
    # and requests (with urllib3) by the HTTP backend only, so stages that
    # never index, search or call a hosted model keep their footprint.
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = {"array", "numpy", "orjson", "requests", "urllib3", "totsim.vocabulary"}
    code = f"import sys; import totsim.cli; print({heavy!r} & set(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "set()"
