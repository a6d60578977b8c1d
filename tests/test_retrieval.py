"""Tokenization, indexing, scoring oracles, and run file IO."""

from __future__ import annotations

import io
import math
import random
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_doc
from totsim.errors import RunFileError, TotsimError
from totsim.retrieval import (
    DEFAULT_DEPTH,
    INDEX_FORMAT,
    InvertedIndex,
    RetrievalSystem,
    RunResult,
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
    write_run_file,
)

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
    assert index.df("fish") == 2
    assert index.ctf("fish") == 3
    assert index.term_id("absent") is None
    assert index.df("absent") == 0
    assert index.ctf("absent") == 0


def test_build_index_ignores_titles_and_aliases() -> None:
    corpus = make_corpus(
        "en", make_doc("a", title="unique_title", aliases=("secret",), body="plain words")
    )
    index = build_index(corpus, WS)
    assert index.terms == ["plain", "words"]
    assert index.term_id("unique_title") is None
    assert index.term_id("secret") is None


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
    with pytest.raises(TotsimError, match="path"):
        RetrievalSystem(system_id="s", kind="external")
    with pytest.raises(TotsimError, match="unknown kind"):
        RetrievalSystem(system_id="s", kind="dense")
    round_tripped = RetrievalSystem.from_dict(
        RetrievalSystem(system_id="s", kind="bm25", k1=1.2, b=0.4).to_dict()
    )
    assert round_tripped.k1 == 1.2


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


def test_run_search_and_write_run_file(tmp_path: Path) -> None:
    index = fish_index()
    system = RetrievalSystem(system_id="bm25-test", kind="bm25", k1=1.2, b=0.75)
    run = run_search(system, {"q2": "green", "q1": "red fish"}, index)
    assert run.query_ids() == ["q1", "q2"]
    path = tmp_path / "out.run"
    write_run_file(run, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split() == ["q1", "Q0", "a", "1", repr(run.rankings["q1"][0][1]), "bm25-test"]
    assert len(lines) == 4
    # repr round trips the float exactly
    assert float(lines[0].split()[4]) == run.rankings["q1"][0][1]


def test_a_pool_tokenizes_each_query_once(monkeypatch: pytest.MonkeyPatch) -> None:
    queries = {"q1": "red fish", "q2": "green", "q3": "zebra", "q4": "Red  FISH"}
    pool = default_lexical_pool()
    # each system on its own fresh index is the reference
    expected = [run_search(system, queries, fish_index()).rankings for system in pool]
    index = fish_index()
    calls: list[str] = []
    tokenize = Tokenizer.tokenize

    def counting(self: Tokenizer, text: str) -> list[str]:
        calls.append(text)
        return tokenize(self, text)

    monkeypatch.setattr(Tokenizer, "tokenize", counting)
    runs = [run_search(system, queries, index) for system in pool]
    assert sorted(calls) == sorted(queries.values())
    assert [run.rankings for run in runs] == expected


def test_external_run_round_trip(tmp_path: Path) -> None:
    index = fish_index()
    system = RetrievalSystem(system_id="qld-mu500", kind="ql-dirichlet", mu=500.0)
    run = run_search(system, {"q1": "red fish", "q2": "green"}, index)
    path = tmp_path / "out.run"
    write_run_file(run, path)
    loaded = load_external_run(path, ["q1", "q2"])
    assert loaded.system_id == "qld-mu500"
    assert loaded.rankings == run.rankings


def test_external_run_shares_repeated_doc_id_strings(tmp_path: Path) -> None:
    path = write_lines(
        tmp_path / "run.run",
        [f"q{q} Q0 doc{d} {d + 1} {1.0 - d / 10} sys" for q in range(3) for d in range(3)],
    )
    run = load_external_run(path, ["q0", "q1", "q2"])
    for rank in range(3):
        first = run.rankings["q0"][rank][0]
        assert all(run.rankings[q][rank][0] is first for q in ("q1", "q2"))


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_external_run_validates_format(tmp_path: Path) -> None:
    path = tmp_path / "bad.run"
    write_lines(path, ["q1 Q0 d1 1 0.5"])
    with pytest.raises(RunFileError, match="6 columns"):
        load_external_run(path, ["q1"])
    write_lines(path, ["q1 Q0 d1 one 0.5 sys"])
    with pytest.raises(RunFileError, match="line 1"):
        load_external_run(path, ["q1"])
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d2 2 0.4 other"])
    with pytest.raises(RunFileError, match="mixed system tags"):
        load_external_run(path, ["q1"])
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d1 2 0.4 sys"])
    with pytest.raises(RunFileError, match="duplicate document"):
        load_external_run(path, ["q1"])
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d2 1 0.4 sys"])
    with pytest.raises(RunFileError, match="does not increase"):
        load_external_run(path, ["q1"])
    write_lines(path, ["q1 Q0 d1 1 0.5 sys", "q1 Q0 d2 2 0.9 sys"])
    with pytest.raises(RunFileError, match="score increases"):
        load_external_run(path, ["q1"])


def test_external_run_fills_missing_queries(
    tmp_path: Path, caplog: pytest.LogCaptureFixture
) -> None:
    path = write_lines(tmp_path / "run.run", ["q1 Q0 d1 1 0.5 sys"])
    with caplog.at_level("WARNING"):
        run = load_external_run(path, ["q1", "q2"])
    assert run.rankings["q2"] == []
    assert any("1 expected queries missing" in r.message for r in caplog.records)


def test_external_run_drops_queries_outside_expected_set(
    tmp_path: Path, caplog: pytest.LogCaptureFixture
) -> None:
    path = write_lines(
        tmp_path / "run.run", ["q1 Q0 d1 1 0.5 sys", "stray Q0 d2 1 0.7 sys"]
    )
    with caplog.at_level("INFO"):
        run = load_external_run(path, ["q1"])
    assert set(run.rankings) == {"q1"}
    assert any("dropping 1 queries" in r.message for r in caplog.records)


def test_external_run_truncates_and_overrides_id(tmp_path: Path) -> None:
    path = write_lines(
        tmp_path / "run.run",
        ["q1 Q0 d1 1 0.9 sys", "q1 Q0 d2 2 0.8 sys", "q1 Q0 d3 3 0.7 sys"],
    )
    run = load_external_run(path, ["q1"], depth=2, system_id="renamed")
    assert run.system_id == "renamed"
    assert run.rankings["q1"] == [("d1", 0.9), ("d2", 0.8)]


def test_default_depth() -> None:
    assert DEFAULT_DEPTH == 1000


@given(
    scores=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=8
    )
)
@settings(max_examples=60, deadline=None)
def test_run_file_round_trip_preserves_scores(tmp_path_factory, scores: list[float]) -> None:
    ordered = sorted(scores, reverse=True)
    rankings = {"q1": [(f"d{i}", s) for i, s in enumerate(ordered)]}
    run = RunResult(system_id="sys", rankings=rankings)
    path = tmp_path_factory.mktemp("runs") / "out.run"
    write_run_file(run, path)
    loaded = load_external_run(path, ["q1"])
    assert loaded.rankings == rankings


def test_importing_the_cli_does_not_load_numpy() -> None:
    # numpy is loaded by the index and search code paths only, so stages
    # that never index or search keep their memory footprint.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys; import totsim.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "False"
