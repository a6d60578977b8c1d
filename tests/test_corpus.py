"""Corpus ingestion, partitioning, and filter behavior."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_doc
from totsim.corpus import (
    DEFAULT_MIN_CHARS,
    DEFAULT_TOP_FRACTION,
    Corpus,
    CorpusFile,
    DomainLabel,
    Partition,
    assign_domain,
    default_domain_mapping,
    filter_by_length,
    filter_by_popularity,
    ingest_corpus,
    load_domain_mapping,
    partition_corpus,
)
from totsim.errors import CorpusError


def write_corpus_file(path: Path, records: list[dict]) -> Path:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    return path


def test_ingest_parses_all_fields(tmp_path: Path) -> None:
    path = write_corpus_file(
        tmp_path / "c.jsonl",
        [
            {
                "id": "z1",
                "title": "標題",
                "text": "本文",
                "views": 42,
                "aliases": ["別名"],
                "en_id": "e1",
                "instance_of": ["Q5"],
            }
        ],
    )
    corpus = ingest_corpus(path, "zh")
    doc = corpus.get("z1")
    assert doc.title == "標題"
    assert doc.body == "本文"
    assert doc.language == "zh"
    assert doc.aliases == ("別名",)
    assert doc.page_views == 42
    assert doc.en_link == "e1"
    assert doc.instance_of == ("Q5",)
    assert doc.length_chars == 2


def test_ingest_defaults_optional_fields(tmp_path: Path) -> None:
    path = write_corpus_file(tmp_path / "c.jsonl", [{"id": "a", "title": "t", "text": "x"}])
    doc = ingest_corpus(path, "en").get("a")
    assert doc.aliases == ()
    assert doc.page_views == 0
    assert doc.en_link is None
    assert doc.instance_of == ()


def test_ingest_skips_blank_lines(tmp_path: Path) -> None:
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "title": "t", "text": "x"}\n\n\n', encoding="utf-8")
    assert len(ingest_corpus(path, "en")) == 1


def test_ingest_rejects_invalid_json_with_line_number(tmp_path: Path) -> None:
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "title": "t", "text": "x"}\n{broken\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        ingest_corpus(path, "en")


@pytest.mark.parametrize("missing", ["id", "title", "text"])
def test_ingest_rejects_missing_required_key(tmp_path: Path, missing: str) -> None:
    record = {"id": "a", "title": "t", "text": "x"}
    del record[missing]
    path = write_corpus_file(tmp_path / "c.jsonl", [record])
    with pytest.raises(CorpusError, match=missing):
        ingest_corpus(path, "en")


@pytest.mark.parametrize(
    "field,value",
    [
        ("id", 7),
        ("id", ""),
        ("title", None),
        ("text", 3),
        ("views", -1),
        ("views", True),
        ("views", "9"),
        ("aliases", "alias"),
        ("aliases", [1]),
        ("en_id", 5),
        ("instance_of", "Q5"),
    ],
)
def test_ingest_rejects_mistyped_fields(tmp_path: Path, field: str, value) -> None:
    record = {"id": "a", "title": "t", "text": "x", field: value}
    path = write_corpus_file(tmp_path / "c.jsonl", [record])
    with pytest.raises(CorpusError):
        ingest_corpus(path, "en")


@pytest.mark.parametrize("doc_id", ["zz 0001", "zz0001 ", "zz\t0001", "zz\u30000001", " "])
def test_ingest_refuses_a_document_id_with_whitespace(tmp_path: Path, doc_id: str) -> None:
    # qrels and run lines are split on whitespace, so such an id could not be read back
    records = [{"id": "a", "title": "t", "text": "x"}, {"id": doc_id, "title": "u", "text": "y"}]
    path = write_corpus_file(tmp_path / "c.jsonl", records)
    with pytest.raises(CorpusError, match="c.jsonl line 2: document id .* without whitespace"):
        ingest_corpus(path, "en")


def test_ingest_rejects_duplicate_ids(tmp_path: Path) -> None:
    records = [{"id": "a", "title": "t", "text": "x"}, {"id": "a", "title": "u", "text": "y"}]
    path = write_corpus_file(tmp_path / "c.jsonl", records)
    with pytest.raises(CorpusError, match="duplicate"):
        ingest_corpus(path, "en")


def test_corpus_file_yields_documents_in_file_order_as_it_reads(
    tmp_path: Path, caplog: pytest.LogCaptureFixture
) -> None:
    records = [{"id": "b", "title": "t", "text": "x"}, {"id": "a", "title": "u", "text": "y"}]
    path = write_corpus_file(tmp_path / "c.jsonl", records)
    reader = CorpusFile(path, "en")
    assert reader.language == "en"
    with caplog.at_level("INFO", logger="totsim.corpus"):
        # each pass reads the file again
        for _ in range(2):
            assert [doc.doc_id for doc in reader] == ["b", "a"]
    assert [r.getMessage() for r in caplog.records] == ["ingested 2 documents for language en"] * 2
    assert list(reader) == list(ingest_corpus(path, "en"))[::-1]


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"id": "a", "title": "u", "text": "y"}',  # a repeated id
        "{broken",
        '{"id": "c", "title": "u"}',
        '{"id": "c d", "title": "u", "text": "y"}',
    ],
    ids=["repeated-id", "invalid-json", "without-text", "id-with-space"],
)
def test_corpus_file_refuses_what_ingest_refuses_after_the_lines_before(
    tmp_path: Path, bad_line: str
) -> None:
    lines = ['{"id": "a", "title": "t", "text": "x"}', "", '{"id": "b", "title": "t", "text": "x"}']
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join([*lines, bad_line]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as ingested:
        ingest_corpus(path, "en")
    read = []
    with pytest.raises(CorpusError) as streamed:
        read.extend(doc.doc_id for doc in CorpusFile(path, "en"))
    assert str(streamed.value) == str(ingested.value)
    assert read == ["a", "b"]


def test_corpus_iterates_in_doc_id_order() -> None:
    corpus = make_corpus("en", make_doc("b"), make_doc("c"), make_doc("a"))
    assert [d.doc_id for d in corpus] == ["a", "b", "c"]
    assert "b" in corpus
    assert "z" not in corpus


def test_corpus_get_names_language_on_miss() -> None:
    corpus = make_corpus("ja", make_doc("a", language="ja"))
    with pytest.raises(CorpusError, match="ja"):
        corpus.get("missing")


def test_partition_corpus_by_link_resolution() -> None:
    english = make_corpus("en", make_doc("e1"))
    target = make_corpus(
        "zh",
        make_doc("z1", language="zh", en_link="e1"),
        make_doc("z2", language="zh"),
    )
    mapping = partition_corpus(target, english)
    assert mapping == {"z1": Partition.BILINGUAL, "z2": Partition.MONOLINGUAL}


def test_partition_corpus_demotes_dangling_links(caplog: pytest.LogCaptureFixture) -> None:
    english = make_corpus("en", make_doc("e1"))
    target = make_corpus("zh", make_doc("z1", language="zh", en_link="gone"))
    with caplog.at_level("WARNING"):
        mapping = partition_corpus(target, english)
    assert mapping["z1"] is Partition.MONOLINGUAL
    assert any("gone" in record.message for record in caplog.records)


def test_partition_corpus_warns_once_for_every_dangling_link(
    caplog: pytest.LogCaptureFixture,
) -> None:
    english = make_corpus("en", make_doc("e1"))
    target = make_corpus(
        "zh",
        *(make_doc(f"z{i}", language="zh", en_link=f"gone{i}") for i in (3, 1, 2)),
        make_doc("z4", language="zh", en_link="e1"),
    )
    with caplog.at_level("WARNING"):
        mapping = partition_corpus(target, english)
    assert [mapping[f"z{i}"] for i in (1, 2, 3, 4)] == [Partition.MONOLINGUAL] * 3 + [
        Partition.BILINGUAL
    ]
    # one line for all three, naming the first document in id order and its link
    (warning,) = [record for record in caplog.records if record.levelname == "WARNING"]
    assert warning.getMessage() == (
        "3 dangling English links demoted to monolingual (first: z1 links to missing gone1)"
    )


def test_partition_corpus_reads_corpus_files_in_one_pass(
    tmp_path: Path, caplog: pytest.LogCaptureFixture
) -> None:
    # file order is not id order: the warning still names the lowest-id dangling document
    english = write_corpus_file(
        tmp_path / "en.jsonl", [{"id": f"e{i}", "title": "t", "text": "x"} for i in (2, 1)]
    )
    records = [
        {"id": f"z{i}", "title": "t", "text": "x", **({"en_id": link} if link else {})}
        for i, link in ((4, "gone4"), (3, "e1"), (1, None), (2, "gone2"), (5, "e2"))
    ]
    target = write_corpus_file(tmp_path / "zh.jsonl", records)
    with caplog.at_level("INFO"):
        english_ids = CorpusFile(english, "en").ids()
        mapping = partition_corpus(CorpusFile(target, "zh"), english_ids)
    logged = [record.getMessage() for record in caplog.records]
    assert english_ids.language == "en" and "e1" in english_ids and "z1" not in english_ids
    held = partition_corpus(ingest_corpus(target, "zh"), ingest_corpus(english, "en"))
    assert mapping == held == {
        "z1": Partition.MONOLINGUAL,
        "z2": Partition.MONOLINGUAL,
        "z3": Partition.BILINGUAL,
        "z4": Partition.MONOLINGUAL,
        "z5": Partition.BILINGUAL,
    }
    # one ingested line per file, then the warning
    assert logged == [
        "ingested 2 documents for language en",
        "ingested 5 documents for language zh",
        "2 dangling English links demoted to monolingual (first: z2 links to missing gone2)",
    ]


def test_partition_corpus_rejects_wrong_languages() -> None:
    english = make_corpus("en", make_doc("e1"))
    target = make_corpus("zh", make_doc("z1", language="zh"))
    with pytest.raises(CorpusError):
        partition_corpus(english, english)
    with pytest.raises(CorpusError):
        partition_corpus(target, target)


def test_popularity_filter_keeps_ceil_fraction() -> None:
    docs = [make_doc(f"d{i}", page_views=i * 10) for i in range(7)]
    kept = filter_by_popularity(docs, top_fraction=0.3)
    # ceil(0.3 * 7) = 3, most viewed first
    assert [d.doc_id for d in kept] == ["d6", "d5", "d4"]


def test_popularity_filter_snaps_float_drift() -> None:
    # 0.2 * 35 is 7.000000000000001 in binary floats; 7 must survive, not 8.
    docs = [make_doc(f"d{i:02d}", page_views=100 - i) for i in range(35)]
    assert len(filter_by_popularity(docs, top_fraction=0.2)) == 7


def test_popularity_filter_breaks_view_ties_by_doc_id() -> None:
    docs = [
        make_doc("b", page_views=5),
        make_doc("a", page_views=5),
        make_doc("c", page_views=9),
    ]
    kept = filter_by_popularity(docs, top_fraction=0.6)
    assert [d.doc_id for d in kept] == ["c", "a"]


def test_popularity_filter_validates_inputs() -> None:
    with pytest.raises(CorpusError, match="empty"):
        filter_by_popularity([], top_fraction=0.5)
    with pytest.raises(CorpusError, match="top_fraction"):
        filter_by_popularity([make_doc()], top_fraction=0.0)
    with pytest.raises(CorpusError, match="top_fraction"):
        filter_by_popularity([make_doc()], top_fraction=1.5)


@given(
    n=st.integers(min_value=1, max_value=150),
    percent=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=80, deadline=None)
def test_popularity_filter_matches_exact_rational_ceiling(n: int, percent: int) -> None:
    docs = [make_doc(f"d{i:03d}", page_views=i) for i in range(n)]
    kept = filter_by_popularity(docs, top_fraction=percent / 100)
    exact = Fraction(percent, 100) * n
    expected = int(exact) if exact.denominator == 1 else int(exact) + 1
    assert len(kept) == expected
    views = [d.page_views for d in kept]
    assert views == sorted(views, reverse=True)


def test_length_filter_boundary_is_inclusive() -> None:
    docs = [make_doc("a", body="x" * 99), make_doc("b", body="y" * 100)]
    assert [d.doc_id for d in filter_by_length(docs, min_chars=100)] == ["b"]
    with pytest.raises(CorpusError):
        filter_by_length(docs, min_chars=-1)


def test_filter_defaults() -> None:
    assert DEFAULT_TOP_FRACTION == 0.2
    assert DEFAULT_MIN_CHARS == 1000


def test_load_domain_mapping_parses_tsv(tmp_path: Path) -> None:
    path = tmp_path / "mapping.tsv"
    path.write_text("# classes\nQ5\tPeople\nQ11424\tMovies\n\n", encoding="utf-8")
    mapping = load_domain_mapping(path)
    assert mapping == {"Q5": DomainLabel.PEOPLE, "Q11424": DomainLabel.MOVIES}


def test_load_domain_mapping_rejects_bad_rows(tmp_path: Path) -> None:
    path = tmp_path / "mapping.tsv"
    path.write_text("Q5\tPeople\textra\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 1"):
        load_domain_mapping(path)
    path.write_text("Q5\tAnimals\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="Animals"):
        load_domain_mapping(path)


def test_load_domain_mapping_refuses_a_class_with_two_labels(tmp_path: Path) -> None:
    path = tmp_path / "mapping.tsv"
    # a repeat with the same label is harmless, as in qrels
    path.write_text("Q5\tPeople\nQ5\tPeople\n", encoding="utf-8")
    assert load_domain_mapping(path) == {"Q5": DomainLabel.PEOPLE}
    path.write_text("Q5\tPeople\nQ11424\tMovies\nQ5\tMovies\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^mapping.tsv line 3: class Q5 is already People$"):
        load_domain_mapping(path)


def test_default_domain_mapping_covers_people_and_films() -> None:
    mapping = default_domain_mapping()
    assert mapping["Q5"] is DomainLabel.PEOPLE
    assert mapping["Q11424"] is DomainLabel.MOVIES


def test_assign_domain_uses_first_mapped_class() -> None:
    mapping = {"Q5": DomainLabel.PEOPLE, "Q11424": DomainLabel.MOVIES}
    doc = make_doc(instance_of=("Q999", "Q11424", "Q5"))
    assert assign_domain(doc, mapping) is DomainLabel.MOVIES
    assert assign_domain(make_doc(instance_of=("Q999",)), mapping) is DomainLabel.GENERAL
    assert assign_domain(make_doc(), mapping) is DomainLabel.GENERAL


def test_corpus_rejects_duplicate_documents_directly() -> None:
    with pytest.raises(CorpusError):
        Corpus("en", [make_doc("a"), make_doc("a")])
