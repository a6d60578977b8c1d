"""Collection assembly, split stratification, and bundle validation."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_doc
from totsim.collection import (
    SPLITS,
    CollectionBundle,
    CollectionSpec,
    _largest_remainder,
    assemble_collection,
    load_bundle,
    validate_collection,
    write_bundle,
)
from totsim.corpus import Corpus, DomainLabel, Partition
from totsim.errors import CollectionError
from totsim.generation import (
    DiscardRecord,
    PromptVariation,
    SyntheticQuery,
    make_query_id,
)
from totsim.sampling import EntityCandidate

FP_A = "model=m2;summarize_temperature=0.5;generate_temperature=0.3"
FP_B = "model=m1;summarize_temperature=0.5;generate_temperature=0.3"

STRATEGIES = {
    Partition.MONOLINGUAL: PromptVariation.V1,
    Partition.BILINGUAL: PromptVariation.V3,
}

# cell sizes chosen to hit the 8:1:1 domain targets exactly
CELLS = (
    (Partition.MONOLINGUAL, DomainLabel.GENERAL, 16),
    (Partition.MONOLINGUAL, DomainLabel.MOVIES, 2),
    (Partition.MONOLINGUAL, DomainLabel.PEOPLE, 2),
    (Partition.BILINGUAL, DomainLabel.GENERAL, 8),
    (Partition.BILINGUAL, DomainLabel.MOVIES, 1),
    (Partition.BILINGUAL, DomainLabel.PEOPLE, 1),
)


def make_record(
    doc_id: str,
    partition: Partition,
    *,
    variation: PromptVariation | None = None,
    text: str | None = None,
    fingerprint: str = FP_A,
) -> SyntheticQuery:
    return SyntheticQuery(
        query_id=make_query_id("zz", partition, doc_id),
        text=text if text is not None else f"looking for {doc_id} item",
        target_doc_id=doc_id,
        language="zz",
        variation=variation or STRATEGIES[partition],
        attempts=1,
        summary="s",
        provider_fingerprint=fingerprint,
    )


def build_fixture() -> tuple[list[SyntheticQuery], dict[str, EntityCandidate], Corpus]:
    docs = []
    candidates: dict[str, EntityCandidate] = {}
    records: list[SyntheticQuery] = []
    i = 0
    for partition, domain, size in CELLS:
        for _ in range(size):
            doc_id = f"z{i:02d}"
            docs.append(make_doc(doc_id, title=f"N{i:02d}", body=f"body words {i}", language="zz"))
            candidates[doc_id] = EntityCandidate(doc_id, partition, domain, i % 10)
            records.append(
                make_record(
                    doc_id,
                    partition,
                    text=f"looking for item number {i:02d}",
                    fingerprint=FP_A if i % 2 else FP_B,
                )
            )
            i += 1
    return records, candidates, make_corpus("zz", *docs)


def default_spec(seed: int = 7) -> CollectionSpec:
    return CollectionSpec(language="zz", strategy_map=STRATEGIES, seed=seed)


def assembled(seed: int = 7) -> tuple[CollectionBundle, Corpus]:
    records, candidates, corpus = build_fixture()
    return assemble_collection(records, candidates, default_spec(seed), corpus), corpus


@pytest.mark.parametrize(
    ("total", "ratios", "expected"),
    [
        (10, (0.8, 0.1, 0.1), [8, 1, 1]),
        (9, (0.8, 0.1, 0.1), [7, 1, 1]),
        (2000, (0.8, 0.1, 0.1), [1600, 200, 200]),
        (7, (1 / 3, 1 / 3, 1 / 3), [3, 2, 2]),
        (0, (0.8, 0.1, 0.1), [0, 0, 0]),
        (1, (0.8, 0.1, 0.1), [1, 0, 0]),
    ],
)
def test_largest_remainder_hand_cases(
    total: int, ratios: tuple[float, ...], expected: list[int]
) -> None:
    assert _largest_remainder(total, ratios) == expected


@settings(max_examples=100, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=500),
    weights=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5),
)
def test_largest_remainder_is_exact_and_close(total: int, weights: list[int]) -> None:
    ratios = [w / sum(weights) for w in weights]
    counts = _largest_remainder(total, ratios)
    assert sum(counts) == total
    assert all(count >= 0 for count in counts)
    for count, ratio in zip(counts, ratios):
        assert abs(count - total * ratio) <= 1 + 1e-9


def test_spec_validation() -> None:
    with pytest.raises(CollectionError, match="train, dev, and test"):
        CollectionSpec("zz", STRATEGIES, 1, split_ratio=(0.5, 0.5))
    with pytest.raises(CollectionError, match="non-negative"):
        CollectionSpec("zz", STRATEGIES, 1, split_ratio=(1.2, -0.1, -0.1))
    with pytest.raises(CollectionError, match="sum to 1"):
        CollectionSpec("zz", STRATEGIES, 1, split_ratio=(0.5, 0.2, 0.2))
    with pytest.raises(CollectionError, match="variation per partition"):
        CollectionSpec("zz", {}, 1)


def test_spec_content_hash_tracks_fields() -> None:
    assert default_spec(7).content_hash() == default_spec(7).content_hash()
    assert default_spec(7).content_hash() != default_spec(8).content_hash()


def test_assemble_counts_and_splits() -> None:
    bundle, _ = assembled()
    assert len(bundle.queries) == 30
    assert set(bundle.splits) == set(bundle.queries) == set(bundle.qrels)
    counts = bundle.manifest["counts"]
    mono = counts[Partition.MONOLINGUAL.value]
    assert mono[DomainLabel.GENERAL.value] == {
        "total": 16,
        "splits": {"train": 13, "dev": 2, "test": 1},
    }
    assert mono[DomainLabel.MOVIES.value] == {
        "total": 2,
        "splits": {"train": 2, "dev": 0, "test": 0},
    }
    bi = counts[Partition.BILINGUAL.value]
    assert bi[DomainLabel.GENERAL.value] == {
        "total": 8,
        "splits": {"train": 6, "dev": 1, "test": 1},
    }
    assert bi[DomainLabel.PEOPLE.value] == {
        "total": 1,
        "splits": {"train": 1, "dev": 0, "test": 0},
    }
    assert bundle.manifest["query_count"] == 30
    assert bundle.manifest["kind"] == "tot-collection"
    assert bundle.manifest["provider_fingerprints"] == sorted({FP_A, FP_B})


def test_assemble_is_deterministic_and_seed_sensitive() -> None:
    first, _ = assembled(seed=7)
    second, _ = assembled(seed=7)
    assert first.splits == second.splits
    assert first.manifest == second.manifest
    shuffled, _ = assembled(seed=8)
    assert shuffled.splits != first.splits
    # membership is identical; only the assignment moves
    assert set(shuffled.splits) == set(first.splits)


def test_assemble_records_discards_sorted() -> None:
    records, candidates, corpus = build_fixture()
    for doc_id, query_id in (("x9", "zz-m-x9"), ("x1", "zz-m-x1")):
        records.append(
            DiscardRecord(
                query_id=query_id,
                target_doc_id=doc_id,
                language="zz",
                variation=PromptVariation.V1,
                attempts=3,
                summary="s",
                provider_fingerprint=FP_A,
            )
        )
    bundle = assemble_collection(records, candidates, default_spec(), corpus)
    assert len(bundle.queries) == 30
    assert [d["query_id"] for d in bundle.manifest["discarded"]] == ["zz-m-x1", "zz-m-x9"]
    assert bundle.manifest["discarded"][0] == {
        "query_id": "zz-m-x1",
        "doc_id": "x1",
        "variation": "V1",
        "attempts": 3,
    }


def test_assemble_rejects_unknown_document() -> None:
    records, candidates, corpus = build_fixture()
    records.append(make_record("ghost", Partition.MONOLINGUAL))
    with pytest.raises(CollectionError, match="absent from the corpus"):
        assemble_collection(records, candidates, default_spec(), corpus)


def test_assemble_rejects_unsampled_document() -> None:
    records, candidates, corpus = build_fixture()
    del candidates["z00"]
    with pytest.raises(CollectionError, match="no sampled candidate"):
        assemble_collection(records, candidates, default_spec(), corpus)


def test_assemble_rejects_partition_without_strategy() -> None:
    records, candidates, corpus = build_fixture()
    candidates["z00"] = EntityCandidate("z00", Partition.FULL, DomainLabel.GENERAL, 0)
    records[0] = make_record("z00", Partition.FULL, variation=PromptVariation.V1)
    with pytest.raises(CollectionError, match="no strategy selected for partition full"):
        assemble_collection(records, candidates, default_spec(), corpus)


def test_assemble_rejects_wrong_variation() -> None:
    records, candidates, corpus = build_fixture()
    records[0] = make_record("z00", Partition.MONOLINGUAL, variation=PromptVariation.V2)
    with pytest.raises(
        CollectionError, match="used variation V2 but partition monolingual selected V1"
    ):
        assemble_collection(records, candidates, default_spec(), corpus)


def test_assemble_rejects_duplicate_query_id() -> None:
    records, candidates, corpus = build_fixture()
    records.append(records[0])
    with pytest.raises(CollectionError, match="duplicate query id zz-m-z00"):
        assemble_collection(records, candidates, default_spec(), corpus)


def test_bundle_round_trip(tmp_path: Path) -> None:
    bundle, _ = assembled()
    write_bundle(bundle, tmp_path)
    loaded = load_bundle(tmp_path)
    assert loaded.queries == bundle.queries
    assert loaded.qrels == bundle.qrels
    assert loaded.splits == bundle.splits
    assert loaded.manifest == bundle.manifest
    assert loaded.language == "zz"
    first_line = (tmp_path / "queries.tsv").read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "zz-b-z20\tlooking for item number 20"


def test_load_bundle_rejects_malformed_files(tmp_path: Path) -> None:
    bundle, _ = assembled()
    write_bundle(bundle, tmp_path)
    (tmp_path / "queries.tsv").write_text("onlyonecolumn\n", encoding="utf-8")
    with pytest.raises(CollectionError, match="line 1: expected two columns"):
        load_bundle(tmp_path)
    (tmp_path / "queries.tsv").write_text("a\tx\na\ty\n", encoding="utf-8")
    with pytest.raises(CollectionError, match="line 2: duplicate query id a"):
        load_bundle(tmp_path)
    write_bundle(bundle, tmp_path)
    (tmp_path / "splits.tsv").write_text("a\tvalidation\n", encoding="utf-8")
    with pytest.raises(CollectionError, match="expected 'query_id<TAB>split'"):
        load_bundle(tmp_path)
    (tmp_path / "splits.tsv").write_bytes(b"a\ttrain\n\xff\n")
    with pytest.raises(CollectionError, match=r"^splits\.tsv: not UTF-8 text"):
        load_bundle(tmp_path)
    (tmp_path / "manifest.json").write_text("[]\n", encoding="utf-8")
    with pytest.raises(CollectionError, match=r"^manifest\.json: "):
        load_bundle(tmp_path)


def test_load_bundle_refuses_a_query_listed_twice_in_splits(tmp_path: Path) -> None:
    bundle, _ = assembled()
    write_bundle(bundle, tmp_path)
    splits = tmp_path / "splits.tsv"
    lines = splits.read_text(encoding="utf-8").splitlines(keepends=True)
    query_id, split = lines[0].rstrip("\n").split("\t")
    other = next(name for name in SPLITS if name != split)
    splits.write_text("".join(lines) + f"{query_id}\t{other}\n", encoding="utf-8")
    with pytest.raises(
        CollectionError, match=f"^splits.tsv line {len(lines) + 1}: duplicate query id {query_id}$"
    ):
        load_bundle(tmp_path)


def test_validate_accepts_clean_bundle() -> None:
    bundle, corpus = assembled()
    report = validate_collection(bundle, corpus)
    assert report.ok
    assert report.violations == []


def test_validate_flags_id_mismatches() -> None:
    bundle, corpus = assembled()
    del bundle.qrels["zz-m-z00"]
    report = validate_collection(bundle, corpus)
    assert any("qrels and queries disagree" in v and "zz-m-z00" in v for v in report.violations)
    bundle, corpus = assembled()
    del bundle.splits["zz-m-z01"]
    report = validate_collection(bundle, corpus)
    assert any("splits and queries disagree" in v for v in report.violations)


def test_validate_flags_missing_document() -> None:
    bundle, corpus = assembled()
    bundle.qrels["zz-m-z00"] = "ghost"
    report = validate_collection(bundle, corpus)
    assert any("relevant document ghost not in corpus" in v for v in report.violations)


def test_validate_reruns_anonymity_check() -> None:
    bundle, corpus = assembled()
    bundle.queries["zz-m-z00"] = "this query names N00 outright"
    report = validate_collection(bundle, corpus)
    assert ["zz-m-z00: query text mentions a name of its target"] == report.violations


def test_validate_flags_unknown_split() -> None:
    bundle, corpus = assembled()
    bundle.splits["zz-m-z00"] = "weird"
    report = validate_collection(bundle, corpus)
    assert any("unknown split 'weird'" in v for v in report.violations)


def test_validate_flags_split_sum_and_total_mismatch() -> None:
    bundle, corpus = assembled()
    entry = bundle.manifest["counts"][Partition.MONOLINGUAL.value][DomainLabel.GENERAL.value]
    entry["total"] = 15
    report = validate_collection(bundle, corpus)
    assert any("split counts sum to 16" in v for v in report.violations)
    assert any("manifest counts total 29" in v for v in report.violations)


def test_validate_flags_domain_ratio_drift() -> None:
    bundle, corpus = assembled()
    counts = bundle.manifest["counts"][Partition.MONOLINGUAL.value]
    counts[DomainLabel.MOVIES.value]["total"] = 5
    counts[DomainLabel.MOVIES.value]["splits"] = {"train": 5, "dev": 0, "test": 0}
    report = validate_collection(bundle, corpus)
    assert any("domain ratio targets" in v for v in report.violations)
