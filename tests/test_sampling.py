"""Stratification, domain targets, and seeded round-robin sampling."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_doc
from totsim.corpus import DomainLabel, Partition
from totsim.errors import SamplingError
from totsim.sampling import (
    DEFAULT_BUCKET_COUNT,
    DEFAULT_DOMAIN_RATIO,
    RNG_ALGORITHM,
    EntityCandidate,
    SamplingConfig,
    domain_targets,
    read_candidate_manifest,
    sample_candidates,
    stratify,
    write_candidate_manifest,
)
from totsim.util import read_jsonl

GENERAL_ONLY = {DomainLabel.GENERAL: 1.0, DomainLabel.MOVIES: 0.0, DomainLabel.PEOPLE: 0.0}


def test_stratify_splits_by_descending_views() -> None:
    docs = [make_doc(f"d{i}", page_views=i * 10) for i in range(10)]
    buckets = stratify(docs, bucket_count=3)
    assert buckets == [["d9", "d8", "d7", "d6"], ["d5", "d4", "d3"], ["d2", "d1", "d0"]]


def test_stratify_breaks_view_ties_by_doc_id() -> None:
    docs = [make_doc("b", page_views=5), make_doc("a", page_views=5), make_doc("c", page_views=1)]
    assert stratify(docs, bucket_count=3) == [["a"], ["b"], ["c"]]


def test_stratify_sizes_never_differ_by_more_than_one() -> None:
    docs = [make_doc(f"d{i:02d}", page_views=i) for i in range(23)]
    sizes = [len(b) for b in stratify(docs, bucket_count=5)]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1


def test_stratify_warns_on_small_pool(caplog: pytest.LogCaptureFixture) -> None:
    with caplog.at_level("WARNING"):
        buckets = stratify([make_doc("a")], bucket_count=4)
    assert buckets == [["a"], [], [], []]
    assert any("smaller than bucket_count" in r.message for r in caplog.records)


def test_stratify_rejects_bad_bucket_count() -> None:
    with pytest.raises(SamplingError):
        stratify([make_doc()], bucket_count=0)


def test_domain_targets_default_ratio() -> None:
    targets = domain_targets(2500, DEFAULT_DOMAIN_RATIO)
    assert targets == {
        DomainLabel.GENERAL: 2000,
        DomainLabel.MOVIES: 250,
        DomainLabel.PEOPLE: 250,
    }


def test_domain_targets_general_absorbs_rounding() -> None:
    # round(25 * 0.1) rounds half to even, so both small domains get 2.
    targets = domain_targets(25, DEFAULT_DOMAIN_RATIO)
    assert targets == {DomainLabel.GENERAL: 21, DomainLabel.MOVIES: 2, DomainLabel.PEOPLE: 2}
    assert sum(targets.values()) == 25


def test_domain_targets_rejects_overflow() -> None:
    ratio = {DomainLabel.GENERAL: 0.0, DomainLabel.MOVIES: 0.5, DomainLabel.PEOPLE: 0.5}
    with pytest.raises(SamplingError):
        domain_targets(3, ratio)


def test_sampling_config_validation() -> None:
    with pytest.raises(SamplingError, match="target_count"):
        SamplingConfig(target_count=0)
    with pytest.raises(SamplingError, match="bucket_count"):
        SamplingConfig(target_count=1, bucket_count=0)
    with pytest.raises(SamplingError, match="sum to 1"):
        SamplingConfig(
            target_count=1,
            domain_ratio={
                DomainLabel.GENERAL: 0.5,
                DomainLabel.MOVIES: 0.1,
                DomainLabel.PEOPLE: 0.1,
            },
        )
    with pytest.raises(SamplingError, match="known domains"):
        SamplingConfig(target_count=1, domain_ratio={DomainLabel.GENERAL: 1.0})
    with pytest.raises(SamplingError, match="non-negative"):
        SamplingConfig(
            target_count=1,
            domain_ratio={
                DomainLabel.GENERAL: 1.2,
                DomainLabel.MOVIES: -0.1,
                DomainLabel.PEOPLE: -0.1,
            },
        )


def test_sampling_config_defaults_and_hash() -> None:
    config = SamplingConfig(target_count=10)
    assert config.bucket_count == DEFAULT_BUCKET_COUNT
    assert config.content_hash() == SamplingConfig(target_count=10).content_hash()
    assert config.content_hash() != SamplingConfig(target_count=11).content_hash()
    assert config.content_hash() != SamplingConfig(target_count=10, seed=1).content_hash()


def test_sample_visits_buckets_round_robin() -> None:
    pools = {DomainLabel.GENERAL: [["a", "b"], ["c", "d"], ["e"]]}
    config = SamplingConfig(target_count=3, bucket_count=3, domain_ratio=GENERAL_ONLY)
    candidates = sample_candidates(pools, config, Partition.MONOLINGUAL)
    assert [c.popularity_bucket for c in candidates] == [0, 1, 2]
    assert candidates[2].doc_id == "e"
    assert all(c.partition is Partition.MONOLINGUAL for c in candidates)
    assert all(c.domain is DomainLabel.GENERAL for c in candidates)


def test_sample_skips_exhausted_buckets() -> None:
    pools = {DomainLabel.GENERAL: [["a"], ["b", "c"], ["d"]]}
    config = SamplingConfig(target_count=4, bucket_count=3, domain_ratio=GENERAL_ONLY)
    candidates = sample_candidates(pools, config, Partition.MONOLINGUAL)
    per_bucket: dict[int, int] = {}
    for candidate in candidates:
        per_bucket[candidate.popularity_bucket] = per_bucket.get(candidate.popularity_bucket, 0) + 1
    assert per_bucket == {0: 1, 1: 2, 2: 1}
    assert sorted(c.doc_id for c in candidates) == ["a", "b", "c", "d"]


def test_sample_is_deterministic_per_seed_and_partition() -> None:
    pools = {DomainLabel.GENERAL: [[f"d{i:02d}" for i in range(j * 10, j * 10 + 10)] for j in range(5)]}
    config = SamplingConfig(target_count=20, bucket_count=5, domain_ratio=GENERAL_ONLY, seed=3)
    first = sample_candidates(pools, config, Partition.BILINGUAL)
    second = sample_candidates(pools, config, Partition.BILINGUAL)
    assert first == second
    other_partition = sample_candidates(pools, config, Partition.MONOLINGUAL)
    assert [c.doc_id for c in other_partition] != [c.doc_id for c in first]
    reseeded = sample_candidates(
        pools,
        SamplingConfig(target_count=20, bucket_count=5, domain_ratio=GENERAL_ONLY, seed=4),
        Partition.BILINGUAL,
    )
    assert [c.doc_id for c in reseeded] != [c.doc_id for c in first]


def test_sample_emits_domains_in_fixed_order() -> None:
    pools = {
        DomainLabel.GENERAL: [["g1", "g2"]],
        DomainLabel.MOVIES: [["m1", "m2"]],
        DomainLabel.PEOPLE: [["p1", "p2"]],
    }
    ratio = {DomainLabel.GENERAL: 0.5, DomainLabel.MOVIES: 0.25, DomainLabel.PEOPLE: 0.25}
    config = SamplingConfig(target_count=4, bucket_count=1, domain_ratio=ratio)
    candidates = sample_candidates(pools, config, Partition.FULL)
    assert [c.domain for c in candidates] == [
        DomainLabel.GENERAL,
        DomainLabel.GENERAL,
        DomainLabel.MOVIES,
        DomainLabel.PEOPLE,
    ]


def test_sample_writes_candidates_grouped_by_domain_in_declared_order(tmp_path: Path) -> None:
    pools = {
        domain: stratify([make_doc(f"{domain.value}-{i:02d}") for i in range(20)], 3)
        for domain in DomainLabel
    }
    config = SamplingConfig(target_count=20, bucket_count=3, seed=5)
    path = tmp_path / "candidates.jsonl"
    write_candidate_manifest(path, sample_candidates(pools, config, Partition.FULL), config)
    domains = [row["domain"] for row in read_jsonl(path)]
    groups = [domain for i, domain in enumerate(domains) if domains[i - 1 : i] != [domain]]
    assert groups == [domain.value for domain in DomainLabel]


def test_sample_reports_shortfall_by_domain() -> None:
    pools = {DomainLabel.GENERAL: [["a", "b"]]}
    config = SamplingConfig(target_count=3, bucket_count=1, domain_ratio=GENERAL_ONLY)
    with pytest.raises(SamplingError, match=r"General has 2 candidates.*short by 1"):
        sample_candidates(pools, config, Partition.MONOLINGUAL)


def test_sample_rejects_document_in_two_domains() -> None:
    pools = {
        DomainLabel.GENERAL: [["dup"]],
        DomainLabel.MOVIES: [["dup"]],
        DomainLabel.PEOPLE: [["p1"]],
    }
    ratio = {DomainLabel.GENERAL: 0.4, DomainLabel.MOVIES: 0.3, DomainLabel.PEOPLE: 0.3}
    config = SamplingConfig(target_count=3, bucket_count=1, domain_ratio=ratio)
    with pytest.raises(SamplingError, match="more than one domain"):
        sample_candidates(pools, config, Partition.FULL)


def test_candidate_manifest_round_trip(tmp_path: Path) -> None:
    candidates = [
        EntityCandidate("d1", Partition.MONOLINGUAL, DomainLabel.GENERAL, 0),
        EntityCandidate("d2", Partition.MONOLINGUAL, DomainLabel.MOVIES, 3),
    ]
    config = SamplingConfig(target_count=2, seed=9)
    path = tmp_path / "candidates.jsonl"
    write_candidate_manifest(path, candidates, config)
    assert read_candidate_manifest(path) == candidates
    rows = list(read_jsonl(path))
    assert sorted(rows[0]) == ["bucket", "config_hash", "doc_id", "domain", "partition", "seed"]
    assert rows[0]["seed"] == 9
    assert rows[0]["config_hash"] == config.content_hash()


def test_rng_algorithm_is_recorded() -> None:
    assert RNG_ALGORITHM == "python-random-mt19937"


@given(
    per_domain=st.integers(min_value=30, max_value=60),
    target=st.integers(min_value=10, max_value=25),
    bucket_count=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_sample_covers_targets_without_replacement(
    per_domain: int, target: int, bucket_count: int, seed: int
) -> None:
    pools = {}
    for domain in DomainLabel:
        docs = [
            make_doc(f"{domain.value}-{i:03d}", page_views=(i * 7) % 23)
            for i in range(per_domain)
        ]
        pools[domain] = stratify(docs, bucket_count)
    config = SamplingConfig(
        target_count=target, bucket_count=bucket_count, domain_ratio=dict(DEFAULT_DOMAIN_RATIO), seed=seed
    )
    candidates = sample_candidates(pools, config, Partition.MONOLINGUAL)
    assert len(candidates) == target
    ids = [c.doc_id for c in candidates]
    assert len(set(ids)) == target
    targets = domain_targets(target, config.domain_ratio)
    per_domain_count: dict[DomainLabel, int] = {}
    for candidate in candidates:
        per_domain_count[candidate.domain] = per_domain_count.get(candidate.domain, 0) + 1
        assert candidate.doc_id.startswith(candidate.domain.value)
        assert 0 <= candidate.popularity_bucket < bucket_count
    assert per_domain_count == {d: n for d, n in targets.items() if n > 0}
