"""Stratified sampling of target entities across popularity and domain.

Each partition pool is split per domain into equal-depth popularity
buckets (most viewed documents in bucket 0).  Domains are drawn in
:class:`~totsim.corpus.DomainLabel` order; within one, candidates are
drawn round-robin across buckets without replacement until its target is
met, which spreads the sample over the whole popularity range instead of
clustering at the head.
"""

from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Document, DomainLabel, Partition, by_popularity
from .errors import SamplingError
from .util import read_jsonl, stable_hash, write_jsonl

logger = logging.getLogger(__name__)

__all__ = [
    "SamplingConfig",
    "check_domain_ratio",
    "EntityCandidate",
    "stratify",
    "domain_targets",
    "sample_candidates",
    "write_candidate_manifest",
    "read_candidate_manifest",
    "RNG_ALGORITHM",
    "DEFAULT_BUCKET_COUNT",
    "DEFAULT_DOMAIN_RATIO",
]

# Seed strings feed CPython's Mersenne Twister; recorded in manifests so
# a future reimplementation can flag incompatibility instead of silently
# diverging.
RNG_ALGORITHM = "python-random-mt19937"

DEFAULT_BUCKET_COUNT = 20
DEFAULT_DOMAIN_RATIO: dict[DomainLabel, float] = {
    DomainLabel.GENERAL: 0.8,
    DomainLabel.MOVIES: 0.1,
    DomainLabel.PEOPLE: 0.1,
}


def check_domain_ratio(ratio: Mapping[DomainLabel, float]) -> None:
    """Raise unless ``ratio`` gives every known domain a non-negative share, summing to 1."""
    if set(ratio) != set(DomainLabel):
        raise SamplingError("domain_ratio must cover exactly the known domains")
    if any(r < 0 for r in ratio.values()):
        raise SamplingError("domain_ratio entries must be non-negative")
    total = sum(ratio.values())
    if abs(total - 1.0) > 1e-9:
        raise SamplingError(f"domain_ratio must sum to 1, got {total}")


@dataclass(frozen=True)
class SamplingConfig:
    """Targets and strata shape for one partition's sampling run."""

    target_count: int
    bucket_count: int = DEFAULT_BUCKET_COUNT
    domain_ratio: Mapping[DomainLabel, float] = field(
        default_factory=lambda: dict(DEFAULT_DOMAIN_RATIO)
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_count <= 0:
            raise SamplingError(f"target_count must be positive, got {self.target_count}")
        if self.bucket_count <= 0:
            raise SamplingError(f"bucket_count must be positive, got {self.bucket_count}")
        check_domain_ratio(self.domain_ratio)

    def content_hash(self) -> str:
        # Every field, so none can be left out: str-valued enum keys encode
        # as their values.
        return stable_hash(asdict(self))


@dataclass(frozen=True)
class EntityCandidate:
    """A sampled target entity with its sampling provenance."""

    doc_id: str
    partition: Partition
    domain: DomainLabel
    popularity_bucket: int


def stratify(pool: Sequence[Document], bucket_count: int) -> list[list[str]]:
    """Split ``pool`` into ``bucket_count`` popularity buckets of doc ids.

    Bucket 0 holds the most viewed, in :func:`~totsim.corpus.by_popularity`
    order.  With ``n = q * B + r`` documents the first ``r`` buckets get
    ``q + 1``, the rest ``q``, so bucket sizes never differ by more than one.
    """
    if bucket_count <= 0:
        raise SamplingError(f"bucket_count must be positive, got {bucket_count}")
    ordered = [d.doc_id for d in by_popularity(pool)]
    if len(ordered) < bucket_count:
        logger.warning(
            "pool of %d documents is smaller than bucket_count %d; some buckets will be empty",
            len(ordered),
            bucket_count,
        )
    q, r = divmod(len(ordered), bucket_count)
    buckets: list[list[str]] = []
    start = 0
    for index in range(bucket_count):
        size = q + 1 if index < r else q
        buckets.append(ordered[start : start + size])
        start += size
    return buckets


def domain_targets(target_count: int, domain_ratio: Mapping[DomainLabel, float]) -> dict[DomainLabel, int]:
    """Per-domain draw counts: non-general domains round, general absorbs the rest."""
    targets = {
        domain: round(target_count * domain_ratio[domain])
        for domain in DomainLabel
        if domain is not DomainLabel.GENERAL
    }
    targets[DomainLabel.GENERAL] = target_count - sum(targets.values())
    if targets[DomainLabel.GENERAL] < 0:
        raise SamplingError("domain_ratio rounding left no room for the general domain")
    return targets


def sample_candidates(
    pools: Mapping[DomainLabel, Sequence[Sequence[str]]],
    config: SamplingConfig,
    partition: Partition,
) -> list[EntityCandidate]:
    """Draw candidates for one partition from per-domain stratified pools.

    Args:
        pools: per domain, the bucket lists produced by :func:`stratify`.
        config: targets, ratio, and the seed for this run.
        partition: partition the pools came from; stamped on candidates
            and mixed into each domain's random stream.

    Each domain draws from its own ``random.Random`` seeded with
    ``"{seed}/{partition}/{domain}"``, cycling buckets in index order and
    skipping exhausted ones.  Draws are without replacement.

    Raises:
        SamplingError: when a domain pool cannot cover its target; the
            message names the domain and the shortfall.
    """
    targets = domain_targets(config.target_count, config.domain_ratio)
    candidates: list[EntityCandidate] = []
    seen: set[str] = set()
    for domain in DomainLabel:
        target = targets[domain]
        buckets = [list(bucket) for bucket in pools.get(domain, [])]
        available = sum(len(b) for b in buckets)
        if available < target:
            raise SamplingError(
                f"domain {domain.value} has {available} candidates for a target of "
                f"{target} (short by {target - available})"
            )
        rng = random.Random(f"{config.seed}/{partition.value}/{domain.value}")
        drawn = 0
        bucket_index = 0
        while drawn < target:
            bucket = buckets[bucket_index % len(buckets)]
            bucket_index += 1
            if not bucket:
                continue
            doc_id = bucket.pop(rng.randrange(len(bucket)))
            if doc_id in seen:
                raise SamplingError(f"document {doc_id} appears in more than one domain pool")
            seen.add(doc_id)
            candidates.append(
                EntityCandidate(
                    doc_id=doc_id,
                    partition=partition,
                    domain=domain,
                    popularity_bucket=(bucket_index - 1) % len(buckets),
                )
            )
            drawn += 1
    return candidates


def write_candidate_manifest(
    path: Path | str,
    candidates: Iterable[EntityCandidate],
    config: SamplingConfig,
) -> None:
    """Persist candidates as JSONL rows carrying seed and config hash."""
    config_hash = config.content_hash()
    write_jsonl(
        path,
        (
            {
                "doc_id": c.doc_id,
                "partition": c.partition.value,
                "domain": c.domain.value,
                "bucket": c.popularity_bucket,
                "seed": config.seed,
                "config_hash": config_hash,
            }
            for c in candidates
        ),
    )


def _candidate_from_row(row: Mapping) -> EntityCandidate:
    return EntityCandidate(
        doc_id=row["doc_id"],
        partition=Partition(row["partition"]),
        domain=DomainLabel(row["domain"]),
        popularity_bucket=row["bucket"],
    )


def read_candidate_manifest(path: Path | str) -> list[EntityCandidate]:
    return list(read_jsonl(path, _candidate_from_row))
