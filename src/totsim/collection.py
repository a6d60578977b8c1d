"""Final collection assembly, split stratification, and validation.

A finished collection is a directory bundle:

* ``queries.tsv``: ``query_id<TAB>query text``.
* ``qrels.txt``: ``query_id 0 doc_id 1`` (one relevant document each).
* ``splits.tsv``: ``query_id<TAB>train|dev|test``.
* ``manifest.json``: seeds, config hash, provider fingerprints, and
  per-partition/domain/split counts.

Splits are stratified per (partition, domain) cell with largest-remainder
allocation, so every cell lands within one query of its ideal share.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import Corpus, DomainLabel, Partition
from .errors import CollectionError
from .evaluation import load_qrels, write_qrels
from .generation import (
    DiscardRecord,
    PromptVariation,
    SyntheticQuery,
    anonymity_check,
)
from .sampling import DEFAULT_DOMAIN_RATIO, EntityCandidate, RNG_ALGORITHM, domain_targets
from .util import TextLines, atomic_write_text, read_json, stable_hash, write_json

logger = logging.getLogger(__name__)

__all__ = [
    "SPLITS",
    "DEFAULT_SPLIT_RATIO",
    "MANIFEST_NAME",
    "check_split_ratio",
    "CollectionSpec",
    "CollectionBundle",
    "assemble_collection",
    "write_bundle",
    "load_queries",
    "load_bundle",
    "ValidationReport",
    "validate_collection",
]

SPLITS = ("train", "dev", "test")
DEFAULT_SPLIT_RATIO = (0.8, 0.1, 0.1)
MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1


def check_split_ratio(ratio: Sequence[float]) -> None:
    """Raise unless ``ratio`` gives non-negative train, dev and test shares summing to 1."""
    if len(ratio) != len(SPLITS):
        raise CollectionError("split_ratio needs train, dev, and test entries")
    if any(r < 0 for r in ratio):
        raise CollectionError("split_ratio entries must be non-negative")
    if abs(sum(ratio) - 1.0) > 1e-9:
        raise CollectionError(f"split_ratio must sum to 1, got {sum(ratio)}")


@dataclass(frozen=True)
class CollectionSpec:
    """What the assembled collection should look like."""

    language: str
    strategy_map: Mapping[Partition, PromptVariation]
    seed: int
    split_ratio: tuple[float, float, float] = DEFAULT_SPLIT_RATIO
    domain_ratio: Mapping[DomainLabel, float] = field(
        default_factory=lambda: dict(DEFAULT_DOMAIN_RATIO)
    )

    def __post_init__(self) -> None:
        check_split_ratio(self.split_ratio)
        if not self.strategy_map:
            raise CollectionError("strategy_map must name a variation per partition")

    def content_hash(self) -> str:
        # Every field, so none can be left out: str-valued enums encode as
        # their values and the ratio tuple as a list.
        return stable_hash(asdict(self))


@dataclass
class CollectionBundle:
    """An assembled collection held in memory."""

    language: str
    queries: dict[str, str]
    qrels: dict[str, str]
    splits: dict[str, str]
    manifest: dict


def _largest_remainder(total: int, ratios: Sequence[float]) -> list[int]:
    # Rounding to 9 decimals first kills binary float drift (0.8 * 2000
    # must floor to 1600, not 1599).
    exact = [round(total * r, 9) for r in ratios]
    counts = [math.floor(e) for e in exact]
    remainder = total - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def assemble_collection(
    records: Sequence[SyntheticQuery | DiscardRecord],
    candidates: Mapping[str, EntityCandidate],
    spec: CollectionSpec,
    corpus: Corpus,
) -> CollectionBundle:
    """Assemble accepted queries into a split, validated bundle.

    Args:
        records: generation results for the selected strategies.
        candidates: sampled entity metadata keyed by document id, used
            to recover each query's partition and domain.
        spec: strategy map, ratios, and the seed for split shuffling.
        corpus: the target-language corpus the queries point into.

    Raises:
        CollectionError: a query references an unknown document or
            candidate, duplicates another query id, or was generated
            with a variation other than the one selected for its
            partition.
    """
    queries: dict[str, str] = {}
    qrels: dict[str, str] = {}
    cells: dict[tuple[Partition, DomainLabel], list[str]] = {}
    fingerprints: set[str] = set()
    discards: list[dict] = []
    for record in records:
        if record.discarded:
            discards.append(
                {
                    "query_id": record.query_id,
                    "doc_id": record.target_doc_id,
                    "variation": record.variation.value,
                    "attempts": record.attempts,
                }
            )
            continue
        if record.target_doc_id not in corpus:
            raise CollectionError(
                f"query {record.query_id} references document {record.target_doc_id} "
                f"absent from the corpus"
            )
        candidate = candidates.get(record.target_doc_id)
        if candidate is None:
            raise CollectionError(
                f"query {record.query_id} has no sampled candidate for {record.target_doc_id}"
            )
        expected = spec.strategy_map.get(candidate.partition)
        if expected is None:
            raise CollectionError(
                f"no strategy selected for partition {candidate.partition.value}"
            )
        if record.variation is not expected:
            raise CollectionError(
                f"query {record.query_id} used variation {record.variation.value} but "
                f"partition {candidate.partition.value} selected {expected.value}"
            )
        if record.query_id in queries:
            raise CollectionError(f"duplicate query id {record.query_id}")
        queries[record.query_id] = record.text
        qrels[record.query_id] = record.target_doc_id
        fingerprints.add(record.provider_fingerprint)
        cells.setdefault((candidate.partition, candidate.domain), []).append(record.query_id)

    splits: dict[str, str] = {}
    counts: dict[str, dict[str, dict]] = {}
    for partition, domain in sorted(cells, key=lambda pd: (pd[0].value, pd[1].value)):
        cell = sorted(cells[(partition, domain)])
        rng = random.Random(f"{spec.seed}/split/{partition.value}/{domain.value}")
        rng.shuffle(cell)
        allocation = _largest_remainder(len(cell), spec.split_ratio)
        start = 0
        split_counts: dict[str, int] = {}
        for split, count in zip(SPLITS, allocation):
            for query_id in cell[start : start + count]:
                splits[query_id] = split
            split_counts[split] = count
            start += count
        counts.setdefault(partition.value, {})[domain.value] = {
            "total": len(cell),
            "splits": split_counts,
        }

    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "tot-collection",
        "language": spec.language,
        "seed": spec.seed,
        "config_hash": spec.content_hash(),
        "rng": RNG_ALGORITHM,
        "query_count": len(queries),
        "corpus_size": len(corpus),
        "strategy_map": {p.value: v.value for p, v in sorted(spec.strategy_map.items())},
        "split_ratio": list(spec.split_ratio),
        "domain_ratio": {d.value: r for d, r in sorted(spec.domain_ratio.items())},
        "provider_fingerprints": sorted(fingerprints),
        "counts": counts,
        "discarded": sorted(discards, key=lambda d: d["query_id"]),
    }
    logger.info(
        "assembled %d queries (%d discarded) for language %s",
        len(queries),
        len(discards),
        spec.language,
    )
    return CollectionBundle(
        language=spec.language, queries=queries, qrels=qrels, splits=splits, manifest=manifest
    )


def write_bundle(bundle: CollectionBundle, directory: Path | str) -> None:
    """Write the four bundle files; each lands atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        directory / "queries.tsv",
        "".join(f"{qid}\t{bundle.queries[qid]}\n" for qid in sorted(bundle.queries)),
    )
    write_qrels(bundle.qrels, directory / "qrels.txt")
    atomic_write_text(
        directory / "splits.tsv",
        "".join(f"{qid}\t{bundle.splits[qid]}\n" for qid in sorted(bundle.splits)),
    )
    write_json(directory / MANIFEST_NAME, bundle.manifest)


def load_queries(path: Path | str) -> dict[str, str]:
    """Read ``query_id<TAB>text`` lines, skipping whitespace-only ones.

    Raises:
        CollectionError: a byte that is not UTF-8, a line without a tab,
            a query id that is empty or holds whitespace, or a repeated
            query id; it names the line.
    """
    queries: dict[str, str] = {}
    lines = TextLines(path, CollectionError)
    for line_no, line in lines:
        parts = line.rstrip("\n").split("\t", 1)
        if len(parts) != 2:
            raise lines.error(line_no, "expected two columns")
        if parts[0].split() != [parts[0]]:
            raise lines.error(line_no, f"query id {parts[0]!r} is empty or holds whitespace")
        if parts[0] in queries:
            raise lines.error(line_no, f"duplicate query id {parts[0]}")
        queries[parts[0]] = parts[1]
    return queries


def load_bundle(directory: Path | str) -> CollectionBundle:
    directory = Path(directory)
    manifest = read_json(directory / MANIFEST_NAME, lambda m: dict(m.items()), CollectionError)
    queries = load_queries(directory / "queries.tsv")
    splits: dict[str, str] = {}
    lines = TextLines(directory / "splits.tsv", CollectionError)
    for line_no, line in lines:
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2 or parts[1] not in SPLITS:
            raise lines.error(line_no, "expected 'query_id<TAB>split'")
        if parts[0] in splits:
            raise lines.error(line_no, f"duplicate query id {parts[0]}")
        splits[parts[0]] = parts[1]
    qrels = load_qrels(directory / "qrels.txt")
    return CollectionBundle(
        language=manifest.get("language", ""),
        queries=queries,
        qrels=qrels,
        splits=splits,
        manifest=manifest,
    )


@dataclass
class ValidationReport:
    """Everything wrong with a bundle; empty means it passed."""

    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_collection(bundle: CollectionBundle, corpus: Corpus) -> ValidationReport:
    """Re-check an assembled bundle against its corpus and manifest.

    Covers referential integrity, split coverage and consistency, a full
    anonymity re-check of every query text, and the per-partition domain
    ratio tolerance (each domain within one query of its target).
    """
    violations: list[str] = []
    query_ids = set(bundle.queries)
    if set(bundle.qrels) != query_ids:
        difference = sorted(set(bundle.qrels) ^ query_ids)
        violations.append(f"qrels and queries disagree on ids: {', '.join(difference[:5])}")
    if set(bundle.splits) != query_ids:
        difference = sorted(set(bundle.splits) ^ query_ids)
        violations.append(f"splits and queries disagree on ids: {', '.join(difference[:5])}")
    for query_id in sorted(query_ids):
        doc_id = bundle.qrels.get(query_id)
        if doc_id is None:
            continue
        if doc_id not in corpus:
            violations.append(f"{query_id}: relevant document {doc_id} not in corpus")
            continue
        doc = corpus.get(doc_id)
        if not anonymity_check(bundle.queries[query_id], doc.title, doc.aliases):
            violations.append(f"{query_id}: query text mentions a name of its target")
    for query_id, split in sorted(bundle.splits.items()):
        if split not in SPLITS:
            violations.append(f"{query_id}: unknown split {split!r}")

    manifest = bundle.manifest
    counts = manifest.get("counts", {})
    manifest_total = 0
    domain_ratio = {
        DomainLabel(name): ratio for name, ratio in manifest.get("domain_ratio", {}).items()
    } or dict(DEFAULT_DOMAIN_RATIO)
    for partition_name, domains in sorted(counts.items()):
        partition_total = sum(entry["total"] for entry in domains.values())
        targets = domain_targets(partition_total, domain_ratio)
        for domain_name, entry in sorted(domains.items()):
            manifest_total += entry["total"]
            split_sum = sum(entry["splits"].values())
            if split_sum != entry["total"]:
                violations.append(
                    f"{partition_name}/{domain_name}: split counts sum to {split_sum}, "
                    f"expected {entry['total']}"
                )
            target = targets[DomainLabel(domain_name)]
            if abs(entry["total"] - target) > 1:
                violations.append(
                    f"{partition_name}/{domain_name}: {entry['total']} queries but the "
                    f"domain ratio targets {target}"
                )
    if manifest_total != len(bundle.queries):
        violations.append(
            f"manifest counts total {manifest_total} but the bundle has {len(bundle.queries)} queries"
        )
    return ValidationReport(violations=violations)
