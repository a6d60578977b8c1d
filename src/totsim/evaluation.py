"""Known-item metrics and system-rank correlation.

Every query has exactly one relevant document, which collapses NDCG to
``1 / log2(rank + 1)`` for the rank at which the target appears (zero if
it is absent from the top k) and reciprocal rank to ``1 / rank``, so
every metric is computed from target ranks alone: one rank-based core,
:func:`evaluate_ranks`, serves both rankings held in memory and the rank
files the search and evaluate stages write.  A pool of systems is scored
on a real query set and on a synthetic one; for each metric the two
sides' values are aligned by system id, Kendall's tau-b compares the
system orderings those vectors induce and Pearson's r the values
themselves, and the generation strategy with the best mean tau per
partition wins.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ConstantVectorError, EvaluationError
from .util import TextLines, atomic_write_text

logger = logging.getLogger(__name__)

__all__ = [
    "METRICS",
    "load_qrels",
    "write_qrels",
    "write_rank_file",
    "read_rank_file",
    "MetricReport",
    "evaluate_ranks",
    "RunResult",
    "evaluate_pool",
    "SystemRanking",
    "kendall_tau",
    "pearson_r",
    "MetricCorrelation",
    "CorrelationResult",
    "correlate",
    "select_best_strategy",
]

METRICS = ("ndcg_100", "ndcg_1000", "mrr")


def load_qrels(path: Path | str) -> dict[str, str]:
    """Read ``query_id 0 doc_id 1`` lines into a query to document map."""
    qrels: dict[str, str] = {}
    lines = TextLines(path, EvaluationError)
    for line_no, line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[1] != "0" or parts[3] != "1":
            raise lines.error(line_no, "expected 'query_id 0 doc_id 1'")
        query_id, _, doc_id, _ = parts
        if query_id in qrels and qrels[query_id] != doc_id:
            raise lines.error(line_no, f"query {query_id} has more than one relevant document")
        qrels[query_id] = doc_id
    return qrels


def write_qrels(qrels: Mapping[str, str], path: Path | str) -> None:
    atomic_write_text(
        path, "".join(f"{query_id} 0 {qrels[query_id]} 1\n" for query_id in sorted(qrels))
    )


def write_rank_file(ranks: Mapping[str, Mapping[str, int]], path: Path | str) -> None:
    """Write ``query_id<TAB>system_id<TAB>rank`` lines from system -> query -> rank.

    Lines are sorted by query id, then system id; rank 0 means the target
    was not retrieved.
    """
    rows = sorted((query_id, system_id) for system_id in ranks for query_id in ranks[system_id])
    atomic_write_text(
        path,
        "".join(
            f"{query_id}\t{system_id}\t{ranks[system_id][query_id]}\n"
            for query_id, system_id in rows
        ),
    )


def read_rank_file(path: Path | str) -> dict[str, dict[str, int]]:
    """Read a file written by :func:`write_rank_file` as system -> query -> rank.

    Raises:
        EvaluationError: a byte that is not UTF-8, a line without three
            fields, a rank that is not a non-negative integer, or a
            repeated (query, system) pair; it names the line.
    """
    ranks: dict[str, dict[str, int]] = {}
    lines = TextLines(path, EvaluationError)
    for line_no, line in lines:
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3 or not parts[2].isdecimal():
            raise lines.error(line_no, "expected 'query_id<TAB>system_id<TAB>rank'")
        query_id, system_id, rank = parts
        per_query = ranks.setdefault(system_id, {})
        if query_id in per_query:
            raise lines.error(line_no, f"query {query_id} repeats for system {system_id}")
        per_query[query_id] = int(rank)
    return ranks


def _gain(rank: int, k: int) -> float:
    # DCG of a single relevant document at ``rank``, cut off at ``k``.
    return 1.0 / math.log2(rank + 1) if 0 < rank <= k else 0.0


def _reciprocal(rank: int, depth: int) -> float:
    return 1.0 / rank if 0 < rank <= depth else 0.0


@dataclass(frozen=True)
class MetricReport:
    """Mean metrics for one system over one query set."""

    system_id: str
    ndcg_100: float
    ndcg_1000: float
    mrr: float
    query_count: int

    def value(self, metric: str) -> float:
        if metric not in METRICS:
            raise EvaluationError(f"unknown metric {metric!r}")
        return getattr(self, metric)


def evaluate_ranks(system_id: str, ranks: Mapping[str, int]) -> MetricReport:
    """Average the metrics for one system from each query's target rank.

    A rank of 0 (target not retrieved) contributes zero to every mean.
    Means are ``math.fsum`` over the queries in sorted id order.
    """
    if not ranks:
        raise EvaluationError("cannot evaluate over an empty query set")
    ordered = [ranks[query_id] for query_id in sorted(ranks)]
    n = len(ordered)
    return MetricReport(
        system_id=system_id,
        ndcg_100=math.fsum(_gain(rank, 100) for rank in ordered) / n,
        ndcg_1000=math.fsum(_gain(rank, 1000) for rank in ordered) / n,
        mrr=math.fsum(_reciprocal(rank, 1000) for rank in ordered) / n,
        query_count=n,
    )


@dataclass
class RunResult:
    """Per-query rankings produced by one system, as (doc_id, score) pairs, best first."""

    system_id: str
    rankings: dict[str, list[tuple[str, float]]]

    def target_ranks(self, qrels: Mapping[str, str]) -> dict[str, int]:
        """Each qrels query's 1-based target rank; 0 when the target is not retrieved."""
        ranks = {}
        for query_id, doc_id in qrels.items():
            doc_ids = [doc for doc, _ in self.rankings.get(query_id, ())]
            ranks[query_id] = doc_ids.index(doc_id) + 1 if doc_id in doc_ids else 0
        return ranks


def evaluate_pool(runs: Sequence[RunResult], qrels: Mapping[str, str]) -> list[MetricReport]:
    """Evaluate every run over the qrels universe.

    Raises:
        EvaluationError: when a run mentions a query absent from the
            qrels, or the qrels are empty.
    """
    if not qrels:
        raise EvaluationError("cannot evaluate over an empty query set")
    universe = set(qrels)
    for run in runs:
        unknown = set(run.rankings) - universe
        if unknown:
            sample = ", ".join(sorted(unknown)[:3])
            raise EvaluationError(
                f"run {run.system_id} references {len(unknown)} query ids outside the qrels"
                f" (for example {sample})"
            )
    return [evaluate_ranks(run.system_id, run.target_ranks(qrels)) for run in runs]


@dataclass(frozen=True)
class SystemRanking:
    """One metric's score for each system of a pool.

    :func:`kendall_tau` aligns two rankings by system id, so the order of
    ``system_ids`` carries no meaning of its own.
    """

    metric: str
    system_ids: tuple[str, ...]
    scores: tuple[float, ...]


def _compare(a: float, b: float) -> int:
    return (a > b) - (a < b)


def _kendall_tau_values(xs: Sequence[float], ys: Sequence[float]) -> float:
    # tau-b = (concordant - discordant) / sqrt(pairs untied in x * pairs
    # untied in y), summed over all pairs; pools hold about ten systems.
    n = len(xs)
    if n != len(ys):
        raise EvaluationError(f"score vectors differ in length: {n} vs {len(ys)}")
    if n < 2:
        raise EvaluationError("tau requires at least two systems")
    s = untied_x = untied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = _compare(xs[i], xs[j])
            dy = _compare(ys[i], ys[j])
            s += dx * dy
            untied_x += dx != 0
            untied_y += dy != 0
    if untied_x == 0 or untied_y == 0:
        raise ConstantVectorError("tau undefined: one of the score vectors is constant")
    return s / math.sqrt(untied_x * untied_y)


def _aligned(first: Mapping[str, float], second: Mapping[str, float], what: str) -> tuple:
    """Two system id -> score maps as vectors in id order; ``what`` names them if the ids differ."""
    if first.keys() != second.keys():
        missing = sorted(first.keys() ^ second.keys())
        raise EvaluationError(f"{what} cover different systems: {', '.join(missing)}")
    order = sorted(first)
    return [first[s] for s in order], [second[s] for s in order]


def kendall_tau(first: SystemRanking, second: SystemRanking) -> float:
    """Kendall's tau-b between two system rankings.

    Computed on the score vectors aligned by system id, so ties in either
    ranking are handled by the tie-corrected denominator rather than by
    arbitrary ordering.

    Raises:
        EvaluationError: mismatched system sets, fewer than two systems,
            or a constant score vector (zero denominator).
    """
    first_scores, second_scores = (dict(zip(r.system_ids, r.scores)) for r in (first, second))
    return _kendall_tau_values(*_aligned(first_scores, second_scores, "rankings"))


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of two equal-length score vectors.

    Raises:
        EvaluationError: length mismatch, fewer than two points, or a
            constant vector (undefined correlation), with distinct
            messages for each case.
    """
    if len(xs) != len(ys):
        raise EvaluationError(f"score vectors differ in length: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise EvaluationError("pearson correlation requires at least two points")
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise ConstantVectorError("pearson correlation undefined for a constant vector")
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)


@dataclass(frozen=True)
class MetricCorrelation:
    tau: float
    pearson: float


@dataclass(frozen=True)
class CorrelationResult:
    """Agreement between real and synthetic system orderings."""

    per_metric: dict[str, MetricCorrelation]
    mean_tau: float
    mean_pearson: float

    @classmethod
    def from_per_metric(cls, per_metric: Mapping[str, MetricCorrelation]) -> "CorrelationResult":
        if set(per_metric) != set(METRICS):
            raise EvaluationError("correlation needs exactly the known metrics")
        return cls(
            per_metric=dict(per_metric),
            mean_tau=math.fsum(per_metric[m].tau for m in METRICS) / len(METRICS),
            mean_pearson=math.fsum(per_metric[m].pearson for m in METRICS) / len(METRICS),
        )


def correlate(
    real_reports: Sequence[MetricReport], synthetic_reports: Sequence[MetricReport]
) -> CorrelationResult:
    """Correlate the pool's metric vectors on real and synthetic queries.

    For each metric, both sides' values are aligned by system id; tau-b
    compares the orderings of the two vectors (ties handled by its
    denominator) and Pearson's r compares the values themselves.

    Raises:
        EvaluationError: when the two report lists cover different
            systems; the diagnostic names the difference.
        ConstantVectorError: when a metric is equal across the pool on
            either side, which leaves its correlation undefined.
    """
    per_metric: dict[str, MetricCorrelation] = {}
    for metric in METRICS:
        xs, ys = _aligned(
            {r.system_id: r.value(metric) for r in real_reports},
            {r.system_id: r.value(metric) for r in synthetic_reports},
            "real and synthetic pools",
        )
        per_metric[metric] = MetricCorrelation(
            tau=_kendall_tau_values(xs, ys), pearson=pearson_r(xs, ys)
        )
    return CorrelationResult.from_per_metric(per_metric)


def select_best_strategy(
    results: Mapping[tuple[object, str], CorrelationResult],
) -> dict[object, str]:
    """Pick the variation with the highest mean tau for each partition.

    Keys are ``(partition, variation_id)``.  Ties break toward the
    lowest variation id so selection is deterministic.
    """
    if not results:
        raise EvaluationError("no correlation results to select from")
    best: dict[object, tuple[float, str]] = {}
    for (partition, variation), result in sorted(results.items(), key=lambda kv: str(kv[0][1])):
        current = best.get(partition)
        if current is None or result.mean_tau > current[0]:
            best[partition] = (result.mean_tau, variation)
    return {partition: variation for partition, (_, variation) in best.items()}
