"""Known-item metrics and system-rank correlation.

Every query has exactly one relevant document, which collapses NDCG to
``1 / log2(rank + 1)`` for the rank at which the target appears (zero if
it is absent from the top k) and reciprocal rank to ``1 / rank``, so
every metric is computed from target ranks alone: one rank-based core,
:func:`evaluate_ranks`, serves both rankings held in memory and the rank
files the search stage writes.  A pool of systems is scored on a real
query set and on a synthetic one; agreement between the two system
orderings is measured with Kendall's tau-b on each metric plus Pearson's
r on the raw metric vectors, and the generation strategy with the best
mean tau per partition wins.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ConstantVectorError, EvaluationError
from .retrieval import RunResult
from .util import atomic_write_text

logger = logging.getLogger(__name__)

__all__ = [
    "METRICS",
    "load_qrels",
    "write_qrels",
    "write_rank_file",
    "read_rank_file",
    "target_rank",
    "target_ranks",
    "ndcg_at_k",
    "reciprocal_rank",
    "MetricReport",
    "evaluate_ranks",
    "evaluate_run",
    "evaluate_pool",
    "SystemRanking",
    "rank_systems",
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
    path = Path(path)
    qrels: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4 or parts[1] != "0" or parts[3] != "1":
                raise EvaluationError(
                    f"{path.name} line {line_no}: expected 'query_id 0 doc_id 1'"
                )
            query_id, _, doc_id, _ = parts
            if query_id in qrels and qrels[query_id] != doc_id:
                raise EvaluationError(
                    f"{path.name} line {line_no}: query {query_id} has more than one relevant document"
                )
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
        EvaluationError: a line without three fields, a rank that is not a
            non-negative integer, or a repeated (query, system) pair.
    """
    path = Path(path)
    ranks: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3 or not parts[2].isdecimal():
                raise EvaluationError(
                    f"{path.name} line {line_no}: expected 'query_id<TAB>system_id<TAB>rank'"
                )
            query_id, system_id, rank = parts
            per_query = ranks.setdefault(system_id, {})
            if query_id in per_query:
                raise EvaluationError(
                    f"{path.name} line {line_no}: query {query_id} repeats for system {system_id}"
                )
            per_query[query_id] = int(rank)
    return ranks


def target_rank(ranking: Iterable[str], relevant: str) -> int:
    """The 1-based position of ``relevant`` in ``ranking``, or 0 when absent."""
    for position, doc_id in enumerate(ranking, start=1):
        if doc_id == relevant:
            return position
    return 0


def target_ranks(run: RunResult, qrels: Mapping[str, str]) -> dict[str, int]:
    """Each qrels query's target rank in ``run``; 0 for a query it did not answer."""
    return {
        query_id: target_rank((doc_id for doc_id, _ in run.rankings.get(query_id, ())), relevant)
        for query_id, relevant in qrels.items()
    }


def _gain(rank: int, k: int) -> float:
    # DCG of a single relevant document at ``rank``, cut off at ``k``.
    return 1.0 / math.log2(rank + 1) if 0 < rank <= k else 0.0


def _reciprocal(rank: int, depth: int) -> float:
    return 1.0 / rank if 0 < rank <= depth else 0.0


def ndcg_at_k(ranking: Sequence[str], relevant: str, k: int) -> float:
    """NDCG at cutoff ``k`` with a single relevant document.

    The ideal DCG is 1 (target at rank 1), so the score reduces to
    ``1 / log2(rank + 1)`` when the target sits at ``rank`` within the
    top ``k`` and 0 otherwise.
    """
    if k <= 0:
        raise EvaluationError(f"cutoff must be positive, got {k}")
    return _gain(target_rank(ranking, relevant), k)


def reciprocal_rank(ranking: Sequence[str], relevant: str, depth: int = 1000) -> float:
    return _reciprocal(target_rank(ranking, relevant), depth)


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

    def to_dict(self) -> dict:
        return {
            "system_id": self.system_id,
            "ndcg_100": self.ndcg_100,
            "ndcg_1000": self.ndcg_1000,
            "mrr": self.mrr,
            "query_count": self.query_count,
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "MetricReport":
        return cls(
            system_id=raw["system_id"],
            ndcg_100=raw["ndcg_100"],
            ndcg_1000=raw["ndcg_1000"],
            mrr=raw["mrr"],
            query_count=raw["query_count"],
        )


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


def evaluate_run(run: RunResult, qrels: Mapping[str, str], query_ids: Sequence[str]) -> MetricReport:
    """Average the metrics for ``run`` over ``query_ids``.

    Queries the run never answered contribute zero to every mean rather
    than being skipped, so sparse runs are penalized, not excused.
    """
    return evaluate_ranks(
        run.system_id, target_ranks(run, {query_id: qrels[query_id] for query_id in query_ids})
    )


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
    return [evaluate_ranks(run.system_id, target_ranks(run, qrels)) for run in runs]


@dataclass(frozen=True)
class SystemRanking:
    """Systems ordered by one metric, best first, with their scores."""

    metric: str
    system_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def score_of(self, system_id: str) -> float:
        return self.scores[self.system_ids.index(system_id)]


def rank_systems(reports: Sequence[MetricReport], metric: str) -> SystemRanking:
    """Order systems by descending metric value; ties by ascending id."""
    if metric not in METRICS:
        raise EvaluationError(f"unknown metric {metric!r}")
    ordered = sorted(reports, key=lambda r: (-r.value(metric), r.system_id))
    return SystemRanking(
        metric=metric,
        system_ids=tuple(r.system_id for r in ordered),
        scores=tuple(r.value(metric) for r in ordered),
    )


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


def kendall_tau(first: SystemRanking, second: SystemRanking) -> float:
    """Kendall's tau-b between two system rankings.

    Computed on the score vectors aligned by system id, so ties in either
    ranking are handled by the tie-corrected denominator rather than by
    arbitrary ordering.

    Raises:
        EvaluationError: mismatched system sets, fewer than two systems,
            or a constant score vector (zero denominator).
    """
    if set(first.system_ids) != set(second.system_ids):
        missing = sorted(set(first.system_ids) ^ set(second.system_ids))
        raise EvaluationError(f"rankings cover different systems: {', '.join(missing)}")
    order = sorted(first.system_ids)
    xs = [first.score_of(s) for s in order]
    ys = [second.score_of(s) for s in order]
    return _kendall_tau_values(xs, ys)


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

    def to_dict(self) -> dict:
        raw: dict = {
            metric: {"tau": mc.tau, "pearson": mc.pearson}
            for metric, mc in self.per_metric.items()
        }
        raw["mean_tau"] = self.mean_tau
        raw["mean_pearson"] = self.mean_pearson
        return raw


def correlate(
    real_reports: Sequence[MetricReport], synthetic_reports: Sequence[MetricReport]
) -> CorrelationResult:
    """Correlate the system orderings induced by real and synthetic queries.

    For each metric the pool is ranked on both sides; tau-b compares the
    orderings and Pearson's r compares the raw metric vectors aligned by
    system id.

    Raises:
        EvaluationError: when the two report lists cover different
            systems; the diagnostic names the difference.
        ConstantVectorError: when a metric is equal across the pool on
            either side, which leaves its correlation undefined.
    """
    real_systems = {r.system_id for r in real_reports}
    synthetic_systems = {r.system_id for r in synthetic_reports}
    if real_systems != synthetic_systems:
        missing = sorted(real_systems ^ synthetic_systems)
        raise EvaluationError(
            f"real and synthetic pools cover different systems: {', '.join(missing)}"
        )
    per_metric: dict[str, MetricCorrelation] = {}
    order = sorted(real_systems)
    real_by_id = {r.system_id: r for r in real_reports}
    synthetic_by_id = {r.system_id: r for r in synthetic_reports}
    for metric in METRICS:
        tau = kendall_tau(
            rank_systems(real_reports, metric), rank_systems(synthetic_reports, metric)
        )
        xs = [real_by_id[s].value(metric) for s in order]
        ys = [synthetic_by_id[s].value(metric) for s in order]
        per_metric[metric] = MetricCorrelation(tau=tau, pearson=pearson_r(xs, ys))
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
