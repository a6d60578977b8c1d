"""Metric oracles, tau-b and Pearson correctness, and strategy selection."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from totsim.errors import ConstantVectorError, EvaluationError
from totsim.evaluation import (
    METRICS,
    CorrelationResult,
    MetricCorrelation,
    MetricReport,
    SystemRanking,
    correlate,
    evaluate_pool,
    evaluate_run,
    kendall_tau,
    load_qrels,
    ndcg_at_k,
    pearson_r,
    rank_systems,
    reciprocal_rank,
    select_best_strategy,
    write_qrels,
)
from totsim.evaluation import _kendall_tau_values
from totsim.retrieval import RunResult


def reference_tau_b(xs: list[float], ys: list[float]) -> float:
    """Quadratic tau-b straight from the definition, for cross-checking."""
    n = len(xs)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    pairs_x = sum(1 for i in range(n) for j in range(i + 1, n) if xs[i] == xs[j])
    pairs_y = sum(1 for i in range(n) for j in range(i + 1, n) if ys[i] == ys[j])
    return (concordant - discordant) / math.sqrt((n0 - pairs_x) * (n0 - pairs_y))


def report(system_id: str, ndcg_100: float, ndcg_1000: float, mrr: float) -> MetricReport:
    return MetricReport(
        system_id=system_id, ndcg_100=ndcg_100, ndcg_1000=ndcg_1000, mrr=mrr, query_count=1
    )


def test_load_qrels_parses_and_validates(tmp_path: Path) -> None:
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\nq2 0 d2 1\n\nq1 0 d1 1\n", encoding="utf-8")
    assert load_qrels(path) == {"q1": "d1", "q2": "d2"}
    path.write_text("q1 0 d1 2\n", encoding="utf-8")
    with pytest.raises(EvaluationError, match="line 1"):
        load_qrels(path)
    path.write_text("q1 0 d1 1\nq1 0 d2 1\n", encoding="utf-8")
    with pytest.raises(EvaluationError, match="more than one relevant"):
        load_qrels(path)


def test_qrels_round_trip(tmp_path: Path) -> None:
    qrels = {"b": "d2", "a": "d1"}
    path = tmp_path / "qrels.txt"
    write_qrels(qrels, path)
    assert path.read_text(encoding="utf-8") == "a 0 d1 1\nb 0 d2 1\n"
    assert load_qrels(path) == qrels


def test_ndcg_single_relevant_oracle() -> None:
    ranking = [f"d{i}" for i in range(1, 20)]
    assert ndcg_at_k(ranking, "d1", 10) == 1.0
    assert ndcg_at_k(ranking, "d2", 10) == pytest.approx(0.6309297535714575, abs=1e-15)
    assert ndcg_at_k(ranking, "d3", 10) == pytest.approx(0.5, abs=1e-15)
    assert ndcg_at_k(ranking, "d4", 10) == pytest.approx(0.43067655807339306, abs=1e-15)
    assert ndcg_at_k(ranking, "d9", 10) == pytest.approx(0.3010299956639812, abs=1e-15)
    assert ndcg_at_k(ranking, "d11", 10) == 0.0
    assert ndcg_at_k(ranking, "missing", 10) == 0.0
    assert ndcg_at_k([], "d1", 10) == 0.0
    with pytest.raises(EvaluationError):
        ndcg_at_k(ranking, "d1", 0)


def test_reciprocal_rank_oracle() -> None:
    ranking = ["a", "b", "c", "d"]
    assert reciprocal_rank(ranking, "a") == 1.0
    assert reciprocal_rank(ranking, "d") == 0.25
    assert reciprocal_rank(ranking, "zz") == 0.0
    assert reciprocal_rank(ranking, "d", depth=3) == 0.0


def test_metric_report_accessors() -> None:
    r = report("s", 0.1, 0.2, 0.3)
    assert r.value("ndcg_100") == 0.1
    assert r.value("mrr") == 0.3
    with pytest.raises(EvaluationError):
        r.value("map")
    assert MetricReport.from_dict(r.to_dict()) == r


def test_evaluate_run_zero_fills_missing_queries() -> None:
    run = RunResult(system_id="s", rankings={"q1": [("d1", 1.0), ("d2", 0.5)]})
    qrels = {"q1": "d2", "q2": "d9"}
    result = evaluate_run(run, qrels, ["q1", "q2"])
    # q1 finds the target at rank 2, q2 contributes zeros
    assert result.ndcg_100 == pytest.approx(0.6309297535714575 / 2, abs=1e-15)
    assert result.mrr == pytest.approx(0.25)
    assert result.query_count == 2
    with pytest.raises(EvaluationError, match="empty"):
        evaluate_run(run, qrels, [])


def test_evaluate_pool_rejects_unknown_queries() -> None:
    runs = [RunResult(system_id="s1", rankings={"mystery": []})]
    with pytest.raises(EvaluationError, match="s1.*mystery"):
        evaluate_pool(runs, {"q1": "d1"})


def test_evaluate_pool_rejects_empty_qrels() -> None:
    run = RunResult(system_id="s", rankings={})
    with pytest.raises(EvaluationError, match="empty"):
        evaluate_pool([run], {})


def test_rank_systems_orders_and_breaks_ties() -> None:
    reports = [report("b", 0.5, 0, 0), report("a", 0.5, 0, 0), report("c", 0.9, 0, 0)]
    ranking = rank_systems(reports, "ndcg_100")
    assert ranking.system_ids == ("c", "a", "b")
    assert ranking.scores == (0.9, 0.5, 0.5)
    assert ranking.score_of("a") == 0.5
    with pytest.raises(EvaluationError):
        rank_systems(reports, "recall")


def test_tau_perfect_agreement_and_reversal() -> None:
    assert _kendall_tau_values([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert _kendall_tau_values([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0


def test_tau_hand_computed_cases() -> None:
    # one discordant pair among three: tau = (3 - 2) / 3
    assert _kendall_tau_values([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3, abs=1e-15)
    # ties on both sides: S = 4, denominator sqrt(5 * 5)
    assert _kendall_tau_values([1, 2, 2, 3], [1, 2, 3, 3]) == pytest.approx(0.8, abs=1e-15)


def test_tau_rejects_degenerate_inputs() -> None:
    with pytest.raises(EvaluationError, match="length"):
        _kendall_tau_values([1, 2], [1, 2, 3])
    with pytest.raises(EvaluationError, match="two systems"):
        _kendall_tau_values([1], [2])
    with pytest.raises(EvaluationError, match="constant"):
        _kendall_tau_values([5, 5, 5], [1, 2, 3])


def test_correlate_flags_a_constant_metric_vector() -> None:
    real = [report("a", 0.9, 0.9, 0.9), report("b", 0.5, 0.5, 0.5), report("c", 0.1, 0.1, 0.1)]
    flat = [report("a", 0.4, 0.9, 0.9), report("b", 0.4, 0.5, 0.5), report("c", 0.4, 0.1, 0.1)]
    with pytest.raises(ConstantVectorError, match="constant"):
        correlate(real, flat)
    with pytest.raises(ConstantVectorError, match="constant"):
        pearson_r([3, 3], [1, 2])
    # a mismatched pool is a real error, not an undefined correlation
    with pytest.raises(EvaluationError, match="different systems") as excinfo:
        correlate(real, flat[:2])
    assert not isinstance(excinfo.value, ConstantVectorError)


def test_kendall_tau_aligns_by_system_id() -> None:
    first = SystemRanking(metric="mrr", system_ids=("a", "b", "c"), scores=(0.9, 0.5, 0.1))
    second = SystemRanking(metric="mrr", system_ids=("c", "b", "a"), scores=(0.3, 0.5, 0.7))
    assert kendall_tau(first, second) == 1.0
    mismatched = SystemRanking(metric="mrr", system_ids=("a", "x"), scores=(1.0, 0.5))
    with pytest.raises(EvaluationError, match="different systems"):
        kendall_tau(first, mismatched)


def test_tau_matches_scipy_on_tied_vectors() -> None:
    stats = pytest.importorskip("scipy.stats")
    cases = [
        ([1.0, 2.0, 2.0, 3.0, 1.0], [2.0, 2.0, 3.0, 3.0, 1.0]),
        ([0.1, 0.1, 0.2, 0.9], [0.4, 0.3, 0.3, 0.8]),
        ([5.0, 1.0, 4.0, 2.0, 3.0], [1.0, 5.0, 2.0, 4.0, 3.0]),
    ]
    for xs, ys in cases:
        expected = stats.kendalltau(xs, ys, variant="b").statistic
        assert _kendall_tau_values(xs, ys) == pytest.approx(expected, abs=1e-12)


@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=25
    )
)
@settings(max_examples=150, deadline=None)
def test_tau_matches_quadratic_reference(pairs: list[tuple[int, int]]) -> None:
    xs = [float(x) for x, _ in pairs]
    ys = [float(y) for _, y in pairs]
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    assert _kendall_tau_values(xs, ys) == pytest.approx(
        reference_tau_b(xs, ys), abs=1e-12
    )


def test_pearson_hand_computed_cases() -> None:
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)
    assert pearson_r([1, 2, 3], [-2, -4, -6]) == pytest.approx(-1.0, abs=1e-15)
    assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)


def test_pearson_error_messages_are_distinct() -> None:
    with pytest.raises(EvaluationError, match="length"):
        pearson_r([1], [1, 2])
    with pytest.raises(EvaluationError, match="two points"):
        pearson_r([1], [2])
    with pytest.raises(EvaluationError, match="constant"):
        pearson_r([3, 3], [1, 2])


@given(
    values=st.lists(
        st.tuples(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        min_size=3,
        max_size=20,
    ),
    scale=st.floats(min_value=0.1, max_value=20),
    shift=st.floats(min_value=-100, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_pearson_affine_invariance(
    values: list[tuple[float, float]], scale: float, shift: float
) -> None:
    xs = [x for x, _ in values]
    ys = [y for _, y in values]
    # a spread below ~1e-6 can underflow the variance to exactly zero,
    # where the correlation is genuinely undefined in double precision
    assume(max(xs) - min(xs) > 1e-6 and max(ys) - min(ys) > 1e-6)
    base = pearson_r(xs, ys)
    transformed = pearson_r([scale * x + shift for x in xs], ys)
    assert transformed == pytest.approx(base, abs=1e-9)
    flipped = pearson_r([-x for x in xs], ys)
    assert flipped == pytest.approx(-base, abs=1e-9)


def test_correlation_result_means() -> None:
    per_metric = {
        "ndcg_100": MetricCorrelation(tau=0.9, pearson=0.8),
        "ndcg_1000": MetricCorrelation(tau=0.6, pearson=0.7),
        "mrr": MetricCorrelation(tau=0.3, pearson=0.6),
    }
    result = CorrelationResult.from_per_metric(per_metric)
    assert result.mean_tau == pytest.approx(0.6)
    assert result.mean_pearson == pytest.approx(0.7)
    with pytest.raises(EvaluationError):
        CorrelationResult.from_per_metric({"ndcg_100": per_metric["ndcg_100"]})


def test_correlate_per_metric_oracle() -> None:
    real = [
        report("s1", 0.9, 0.9, 0.9),
        report("s2", 0.5, 0.5, 0.5),
        report("s3", 0.1, 0.1, 0.1),
    ]
    synthetic = [
        report("s1", 0.8, 0.1, 0.5),
        report("s2", 0.6, 0.5, 0.9),
        report("s3", 0.4, 0.9, 0.1),
    ]
    result = correlate(real, synthetic)
    assert result.per_metric["ndcg_100"].tau == pytest.approx(1.0)
    assert result.per_metric["ndcg_1000"].tau == pytest.approx(-1.0)
    assert result.per_metric["mrr"].tau == pytest.approx(1 / 3, abs=1e-15)
    assert result.per_metric["ndcg_100"].pearson == pytest.approx(1.0)
    assert result.per_metric["ndcg_1000"].pearson == pytest.approx(-1.0)
    assert result.per_metric["mrr"].pearson == pytest.approx(0.5, abs=1e-15)
    assert result.mean_tau == pytest.approx(0.1111111111111111, abs=1e-15)


def test_correlate_rejects_mismatched_pools() -> None:
    real = [report("s1", 1, 1, 1), report("s2", 0, 0, 0)]
    synthetic = [report("s1", 1, 1, 1), report("s9", 0, 0, 0)]
    with pytest.raises(EvaluationError, match="s2, s9"):
        correlate(real, synthetic)


def result_with_mean_tau(tau: float) -> CorrelationResult:
    return CorrelationResult.from_per_metric(
        {m: MetricCorrelation(tau=tau, pearson=0.5) for m in METRICS}
    )


def test_select_best_strategy_picks_highest_mean_tau() -> None:
    results = {
        ("mono", "V1"): result_with_mean_tau(0.4),
        ("mono", "V2"): result_with_mean_tau(0.7),
        ("bi", "V1"): result_with_mean_tau(0.9),
        ("bi", "V3"): result_with_mean_tau(0.2),
    }
    assert select_best_strategy(results) == {"mono": "V2", "bi": "V1"}


def test_select_best_strategy_tie_prefers_lowest_variation() -> None:
    results = {
        ("mono", "V2"): result_with_mean_tau(0.5),
        ("mono", "V1"): result_with_mean_tau(0.5),
        ("mono", "V4"): result_with_mean_tau(0.5),
    }
    assert select_best_strategy(results) == {"mono": "V1"}
    with pytest.raises(EvaluationError):
        select_best_strategy({})
