"""Metric oracles, tau-b and Pearson correctness, and strategy selection."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_doc, read_run
from totsim.errors import ConstantVectorError, EvaluationError
from totsim.evaluation import (
    METRICS,
    CorrelationResult,
    MetricCorrelation,
    MetricReport,
    RunResult,
    SystemRanking,
    correlate,
    evaluate_pool,
    evaluate_ranks,
    kendall_tau,
    load_qrels,
    pearson_r,
    read_rank_file,
    select_best_strategy,
    write_qrels,
    write_rank_file,
)
from totsim.evaluation import _kendall_tau_values
from totsim.retrieval import (
    RetrievalSystem,
    Tokenizer,
    build_index,
    load_external_run,
    run_search,
)


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


def single(rank: int) -> MetricReport:
    """The report of one query whose target sits at ``rank`` (0: not retrieved)."""
    return evaluate_ranks("s", {"q": rank})


def test_ndcg_single_relevant_oracle() -> None:
    assert single(1).ndcg_100 == 1.0
    assert single(2).ndcg_100 == pytest.approx(0.6309297535714575, abs=1e-15)
    assert single(3).ndcg_100 == pytest.approx(0.5, abs=1e-15)
    assert single(4).ndcg_100 == pytest.approx(0.43067655807339306, abs=1e-15)
    assert single(9).ndcg_100 == pytest.approx(0.3010299956639812, abs=1e-15)
    # a rank beyond the cutoff scores zero at that cutoff only
    assert single(101).ndcg_100 == 0.0
    assert single(101).ndcg_1000 == pytest.approx(1 / math.log2(102), abs=1e-15)
    assert single(1001).ndcg_1000 == 0.0
    assert single(0).ndcg_100 == single(0).ndcg_1000 == 0.0


def test_reciprocal_rank_oracle() -> None:
    assert single(1).mrr == 1.0
    assert single(4).mrr == 0.25
    assert single(0).mrr == 0.0
    assert single(1001).mrr == 0.0


def test_each_cutoff_counts_its_own_rank_and_not_the_next() -> None:
    result = evaluate_ranks("s", {"q1": 100, "q2": 101, "q3": 1000, "q4": 1001, "q5": 0})
    assert result.ndcg_100 == pytest.approx((1 / math.log2(101)) / 5, rel=1e-12)
    assert result.ndcg_1000 == pytest.approx(
        (1 / math.log2(101) + 1 / math.log2(102) + 1 / math.log2(1001)) / 5, rel=1e-12
    )
    assert result.mrr == pytest.approx((1 / 100 + 1 / 101 + 1 / 1000) / 5, rel=1e-12)


def test_metric_report_accessors() -> None:
    r = report("s", 0.1, 0.2, 0.3)
    assert r.value("ndcg_100") == 0.1
    assert r.value("mrr") == 0.3
    with pytest.raises(EvaluationError):
        r.value("map")


def test_target_ranks_zero_fill_missing_queries() -> None:
    run = RunResult(system_id="s", rankings={"q1": [("d1", 1.0), ("d2", 0.5)]})
    qrels = {"q1": "d2", "q2": "d9"}
    ranks = run.target_ranks(qrels)
    assert ranks == {"q1": 2, "q2": 0}
    result = evaluate_ranks("s", ranks)
    # q1 finds the target at rank 2, q2 contributes zeros
    assert result.ndcg_100 == pytest.approx(0.6309297535714575 / 2, abs=1e-15)
    assert result.mrr == pytest.approx(0.25)
    assert result.query_count == 2


def test_evaluate_pool_rejects_unknown_queries() -> None:
    runs = [RunResult(system_id="s1", rankings={"mystery": []})]
    with pytest.raises(EvaluationError, match="s1.*mystery"):
        evaluate_pool(runs, {"q1": "d1"})


def test_evaluate_pool_rejects_empty_qrels() -> None:
    run = RunResult(system_id="s", rankings={})
    with pytest.raises(EvaluationError, match="empty"):
        evaluate_pool([run], {})


@given(ranks=st.lists(st.integers(min_value=0, max_value=1200), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_evaluate_ranks_matches_per_query_formulas(ranks: list[int]) -> None:
    by_query = {f"q{i:02d}": rank for i, rank in enumerate(ranks)}
    result = evaluate_ranks("s", by_query)
    n = len(ranks)
    assert result.query_count == n
    assert result.ndcg_100 == math.fsum(
        1.0 / math.log2(r + 1) for r in ranks if 0 < r <= 100
    ) / n
    assert result.ndcg_1000 == math.fsum(
        1.0 / math.log2(r + 1) for r in ranks if 0 < r <= 1000
    ) / n
    assert result.mrr == math.fsum(1.0 / r for r in ranks if 0 < r <= 1000) / n
    # the same ranks placed in rankings give the same report
    rankings = {
        query_id: [(f"d{i}", -float(i)) for i in range(1, max(rank, 1) + 3) if i != rank]
        for query_id, rank in by_query.items()
    }
    for query_id, rank in by_query.items():
        if rank:
            rankings[query_id].insert(rank - 1, ("target", 0.0))
    run = RunResult(system_id="s", rankings=rankings)
    qrels = dict.fromkeys(by_query, "target")
    assert run.target_ranks(qrels) == by_query
    assert evaluate_pool([run], qrels) == [result]
    with pytest.raises(EvaluationError, match="empty"):
        evaluate_ranks("s", {})


def test_target_rank_is_zero_when_the_target_is_not_retrieved(tmp_path: Path) -> None:
    index = build_index(
        make_corpus(
            "en",
            make_doc("a", body="red fish blue fish"),
            make_doc("b", body="red car"),
            make_doc("c", body="green fish"),
        ),
        Tokenizer(),
    )
    system = RetrievalSystem(system_id="bm25", kind="bm25", k1=1.2, b=0.75)
    queries = {"unindexed": "zebra", "top": "red fish", "deep": "red fish"}
    qrels = {"unindexed": "a", "top": "a", "deep": "b", "unasked": "c"}
    path = tmp_path / "bm25.run"
    full = run_search([system], queries, index, qrels, [path])["bm25"]
    pairs = read_run(path, queries)
    assert pairs.rankings["unindexed"] == []
    assert full == {"unindexed": 0, "top": 1, "deep": 2, "unasked": 0}
    # the doc-number arrays give the rank the (doc_id, score) pairs give
    assert pairs.target_ranks(qrels) == full
    # and so does the run file, read back as target ranks
    assert load_external_run(path, qrels) == full
    # below the search depth the target counts as not retrieved
    shallow = run_search([system], queries, index, qrels, [path], depth=1)["bm25"]
    assert shallow == {"unindexed": 0, "top": 1, "deep": 0, "unasked": 0}


def test_rank_file_round_trip(tmp_path: Path) -> None:
    ranks = {"s2": {"q1": 3, "q0": 0}, "s1": {"q1": 1, "q0": 1000}}
    path = tmp_path / "ranks.tsv"
    write_rank_file(ranks, path)
    assert path.read_text(encoding="utf-8") == (
        "q0\ts1\t1000\nq0\ts2\t0\nq1\ts1\t1\nq1\ts2\t3\n"
    )
    assert read_rank_file(path) == ranks


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("q1\ts1\n", "line 1: expected"),
        ("q1\ts1\t1\nq2\ts1\t-1\n", "line 2: expected"),
        ("q1\ts1\tone\n", "line 1: expected"),
        ("q1\ts1\t1\nq1\ts1\t2\n", "line 2: query q1 repeats for system s1"),
    ],
    ids=["two-fields", "negative-rank", "non-integer-rank", "repeated-pair"],
)
def test_read_rank_file_rejects_malformed_lines(tmp_path: Path, text: str, message: str) -> None:
    path = tmp_path / "ranks.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EvaluationError, match=message):
        read_rank_file(path)


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


def test_kendall_tau_and_correlate_name_the_systems_one_side_lacks() -> None:
    first = SystemRanking(metric="mrr", system_ids=("a", "b", "c"), scores=(0.9, 0.5, 0.1))
    other = SystemRanking(metric="mrr", system_ids=("x", "a"), scores=(1.0, 0.5))
    with pytest.raises(EvaluationError, match="^rankings cover different systems: b, c, x$"):
        kendall_tau(first, other)
    real = [report("s1", 1, 1, 1), report("s2", 0, 0, 0), report("s3", 0, 1, 0)]
    with pytest.raises(
        EvaluationError, match="^real and synthetic pools cover different systems: s2, s3, s9$"
    ):
        correlate(real, [report("s9", 0, 0, 0), report("s1", 1, 1, 1)])


def sorted_ranking(reports: list[MetricReport], metric: str) -> SystemRanking:
    """The pool ordered best first on ``metric``, ties by ascending system id."""
    ordered = sorted(reports, key=lambda r: (-r.value(metric), r.system_id))
    return SystemRanking(
        metric=metric,
        system_ids=tuple(r.system_id for r in ordered),
        scores=tuple(r.value(metric) for r in ordered),
    )


@given(
    pool=st.lists(
        st.tuples(*[st.sampled_from((0.0, 0.25, 0.5))] * (2 * len(METRICS))),
        min_size=2,
        max_size=9,
    )
)
@settings(max_examples=150, deadline=None)
def test_correlate_tau_matches_kendall_tau_of_rankings(
    pool: list[tuple[float, ...]],
) -> None:
    real = [report(f"s{i}", *values[:3]) for i, values in enumerate(pool)]
    synthetic = [report(f"s{i}", *values[3:]) for i, values in reversed(list(enumerate(pool)))]
    try:
        expected = {
            metric: kendall_tau(sorted_ranking(real, metric), sorted_ranking(synthetic, metric))
            for metric in METRICS
        }
    except ConstantVectorError:
        with pytest.raises(ConstantVectorError):
            correlate(real, synthetic)
        return
    result = correlate(real, synthetic)
    assert {metric: result.per_metric[metric].tau for metric in METRICS} == expected


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
