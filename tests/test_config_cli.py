"""YAML config loading, provider wiring, and the CLI pipeline on toy data."""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from conftest import TOY_DIR
from totsim.cli import main, parse_args
from totsim.config import load_config
from totsim.errors import ConfigError
from totsim.evaluation import MetricReport, evaluate_pool, load_qrels
from totsim.generation import read_query_manifest
from totsim.providers import (
    CannedResponseProvider,
    ChatTranslator,
    DeterministicMockProvider,
    HttpChatProvider,
    IdentityTranslator,
    MappingTranslator,
)
from totsim.retrieval import RunResult, default_lexical_pool, load_external_run
from totsim.util import dump_json, write_json, write_jsonl

TOY_CONFIG = TOY_DIR / "config.yaml"


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """
seed: 1
output_dir: out
languages:
  en:
    corpus: corpus_en.jsonl
"""


def test_load_toy_config() -> None:
    config = load_config(TOY_CONFIG)
    assert config.seed == 7
    assert config.output_dir == TOY_DIR / "out"
    assert [entry.code for entry in config.languages] == ["en", "zz"]
    assert config.english_corpus == TOY_DIR / "corpus_en.jsonl"
    zz = config.language("zz")
    assert zz.tokenizer == "cjk-ngram"
    assert zz.real_queries == TOY_DIR / "real_queries_zz.tsv"
    assert zz.real_qrels == TOY_DIR / "real_qrels_zz.txt"
    assert dict(zz.external_runs) == {
        "dense-a": TOY_DIR / "dense-a.run",
        "dense-b": TOY_DIR / "dense-b.run",
    }
    en = config.language("en")
    assert en.tokenizer is None
    assert en.real_queries is None
    assert config.target_count == 40
    assert config.bucket_count == 10
    assert config.popularity_top_fraction == 0.5
    assert config.min_chars == 200
    assert config.generation_provider == "mock"
    assert config.translation_provider == "identity"
    assert config.templates_dir == TOY_DIR / "templates"


def test_overrides_replace_scalars() -> None:
    config = load_config(TOY_CONFIG, overrides={"seed": 99, "workers": 4})
    assert config.seed == 99
    assert config.workers == 4
    untouched = load_config(TOY_CONFIG, overrides={"seed": None})
    assert untouched.seed == 7


def test_language_lookup_error() -> None:
    config = load_config(TOY_CONFIG)
    with pytest.raises(ConfigError, match="language 'qq' is not configured"):
        config.language("qq")


def test_effective_full_target_defaults_to_double() -> None:
    config = load_config(TOY_CONFIG)
    assert config.effective_full_target() == 80
    assert dataclasses.replace(config, full_target_count=50).effective_full_target() == 50


def test_content_hash_ignores_output_dir_only() -> None:
    config = load_config(TOY_CONFIG)
    moved = dataclasses.replace(config, output_dir=Path("/elsewhere"))
    assert moved.content_hash() == config.content_hash()
    # outputs do not depend on the worker count either
    rescaled = dataclasses.replace(config, workers=4)
    assert rescaled.content_hash() == config.content_hash()
    reseeded = dataclasses.replace(config, seed=8)
    assert reseeded.content_hash() != config.content_hash()


def test_content_hash_survives_moving_the_tree(tmp_path: Path) -> None:
    copies = []
    for name in ("a", "b"):
        target = tmp_path / name / "toy"
        shutil.copytree(TOY_DIR, target)
        copies.append(load_config(target / "config.yaml"))
    assert copies[0].content_hash() == copies[1].content_hash()
    assert copies[0].content_hash() == load_config(TOY_CONFIG).content_hash()


@pytest.mark.parametrize(
    ("snippet", "message"),
    [
        ("- just\n- a list\n", "expected a mapping at the top level"),
        ("output_dir: out\nlanguages: {en: {corpus: c}}\n", "missing config key seed"),
        ("seed: true\noutput_dir: out\nlanguages: {en: {corpus: c}}\n", "seed must be an integer"),
        ("seed: 1\nlanguages: {en: {corpus: c}}\n", "missing config key output_dir"),
        ("seed: 1\noutput_dir: out\n", "missing config key languages"),
        ("seed: 1\noutput_dir: out\nlanguages: {}\n", "non-empty mapping"),
        ("seed: 1\noutput_dir: out\nlanguages: {en: 5}\n", "languages.en must be a mapping"),
        (
            "seed: 1\noutput_dir: out\nlanguages: {en: {}}\n",
            "missing config key languages.en.corpus",
        ),
        (
            "seed: 1\noutput_dir: out\nlanguages: {en: {corpus: c, real_queries: q}}\n",
            "must be given together",
        ),
        (
            "seed: 1\noutput_dir: out\nlanguages: {en: {corpus: c, tokenizer: stemmer}}\n",
            "tokenizer must be 'whitespace' or 'cjk-ngram'",
        ),
        (
            "seed: 1\noutput_dir: out\nlanguages: {en: {corpus: c, external_runs: [a]}}\n",
            "external_runs must map",
        ),
        (
            "seed: 1\noutput_dir: out\nlanguages: {zz: {corpus: c}}\n",
            "missing config key english_corpus",
        ),
        (
            MINIMAL + "generation: 5\n",
            "generation must be a mapping",
        ),
        (
            MINIMAL + "sampling: {domain_ratio: {Gadgets: 1.0}}\n",
            "sampling.domain_ratio",
        ),
        (
            MINIMAL + "collection: {split_ratio: [0.5, 0.5]}\n",
            "split_ratio must be a list of three numbers",
        ),
    ],
)
def test_load_config_rejects_bad_input(tmp_path: Path, snippet: str, message: str) -> None:
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, snippet))


def test_load_config_rejects_invalid_yaml(tmp_path: Path) -> None:
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(write_config(tmp_path, "seed: [unclosed\n"))


def test_make_generator_variants(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    config = load_config(TOY_CONFIG)
    assert isinstance(config.make_generator(), DeterministicMockProvider)
    with pytest.raises(ConfigError, match="needs generation.canned_path"):
        dataclasses.replace(config, generation_provider="canned").make_generator()
    canned_path = tmp_path / "canned.json"
    write_json(canned_path, {})
    canned = dataclasses.replace(
        config, generation_provider="canned", canned_path=canned_path
    ).make_generator()
    assert isinstance(canned, CannedResponseProvider)
    with pytest.raises(ConfigError, match="needs generation.model"):
        dataclasses.replace(config, generation_provider="http").make_generator()
    monkeypatch.setenv("TOTSIM_ENDPOINT", "https://example.test/v1")
    http = dataclasses.replace(
        config, generation_provider="http", generation_model="m"
    ).make_generator()
    assert isinstance(http, HttpChatProvider)
    with pytest.raises(ConfigError, match="unknown generation provider 'carrier-pigeon'"):
        dataclasses.replace(config, generation_provider="carrier-pigeon").make_generator()


def test_make_translator_variants(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    config = load_config(TOY_CONFIG)
    assert isinstance(config.make_translator(), IdentityTranslator)
    with pytest.raises(ConfigError, match="needs translation.mapping_path"):
        dataclasses.replace(config, translation_provider="mapping").make_translator()
    mapping_path = tmp_path / "mapping.json"
    write_json(mapping_path, {"hello": "bonjour"})
    translator = dataclasses.replace(
        config, translation_provider="mapping", translation_mapping_path=mapping_path
    ).make_translator()
    assert isinstance(translator, MappingTranslator)
    assert translator.translate("hello", "fr") == "bonjour"
    write_json(mapping_path, ["not", "an", "object"])
    with pytest.raises(ConfigError, match="expected a JSON object"):
        dataclasses.replace(
            config, translation_provider="mapping", translation_mapping_path=mapping_path
        ).make_translator()
    with pytest.raises(ConfigError, match="needs generation.model"):
        dataclasses.replace(config, translation_provider="http").make_translator()
    monkeypatch.setenv("TOTSIM_ENDPOINT", "https://example.test/v1")
    chat = dataclasses.replace(
        config, translation_provider="http", generation_model="m"
    ).make_translator()
    assert isinstance(chat, ChatTranslator)
    with pytest.raises(ConfigError, match="unknown translation provider"):
        dataclasses.replace(config, translation_provider="telegraph").make_translator()


def test_parse_args_requires_command_and_config() -> None:
    with pytest.raises(SystemExit):
        parse_args([])
    with pytest.raises(SystemExit):
        parse_args(["frobnicate", "--config", "c.yaml"])
    with pytest.raises(SystemExit):
        parse_args(["ingest"])
    args = parse_args(["sample", "--config", "c.yaml", "--seed", "3", "--force"])
    assert args.command == "sample"
    assert args.seed == 3
    assert args.force


@pytest.fixture(scope="module")
def pipeline_tree(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """One full toy pipeline run shared by the read-only assertions below."""
    toy = tmp_path_factory.mktemp("cli") / "toy"
    shutil.copytree(TOY_DIR, toy)
    assert main(["pipeline", "--config", str(toy / "config.yaml")]) == 0
    return toy


def test_pipeline_writes_every_stage(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    for stage in (
        "ingest",
        "partition",
        "sample",
        "generate",
        "index",
        "search",
        "evaluate",
        "correlate",
        "select",
        "collection",
    ):
        assert (out / stage / "manifest.json").exists(), stage
    ingest = json.loads((out / "ingest" / "manifest.json").read_text(encoding="utf-8"))
    assert ingest["document_counts"] == {"en": 260, "zz": 320}
    assert (out / "partition" / "zz.tsv").exists()
    assert not (out / "partition" / "en.tsv").exists()
    for name in ("en-full", "zz-monolingual", "zz-bilingual"):
        assert (out / "sample" / f"{name}.jsonl").exists()
    assert (out / "search" / "zz" / "real" / "bm25-k1.2-b0.75.run").exists()
    assert (out / "search" / "en" / "full-V1" / "qld-mu1000.run").exists()


def test_pipeline_evaluates_and_correlates(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    for name in ("real", "real-monolingual", "real-bilingual", "monolingual-V1", "bilingual-V4"):
        assert (out / "evaluate" / "zz" / f"{name}.jsonl").exists()
    rows = [
        json.loads(line)
        for line in (out / "correlate" / "zz.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [(row["partition"], row["variation"]) for row in rows] == [
        ("monolingual", "V1"),
        ("monolingual", "V2"),
        ("bilingual", "V1"),
        ("bilingual", "V2"),
        ("bilingual", "V3"),
        ("bilingual", "V4"),
    ]
    for row in rows:
        assert -1.0 <= row["mean_tau"] <= 1.0
        assert -1.0 <= row["mean_pearson"] <= 1.0
    table = (out / "correlate" / "zz.txt").read_text(encoding="utf-8").splitlines()
    assert table[0].startswith("partition\tvariation\tndcg_100_tau")
    assert len(table) == 1 + len(rows)
    # English has no real queries, so it gets no correlation report
    assert not (out / "correlate" / "en.jsonl").exists()


def test_pipeline_selects_and_assembles(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    en_choice = json.loads((out / "select" / "en.json").read_text(encoding="utf-8"))
    assert en_choice == {"full": "V1"}
    zz_choice = json.loads((out / "select" / "zz.json").read_text(encoding="utf-8"))
    assert set(zz_choice) == {"bilingual", "monolingual"}
    assert all(v in {"V1", "V2", "V3", "V4"} for v in zz_choice.values())
    for code in ("en", "zz"):
        bundle_dir = out / "collection" / code
        for name in ("queries.tsv", "qrels.txt", "splits.tsv", "manifest.json"):
            assert (bundle_dir / name).exists()
    manifest = json.loads(
        (out / "collection" / "zz" / "manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["kind"] == "tot-collection"
    assert set(manifest["counts"]) == {"monolingual", "bilingual"}


def test_missing_upstream_stage_fails_with_hint(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    toy = tmp_path / "toy"
    shutil.copytree(TOY_DIR, toy)
    assert main(["search", "--config", str(toy / "config.yaml")]) == 1
    err = capsys.readouterr().err
    assert "error: search:" in err
    assert "run 'totsim" in err


def test_missing_config_file_reports_error(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    assert main(["ingest", "--config", str(tmp_path / "nope.yaml")]) == 1
    assert "error: ingest:" in capsys.readouterr().err


def test_seed_override_changes_sample_output(tmp_path: Path) -> None:
    toy = tmp_path / "toy"
    shutil.copytree(TOY_DIR, toy)
    config_arg = str(toy / "config.yaml")
    assert main(["partition", "--config", config_arg]) == 0
    assert main(["sample", "--config", config_arg]) == 0
    manifest = toy / "out" / "sample" / "zz-monolingual.jsonl"
    baseline = manifest.read_bytes()
    assert main(["sample", "--config", config_arg, "--seed", "99"]) == 0
    assert manifest.read_bytes() != baseline


def test_completed_stage_skips_until_forced(pipeline_tree: Path) -> None:
    select_path = pipeline_tree / "out" / "select" / "zz.json"
    original = select_path.read_bytes()
    select_path.write_text('{"scribble": true}', encoding="utf-8")
    config_arg = str(pipeline_tree / "config.yaml")
    # outputs exist and the manifest matches, so the stage is skipped and
    # the scribbled file survives
    assert main(["select", "--config", config_arg]) == 0
    assert select_path.read_text(encoding="utf-8") == '{"scribble": true}'
    assert main(["select", "--config", config_arg, "--force"]) == 0
    assert select_path.read_bytes() == original


def tree_state(root: Path) -> dict[Path, tuple[int, int]]:
    return {
        path: (path.stat().st_mtime_ns, path.stat().st_ino)
        for path in root.rglob("*")
        if path.is_file()
    }


def test_worker_count_change_reruns_nothing(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    before = tree_state(out)
    config_arg = str(pipeline_tree / "config.yaml")
    assert main(["pipeline", "--config", config_arg, "--workers", "2"]) == 0
    assert tree_state(out) == before


@pytest.fixture
def tree_copy(pipeline_tree: Path, tmp_path: Path) -> Path:
    """A disposable copy of the shared pipeline tree."""
    copy = tmp_path / "toy"
    shutil.copytree(pipeline_tree, copy)
    return copy


def test_outputs_in_an_older_format_rerun_their_stage(tree_copy: Path) -> None:
    out = tree_copy / "out"
    # the index and search stages as a tree written before their format 2
    # recorded them: version 1, and no rank files
    for stage in ("index", "search"):
        path = out / stage / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["schema_version"] == 2
        manifest["schema_version"] = 1
        manifest["outputs"] = [
            name for name in manifest["outputs"] if not name.endswith("ranks.tsv")
        ]
        write_json(path, manifest)
    for ranks in out.glob("search/*/*/ranks.tsv"):
        ranks.unlink()
    generated = tree_state(out / "generate")
    indexed = tree_state(out / "index")
    config_arg = str(tree_copy / "config.yaml")
    assert main(["pipeline", "--config", config_arg]) == 0
    assert tree_state(out / "generate") == generated
    assert tree_state(out / "index").keys() == indexed.keys()
    assert all(tree_state(out / "index")[path] != state for path, state in indexed.items())
    assert len(list(out.glob("search/*/*/ranks.tsv"))) == 8
    for stage in ("index", "search"):
        manifest = json.loads((out / stage / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["schema_version"] == 2
    assert main(["evaluate", "--config", config_arg, "--force"]) == 0


def test_reports_from_target_ranks_match_reports_from_run_files(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    config = load_config(pipeline_tree / "config.yaml")

    def pool(code: str, set_name: str, qrels: dict[str, str]) -> list[RunResult]:
        expected = sorted(qrels)
        paths = sorted((out / "search" / code / set_name).glob("*.run"))
        assert len(paths) == len(default_lexical_pool())
        runs = [load_external_run(path, expected, depth=config.depth) for path in paths]
        external = config.language(code).external_runs
        return runs + [
            load_external_run(external[system_id], expected, config.depth, system_id)
            for system_id in sorted(external)
        ]

    # (language, report name) -> reports from the run files
    expected_reports = {}
    for path in out.glob("generate/*/*.jsonl"):
        records = read_query_manifest(path)
        qrels = {r.query_id: r.target_doc_id for r in records if not r.discarded}
        code, set_name = path.parent.name, path.stem
        expected_reports[code, set_name] = evaluate_pool(pool(code, set_name, qrels), qrels)
    real = load_qrels(pipeline_tree / "real_qrels_zz.txt")
    real_runs = pool("zz", "real", real)
    expected_reports["zz", "real"] = evaluate_pool(real_runs, real)
    partition_of = dict(
        line.split("\t") for line in (out / "partition" / "zz.tsv").read_text().splitlines()
    )
    for partition in ("monolingual", "bilingual"):
        kept = {qid: doc for qid, doc in real.items() if partition_of[doc] == partition}
        sliced = [
            RunResult(run.system_id, {qid: run.rankings[qid] for qid in kept}) for run in real_runs
        ]
        expected_reports["zz", f"real-{partition}"] = evaluate_pool(sliced, kept)
    written = out.glob("evaluate/*/*.jsonl")
    assert sorted((path.parent.name, path.stem) for path in written) == sorted(expected_reports)
    for (code, name), reports in expected_reports.items():
        ordered = sorted(reports, key=lambda report: report.system_id)
        text = "".join(dump_json(report.to_dict()) + "\n" for report in ordered)
        assert (out / "evaluate" / code / f"{name}.jsonl").read_bytes() == text.encode("utf-8")


def test_evaluate_reads_no_lexical_run_file(tree_copy: Path) -> None:
    out = tree_copy / "out"
    before = {path: path.read_bytes() for path in (out / "evaluate").rglob("*") if path.is_file()}
    runs = list(out.glob("search/**/*.run"))
    assert len(runs) == 8 * len(default_lexical_pool())
    for path in runs:
        path.unlink()
    assert main(["evaluate", "--config", str(tree_copy / "config.yaml"), "--force"]) == 0
    after = {path: path.read_bytes() for path in (out / "evaluate").rglob("*") if path.is_file()}
    assert after == before


def test_real_query_missing_from_the_queries_file_ranks_zero(tree_copy: Path) -> None:
    queries = tree_copy / "real_queries_zz.tsv"
    lines = queries.read_text(encoding="utf-8").splitlines(keepends=True)
    missing = lines[0].split("\t")[0]
    queries.write_text("".join(lines[1:]), encoding="utf-8")
    config_arg = str(tree_copy / "config.yaml")
    assert main(["search", "--config", config_arg, "--force"]) == 0
    ranks_path = tree_copy / "out" / "search" / "zz" / "real" / "ranks.tsv"
    rows = [line.split("\t") for line in ranks_path.read_text(encoding="utf-8").splitlines()]
    systems = sorted(system.system_id for system in default_lexical_pool())
    assert len(rows) == len(lines) * len(systems)
    assert [row for row in rows if row[0] == missing] == [
        [missing, system_id, "0"] for system_id in systems
    ]
    assert main(["evaluate", "--config", config_arg, "--force"]) == 0


def test_evaluate_refuses_ranks_that_miss_a_query(
    tree_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    ranks_path = tree_copy / "out" / "search" / "zz" / "real" / "ranks.tsv"
    lines = ranks_path.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = lines[0].split("\t")[0]
    ranks_path.write_text(
        "".join(line for line in lines if not line.startswith(dropped + "\t")), encoding="utf-8"
    )
    assert main(["evaluate", "--config", str(tree_copy / "config.yaml"), "--force"]) == 1
    err = capsys.readouterr().err
    assert "ranks.tsv does not cover this query set" in err
    assert "run 'totsim search --force'" in err


def test_configured_temperatures_reach_the_provider(tmp_path: Path) -> None:
    toy = tmp_path / "toy"
    shutil.copytree(TOY_DIR, toy)
    config_path = toy / "config.yaml"
    text = config_path.read_text(encoding="utf-8")
    config_path.write_text(
        text.replace(
            "generation:\n  provider: mock\n",
            "generation:\n  provider: mock\n"
            "  summarize_temperature: 0.9\n  generate_temperature: 0.7\n",
        ),
        encoding="utf-8",
    )
    for stage in ("partition", "sample", "generate"):
        assert main([stage, "--config", str(config_path)]) == 0
    manifest = toy / "out" / "generate" / "zz" / "monolingual-V1.jsonl"
    rows = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    assert rows
    for row in rows:
        assert "summarize_temperature=0.9;generate_temperature=0.7" in row["provider_fingerprint"]


def write_reports(path: Path, ndcg_100: list[float], mrr: list[float]) -> None:
    write_jsonl(
        path,
        (
            MetricReport(
                system_id=f"s{i}", ndcg_100=n, ndcg_1000=n, mrr=m, query_count=4
            ).to_dict()
            for i, (n, m) in enumerate(zip(ndcg_100, mrr))
        ),
    )


def test_constant_metric_vector_leaves_its_row_undefined(
    tmp_path: Path, caplog: pytest.LogCaptureFixture
) -> None:
    toy = tmp_path / "toy"
    shutil.copytree(TOY_DIR, toy)
    config_arg = str(toy / "config.yaml")
    evaluate_dir = toy / "out" / "evaluate" / "zz"
    rising = [0.1, 0.2, 0.3]
    write_reports(evaluate_dir / "real.jsonl", rising, rising)
    # every monolingual variation and bilingual-V1 rank the pool as one tie
    for name in ("monolingual-V1", "monolingual-V2", "bilingual-V1"):
        write_reports(evaluate_dir / f"{name}.jsonl", [0.5, 0.5, 0.5], rising)
    write_reports(evaluate_dir / "bilingual-V2.jsonl", rising, rising)
    for name in ("bilingual-V3", "bilingual-V4"):
        write_reports(evaluate_dir / f"{name}.jsonl", rising[::-1], rising[::-1])
    assert main(["correlate", "--config", config_arg]) == 0
    correlations = toy / "out" / "correlate" / "zz.jsonl"
    rows = [json.loads(line) for line in correlations.read_text(encoding="utf-8").splitlines()]
    undefined = [
        (row["partition"], row["variation"]) for row in rows if row["mean_tau"] is None
    ]
    assert undefined == [("monolingual", "V1"), ("monolingual", "V2"), ("bilingual", "V1")]
    for row in rows:
        fields = [value for key, value in row.items() if key.endswith(("_tau", "_pearson"))]
        assert len(fields) == 8
        if row["mean_tau"] is None:
            assert fields == [None] * 8
    assert "zz/bilingual/V1" in caplog.text
    table = (toy / "out" / "correlate" / "zz.txt").read_text(encoding="utf-8").splitlines()
    assert table[1].split("\t")[2:] == ["nan"] * 8
    caplog.clear()
    assert main(["select", "--config", config_arg]) == 0
    choice = json.loads((toy / "out" / "select" / "zz.json").read_text(encoding="utf-8"))
    assert choice == {"monolingual": "V1", "bilingual": "V2"}
    assert "no defined correlation in the monolingual partition" in caplog.text


def test_correlate_still_fails_on_mismatched_pools(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    toy = tmp_path / "toy"
    shutil.copytree(TOY_DIR, toy)
    evaluate_dir = toy / "out" / "evaluate" / "zz"
    write_reports(evaluate_dir / "real.jsonl", [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    for name in ("monolingual-V1", "monolingual-V2", "bilingual-V1", "bilingual-V2",
                 "bilingual-V3", "bilingual-V4"):
        write_reports(evaluate_dir / f"{name}.jsonl", [0.1, 0.2], [0.1, 0.2])
    assert main(["correlate", "--config", str(toy / "config.yaml")]) == 1
    assert "different systems" in capsys.readouterr().err
