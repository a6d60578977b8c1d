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
from totsim.evaluation import MetricReport
from totsim.providers import (
    CannedResponseProvider,
    ChatTranslator,
    DeterministicMockProvider,
    HttpChatProvider,
    IdentityTranslator,
    MappingTranslator,
)
from totsim.util import write_json, write_jsonl

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
