"""YAML config loading, provider wiring, and the CLI pipeline on toy data."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest
import yaml

from conftest import SPOILED_INDEX_META, TOY_DIR, edit_index_meta, read_run
import totsim.config as config_module
from totsim.cli import STAGES, cmd_pipeline, main, parse_args, run_stage
from totsim.config import KEYS, LANGUAGE_KEYS, LanguageConfig, PipelineConfig, load_config
from totsim.corpus import DomainLabel, ingest_corpus
from totsim.errors import ConfigError, ConstantVectorError, ProviderError
from totsim.evaluation import (
    METRICS,
    RunResult,
    correlate,
    evaluate_pool,
    evaluate_ranks,
    load_qrels,
    read_rank_file,
    write_rank_file,
)
from totsim.generation import read_query_manifest
from totsim.providers import (
    CannedResponseProvider,
    ChatTranslator,
    DeterministicMockProvider,
    HttpChatProvider,
    IdentityTranslator,
    MappingTranslator,
)
from totsim.retrieval import (
    default_lexical_pool,
    load_external_run,
    load_index,
    run_search,
)
from totsim.sampling import read_candidate_manifest
from totsim.util import dump_json, read_json, write_json, write_jsonl

TOY_CONFIG = TOY_DIR / "config.yaml"
SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parent.parent / "README.md"


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


# (config text, the ConfigError it must raise)
BAD_INPUT = [
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
        MINIMAL + "sampling: {domain_ratio: {General: 0.9, Movies: 0.1}}\n",
        "sampling.domain_ratio: domain_ratio must cover exactly the known domains",
    ),
    (
        MINIMAL + "sampling: {domain_ratio: {General: 0.5, Movies: 0.1, People: 0.1}}\n",
        "sampling.domain_ratio: domain_ratio must sum to 1, got 0.7",
    ),
    (
        MINIMAL + "sampling: {domain_ratio: {General: 1.2, Movies: -0.1, People: -0.1}}\n",
        "sampling.domain_ratio: domain_ratio entries must be non-negative",
    ),
    (MINIMAL + "sampling: {target_count: 0}\n", "sampling.target_count must be at least 1, got 0"),
    (MINIMAL + "sampling: {bucket_count: 0}\n", "sampling.bucket_count must be at least 1, got 0"),
    (
        MINIMAL + "sampling: {full_target_count: 0}\n",
        "sampling.full_target_count must be at least 1, got 0",
    ),
    (
        MINIMAL + "corpus_filters: {popularity_top_fraction: 0}\n",
        r"corpus_filters.popularity_top_fraction must be in \(0, 1\], got 0",
    ),
    (
        MINIMAL + "corpus_filters: {popularity_top_fraction: 1.5}\n",
        r"corpus_filters.popularity_top_fraction must be in \(0, 1\], got 1.5",
    ),
    (MINIMAL + "corpus_filters: {min_chars: -1}\n", "corpus_filters.min_chars must be at least 0"),
    (
        MINIMAL + "collection: {split_ratio: [0.5, 0.5]}\n",
        "split_ratio must be a list of three numbers",
    ),
    (MINIMAL + "target_count: 40\n", "unknown config key target_count"),
    (
        "seed: 1\noutput_dir: out\nenglish_corpus: e\n"
        "languages: {zz: {corpus: c, tokeniser: whitespace}}\n",
        "unknown config key languages.zz.tokeniser",
    ),
    (
        MINIMAL + "sampling: {target_count: many}\n",
        "sampling.target_count must be an integer, got 'many'",
    ),
    (
        MINIMAL + "sampling: {target_count: 40.7}\n",
        "sampling.target_count must be an integer, got 40.7",
    ),
    (
        MINIMAL + "sampling: {bucket_count: '12'}\n",
        "sampling.bucket_count must be an integer, got '12'",
    ),
    (MINIMAL + "retrieval: {depth: .inf}\n", "retrieval.depth must be an integer, got inf"),
    (MINIMAL + "retrieval: {depth: -1}\n", "retrieval.depth must be at least 1, got -1"),
    (MINIMAL + "retrieval: {depth: 0}\n", "retrieval.depth must be at least 1, got 0"),
    (MINIMAL + "workers: 0\n", "workers must be at least 1, got 0"),
    (MINIMAL + "workers: 2.5\n", "workers must be an integer, got 2.5"),
    (
        MINIMAL + "generation: {char_budget: 0}\n",
        "generation.char_budget must be at least 1, got 0",
    ),
    (
        MINIMAL + "generation: {summarize_temperature: '0.7'}\n",
        "generation.summarize_temperature must be a number, got '0.7'",
    ),
    (MINIMAL + "sampling: {target_cont: 40}\n", "unknown config key sampling.target_cont"),
    (
        MINIMAL + "generation: {summarise_temperature: 0.2}\n",
        "unknown config key generation.summarise_temperature",
    ),
    (
        MINIMAL + "collection: {split_ratio: [0.5, 0.5, 0.5]}\n",
        "collection.split_ratio: split_ratio must sum to 1, got 1.5",
    ),
    (MINIMAL + "slice_real_by_partition: 'no'\n", "must be true or false"),
    (
        "seed: 1\noutput_dir: out\nenglish_corpus: e\nlanguages: {no: {corpus: c}}\n",
        "mapping of code strings",
    ),
    (MINIMAL + "generation: {provider: moc}\n", "generation.provider must be 'mock' or"),
    (
        MINIMAL + "translation: {provider: telegraph}\n",
        "translation.provider must be 'identity' or",
    ),
    # what a backend needs is checked at load, before any stage runs
    (
        MINIMAL + "generation: {provider: canned}\n",
        "generation.provider 'canned' needs generation.canned_path",
    ),
    (
        MINIMAL + "generation: {provider: http}\n",
        "generation.provider 'http' needs generation.model",
    ),
    (
        MINIMAL + "translation: {provider: mapping}\n",
        "translation.provider 'mapping' needs translation.mapping_path",
    ),
    (
        MINIMAL + "translation: {provider: http}\n",
        "translation.provider 'http' needs generation.model",
    ),
    (
        "seed: 1\noutput_dir: out\nenglish_corpus: e.jsonl\nlanguages: {en: {corpus: f.jsonl}}\n",
        "english_corpus and languages.en.corpus must name the same file",
    ),
    (
        "seed: 1\noutput_dir: out\n"
        "languages: {en: {corpus: c, external_runs: {qld-mu500: a.run}}}\n",
        "languages.en.external_runs.qld-mu500: 'qld-mu500' is the id of a lexical system",
    ),
    (
        "seed: 1\noutput_dir: out\nlanguages: {en: {corpus: c, external_runs: {yes: a.run}}}\n",
        "external_runs must map system id strings",
    ),
]


@pytest.mark.parametrize(("snippet", "message"), BAD_INPUT)
def test_load_config_rejects_bad_input(tmp_path: Path, snippet: str, message: str) -> None:
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, snippet))


def test_every_field_is_set_by_exactly_one_key() -> None:
    assert Counter(name for name, _ in KEYS.values()) == {
        f.name: 1 for f in dataclasses.fields(PipelineConfig) if f.name != "base_dir"
    }
    assert Counter(name for name, _ in LANGUAGE_KEYS.values()) == {
        f.name: 1 for f in dataclasses.fields(LanguageConfig) if f.name != "code"
    }


def test_null_keeps_the_default(tmp_path: Path) -> None:
    config = load_config(
        write_config(tmp_path, MINIMAL + "workers: null\nsampling: {target_count: null}\n")
    )
    assert (config.workers, config.target_count) == (1, 2500)


# A changed hash reruns every stage on every existing output tree, paid
# `generate` calls included, so the digests are pinned.
TOY_HASH = "8e8e9baed3aea9f092e68958555e608b46774d85cd74ab6f3a17d195ef1aa12f"
EVERY_KEY_HASH = "92b330ae5e04d08eddd15eab238407b2dd6df16976e7e79ee82fac5e1ed1c075"
EVERY_KEY = """
seed: 11
output_dir: build/out
workers: 3
english_corpus: data/en.jsonl
domain_mapping: data/mapping.tsv
templates_dir: prompts
slice_real_by_partition: false
languages:
  zz:
    corpus: data/zz.jsonl
    tokenizer: whitespace
    real_queries: data/queries.tsv
    real_qrels: data/qrels.txt
    external_runs:
      dense-a: runs/a.run
      bm25-x: runs/b.run
  en:
    corpus: data/en.jsonl
    tokenizer: cjk-ngram
corpus_filters:
  popularity_top_fraction: 0.35
  min_chars: 150
sampling:
  bucket_count: 5
  target_count: 30
  full_target_count: 45
  domain_ratio: {General: 0.6, Movies: 0.25, People: 0.15}
generation:
  provider: canned
  model: some-model
  canned_path: recorded.json
  char_budget: 12000
  summarize_temperature: 0.7
  generate_temperature: 0.9
translation:
  provider: mapping
  mapping_path: mapping.json
retrieval:
  depth: 200
collection:
  split_ratio: [0.6, 0.2, 0.2]
"""


def test_content_hash_is_pinned(tmp_path: Path) -> None:
    assert load_config(TOY_CONFIG).content_hash() == TOY_HASH
    config = load_config(write_config(tmp_path, EVERY_KEY))
    assert config.content_hash() == EVERY_KEY_HASH
    # the every-key config really does move every field off its default
    for f in dataclasses.fields(PipelineConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(config, f.name) != f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(config, f.name) != f.default_factory(), f.name


def readme_config_block() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_lists_every_key(tmp_path: Path) -> None:
    block = readme_config_block()
    assert load_config(write_config(tmp_path, block)).target_count == 40
    raw = yaml.safe_load(block)
    listed = set()
    for name, value in raw.items():
        if isinstance(value, dict) and name != "languages":
            listed |= {f"{name}.{sub}" for sub in value}
        else:
            listed.add(name)
    assert listed == set(KEYS)
    assert {key for entry in raw["languages"].values() for key in entry} == set(LANGUAGE_KEYS)


def test_load_config_rejects_invalid_yaml(tmp_path: Path) -> None:
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(write_config(tmp_path, "seed: [unclosed\n"))


def test_config_is_parsed_with_libyaml_when_present() -> None:
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert config_module._LOADER is expected


def loaded_with(
    loader: type, path: Path, monkeypatch: pytest.MonkeyPatch
) -> tuple[PipelineConfig, str] | str:
    """The config at ``path`` and its hash, or the ConfigError text, under ``loader``."""
    with monkeypatch.context() as patch:
        patch.setattr(config_module, "_LOADER", loader)
        try:
            config = load_config(path)
        except ConfigError as exc:
            return str(exc)
        return config, config.content_hash()


# Every input above, and YAML that neither loader can parse: libyaml words
# its parse errors differently, and the message must not change with it.
PARITY_INPUTS = [
    pytest.param(TOY_CONFIG.read_text(encoding="utf-8"), True, id="toy"),
    pytest.param(readme_config_block(), True, id="readme"),
    pytest.param(EVERY_KEY, True, id="every-key"),
    *(pytest.param(snippet, False, id=f"bad-{i}") for i, (snippet, _) in enumerate(BAD_INPUT)),
    pytest.param("seed: 1\noutput_dir: out: deeper\n", False, id="malformed"),
    pytest.param("seed: [unclosed\n", False, id="unclosed"),
]
LOADERS = [
    pytest.param(yaml.SafeLoader, id="python"),
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="libyaml",
        marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML has no libyaml"),
    ),
]


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize(("text", "valid"), PARITY_INPUTS)
def test_both_yaml_loaders_give_the_same_config(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, loader: type, text: str, valid: bool
) -> None:
    # loading opens no file the config names, so the toy text loads from here too
    path = write_config(tmp_path, text)
    reference = loaded_with(yaml.SafeLoader, path, monkeypatch)
    assert isinstance(reference, tuple) is valid
    assert loaded_with(loader, path, monkeypatch) == reference


def test_make_generator_variants(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    config = load_config(TOY_CONFIG)
    assert isinstance(config.make_generator(), DeterministicMockProvider)
    canned_path = tmp_path / "canned.json"
    write_json(canned_path, {})
    canned = dataclasses.replace(
        config, generation_provider="canned", canned_path=canned_path
    ).make_generator()
    assert isinstance(canned, CannedResponseProvider)
    monkeypatch.setenv("TOTSIM_ENDPOINT", "https://example.test/v1")
    http = dataclasses.replace(
        config, generation_provider="http", generation_model="m"
    ).make_generator()
    assert isinstance(http, HttpChatProvider)


def test_make_translator_variants(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    config = load_config(TOY_CONFIG)
    assert isinstance(config.make_translator(), IdentityTranslator)
    mapping_path = tmp_path / "mapping.json"
    write_json(mapping_path, {"hello": "bonjour"})
    translator = dataclasses.replace(
        config, translation_provider="mapping", translation_mapping_path=mapping_path
    ).make_translator()
    assert isinstance(translator, MappingTranslator)
    assert translator.translate("hello", "fr") == "bonjour"
    for table, message in (
        (["not", "an", "object"], "expected a JSON object"),
        ({"hello": "bonjour", "bye": None}, "the value of 'bye' is not a string"),
    ):
        write_json(mapping_path, table)
        with pytest.raises(ProviderError, match=message):
            dataclasses.replace(
                config, translation_provider="mapping", translation_mapping_path=mapping_path
            ).make_translator()
    monkeypatch.setenv("TOTSIM_ENDPOINT", "https://example.test/v1")
    chat = dataclasses.replace(
        config, translation_provider="http", generation_model="m"
    ).make_translator()
    assert isinstance(chat, ChatTranslator)


def test_english_corpus_may_spell_the_language_corpus_path_differently(tmp_path: Path) -> None:
    # the paths are compared as the content hash records them, opening no file
    for spelling in ("./e.jsonl", "data/../e.jsonl", str(tmp_path / "e.jsonl")):
        text = f"seed: 1\noutput_dir: out\nenglish_corpus: {spelling}\n"
        config = load_config(write_config(tmp_path, text + "languages: {en: {corpus: e.jsonl}}\n"))
        assert config.language("en").corpus == tmp_path / "e.jsonl"


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
    # the zz doc ids, grouped by partition and sorted; English is not partitioned
    grouped = read_json(out / "partition" / "zz.json")
    assert sorted(grouped) == ["bilingual", "monolingual"]
    assert all(doc_ids == sorted(doc_ids) for doc_ids in grouped.values())
    assert sorted(grouped["bilingual"] + grouped["monolingual"]) == sorted(
        doc.doc_id for doc in ingest_corpus(pipeline_tree / "corpus_zz.jsonl", "zz")
    )
    partition = read_json(out / "partition" / "manifest.json")
    assert partition["schema_version"] == 2
    assert partition["outputs"] == ["zz.json"]
    assert partition["partition_counts"] == {"zz": {k: len(v) for k, v in grouped.items()}}
    for name in ("en-full", "zz-monolingual", "zz-bilingual"):
        assert (out / "sample" / f"{name}.jsonl").exists()
    assert (out / "search" / "zz" / "real" / "bm25-k1.2-b0.75.run").exists()
    assert (out / "search" / "en" / "full-V1" / "qld-mu1000.run").exists()


# Per query set: sha256 over "<file> <sha256 of file>" lines of its run files
# and ranks.tsv, taken from the search implementation that first wrote them.
# A change to scoring arithmetic, tie order or score text moves a digest.
SEARCH_DIGESTS = {
    "en/full-V1": "c196ef4c0e80a66c75006f7699f8512e8b1d7477e249e38c96486755aa8a51f8",
    "zz/bilingual-V1": "dec746fc9050e3aef97584f61094a5b30cf9f86477001d2d229df2354fd28157",
    "zz/bilingual-V2": "b99454295043f2eb4dca6289e06e49ddad73dfcbfca7e30f1f32d7bcb4ac3234",
    "zz/bilingual-V3": "163ce0e178b9873ad664dc3af491d429c544005f4a5e1a2773d7244f1686182d",
    "zz/bilingual-V4": "881b584929a18bbb8f15b0c629bb594635a44965b8824a24f28b58e46cfcbf34",
    "zz/monolingual-V1": "6fa2d91d415e071cfc74f4970a4c5a93449d80e3da89a4c12a1a2de520e773f2",
    "zz/monolingual-V2": "87f268aa4694bf22ef86b3954ae02556592ae6630b6ebf09eec797f18226aca6",
    "zz/real": "2b232230cc5a7c837a2fe4a8a6b47ed4b4c831f835e5fc0621079814dfc8349a",
}


def test_search_bytes_are_pinned(pipeline_tree: Path) -> None:
    search = pipeline_tree / "out" / "search"
    digests = {}
    for set_dir in sorted(path for path in search.glob("*/*") if path.is_dir()):
        files = sorted(set_dir.glob("*.run")) + [set_dir / "ranks.tsv"]
        assert len(files) == len(default_lexical_pool()) + 1, set_dir
        listing = "".join(
            f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
            for path in sorted(files)
        )
        digests[set_dir.relative_to(search).as_posix()] = hashlib.sha256(
            listing.encode("utf-8")
        ).hexdigest()
    assert digests == SEARCH_DIGESTS


# sha256 of each index/<lang>.npz, taken from the per-language build that
# first wrote format v2. Building the indexes another way must keep them.
INDEX_DIGESTS = {
    "en.npz": "4aa9deed79bca8a2bd439f3332e209ab5e53b744e3c747f51c4104d4f5163939",
    "zz.npz": "785db4fab8e4b48f6e6c988b521326694e6234848cc253d84f40247ade817f03",
}


def test_index_bytes_are_pinned(pipeline_tree: Path) -> None:
    index = pipeline_tree / "out" / "index"
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(index.glob("*.npz"))
    }
    assert digests == INDEX_DIGESTS


# sha256 of the ingest manifest and of each file partition and evaluate write,
# manifests included, taken while search still held a whole set's rankings
# in memory before writing them.
STAGE_DIGESTS = {
    "evaluate/en/full-V1.ranks.tsv": "e0baf0c8f22f696d7a73889c5f005fb412cf480ea79dae440be5c6880628531f",
    "evaluate/manifest.json": "056d2d8230e28a7d6a6a419e4af5690fa485d2c5997936ecdc54f42460c9cd8b",
    "evaluate/zz/bilingual-V1.ranks.tsv": "4739873712934c3330662c968c39e1b9908329132173dd85710df7b973f415c1",
    "evaluate/zz/bilingual-V2.ranks.tsv": "4e4f6def8a66f6f719619876ac5e0330bc658e1bda34a584f5492a4eb0daf9be",
    "evaluate/zz/bilingual-V3.ranks.tsv": "3806245e797684f7c48a27b3f02023e4c43f37fc10501c056be52923f0c03ea5",
    "evaluate/zz/bilingual-V4.ranks.tsv": "d2d1d98746adc958d1f1b3d83e8ae912592270d40a177832231aec90c92db44e",
    "evaluate/zz/monolingual-V1.ranks.tsv": "9c594d3474a2042520566a77e41ed611166e53a6a0709f8e1ddd609786f1f40d",
    "evaluate/zz/monolingual-V2.ranks.tsv": "18c8db43ef7c31280871fd57625955bb0783b9bb54a69b89eac7082299443eee",
    "evaluate/zz/real.ranks.tsv": "5bd7e25b4d7384508830b982f7afa41e217651e79af641ddada0cc2d89f71fa9",
    "ingest/manifest.json": "ae213ddd9fa00d66024462444246005058964ffb10c8e7eb2245a8a3135ffa33",
    "partition/manifest.json": "805793ed82f5a3b53544a4b84dfbe08ecc6d93203dc1fd953b511b1fb8f153e0",
    "partition/zz.json": "72e43f1532bf7fc044d6b31d6e07f81c54c8a4afd242ddb487ec6c98f8827d1a",
}


def test_ingest_partition_and_evaluate_bytes_are_pinned(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    files = [out / "ingest" / "manifest.json"] + [
        path
        for stage in ("partition", "evaluate")
        for path in sorted((out / stage).rglob("*"))
        if path.is_file()
    ]
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
    }
    assert digests == STAGE_DIGESTS


def test_search_memory_does_not_grow_with_the_query_set(
    pipeline_tree: Path, tmp_path: Path
) -> None:
    out = pipeline_tree / "out"
    index = load_index(out / "index" / "zz.npz")
    records = read_query_manifest(out / "generate" / "zz" / "bilingual-V1.jsonl")
    accepted = [record for record in records if not record.discarded]
    pool = default_lexical_pool()
    paths = [tmp_path / f"{system.system_id}.run" for system in pool]

    def traced_peak(copies: int) -> int:
        # each copy of the set under fresh query ids
        copied = [(f"{r.query_id}-{copy}", r) for copy in range(copies) for r in accepted]
        queries = {query_id: record.text for query_id, record in copied}
        qrels = {query_id: record.target_doc_id for query_id, record in copied}
        tracemalloc.start()
        try:
            run_search(pool, queries, index, qrels, paths)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1)  # loads what the first search imports and caches
    assert traced_peak(4) <= 1.25 * traced_peak(1)


def test_a_tree_does_not_depend_on_workers_or_hash_seed(tmp_path: Path) -> None:
    trees = []
    for workers, hash_seed in ((1, "0"), (2, "1")):
        toy = tmp_path / f"toy-{workers}"
        shutil.copytree(TOY_DIR, toy)
        subprocess.run(
            [sys.executable, "-m", "totsim.cli", "pipeline", "--config", str(toy / "config.yaml")]
            + ["--workers", str(workers)],
            check=True,
            capture_output=True,
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed},
        )
        out = toy / "out"
        trees.append(
            {
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file()
            }
        )
    assert len(trees[0]) > 100
    assert trees[0] == trees[1]


# sha256 of each file sample and assemble write, manifests included: the
# candidates and the assembled collection, which is the pipeline's product.
PRODUCT_DIGESTS = {
    "collection/en/manifest.json": "047dfeb3fa709ddec8b5a922f054e015cf3a06305c115b0ee470125865392d4a",
    "collection/en/qrels.txt": "9450ee00e7a97b9b065ec33b6125e687d3f1d276f970d60ca73aec94c0b66cc1",
    "collection/en/queries.tsv": "ccf5b9fb5fa113a6d559831fec5e8e006a783069b8fa2c914a18e97d85887916",
    "collection/en/splits.tsv": "d96cb31218ac611ddaef7b768ebcc73826d14bcc8aee5a2a56bc85f5bad40fb6",
    "collection/manifest.json": "673141e3df6b709d985caf7e8537dbb8d138c4c720d2d92563785fb925703895",
    "collection/zz/manifest.json": "7e6c0bad31c055d89209654c8ba7250777b1099e4cf34ff4b1f8c9a998742830",
    "collection/zz/qrels.txt": "010a887facb06be96979439de7fe9b9b7bad6156299db9ae5a14ed5d5c2788a7",
    "collection/zz/queries.tsv": "52c68e3e77c657c1f01f6cf47281ff5f31e715503df6a2ae0f2133c550cb50d8",
    "collection/zz/splits.tsv": "f1bb821b758643a3183ae54b534459da8c53364a174f5845192c3ee6d004ef4d",
    "sample/en-full.jsonl": "cf5950da9b2af4d976a7b4584c4f27c405ac71dc180e27bf05fec3ba0a6660b5",
    "sample/manifest.json": "837d02f61dc994a8f8c7c7002bff531a10d095cc2e9274ced2a5b3630872f68b",
    "sample/zz-bilingual.jsonl": "3950d0fbd7356fa8bee9de7bb4dc6eb332cb0ad2779d43a87a5470f036e496c7",
    "sample/zz-monolingual.jsonl": "3386df1575812becec4e46d82823e46b8797c837b409cfa611ddcd2310867436",
}


def test_sample_and_collection_bytes_are_pinned(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for stage in ("sample", "collection")
        for path in sorted((out / stage).rglob("*"))
        if path.is_file()
    }
    assert digests == PRODUCT_DIGESTS


# sha256 of each generate/<lang>/<set>.jsonl, taken when every variation
# still sent its own summarize request.
GENERATE_DIGESTS = {
    "en/full-V1": "ec64f2e88cf6a10461be77f05791f2bea6d325a56b8c9609ea5afa05833c0aa2",
    "zz/bilingual-V1": "be82a2f2497a28bafe129a782dfadc8ae397cddb7467f0b75cab3d3122174229",
    "zz/bilingual-V2": "41d6b7b526672b82f0fde29a90fd2259ba249fc054d0118ddbb3260695c8d179",
    "zz/bilingual-V3": "2c5ac80eb86ed80774a7badde64518433f669b8658c3e5b4ba7db09c459be6bc",
    "zz/bilingual-V4": "981ced56b1085fc31530b496885f3e4d6321ec8a566cca6b8ea47865d6c515a4",
    "zz/monolingual-V1": "23814bfb5390406e79de2d1f33c31019e33ba5b17c711bab5b7f8df63d6264d0",
    "zz/monolingual-V2": "7e2196beaecfe718d4a9a977c475667fe285ddf0cba89590d4444111a8da6dcb",
}


def test_generate_bytes_are_pinned(pipeline_tree: Path) -> None:
    generate = pipeline_tree / "out" / "generate"
    digests = {
        path.relative_to(generate).with_suffix("").as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(generate.glob("*/*.jsonl"))
    }
    assert digests == GENERATE_DIGESTS


# sha256 of each file correlate and select write, manifests included, taken
# while evaluate still wrote one report file per query set and real slice.
DECISION_DIGESTS = {
    "correlate/manifest.json": "e74ffa43e8335710563690f9081f5c321d7f72db893361eccc96fbae58fbbd4b",
    "correlate/zz.jsonl": "6ce22bd3cafc366646faec20b523f5060e4248aa631d95d23aa779251c5cdb5d",
    "correlate/zz.txt": "1fe2bf3a1bcb58e6a9629860fce6a432143a8aa5437aceb854bf8ac30ed38879",
    "select/en.json": "73c7c8f34da16b1628f3b7c0ee257bf3964402b421a5704dbaf2a5a5f5bc34ae",
    "select/manifest.json": "e14a6d1732dbb8d1884d65ed2d187326a354a0d0463d80da8e0df64fdc61726d",
    "select/zz.json": "14afc022dc911d1c2aa614cc0623f0b3167b6a08eaf7f779b88a338c230f3a42",
}


def test_correlate_and_select_bytes_are_pinned(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for stage in ("correlate", "select")
        for path in sorted((out / stage).iterdir())
    }
    assert digests == DECISION_DIGESTS


class CountingProvider(DeterministicMockProvider):
    """The mock backend, counting every request by temperature.

    With ``fresh_samples`` each response gets the call number appended, so
    no two calls agree, as with a live model sampling at a temperature
    above zero.
    """

    def __init__(self, fresh_samples: bool = False) -> None:
        super().__init__()
        self.fresh_samples = fresh_samples
        self.requests: list[tuple[str, float]] = []

    def complete(self, prompt: str, temperature: float) -> str:
        self.requests.append((prompt, temperature))
        text = super().complete(prompt, temperature)
        return f"{text} s{len(self.requests)}" if self.fresh_samples else text


def generate_with(
    toy: Path, provider: CountingProvider, monkeypatch: pytest.MonkeyPatch
) -> PipelineConfig:
    """Run ``ingest`` to ``generate`` on ``toy`` with ``provider`` as the model."""
    monkeypatch.setattr(PipelineConfig, "make_generator", lambda self: provider)
    config = load_config(toy / "config.yaml")
    for stage in ("ingest", "partition", "sample", "generate"):
        run_stage(stage, config)
    return config


def test_generate_sends_each_summarize_request_once(
    toy_copy: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    provider = CountingProvider()
    config = generate_with(toy_copy, provider, monkeypatch)
    summarize = [r for r in provider.requests if r[1] == config.summarize_temperature]
    generate = [r for r in provider.requests if r[1] == config.generate_temperature]
    assert len(summarize) == len(set(summarize)) == 189
    assert len(generate) == 320
    assert len(provider.requests) == 509


def test_generate_logs_the_summaries_it_reused(
    toy_copy: Path, monkeypatch: pytest.MonkeyPatch, caplog: pytest.LogCaptureFixture
) -> None:
    with caplog.at_level("INFO", logger="totsim.cli"):
        generate_with(toy_copy, CountingProvider(), monkeypatch)
    lines = [r.message for r in caplog.records if "summarize requests" in r.message]
    assert lines == ["generate: sent 189 summarize requests for 320 entities, reused 131 summaries"]


def test_variations_of_one_article_share_its_summary(
    toy_copy: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    config = generate_with(toy_copy, CountingProvider(fresh_samples=True), monkeypatch)

    def summaries(set_name: str) -> dict[str, str]:
        path = config.output_dir / "generate" / "zz" / f"{set_name}.jsonl"
        return {r.target_doc_id: r.summary for r in read_query_manifest(path)}

    for partition in ("monolingual", "bilingual"):
        assert summaries(f"{partition}-V1") == summaries(f"{partition}-V2")
    v3 = summaries("bilingual-V3")
    assert v3 == summaries("bilingual-V4")
    # V3 summarizes the linked English page, not the target page
    v1 = summaries("bilingual-V1")
    assert all(v3[doc_id] != v1[doc_id] for doc_id in v1)


def test_generate_parses_each_corpus_file_once(
    toy_copy: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    config = load_config(toy_copy / "config.yaml")
    for stage in ("ingest", "partition", "sample"):
        run_stage(stage, config)
    parsed: list[tuple[Path, str]] = []

    def counting_ingest(path, language):
        parsed.append((path, language))
        return ingest_corpus(path, language)

    monkeypatch.setattr("totsim.cli.ingest_corpus", counting_ingest)
    run_stage("generate", config)
    # the English corpus is both ``english_corpus`` and the ``en`` language
    assert sorted(parsed) == [
        (toy_copy / "corpus_en.jsonl", "en"),
        (toy_copy / "corpus_zz.jsonl", "zz"),
    ]


def test_english_only_generate_makes_two_calls_per_entity(
    toy_copy: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # English has only V1, so no two requests repeat and nothing is saved
    raw = yaml.safe_load((toy_copy / "config.yaml").read_text(encoding="utf-8"))
    del raw["languages"]["zz"]
    (toy_copy / "config.yaml").write_text(yaml.safe_dump(raw), encoding="utf-8")
    provider = CountingProvider()
    config = generate_with(toy_copy, provider, monkeypatch)
    records = read_query_manifest(config.output_dir / "generate" / "en" / "full-V1.jsonl")
    assert len(records) == 80
    assert len(provider.requests) == 2 * len(records)


def test_pipeline_evaluates_and_correlates(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    # one pool rank table per query set, and nothing else
    assert stage_files(out / "evaluate") == [
        "en/full-V1.ranks.tsv",
        "zz/bilingual-V1.ranks.tsv",
        "zz/bilingual-V2.ranks.tsv",
        "zz/bilingual-V3.ranks.tsv",
        "zz/bilingual-V4.ranks.tsv",
        "zz/monolingual-V1.ranks.tsv",
        "zz/monolingual-V2.ranks.tsv",
        "zz/real.ranks.tsv",
    ]
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


def edit_toy_config(toy: Path, edit: Callable[[dict], None]) -> str:
    """Apply ``edit`` to the toy copy's config; the config path, for ``--config``."""
    path = toy / "config.yaml"
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    edit(raw)
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


def test_a_backend_without_what_it_needs_fails_before_any_stage(
    toy_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    config_arg = edit_toy_config(
        toy_copy, lambda raw: raw.update(generation={"provider": "canned"})
    )
    assert main(["pipeline", "--config", config_arg]) == 1
    assert "generation.provider 'canned' needs generation.canned_path" in capsys.readouterr().err
    assert not (toy_copy / "out").exists()


def test_a_recorded_response_that_is_not_text_fails_generate(
    toy_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    recorded = toy_copy / "recorded.json"
    write_json(recorded, {"a" * 64: "text", "b" * 64: None})
    config_arg = edit_toy_config(
        toy_copy,
        lambda raw: raw.update(generation={"provider": "canned", "canned_path": recorded.name}),
    )
    for stage in ("ingest", "partition", "sample"):
        assert main([stage, "--config", config_arg]) == 0
    capsys.readouterr()
    assert main(["generate", "--config", config_arg]) == 1
    message = f"{recorded}: the value of {'b' * 64!r} is not a string"
    assert capsys.readouterr().err == f"error: generate: {message}\n"


def test_ingest_counts_an_english_corpus_that_is_not_a_target(toy_copy: Path) -> None:
    config_arg = edit_toy_config(toy_copy, lambda raw: raw["languages"].pop("en"))
    assert main(["ingest", "--config", config_arg]) == 0
    manifest = read_json(toy_copy / "out" / "ingest" / "manifest.json")
    assert manifest["document_counts"] == {"zz": 320, "en": 260}


def test_a_sample_shortfall_names_the_language_and_partition(
    toy_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    config_arg = edit_toy_config(toy_copy, lambda raw: raw["sampling"].update(target_count=400))
    capsys.readouterr()
    assert main(["pipeline", "--config", config_arg]) == 1
    message = "en/full: domain General has 88 candidates for a target of 640 (short by 552)"
    assert capsys.readouterr().err == f"error: pipeline: {message}\n"


def test_an_empty_partition_names_the_language_and_partition(
    toy_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # no zz document links to the one English article, so no zz entity is bilingual
    article = {"id": "en9999", "instance_of": [], "text": "x" * 300, "title": "T", "views": 1}
    (toy_copy / "one_en.jsonl").write_text(json.dumps(article) + "\n", encoding="utf-8")

    def edit(raw: dict) -> None:
        raw["languages"].pop("en")
        raw["english_corpus"] = "one_en.jsonl"

    config_arg = edit_toy_config(toy_copy, edit)
    capsys.readouterr()
    assert main(["pipeline", "--config", config_arg]) == 1
    message = "zz/bilingual: popularity filter received an empty pool"
    assert capsys.readouterr().err == f"error: pipeline: {message}\n"


def test_sample_labels_domains_by_the_configured_mapping(toy_copy: Path) -> None:
    # Q5 is People in the packaged mapping, Q999999 in none of it
    (toy_copy / "domains.tsv").write_text("Q5\tMovies\nQ999999\tPeople\n", encoding="utf-8")
    config_arg = edit_toy_config(toy_copy, lambda raw: raw.update(domain_mapping="domains.tsv"))
    for stage in ("partition", "sample"):
        assert main([stage, "--config", config_arg]) == 0
    docs = {doc.doc_id: doc for doc in ingest_corpus(toy_copy / "corpus_zz.jsonl", "zz")}
    expected = {"Q5": DomainLabel.MOVIES, "Q999999": DomainLabel.PEOPLE}
    labels = Counter()
    for partition in ("monolingual", "bilingual"):
        path = toy_copy / "out" / "sample" / f"zz-{partition}.jsonl"
        for candidate in read_candidate_manifest(path):
            classes = docs[candidate.doc_id].instance_of
            label = next((expected[c] for c in classes if c in expected), DomainLabel.GENERAL)
            assert candidate.domain is label, candidate.doc_id
            labels[label] += 1
    assert labels[DomainLabel.MOVIES] and labels[DomainLabel.PEOPLE]


def test_select_defaults_a_language_without_real_queries_to_v1(
    toy_copy: Path, caplog: pytest.LogCaptureFixture
) -> None:
    def drop_real_data(raw: dict) -> None:
        for key in ("real_queries", "real_qrels", "external_runs"):
            del raw["languages"]["zz"][key]

    config_arg = edit_toy_config(toy_copy, drop_real_data)
    with caplog.at_level("WARNING", logger="totsim.cli"):
        assert main(["select", "--config", config_arg]) == 0
    out = toy_copy / "out"
    choice = json.loads((out / "select" / "zz.json").read_text(encoding="utf-8"))
    assert choice == {"monolingual": "V1", "bilingual": "V1"}
    assert json.loads((out / "select" / "en.json").read_text(encoding="utf-8")) == {"full": "V1"}
    assert [r.getMessage() for r in caplog.records] == [
        "zz has no correlations; defaulting every partition to V1"
    ]
    # it read no correlation table: none was ever written
    assert not (out / "correlate").exists()


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


def test_malformed_config_value_reports_error(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    config = write_config(tmp_path, MINIMAL + "sampling: {target_count: many}\n")
    assert main(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "error: ingest: sampling.target_count must be an integer" in err
    assert "Traceback" not in err


BAD_BYTE = b"\xff\n"
CANNED = {"generation": {"provider": "canned", "canned_path": "canned.json"}}
MAPPING = {"translation": {"provider": "mapping", "mapping_path": "mapping.json"}}

# (command, input file, config keys that name it, bytes appended to it)
OUTSIDE_INPUTS = [
    pytest.param("ingest", "config.yaml", {}, b"# \xff\n", id="config"),
    pytest.param("ingest", "corpus_zz.jsonl", {}, BAD_BYTE, id="corpus-byte"),
    pytest.param("ingest", "corpus_zz.jsonl", {}, b'{"id": "zz9999",\n', id="corpus-json"),
    pytest.param("ingest", "corpus_en.jsonl", {}, BAD_BYTE, id="english-corpus-byte"),
    pytest.param("ingest", "corpus_en.jsonl", {}, b'{"id"\n', id="english-corpus-json"),
    pytest.param("search", "real_queries_zz.tsv", {}, BAD_BYTE, id="real-queries"),
    pytest.param("search", "real_qrels_zz.txt", {}, BAD_BYTE, id="real-qrels"),
    pytest.param("evaluate", "dense-a.run", {}, BAD_BYTE, id="external-run"),
    pytest.param(
        "sample", "domains.tsv", {"domain_mapping": "domains.tsv"}, BAD_BYTE, id="domain-mapping"
    ),
    pytest.param("generate", "canned.json", CANNED, b'{"a": "\xff"}\n', id="canned-byte"),
    pytest.param("generate", "canned.json", CANNED, b'{"a": \n', id="canned-json"),
    pytest.param("generate", "mapping.json", MAPPING, b'{"a": "\xff"}\n', id="mapping-byte"),
    pytest.param("generate", "mapping.json", MAPPING, b'{"a": \n', id="mapping-json"),
    pytest.param("generate", "templates/generate_zz.txt", {}, BAD_BYTE, id="template"),
]


def assert_one_error_line(err: str, command: str, *named: str) -> None:
    """``err`` ends in one ``error: <command>:`` line naming each of ``named``."""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.splitlines()[-1]
    ]
    assert err.splitlines()[-1].startswith(f"error: {command}: ")
    assert all(name in err.splitlines()[-1] for name in named), err


@pytest.mark.parametrize(("command", "name", "keys", "tail"), OUTSIDE_INPUTS)
def test_a_malformed_outside_input_fails_with_one_error_line(
    tree_copy: Path,
    capsys: pytest.CaptureFixture[str],
    command: str,
    name: str,
    keys: dict,
    tail: bytes,
) -> None:
    config_arg = edit_toy_config(tree_copy, lambda raw: raw.update(keys))
    path = tree_copy / name
    path.write_bytes((path.read_bytes() if path.exists() else b"") + tail)
    capsys.readouterr()
    assert main([command, "--config", config_arg, "--force"]) == 1
    assert_one_error_line(capsys.readouterr().err, command, Path(name).name)


def cut_first_row(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: text.index("\n") // 2] + text[text.index("\n") :], encoding="utf-8")


def drop_mean_tau(path: Path) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    del rows[0]["mean_tau"]
    write_jsonl(path, rows)


def drop_zz0001(path: Path) -> None:
    """Leave a corpus document out of the partition map, as if the corpus grew since."""
    grouped = read_json(path)
    write_json(path, {name: [d for d in ids if d != "zz0001"] for name, ids in grouped.items()})


def list_zz0004_twice(path: Path) -> None:
    """List a document under both partitions."""
    grouped = read_json(path)
    write_json(path, {name: sorted({*ids, "zz0004"}) for name, ids in grouped.items()})


def move_zz0002_to_full(path: Path) -> None:
    """Put a document under ``full``, a partition that only English has."""
    grouped = {name: [d for d in ids if d != "zz0002"] for name, ids in read_json(path).items()}
    write_json(path, {**grouped, "full": ["zz0002"]})


# (command, file an earlier stage wrote, how it is spoiled, what the error names)
PROGRAM_FILES = [
    pytest.param(
        "sample",
        "partition/zz.json",
        lambda path: path.write_text("[zz0001\n", encoding="utf-8"),
        ("zz.json", "invalid JSON"),
        id="partition-map",
    ),
    pytest.param(
        "sample",
        "partition/zz.json",
        drop_zz0001,
        ("zz.json", "document zz0001", "run 'totsim partition --force'"),
        id="stale-partition-map",
    ),
    pytest.param(
        "sample",
        "partition/zz.json",
        lambda path: write_json(path, {"monolingual": [["zz0001"]], "bilingual": []}),
        ("zz.json", "unhashable type: 'list'"),
        id="partition-map-with-a-list-for-a-doc-id",
    ),
    # both readers of the map refuse it; correlate reads it to slice the real set
    *(
        pytest.param(
            command,
            "partition/zz.json",
            spoil,
            ("zz.json", problem, "run 'totsim partition --force'"),
            id=f"partition-map-{case}-{command}",
        )
        for command in ("sample", "correlate")
        for spoil, problem, case in (
            (list_zz0004_twice, "lists document zz0004 twice", "listing-a-document-twice"),
            (move_zz0002_to_full, "names partition 'full'", "naming-a-partition-zz-lacks"),
        )
    ),
    *(
        pytest.param(
            "search",
            "index/zz.npz",
            lambda path, spoil=spoil: edit_index_meta(path, spoil),
            ("zz.npz", message),
            id=f"index-meta-{case}",
        )
        for spoil, message, case in SPOILED_INDEX_META
    ),
    pytest.param(
        "search",
        "index/zz.npz",
        lambda path: edit_index_meta(path, lambda meta: meta["doc_ids"].pop()),
        ("zz.npz", "postings arrays do not fit together"),
        id="index-arrays-that-do-not-fit",
    ),
    pytest.param(
        "generate",
        "sample/zz-monolingual.jsonl",
        cut_first_row,
        ("zz-monolingual.jsonl line 1", "invalid JSON"),
        id="sample-row",
    ),
    pytest.param(
        "select",
        "correlate/zz.jsonl",
        drop_mean_tau,
        ("zz.jsonl line 1", "missing key 'mean_tau'"),
        id="correlation-row",
    ),
    pytest.param(
        "assemble",
        "select/zz.json",
        lambda path: write_json(path, {"monolingual": "V9", "bilingual": "V1"}),
        ("zz.json", "'V9'"),
        id="strategy",
    ),
    pytest.param(
        "assemble",
        "select/zz.json",
        lambda path: write_json(path, {"monolingual": "V1"}),
        ("zz.json", "bilingual partition", "run 'totsim select --force'"),
        id="strategy-without-a-partition",
    ),
    pytest.param(
        "assemble",
        "select/zz.json",
        lambda path: write_json(path, {"monolingual": "V3", "bilingual": "V1"}),
        ("zz.json", "monolingual partition", "run 'totsim select --force'"),
        id="strategy-with-another-partitions-variation",
    ),
]


@pytest.mark.parametrize(("command", "name", "spoil", "named"), PROGRAM_FILES)
def test_a_spoiled_stage_file_fails_with_one_error_line(
    tree_copy: Path,
    capsys: pytest.CaptureFixture[str],
    command: str,
    name: str,
    spoil: Callable[[Path], None],
    named: tuple[str, ...],
) -> None:
    spoil(tree_copy / "out" / name)
    capsys.readouterr()
    assert main([command, "--config", str(tree_copy / "config.yaml"), "--force"]) == 1
    assert_one_error_line(capsys.readouterr().err, command, *named)


@pytest.mark.parametrize(
    ("command", "name", "line"),
    [
        pytest.param(
            "ingest",
            "corpus_zz.jsonl",
            '{"id": "zz 9999", "title": "t", "text": "x"}',
            id="document-id",
        ),
        pytest.param("search", "real_queries_zz.tsv", "real 1\tsome text", id="real-query-id"),
    ],
)
def test_an_id_with_whitespace_fails_with_one_error_line(
    tree_copy: Path, capsys: pytest.CaptureFixture[str], command: str, name: str, line: str
) -> None:
    # qrels and run lines are split on whitespace, so no file could name such an id
    path = tree_copy / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines) + line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(tree_copy / "config.yaml"), "--force"]) == 1
    assert_one_error_line(
        capsys.readouterr().err, command, f"{name} line {len(lines) + 1}", "whitespace"
    )


def test_a_worker_count_below_one_is_refused(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    config = write_config(tmp_path, MINIMAL)
    assert main(["ingest", "--config", str(config), "--workers", "-3"]) == 1
    assert "error: ingest: workers must be at least 1, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_a_resume_hashes_the_config_once(
    pipeline_tree: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    views: list[object] = []
    view = config_module._view

    def counting_view(obj, table, base):
        if table is KEYS:
            views.append(obj)
        return view(obj, table, base)

    monkeypatch.setattr(config_module, "_view", counting_view)
    out = pipeline_tree / "out"
    before = tree_state(out)
    config = load_config(pipeline_tree / "config.yaml")
    cmd_pipeline(config)
    assert tree_state(out) == before
    assert views == [config]


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
    # a file that format 1 wrote and format 2 does not
    stray = out / "index" / "en.json"
    stray.write_text("{}", encoding="utf-8")
    config_arg = str(tree_copy / "config.yaml")
    assert main(["pipeline", "--config", config_arg]) == 0
    assert tree_state(out / "generate") == generated
    assert not stray.exists()
    assert tree_state(out / "index").keys() == indexed.keys()
    assert all(tree_state(out / "index")[path] != state for path, state in indexed.items())
    assert len(list(out.glob("search/*/*/ranks.tsv"))) == 8
    for stage in ("index", "search"):
        manifest = json.loads((out / stage / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["schema_version"] == 2
    assert main(["evaluate", "--config", config_arg, "--force"]) == 0
    # evaluate as format 1 wrote it: one metric report per query set and real
    # slice, no rank tables
    evaluate = out / "evaluate"
    tables = stage_files(evaluate)
    manifest = json.loads((evaluate / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["schema_version"] == 2
    reports = [name.replace(".ranks.tsv", ".jsonl") for name in tables]
    reports += ["zz/real-bilingual.jsonl", "zz/real-monolingual.jsonl"]
    write_json(evaluate / "manifest.json", {**manifest, "schema_version": 1, "outputs": reports})
    for name in tables:
        (evaluate / name).unlink()
    for name in reports:
        (evaluate / name).write_text("{}\n", encoding="utf-8")
    decided = {**tree_state(out / "correlate"), **tree_state(out / "select")}
    assert main(["pipeline", "--config", config_arg]) == 0
    assert stage_files(evaluate) == tables
    manifest = json.loads((evaluate / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["schema_version"] == 2
    assert {**tree_state(out / "correlate"), **tree_state(out / "select")} == decided


def test_a_missing_nested_output_reruns_only_its_stage(
    tree_copy: Path, caplog: pytest.LogCaptureFixture
) -> None:
    out = tree_copy / "out"
    ranks = out / "search" / "zz" / "real" / "ranks.tsv"
    original = ranks.read_bytes()
    others = {
        stage.directory: tree_state(out / stage.directory)
        for name, stage in STAGES.items()
        if name != "search"
    }
    ranks.unlink()
    with caplog.at_level("INFO", logger="totsim.cli"):
        assert main(["pipeline", "--config", str(tree_copy / "config.yaml")]) == 0
    assert ranks.read_bytes() == original
    assert {directory: tree_state(out / directory) for directory in others} == others
    skipped = [r.message.split(":")[0] for r in caplog.records if "skipping" in r.message]
    assert skipped == [stage for stage in STAGES if stage != "search"]


@pytest.mark.parametrize(
    "corrupt",
    [
        b'{"stage": "sel',
        b'{"stage": "\xff"}\n',
        b"[]\n",
        {"outputs": 5},
        {"outputs": ["zz.json", 5]},
        {"outputs": None},
    ],
)
def test_a_stage_whose_manifest_cannot_be_read_reruns(
    tree_copy: Path, corrupt: bytes | dict, caplog: pytest.LogCaptureFixture
) -> None:
    select = tree_copy / "out" / "select"
    written = {path: path.read_bytes() for path in select.iterdir()}
    if isinstance(corrupt, dict):
        # the manifest's own key, with outputs that are not a list of file names
        corrupt = json.dumps({**json.loads(written[select / "manifest.json"]), **corrupt}).encode()
    (select / "manifest.json").write_bytes(corrupt)
    with caplog.at_level("INFO", logger="totsim.cli"):
        assert main(["select", "--config", str(tree_copy / "config.yaml")]) == 0
    assert not [r for r in caplog.records if "skipping" in r.message]
    assert {path: path.read_bytes() for path in select.iterdir()} == written


def stage_files(stage_dir: Path) -> list[str]:
    return sorted(
        str(path.relative_to(stage_dir))
        for path in stage_dir.rglob("*")
        if path.is_file() and path != stage_dir / "manifest.json"
    )


def recorded_outputs(stage_dir: Path) -> list[str]:
    return json.loads((stage_dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]


def zz_partitions(out: Path) -> dict[str, str]:
    """Each zz document's partition, from the map the partition stage wrote."""
    grouped = read_json(out / "partition" / "zz.json")
    return {doc_id: name for name, doc_ids in grouped.items() for doc_id in doc_ids}


def test_rerun_leaves_no_report_of_a_query_set_it_no_longer_writes(
    tree_copy: Path, caplog: pytest.LogCaptureFixture
) -> None:
    out = tree_copy / "out"
    partition_of = zz_partitions(out)
    qrels = load_qrels(tree_copy / "real_qrels_zz.txt")
    kept = {qid for qid, doc_id in qrels.items() if partition_of[doc_id] == "bilingual"}
    assert 0 < len(kept) < len(qrels)
    # only the real queries whose target is bilingual remain, in the inputs
    # and in the ranks search would now write for them
    for path in (
        tree_copy / "real_qrels_zz.txt",
        tree_copy / "real_queries_zz.tsv",
        out / "search" / "zz" / "real" / "ranks.tsv",
    ):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if line.split()[0] in kept), "utf-8")
    tables = stage_files(out / "evaluate")
    config_arg = str(tree_copy / "config.yaml")
    with caplog.at_level("WARNING", logger="totsim.cli"):
        assert main(["evaluate", "--config", config_arg, "--force"]) == 0
        assert main(["correlate", "--config", config_arg, "--force"]) == 0
    assert stage_files(out / "evaluate") == tables
    assert recorded_outputs(out / "evaluate") == tables
    fallbacks = [
        r.getMessage() for r in caplog.records if "using the full real set" in r.getMessage()
    ]
    assert fallbacks == ["zz: using the full real set for the monolingual partition"]


def test_a_failed_forced_rerun_leaves_its_stage_to_run_again(
    tree_copy: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    config = load_config(tree_copy / "config.yaml")
    search_dir = tree_copy / "out" / "search"
    written: list[Path] = []
    fail_at = 3

    def failing_write(ranks, path):
        written.append(path)
        if len(written) == fail_at:
            raise OSError("disk full")
        write_rank_file(ranks, path)

    monkeypatch.setattr("totsim.cli.write_rank_file", failing_write)
    with pytest.raises(OSError, match="disk full"):
        run_stage("search", config, force=True)
    assert not (search_dir / "manifest.json").exists()
    written.clear()
    fail_at = 0
    run_stage("search", config)
    assert len(written) == 8
    assert recorded_outputs(search_dir) == stage_files(search_dir)
    assert len(list(search_dir.glob("*/*/ranks.tsv"))) == 8


def test_a_stage_refuses_to_replace_a_directory_holding_an_input(
    toy_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    inside = toy_copy / "out" / "evaluate" / "dense-a.run"
    inside.parent.mkdir(parents=True)
    (toy_copy / "dense-a.run").rename(inside)
    config_path = toy_copy / "config.yaml"
    text = config_path.read_text(encoding="utf-8")
    config_path.write_text(
        text.replace("dense-a: dense-a.run", "dense-a: out/evaluate/dense-a.run"),
        encoding="utf-8",
    )
    assert main(["evaluate", "--config", str(config_path)]) == 1
    assert f"input {inside} lies inside" in capsys.readouterr().err
    assert inside.exists()


def test_reports_from_target_ranks_match_reports_from_run_files(pipeline_tree: Path) -> None:
    out = pipeline_tree / "out"
    config = load_config(pipeline_tree / "config.yaml")

    def pool(code: str, set_name: str, qrels: dict[str, str]) -> list[RunResult]:
        expected = sorted(qrels)
        paths = sorted((out / "search" / code / set_name).glob("*.run"))
        assert len(paths) == len(default_lexical_pool())
        runs = [read_run(path, expected, depth=config.depth) for path in paths]
        external = config.language(code).external_runs
        return runs + [
            RunResult(system_id, read_run(external[system_id], expected, config.depth).rankings)
            for system_id in sorted(external)
        ]

    # (language, set name) -> qrels
    sets = {}
    for path in out.glob("generate/*/*.jsonl"):
        records = read_query_manifest(path)
        sets[path.parent.name, path.stem] = {
            r.query_id: r.target_doc_id for r in records if not r.discarded
        }
    sets["zz", "real"] = load_qrels(pipeline_tree / "real_qrels_zz.txt")
    written = out.glob("evaluate/*/*.ranks.tsv")
    assert sorted((path.parent.name, path.name.split(".")[0]) for path in written) == sorted(sets)
    for (code, set_name), qrels in sets.items():
        runs = pool(code, set_name, qrels)
        table = read_rank_file(out / "evaluate" / code / f"{set_name}.ranks.tsv")
        assert table == {run.system_id: run.target_ranks(qrels) for run in runs}
        reports = [evaluate_ranks(system_id, table[system_id]) for system_id in sorted(table)]
        assert reports == sorted(evaluate_pool(runs, qrels), key=lambda r: r.system_id)


def test_evaluate_reads_no_lexical_run_file(
    tree_copy: Path, monkeypatch: pytest.MonkeyPatch, caplog: pytest.LogCaptureFixture
) -> None:
    out = tree_copy / "out"
    before = {path: path.read_bytes() for path in (out / "evaluate").rglob("*") if path.is_file()}
    runs = list(out.glob("search/**/*.run"))
    assert len(runs) == 8 * len(default_lexical_pool())
    for path in runs:
        path.unlink()
    parsed: list[str] = []

    def counting_load(path, *args, **kwargs):
        parsed.append(Path(path).name)
        return load_external_run(path, *args, **kwargs)

    monkeypatch.setattr("totsim.cli.load_external_run", counting_load)
    config = load_config(tree_copy / "config.yaml")
    external = sorted(
        Path(path).name for entry in config.languages for path in entry.external_runs.values()
    )
    with caplog.at_level("WARNING", logger="totsim.retrieval"):
        assert main(["evaluate", "--config", str(tree_copy / "config.yaml"), "--force"]) == 0
    after = {path: path.read_bytes() for path in (out / "evaluate").rglob("*") if path.is_file()}
    assert after == before
    # each external run is parsed, and warns about the queries it lacks, once
    assert sorted(parsed) == external == ["dense-a.run", "dense-b.run"]
    missing = [r.getMessage() for r in caplog.records if "missing from run" in r.getMessage()]
    assert sorted(message.split(":")[0] for message in missing) == external


def test_search_refuses_a_real_qrels_query_without_a_text(
    tree_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # every lexical system would rank these queries 0 while the external runs rank them
    queries = tree_copy / "real_queries_zz.tsv"
    lines = queries.read_text(encoding="utf-8").splitlines(keepends=True)
    queries.write_text("".join(lines[:-4]), encoding="utf-8")
    first = lines[-4].split("\t")[0]
    capsys.readouterr()
    assert main(["search", "--config", str(tree_copy / "config.yaml"), "--force"]) == 1
    assert_one_error_line(
        capsys.readouterr().err,
        "search",
        "real_queries_zz.tsv",
        f"real qrels query {first} has no text (4 such queries)",
    )
    assert not (tree_copy / "out" / "search" / "manifest.json").exists()


def test_search_warns_about_real_texts_without_a_qrels_line(
    tree_copy: Path, caplog: pytest.LogCaptureFixture
) -> None:
    qrels = tree_copy / "real_qrels_zz.txt"
    lines = qrels.read_text(encoding="utf-8").splitlines(keepends=True)
    qrels.write_text("".join(lines[3:]), encoding="utf-8")
    with caplog.at_level("WARNING", logger="totsim.cli"):
        assert main(["search", "--config", str(tree_copy / "config.yaml"), "--force"]) == 0
    warned = [r.getMessage() for r in caplog.records if "no qrels line" in r.getMessage()]
    assert len(warned) == 1
    assert warned[0].startswith(f"{qrels}: 3 real queries have no qrels line")
    ranks = tree_copy / "out" / "search" / "zz" / "real" / "ranks.tsv"
    ranked = {line.split("\t")[0] for line in ranks.read_text(encoding="utf-8").splitlines()}
    assert ranked == {line.split()[0] for line in lines[3:]}


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
    assert "real/ranks.tsv does not cover the real qrels" in err
    assert "run 'totsim search --force'" in err


def test_evaluate_refuses_a_query_id_with_two_targets_only_for_external_runs(
    tree_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # the first real query takes the id of a synthetic query with another target
    manifest = tree_copy / "out" / "generate" / "zz" / "monolingual-V1.jsonl"
    taken = next(record for record in read_query_manifest(manifest) if not record.discarded)
    qrels = tree_copy / "real_qrels_zz.txt"
    lines = qrels.read_text(encoding="utf-8").splitlines(keepends=True)
    real_id, _, doc_id, _ = lines[0].split()
    assert doc_id != taken.target_doc_id
    lines[0] = lines[0].replace(real_id, taken.query_id)
    qrels.write_text("".join(lines), encoding="utf-8")
    # the real query keeps its text under the new id
    queries = tree_copy / "real_queries_zz.tsv"
    text_lines = queries.read_text(encoding="utf-8").splitlines(keepends=True)
    renamed = [line.replace(real_id + "\t", taken.query_id + "\t") for line in text_lines]
    assert renamed != text_lines
    queries.write_text("".join(renamed), encoding="utf-8")
    config_path = tree_copy / "config.yaml"
    config_arg = str(config_path)
    assert main(["search", "--config", config_arg, "--force"]) == 0
    assert main(["evaluate", "--config", config_arg, "--force"]) == 1
    assert f"query {taken.query_id} has two targets" in capsys.readouterr().err
    # a lexical system ranks each set's queries on their own, so each keeps its target
    text = config_path.read_text(encoding="utf-8")
    runs = "    external_runs:\n      dense-a: dense-a.run\n      dense-b: dense-b.run\n"
    assert runs in text
    config_path.write_text(text.replace(runs, ""), encoding="utf-8")
    assert main(["evaluate", "--config", config_arg, "--force"]) == 0


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


def toy_pool(toy: Path) -> list[str]:
    """The system ids ``evaluate`` ranks for zz, in id order: lexical and external."""
    external = load_config(toy / "config.yaml").language("zz").external_runs
    return sorted([system.system_id for system in default_lexical_pool()] + list(external))


def write_pool_ranks(
    toy: Path, set_name: str, system_ranks: list[int], systems: list[str] | None = None
) -> None:
    """An ``evaluate`` rank table in which system ``i`` puts every target at ``system_ranks[i]``.

    The systems are ``systems``, by default the configured pool in id order.
    The table covers the set's queries: the real qrels, or the accepted
    queries ``generate`` wrote.
    """
    systems = toy_pool(toy) if systems is None else systems
    if set_name == "real":
        query_ids = list(load_qrels(toy / "real_qrels_zz.txt"))
    else:
        records = read_query_manifest(toy / "out" / "generate" / "zz" / f"{set_name}.jsonl")
        query_ids = [record.query_id for record in records if not record.discarded]
    ranks = {
        system_id: dict.fromkeys(query_ids, rank)
        for system_id, rank in zip(systems, system_ranks, strict=True)
    }
    write_rank_file(ranks, toy / "out" / "evaluate" / "zz" / f"{set_name}.ranks.tsv")


def test_constant_metric_vector_leaves_its_row_undefined(
    tree_copy: Path, caplog: pytest.LogCaptureFixture
) -> None:
    toy = tree_copy
    config_arg = str(toy / "config.yaml")
    rising = list(range(len(toy_pool(toy)), 0, -1))
    write_pool_ranks(toy, "real", rising)
    # every monolingual variation and bilingual-V1 rank the pool as one tie on
    # NDCG@100: no target is in the top 100
    for name in ("monolingual-V1", "monolingual-V2", "bilingual-V1"):
        write_pool_ranks(toy, name, [200 + rank for rank in rising])
    write_pool_ranks(toy, "bilingual-V2", rising)
    for name in ("bilingual-V3", "bilingual-V4"):
        write_pool_ranks(toy, name, rising[::-1])
    assert main(["correlate", "--config", config_arg, "--force"]) == 0
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
    assert main(["select", "--config", config_arg, "--force"]) == 0
    choice = json.loads((toy / "out" / "select" / "zz.json").read_text(encoding="utf-8"))
    assert choice == {"monolingual": "V1", "bilingual": "V2"}
    assert "no defined correlation in the monolingual partition" in caplog.text


def test_select_warns_when_it_breaks_a_tie(
    tree_copy: Path, caplog: pytest.LogCaptureFixture
) -> None:
    config_arg = str(tree_copy / "config.yaml")
    with caplog.at_level("WARNING", logger="totsim.cli"):
        assert main(["select", "--config", config_arg, "--force"]) == 0
    # toy's V1 and V2 mean taus are equal to the last bit in both partitions
    ties = [r.getMessage() for r in caplog.records if "tie on mean tau" in r.getMessage()]
    assert ties == [
        f"zz/{partition}: variations V1, V2 tie on mean tau 0.9660917830792958; "
        "the lowest id, V1, is selected"
        for partition in ("monolingual", "bilingual")
    ]
    # a clear winner breaks no tie and warns nothing
    correlations = tree_copy / "out" / "correlate" / "zz.jsonl"
    rows = [json.loads(line) for line in correlations.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if (row["partition"], row["variation"]) == ("bilingual", "V2"):
            row.update((key, 0.5) for key in list(row) if key.endswith("_tau"))
    write_jsonl(correlations, rows)
    caplog.clear()
    with caplog.at_level("WARNING", logger="totsim.cli"):
        assert main(["select", "--config", config_arg, "--force"]) == 0
    ties = [r.getMessage() for r in caplog.records if "tie on mean tau" in r.getMessage()]
    assert [message.split(":")[0] for message in ties] == ["zz/monolingual"]


def test_correlate_still_fails_on_mismatched_pools(
    tree_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    toy = tree_copy
    pool = toy_pool(toy)
    write_pool_ranks(toy, "real", list(range(len(pool), 0, -1)))
    # the synthetic tables rank a pool other than the configured one, so the
    # first of them read stops correlate before any pools are compared
    for name in ("monolingual-V1", "monolingual-V2", "bilingual-V1", "bilingual-V2",
                 "bilingual-V3", "bilingual-V4"):
        write_pool_ranks(toy, name, [2, 1], systems=pool[:2])
    assert main(["correlate", "--config", str(toy / "config.yaml"), "--force"]) == 1
    err = capsys.readouterr().err
    assert "monolingual-V1.ranks.tsv does not cover the monolingual-V1 qrels" in err
    assert "run 'totsim evaluate --force'" in err


@pytest.mark.parametrize("emptied", ["bilingual-V4", "real"])
def test_a_query_set_without_queries_leaves_its_rows_undefined(
    tree_copy: Path, caplog: pytest.LogCaptureFixture, emptied: str
) -> None:
    out = tree_copy / "out"
    if emptied == "real":
        (tree_copy / "real_qrels_zz.txt").write_text("", encoding="utf-8")
        undefined = [
            ("monolingual", "V1"),
            ("monolingual", "V2"),
            ("bilingual", "V1"),
            ("bilingual", "V2"),
            ("bilingual", "V3"),
            ("bilingual", "V4"),
        ]
    else:
        path = out / "generate" / "zz" / f"{emptied}.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        path.write_text(
            "".join(dump_json({**row, "discarded": True}) + "\n" for row in rows), encoding="utf-8"
        )
        undefined = [("bilingual", "V4")]
    config_arg = str(tree_copy / "config.yaml")
    with caplog.at_level("WARNING", logger="totsim.cli"):
        for stage in ("search", "evaluate", "correlate", "select"):
            assert main([stage, "--config", config_arg, "--force"]) == 0, stage
    assert (out / "evaluate" / "zz" / f"{emptied}.ranks.tsv").read_bytes() == b""
    correlations = out / "correlate" / "zz.jsonl"
    rows = [json.loads(line) for line in correlations.read_text(encoding="utf-8").splitlines()]
    assert [(row["partition"], row["variation"]) for row in rows if row["mean_tau"] is None] == (
        undefined
    )
    side = "real" if emptied == "real" else "synthetic"
    warned = [
        r.getMessage().split(":")[0]
        for r in caplog.records
        if f"the {side} set has no queries" in r.getMessage()
    ]
    assert warned == [f"zz/{partition}/{variation}" for partition, variation in undefined]
    choice = json.loads((out / "select" / "zz.json").read_text(encoding="utf-8"))
    assert choice == {"monolingual": "V1", "bilingual": "V1"}


def correlation_fields(real: list, synthetic: list) -> dict:
    """A ``correlate/<lang>.jsonl`` row's correlations for two pools' reports."""
    try:
        result = correlate(real, synthetic)
    except ConstantVectorError:
        result = None
    fields = {}
    for metric in METRICS:
        for kind in ("tau", "pearson"):
            value = getattr(result.per_metric[metric], kind) if result else None
            fields[f"{metric}_{kind}"] = value
    fields["mean_tau"] = result.mean_tau if result else None
    fields["mean_pearson"] = result.mean_pearson if result else None
    return fields


def test_correlate_slices_the_real_set_by_partition(
    tree_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    out = tree_copy / "out"
    config_path = tree_copy / "config.yaml"
    config_text = config_path.read_text(encoding="utf-8")
    config = load_config(config_path)
    partition_of = zz_partitions(out)
    real = load_qrels(tree_copy / "real_qrels_zz.txt")
    slices = {
        partition: [qid for qid, doc_id in real.items() if partition_of[doc_id] == partition]
        for partition in ("monolingual", "bilingual")
    }
    assert all(slices.values())
    lexical = sorted(system.system_id for system in default_lexical_pool())

    def rank(i: int, doc_id: str) -> int:
        # monolingual targets: every lexical system finds them, in id order;
        # bilingual ones: only every third system does
        if partition_of[doc_id] == "monolingual":
            return i + 1
        return i + 2 if i % 3 == 0 else 0

    write_rank_file(
        {
            system_id: {qid: rank(i, doc_id) for qid, doc_id in real.items()}
            for i, system_id in enumerate(lexical)
        },
        out / "search" / "zz" / "real" / "ranks.tsv",
    )

    def pool_reports(set_name: str, qrels: dict[str, str], query_ids: list[str]) -> list:
        ranks = read_rank_file(out / "search" / "zz" / set_name / "ranks.tsv")
        for system_id, path in config.language("zz").external_runs.items():
            ranks[system_id] = load_external_run(path, qrels, config.depth)
        return [
            evaluate_ranks(system_id, {qid: by_query[qid] for qid in query_ids})
            for system_id, by_query in sorted(ranks.items())
        ]

    synthetic = {}
    for path in sorted(out.glob("generate/zz/*.jsonl")):
        qrels = {r.query_id: r.target_doc_id for r in read_query_manifest(path) if not r.discarded}
        synthetic[path.stem] = pool_reports(path.stem, qrels, sorted(qrels))

    def expected_rows(real_ids: dict[str, list[str]]) -> dict[str, dict]:
        return {
            name: correlation_fields(
                pool_reports("real", real, real_ids[name.split("-")[0]]), reports
            )
            for name, reports in synthetic.items()
        }

    def written_rows() -> dict[str, dict]:
        rows = [
            json.loads(line)
            for line in (out / "correlate" / "zz.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        return {f"{row.pop('partition')}-{row.pop('variation')}": row for row in rows}

    sliced = expected_rows(slices)
    full = expected_rows({partition: list(real) for partition in slices})
    # the slices order the pool differently, from each other and from the full set
    assert sliced["monolingual-V1"] != sliced["bilingual-V1"]
    assert all(sliced[name] != full[name] for name in synthetic)
    for slice_real, expected in ((True, sliced), (False, full)):
        config_path.write_text(
            config_text + f"slice_real_by_partition: {str(slice_real).lower()}\n", encoding="utf-8"
        )
        for stage in ("evaluate", "correlate"):
            assert main([stage, "--config", str(config_path), "--force"]) == 0
        assert written_rows() == expected, slice_real
    # with slicing on, a real target outside the partition map is an error
    config_path.write_text(config_text, encoding="utf-8")
    qrels_path = tree_copy / "real_qrels_zz.txt"
    lines = qrels_path.read_text(encoding="utf-8").splitlines(keepends=True)
    query_id = lines[0].split()[0]
    lines[0] = f"{query_id} 0 zz9999 1\n"
    qrels_path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    codes = [
        main([stage, "--config", str(config_path), "--force"])
        for stage in ("evaluate", "correlate")
    ]
    assert 1 in codes
    err = capsys.readouterr().err
    assert f"real query {query_id} targets zz9999, which is not in the partition map" in err


@pytest.mark.parametrize(
    "set_name, kept", [("real", 0.0), ("monolingual-V1", 0.0), ("monolingual-V2", 0.5)]
)
def test_correlate_refuses_a_table_that_does_not_cover_its_set(
    tree_copy: Path, capsys: pytest.CaptureFixture[str], set_name: str, kept: float
) -> None:
    # an emptied table, or one cut off halfway
    path = tree_copy / "out" / "evaluate" / "zz" / f"{set_name}.ranks.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: int(len(lines) * kept)]), encoding="utf-8")
    assert main(["correlate", "--config", str(tree_copy / "config.yaml"), "--force"]) == 1
    err = capsys.readouterr().err
    assert f"{set_name}.ranks.tsv does not cover the {set_name} qrels" in err
    assert "run 'totsim evaluate --force'" in err


def test_correlate_refuses_tables_without_a_configured_system(
    tree_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # every table loses the same external run, so they still agree with each other
    for path in sorted((tree_copy / "out" / "evaluate" / "zz").glob("*.ranks.tsv")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if line.split("\t")[1] != "dense-a"]
        assert len(kept) < len(lines)
        path.write_text("".join(kept), encoding="utf-8")
    assert main(["correlate", "--config", str(tree_copy / "config.yaml"), "--force"]) == 1
    err = capsys.readouterr().err
    assert "real.ranks.tsv does not cover the real qrels" in err
    assert "run 'totsim evaluate --force'" in err


def test_search_refuses_a_qrels_target_outside_the_corpus(
    tree_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # without slicing no partition map is read, so only search sees the target
    config_arg = edit_toy_config(tree_copy, lambda raw: raw.update(slice_real_by_partition=False))
    qrels = tree_copy / "real_qrels_zz.txt"
    lines = qrels.read_text(encoding="utf-8").splitlines(keepends=True)
    query_id = lines[0].split()[0]
    lines[0] = f"{query_id} 0 zz9999 1\n"
    qrels.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["pipeline", "--config", config_arg]) == 1
    assert_one_error_line(
        capsys.readouterr().err,
        "pipeline",
        "real_qrels_zz.txt",
        f"real query {query_id} targets zz9999, which is not an indexed document",
    )
    # search failed, so it left no manifest
    assert not (tree_copy / "out" / "search" / "manifest.json").exists()


def test_correlate_refuses_a_real_table_built_from_other_qrels(
    tree_copy: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    qrels = tree_copy / "real_qrels_zz.txt"
    lines = qrels.read_text(encoding="utf-8").splitlines(keepends=True)
    qrels.write_text("".join(lines[1:]), encoding="utf-8")
    assert main(["correlate", "--config", str(tree_copy / "config.yaml"), "--force"]) == 1
    err = capsys.readouterr().err
    assert "real.ranks.tsv does not cover the real qrels" in err
    assert "run 'totsim evaluate --force'" in err
