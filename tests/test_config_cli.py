"""YAML config loading, provider wiring, and the CLI pipeline on toy data."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest
import yaml

from conftest import TOY_DIR
import totsim.config as config_module
from totsim.cli import STAGES, cmd_pipeline, main, parse_args, run_stage
from totsim.config import KEYS, LANGUAGE_KEYS, LanguageConfig, PipelineConfig, load_config
from totsim.corpus import ingest_corpus
from totsim.errors import ConfigError
from totsim.evaluation import MetricReport, evaluate_pool, load_qrels, write_rank_file
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


def test_malformed_config_value_reports_error(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    config = write_config(tmp_path, MINIMAL + "sampling: {target_count: many}\n")
    assert main(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "error: ingest: sampling.target_count must be an integer" in err
    assert "Traceback" not in err


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


def stage_files(stage_dir: Path) -> list[str]:
    return sorted(
        str(path.relative_to(stage_dir))
        for path in stage_dir.rglob("*")
        if path.is_file() and path != stage_dir / "manifest.json"
    )


def recorded_outputs(stage_dir: Path) -> list[str]:
    return json.loads((stage_dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]


def test_rerun_leaves_no_report_of_a_query_set_it_no_longer_writes(
    tree_copy: Path, caplog: pytest.LogCaptureFixture
) -> None:
    out = tree_copy / "out"
    partition_of = dict(
        line.split("\t") for line in (out / "partition" / "zz.tsv").read_text().splitlines()
    )
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
    assert (out / "evaluate" / "zz" / "real-monolingual.jsonl").exists()
    config_arg = str(tree_copy / "config.yaml")
    with caplog.at_level("WARNING", logger="totsim.cli"):
        assert main(["evaluate", "--config", config_arg, "--force"]) == 0
        assert main(["correlate", "--config", config_arg, "--force"]) == 0
    assert not (out / "evaluate" / "zz" / "real-monolingual.jsonl").exists()
    assert recorded_outputs(out / "evaluate") == stage_files(out / "evaluate")
    assert "zz: using the full real set for the monolingual partition" in caplog.text


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
