"""The fixture generator: the committed fixture it writes, the sizes it grows to and its check."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import TOY_DIR

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "make_toy_data.py"

# sha256 of every file the benchmark's long-articles set-up writes
LONG_ARTICLES_DIGESTS = {
    "config.yaml": "13ecae2e94c2fa826b9f48b11cd14aa8d629518cdb551b8e3a8fc21cb0ac0afe",
    "corpus_en.jsonl": "bb06dcf16fc7a84b3ce89d227eecaed8e93ca6b71282be6e19b06cc576d5722a",
    "corpus_zz.jsonl": "8fb91e9a52cff3893cbf94b1466d4ff6b402fd2a890e2fd23343ff307d0475b1",
    "dense-a.run": "0ceeca9dd1701db1f37938aaeb23b52aa4b6643d2b30c02792710a802642af19",
    "dense-b.run": "319e2f0d3b8f334a5bce9ece9bd78e0ac62320d1f5c7f14ec841346d129b763d",
    "real_qrels_zz.txt": "850aa02179614a356d6529aa83ad4de95d034e35605ee5c45ac451b8f6c0f8a5",
    "real_queries_zz.tsv": "bb1a14931166dfa754b76e3e629b6cec9ab336dab5712d74142b6e090f51dbfc",
    "templates/generate_zz.txt": "2f6b4e116d8387dd89a5e435d83965b5393a49d069d3269543a3e370647c78e9",
    "templates/summarize_zz.txt": "b143ba8118e7140d37021aa59488d541b193bb06a0691261fdc596a03ab6e43c",
}


def load_script():
    spec = importlib.util.spec_from_file_location("make_toy_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_en_titles_grow_past_every_pair_without_changing_the_first_pairs() -> None:
    script = load_script()
    pairs = len(script.EN_TITLE_POOL) ** 2
    titles = script.make_en_titles(random.Random(0), 2 * pairs)
    assert titles[:pairs] == script.make_en_titles(random.Random(0), pairs)
    assert len(set(titles)) == len(titles)
    assert {len(title.split()) for title in titles[:pairs]} == {2}
    assert {len(title.split()) for title in titles[pairs:]} == {3}


def test_verify_fails_with_the_sample_stage_shortfall(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    script = load_script()
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    written = sorted(tmp_path.rglob("*"))
    config = tmp_path / "config.yaml"
    text = config.read_text(encoding="utf-8")
    assert "  target_count: 40\n" in text
    config.write_text(text.replace("  target_count: 40\n", "  target_count: 400\n"), "utf-8")
    with pytest.raises(SystemExit, match=r"^sample: en/full: .*\(short by \d+\)"):
        script.verify()
    # the stages ran outside the fixture directory
    assert sorted(tmp_path.rglob("*")) == written


def test_main_builds_more_english_articles_than_title_pairs(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    script = load_script()
    monkeypatch.setattr(script, "OUT", tmp_path)
    monkeypatch.setattr(script, "EN_DOCS", 2000)
    script.main()
    lines = (tmp_path / "corpus_en.jsonl").read_text(encoding="utf-8").splitlines()
    titles = [json.loads(line)["title"] for line in lines]
    assert len(titles) == len(set(titles)) == 2000


def test_main_regenerates_the_committed_fixture_byte_for_byte(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    script = load_script()
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    assert f"wrote fixture data to {tmp_path}" in capsys.readouterr().out

    def files(root: Path) -> dict[str, bytes]:
        # a pipeline run on the fixture leaves an untracked out/ beside it
        return {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.relative_to(root).parts[0] != "out"
        }

    regenerated, committed = files(tmp_path), files(TOY_DIR)
    assert sorted(regenerated) == sorted(committed)
    for name, data in committed.items():
        assert regenerated[name] == data, name


def test_the_benchmark_long_articles_input_is_pinned(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The benchmark builds it by replacing the generator's OUT, zz_body and
    # en_body from outside and calling main(); those names are its interface.
    spec = importlib.util.spec_from_file_location(
        "_test_perfbench_workloads", REPO / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workloads._generate_long_fixture(SCRIPT, tmp_path)
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert digests == LONG_ARTICLES_DIGESTS
