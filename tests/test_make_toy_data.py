"""The fixture generator: the committed fixture it writes, and the sizes it refuses."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from conftest import TOY_DIR

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_toy_data.py"


def load_script():
    spec = importlib.util.spec_from_file_location("make_toy_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_en_titles_fail_fast_above_the_distinct_limit() -> None:
    script = load_script()
    limit = len(script.EN_TITLE_POOL) ** 2
    assert len(set(script.make_en_titles(random.Random(0), limit))) == limit
    with pytest.raises(ValueError, match=str(limit)):
        script.make_en_titles(random.Random(0), limit + 1)


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
