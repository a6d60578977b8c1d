"""The fixture generator refuses sizes it cannot produce."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

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
