"""IO helpers: canonical JSON, content hashing, atomic writes; package exports."""

from __future__ import annotations

import ast
import hashlib
import importlib
import json
import pkgutil
from collections import Counter
from pathlib import Path
from typing import Iterable

import pytest

import totsim
from totsim.config import KEYS, LANGUAGE_KEYS
from totsim.corpus import Partition
from totsim.errors import CorpusError, TotsimError
from totsim.util import (
    TextLines,
    atomic_output,
    atomic_write_text,
    dump_json,
    read_json,
    read_jsonl,
    stable_hash,
    write_json,
    write_jsonl,
)


def test_dump_json_is_canonical() -> None:
    assert dump_json({"b": 2, "a": 1}) == '{"a":1,"b":2}'


def test_dump_json_keeps_non_ascii() -> None:
    assert dump_json({"t": "東京"}) == '{"t":"東京"}'


def test_stable_hash_matches_sha256_of_canonical_form() -> None:
    expected = hashlib.sha256('{"a":1,"b":[2,3]}'.encode("utf-8")).hexdigest()
    assert stable_hash({"b": [2, 3], "a": 1}) == expected


def test_stable_hash_ignores_key_order() -> None:
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})


def test_stable_hash_distinguishes_content() -> None:
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_atomic_write_creates_parents_and_overwrites(tmp_path: Path) -> None:
    path = tmp_path / "deep" / "nested" / "file.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text(encoding="utf-8") == "second"


def test_atomic_write_leaves_no_temp_files(tmp_path: Path) -> None:
    atomic_write_text(tmp_path / "out.txt", "data")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_atomic_output_removes_its_temp_file_when_the_write_fails(tmp_path: Path) -> None:
    path = tmp_path / "out.txt"
    atomic_write_text(path, "kept")
    with pytest.raises(RuntimeError, match="disk gone"):
        with atomic_output(path) as handle:
            handle.write(b"half written")
            assert len(list(tmp_path.iterdir())) == 2  # the target and the temp file
            raise RuntimeError("disk gone")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    assert path.read_text(encoding="utf-8") == "kept"


def test_json_round_trip(tmp_path: Path) -> None:
    payload = {"rows": [1, 2], "name": "値"}
    path = tmp_path / "payload.json"
    write_json(path, payload)
    assert read_json(path) == payload
    assert path.read_text(encoding="utf-8").endswith("\n")


def test_jsonl_round_trip_skips_blank_lines(tmp_path: Path) -> None:
    rows = [{"id": 1}, {"id": 2}]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n")
    assert list(read_jsonl(path)) == rows


def test_jsonl_rows_are_canonical(tmp_path: Path) -> None:
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}])
    assert path.read_text(encoding="utf-8") == '{"a":2,"b":1}\n'


def test_write_json_reproducible_bytes(tmp_path: Path) -> None:
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_json(first, {"x": [1, {"z": 3, "y": 2}]})
    write_json(second, {"x": [1, {"y": 2, "z": 3}]})
    assert first.read_bytes() == second.read_bytes()


def test_read_json_parses_what_dump_wrote() -> None:
    blob = dump_json({"nested": {"values": [1.5, None, True]}})
    assert json.loads(blob) == {"nested": {"values": [1.5, None, True]}}


def test_text_lines_skip_whitespace_only_lines_but_count_them(tmp_path: Path) -> None:
    path = tmp_path / "rows.tsv"
    path.write_bytes("a\tb\r\n\r\n \t \nc\n\n\u3000\nd\te".encode("utf-8"))
    assert list(TextLines(path)) == [(1, "a\tb\n"), (4, "c\n"), (7, "d\te")]


def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path: Path) -> None:
    # editors on some systems start a UTF-8 file with one; kept, it would
    # become part of the first query id or fail the first JSON line
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + dump_json({"id": 1}).encode("utf-8") + b"\n")
    assert list(TextLines(path)) == [(1, '{"id":1}\n')]
    assert list(read_jsonl(path)) == [{"id": 1}]
    assert read_json(path) == {"id": 1}


def test_text_lines_name_the_file_of_a_byte_that_is_not_utf8(tmp_path: Path) -> None:
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"a\n" * 10_000 + b"\xff\n")
    with pytest.raises(CorpusError, match=r"^rows\.tsv: not UTF-8 text \(invalid start byte\)$"):
        list(TextLines(path, CorpusError))


def test_text_lines_format_the_location_of_an_error(tmp_path: Path) -> None:
    lines = TextLines(str(tmp_path / "rows.tsv"), CorpusError)
    error = lines.error(12, "expected two columns")
    assert isinstance(error, CorpusError)
    assert str(error) == "rows.tsv line 12: expected two columns"


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ('{"p": "full"}\n\n{"p": \n', "rows.jsonl line 3: invalid JSON (Expecting value)"),
        ('{"p": "full"}\n{"q": "full"}\n', "rows.jsonl line 2: missing key 'p'"),
        ('{"p": "half"}\n', "rows.jsonl line 1: 'half' is not a valid Partition"),
        ('["full"]\n', "rows.jsonl line 1: list indices must be integers or slices, not str"),
    ],
)
def test_read_jsonl_names_the_line_of_a_bad_row(tmp_path: Path, text: str, message: str) -> None:
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(TotsimError) as caught:
        list(read_jsonl(path, lambda row: Partition(row["p"])))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ('{"p": ', "table.json: invalid JSON (Expecting value)"),
        ('{"p": "half"}', "table.json: 'half' is not a valid Partition"),
        ("[]", "table.json: list indices must be integers or slices, not str"),
    ],
)
def test_read_json_names_the_file_of_a_bad_value(tmp_path: Path, text: str, message: str) -> None:
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as caught:
        read_json(path, lambda table: Partition(table["p"]), CorpusError)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "module_name", sorted(info.name for info in pkgutil.iter_modules(totsim.__path__))
)
def test_every_exported_name_exists(module_name: str) -> None:
    module = importlib.import_module(f"totsim.{module_name}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


# The modules whose ``__all__`` the package republishes.
PUBLIC_MODULES = (
    "collection",
    "corpus",
    "errors",
    "evaluation",
    "generation",
    "providers",
    "retrieval",
    "sampling",
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_the_package_republishes_every_exported_name(module_name: str) -> None:
    module = importlib.import_module(f"totsim.{module_name}")
    assert [
        name for name in module.__all__ if getattr(totsim, name, None) is not getattr(module, name)
    ] == []


def test_no_name_is_exported_by_two_public_modules() -> None:
    # a second owner would silently shadow the first at the package root
    owners = Counter(
        name
        for module_name in PUBLIC_MODULES
        for name in importlib.import_module(f"totsim.{module_name}").__all__
    )
    assert sorted(name for name, count in owners.items() if count > 1) == []


@pytest.mark.parametrize(
    "module_name", sorted(info.name for info in pkgutil.iter_modules(totsim.__path__))
)
def test_every_imported_name_is_read(module_name: str) -> None:
    # The package ``__init__`` re-exports what it imports, so it is not a
    # module here; a name listed in a module's ``__all__`` is exported too.
    module = importlib.import_module(f"totsim.{module_name}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(imported - read - set(getattr(module, "__all__", ()))) == []


def test_every_config_field_is_read_by_the_pipeline() -> None:
    # A field nothing reads is a key that is parsed and then ignored.  The
    # ``getattr`` calls that hash and list every field are not attribute reads.
    read = {
        node.attr
        for path in Path(totsim.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = {name for table in (KEYS, LANGUAGE_KEYS) for name, _ in table.values()}
    assert sorted(fields - read) == []


# Each is loaded only by the code path that needs it, so a module that
# imports one at load time puts it into every totsim process.
HEAVY_MODULES = {"numpy", "orjson", "requests"}


def load_time_imports(nodes: Iterable[ast.AST]) -> set[str]:
    """The top-level packages ``nodes`` import when their module loads.

    Function bodies run later, and an ``if TYPE_CHECKING:`` body never runs.
    """
    found: set[str] = set()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        ):
            found |= load_time_imports(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        found |= load_time_imports(ast.iter_child_nodes(node))
    return found


def test_load_time_imports_skips_functions_and_type_checking() -> None:
    tree = ast.parse(
        "import numpy.linalg as la\n"
        "from . import util\n"
        "if TYPE_CHECKING:\n    import orjson\nelse:\n    import yaml\n"
        "try:\n    from requests import Session\nexcept ImportError:\n    pass\n"
        "def f():\n    import zipfile\n"
        "class C:\n    import json\n"
    )
    assert load_time_imports(tree.body) == {"numpy", "yaml", "requests", "json"}


@pytest.mark.parametrize(
    "path", sorted(Path(totsim.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_heavy_package_is_imported_at_load(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(load_time_imports(tree.body) & HEAVY_MODULES) == []


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules ``tree`` imports anywhere, relatively or by ``totsim.`` name."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("totsim."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("totsim.")}
    return found


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """Every module that ``start``'s imports lead to, directly or through others."""
    seen: set[str] = set()
    stack = list(graph[start])
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph.get(name, ()))
    return seen


def test_package_imports_and_reachable_find_every_form_and_a_cycle() -> None:
    tree = ast.parse(
        "from . import providers\n"
        "from .errors import TotsimError\n"
        "import totsim.util\n"
        "from totsim.corpus import Corpus\n"
        "import numpy\n"
        "def f():\n    from .retrieval import load_index\n"
    )
    assert package_imports(tree) == {"providers", "errors", "util", "corpus", "retrieval"}
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert reachable(graph, "a") == {"a", "b", "c"}
    assert "d" not in reachable(graph, "d")


def test_the_package_import_graph_is_layered() -> None:
    # Evaluation works on target ranks and retrieval makes them: neither
    # needs any other layer, and no chain of imports leads back to its start.
    graph = {
        path.stem: package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(totsim.__file__).parent.glob("*.py"))
    }
    # vocabulary holds retrieval's terms and imports no package module itself
    assert graph["vocabulary"] == set()
    leaves = {"errors", "util", "vocabulary"}
    assert {name: graph[name] - leaves for name in ("evaluation", "retrieval")} == {
        "evaluation": set(),
        "retrieval": set(),
    }
    assert [name for name in graph if name in reachable(graph, name)] == []


def names_read(node: ast.AST, skip: ast.AST) -> set[str]:
    """Every name ``node`` loads or reads as an attribute, outside ``skip``."""
    read: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name) and isinstance(current.ctx, ast.Load):
            read.add(current.id)
        elif isinstance(current, ast.Attribute):
            read.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return read


def test_every_private_module_name_is_read() -> None:
    # A private function, class or constant at module level that nothing in
    # the package reads, apart from its own definition, is dead code.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(totsim.__file__).parent.glob("*.py"))
    }
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [
                    name.id
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            else:
                continue
            for name in defined:
                private = name.startswith("_") and not name.startswith("__")
                if private and not any(name in names_read(other, node) for other in trees.values()):
                    unread.append(f"{module}:{name}")
    assert unread == []


def reads_text(call: ast.Call) -> bool:
    """Whether ``call`` reads a file as text: ``.read_text()``, or an ``open`` not in binary mode."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name == "read_text":
        return True
    if name not in ("open", "fdopen"):
        return False
    modes = [
        arg.value
        for arg in [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]
    # a zip member opens as bytes in every mode, and the package calls every
    # ZipFile it opens members on ``archive``
    zip_member = isinstance(func, ast.Attribute) and ast.unparse(func.value) == "archive"
    return not zip_member and not any("b" in mode for mode in modes)


@pytest.mark.parametrize(
    ("source", "text"),
    [
        ('open(path, encoding="utf-8")', True),
        ("open(path)", True),
        ('path.open("r")', True),
        ('path.read_text(encoding="utf-8")', True),
        ('open(path, "rb")', False),
        ('os.fdopen(fd, "wb")', False),
        ('archive.open(zipfile.ZipInfo(name), "w")', False),
        ('archive.open(f"{name}.npy")', False),
        ('handle.open(f"{name}.txt")', True),
        ('resources.files("totsim")', False),
    ],
)
def test_reads_text_finds_text_mode_reads(source: str, text: bool) -> None:
    assert reads_text(ast.parse(source, mode="eval").body) is text


def test_only_util_reads_text_files() -> None:
    # One reader decides how text is decoded and how a bad line is named.
    found = [
        f"{path.name}: {ast.unparse(node)}"
        for path in sorted(Path(totsim.__file__).parent.glob("*.py"))
        if path.name != "util.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and reads_text(node)
    ]
    assert found == []


def test_only_partitions_for_sets_english_apart() -> None:
    # English's layout follows from the one partition _partitions_for gives it;
    # _generate asks only which parsed file is English's corpus.
    cli = Path(totsim.__file__).parent / "cli.py"
    module = ast.parse(cli.read_text(encoding="utf-8"))
    found = [
        f"{getattr(statement, 'name', '<module>')}: {ast.unparse(node)}"
        for statement in module.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(
            isinstance(operand, ast.Constant) and operand.value == "en"
            for operand in (node.left, *node.comparators)
        )
    ]
    assert found == ["_partitions_for: code == 'en'", "_generate: entry.code == 'en'"]


def callers(name: str) -> list[str]:
    """``<module>.<top-level statement>`` of every call of ``name`` in the package."""
    return sorted(
        f"{path.stem}.{getattr(statement, 'name', '<module>')}"
        for path in Path(totsim.__file__).parent.glob("*.py")
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
    )


def test_only_load_corpus_parses_a_corpus_in_cli() -> None:
    # every stage finds a language's corpus file, English's included, in one place
    found = [caller for caller in callers("ingest_corpus") if caller.startswith("cli.")]
    assert found == ["cli._load_corpus"]


def test_only_the_stages_that_read_bodies_hold_a_whole_corpus() -> None:
    # ingest, partition and index read each corpus file a line at a time
    assert sorted(set(callers("_load_corpus"))) == ["cli._assemble", "cli._generate", "cli._sample"]


def test_only_partition_asks_how_many_partitions_a_language_has() -> None:
    # every other stage takes each document's partition from _partition_of
    cli = ast.parse((Path(totsim.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found = [
        statement.name
        for statement in cli.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and ast.unparse(node).startswith("len(_partitions_for(")
    ]
    assert found == ["_partition"]


def test_only_corpus_reads_page_views() -> None:
    # the popularity order is corpus.by_popularity's; filtering and bucketing both take it
    found = [
        f"{path.name}: {ast.unparse(node)}"
        for path in sorted(Path(totsim.__file__).parent.glob("*.py"))
        if path.name != "corpus.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "page_views"
    ]
    assert found == []


def test_the_index_stage_version_is_the_archive_format_version() -> None:
    # a raised INDEX_VERSION reruns the index stage instead of failing search
    cli = ast.parse((Path(totsim.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found = [
        ast.unparse(keyword.value)
        for node in ast.walk(cli)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "Stage"
        and node.args
        and ast.unparse(node.args[0]) == "'index'"
        for keyword in node.keywords
        if keyword.arg == "version"
    ]
    assert found == ["INDEX_VERSION"]


def test_only_retrieval_and_search_build_the_lexical_pool() -> None:
    # everything else names the lexical systems by ``retrieval.LEXICAL_IDS``
    found = [c for c in callers("default_lexical_pool") if not c.startswith("retrieval.")]
    assert found == ["cli._search"]


def test_only_generate_query_declares_the_generation_settings() -> None:
    # generate_batch passes every setting on untouched, so a new one is declared once
    generation = Path(totsim.__file__).parent / "generation.py"
    declared = {
        node.name: {arg.arg for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
        for node in ast.parse(generation.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name in ("generate_query", "generate_batch")
    }
    assert declared["generate_query"] & declared["generate_batch"] == {
        "variation",
        "corpus",
        "english_corpus",
        "generator",
        "templates",
    }
