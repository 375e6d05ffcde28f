"""The CLI's golden table: every entry runs, and the table covers what it must."""

import ast
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

import golden
from lcfield.cli import GALLERY

ENTRIES = golden.load()
BY_ID = {entry["id"]: entry for entry in ENTRIES}
ARGVS = [tuple(entry["argv"]) for entry in ENTRIES]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_golden_entry(entry):
    message = golden.check(entry)
    assert message is None, message


@pytest.mark.parametrize(
    "entry_id, field, value",
    [
        ("eval-comma", "exit", 0),
        ("eval-comma", "stdout_sha256", "0" * 64),
        ("eval-comma", "stderr", ""),
        ("diff-exponent-point", "stderr_tail", "lcfield diff: error: argument point\n"),
        ("diff-exponent-point", "seconds", 0),
    ],
    ids=["exit", "stdout_sha256", "stderr", "stderr_tail", "seconds"],
)
def test_a_changed_field_fails_and_prints_the_entry_as_it_now_reads(entry_id, field, value):
    entry = BY_ID[entry_id]
    changed = dict(entry, **{field: value})
    message = golden.check(changed)
    assert message is not None and message.startswith(f"{entry_id} differs: ")
    # a time bound is the entry's own, not a result of the run
    assert json.loads(message.splitlines()[-1]) == (changed if field == "seconds" else entry)


def test_the_table_covers_the_corpora_and_the_gallery_at_every_order():
    assert len(BY_ID) == len(ENTRIES)
    orders = ("4", "16", "64")
    corpora = sorted(golden.CORPORA.glob("*.txt"))
    assert [path.name for path in corpora] == ["identities.txt", "non_identities.txt"]
    required = {
        ("transfer", "--format", fmt, "-T", order, "--seed", seed, f"corpora/{path.name}")
        for path in corpora
        for fmt in ("text", "json")
        for seed in ("0", "7", "1000")
        for order in orders
    } | {
        ("gallery", "--format", fmt, "-T", order, example)
        for example in GALLERY
        for fmt in ("text", "json")
        for order in orders
    }
    assert required <= set(ARGVS)
    # acceptance criterion 9: a gallery report reads the same at every order
    digests = {}
    for entry in ENTRIES:
        argv = entry["argv"]
        if argv[0] == "gallery" and "-T" in argv:
            at = argv.index("-T")
            digests.setdefault(tuple(argv[:at] + argv[at + 2:]), set()).add(entry["stdout_sha256"])
    assert all(len(found) == 1 for found in digests.values()), digests


def test_every_readme_command_line_has_an_entry():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("lcfield ")]
    assert lines
    assert [line for line in lines if tuple(shlex.split(line)[1:]) not in ARGVS] == []


def test_no_entry_pins_a_usage_line_or_a_temporary_path_or_writes_outside_its_directory():
    for entry in ENTRIES:
        fields = [key for key in ("stderr", "stderr_tail", "stderr_unpinned") if key in entry]
        assert len(fields) == 1, entry["id"]
        pinned = entry.get("stderr", entry.get("stderr_tail", ""))
        assert "usage:" not in pinned and tempfile.gettempdir() not in pinned, entry["id"]
        assert not any(Path(arg).is_absolute() or ".." in Path(arg).parts for arg in entry["argv"])


def test_the_runner_imports_only_the_standard_library_and_lcfield():
    # so none of pytest, hypothesis, jsonschema or sympy
    imported = set()
    for node in ast.walk(ast.parse(Path(golden.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names == {"lcfield"}
