"""README's commands run as written.

Every ``python -m fatcantor`` line of README's ``sh`` blocks runs in-process
in ``cli.main``, on the input files ``expr.json``, ``t.json`` and ``e.json``
written here, and must exit 0 and print exactly one document.  A line that
README shows with its output (``$ python -m fatcantor ...`` followed by the
text) must print that text byte for byte.  Argv quoted inline in prose are
not read.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from fatcantor import cli

README = Path(__file__).resolve().parent.parent / "README.md"

BASE = '{"gen": {"x": ["0/1"], "clip": {"lo": ["0/1"], "hi": ["1/1"]}}}'
HALF = '{"gen": {"x": ["1/2"], "clip": {"lo": ["0/1"], "hi": ["1/1"]}}}'
FILES = {
    # the base set less its translate by 1/2
    "expr.json": f'{{"diff": [{BASE}, {HALF}]}}',
    # the target [0, 1/8) and a pool of the base set and that translate
    "t.json": '{"lo": ["0/1"], "hi": ["1/8"]}',
    "e.json": f"[{BASE}, {HALF}]",
}
PREFIX = ["python", "-m", "fatcantor"]


def commands() -> "list[tuple[list[str], str | None]]":
    """Each command line of README's ``sh`` blocks as the argv after
    ``python -m fatcantor``, with the output README shows for it, or
    ``None``: the lines after a ``$`` line, up to the next ``$`` line."""
    found: "list[tuple[list[str], str | None]]" = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        lines = block.splitlines(keepends=True)
        for k, line in enumerate(lines):
            shown = line.startswith("$ ")
            argv = shlex.split(line[2:] if shown else line)
            if argv[:3] != PREFIX:
                continue
            output = None
            if shown:
                rest = lines[k + 1 :]
                end = next((j for j, later in enumerate(rest) if later.startswith("$ ")), len(rest))
                output = "".join(rest[:end])
            found.append((argv[3:], output))
    return found


COMMANDS = commands()


def test_readme_holds_the_commands():
    names = [argv[0] for argv, _ in COMMANDS]
    assert set(names) == set(cli.COMMANDS)
    assert [argv for argv, output in COMMANDS if output is not None] == [
        ["cantor-info", "--stage", "4", "--seed", "7"]
    ]


@pytest.mark.parametrize("argv, output", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_each_command_prints_one_document(argv, output, tmp_path, monkeypatch, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert doc["command"] == argv[0]
    if output is not None:
        assert out == output
