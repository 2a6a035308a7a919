"""The README's command-line examples run as written: each ``homdom ...``
line of the code block under "## Command line" goes through ``cli.main``
in-process, exits 0 and prints one JSON document, written exactly as
``json.dumps(doc, indent=2)`` writes it."""
import json
import shlex
from pathlib import Path

import pytest

from homdom import cli
from homdom.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines():
    """The ``homdom`` lines of the first code block in the Command line section."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("homdom ")]


def test_examples_found():
    assert len(command_lines()) >= 8


@pytest.mark.parametrize("line", command_lines())
def test_example_runs(capsys, line):
    code = main(shlex.split(line)[1:])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert isinstance(json.loads(out), dict)  # one document: trailing text fails to parse


@pytest.mark.parametrize("line", command_lines())
def test_example_output_is_json_dumps(capsys, monkeypatch, line):
    docs, real = [], cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda doc: docs.append(doc) or real(doc))
    main(shlex.split(line)[1:])
    assert len(docs) == 1
    assert capsys.readouterr().out == json.dumps(docs[0], indent=2) + "\n"
