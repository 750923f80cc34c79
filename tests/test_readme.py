"""README's examples run as written: each command of the "Command line"
block succeeds, and the "Library quickstart" block returns the values its
comments state."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from fsrv import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section: str, language: str) -> str:
    """The first fenced block of language under the README heading section."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


COMMANDS = [shlex.split(line, comments=True)
            for line in _block("Command line", "sh").replace("\\\n", " ").splitlines()]


def test_the_command_examples_cover_every_subcommand():
    subcommands = next(a.choices for a in cli._parser()._actions if a.dest == "command")
    assert [argv[0] for argv in COMMANDS] == ["fsrv"] * len(COMMANDS)
    assert sorted(argv[1] for argv in COMMANDS) == sorted(subcommands)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[1])
def test_command_example_runs(capsys, argv):
    code = cli.main(argv[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.strip()


def _claim(comment: str):
    """The value a comment states, on either side of its last " = ":
    a literal, or a decimal prefix ending in "...". None if it states none."""
    for text in (comment.split(" = ")[0], comment.split(" = ")[-1]):
        text = text.strip()
        if text.endswith("..."):
            return text[:-3]
        try:
            return ast.literal_eval(text)
        except (ValueError, SyntaxError):
            pass
    return None


def test_library_quickstart_returns_its_commented_values():
    source = _block("Library quickstart", "python")
    lines, namespace, checked = source.splitlines(), {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        claim = _claim(lines[node.lineno - 1].partition("#")[2])
        if isinstance(claim, str):
            assert repr(float(value)).startswith(claim), (code, value)
        elif claim is not None:
            assert value == claim, (code, value)
        checked.append(claim)
    assert [c for c in checked if c is not None] == [(5.0, 13.0), "25.1639", 1.0]
