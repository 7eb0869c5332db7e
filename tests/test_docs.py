"""Docs drift: the command lines and tool paths the docs show must exist.

Every ``python -m repro ...`` or ``repro ...`` line in a fenced code
block of the user-facing docs, and in the examples of ``repro.cli``'s
docstring, is parsed with the real argument parser; a doc that still
shows a deleted verb or flag fails here.  Every ``tools/*.py`` path the
same files name must exist.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

#: The user-facing docs, the repository's verification notes among them.
DOCS = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

#: A command line: an optional ``$`` prompt and ``VAR=value`` prefixes,
#: then the CLI; group 1 is its argument string.
COMMAND = re.compile(
    r"^(?:\$\s+)?(?:[A-Z_]+=\S*\s+)*(?:python3? -m repro|repro)\s+(.*)$")

TOOL = re.compile(r"tools/[\w/.-]+\.py")


def code_lines(text):
    """Lines of the fenced code blocks, backslash continuations joined."""
    in_block, pending = False, ""
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("```"):
            in_block, pending = not in_block, ""
        elif in_block and line.endswith("\\"):
            pending += line[:-1] + " "
        elif in_block:
            yield pending + line
            pending = ""


def command_lines():
    """(source, argument string) of every documented command line."""
    lines = [(path.name, line) for path in DOCS
             for line in code_lines(path.read_text(encoding="utf-8"))]
    lines += [("cli.py", line.strip())
              for line in repro.cli.__doc__.splitlines()]
    return [(source, match.group(1)) for source, line in lines
            for match in [COMMAND.match(line)] if match]


def test_docs_show_command_lines():
    # Guards the extraction itself: the docs show dozens of commands.
    assert len(command_lines()) >= 40


def test_every_documented_command_line_parses():
    broken = []
    for source, args in command_lines():
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args(shlex.split(args, comments=True))
        except SystemExit:
            broken.append(f"{source}: repro {args}\n    "
                          f"{stderr.getvalue().strip().splitlines()[-1]}")
    assert broken == [], "\n".join(broken)


def test_every_named_tool_exists():
    texts = [path.read_text(encoding="utf-8") for path in DOCS]
    texts.append(repro.cli.__doc__)
    missing = sorted({tool for text in texts for tool in TOOL.findall(text)
                      if not (ROOT / tool).is_file()})
    assert missing == []
