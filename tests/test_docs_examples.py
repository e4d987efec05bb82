"""Documentation smoke tests: the commands the docs show must work.

Extracts every fenced shell block from the user-facing documents and

* parse-validates each ``psi-eval`` / ``python -m repro.eval.cli``
  command against the real argument parser (so CLI drift — a renamed
  flag, a removed target — fails the suite instead of rotting in the
  docs),
* checks that referenced script/test paths exist,
* executes the cheap commands end to end (``cache info``/``clear``).

Slow commands (``psi-eval all``, the profile of a practical-scale
workload) are deliberately parse-checked only.
"""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

from repro.eval.cli import build_parser

REPO = pathlib.Path(__file__).resolve().parent.parent

DOCS = [
    "README.md",
    "EXPERIMENTS.md",
    "docs/ARCHITECTURE.md",
    "docs/ENGINES.md",
    "docs/OBSERVABILITY.md",
    "docs/SERVING.md",
]

_SHELL_LANGS = {"sh", "bash", "shell", "text", ""}
_PLACEHOLDER = re.compile(r"<([^<>]+)>")


def _shell_blocks(text: str) -> list[str]:
    """Fenced blocks whose info string is shell-ish (line-based: a lazy
    regex would mis-pair closing fences with the next opener)."""
    blocks: list[str] = []
    lang: str | None = None       # None = outside any fence
    current: list[str] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("```"):
            if lang is None:
                lang = stripped[3:].strip()
                current = []
            else:
                if lang in _SHELL_LANGS:
                    blocks.append("\n".join(current))
                lang = None
            continue
        if lang is not None:
            current.append(raw)
    return blocks


def shell_lines() -> list[tuple[str, str]]:
    """Every command line inside a fenced shell block, with its source doc."""
    lines: list[tuple[str, str]] = []
    for doc in DOCS:
        for block in _shell_blocks((REPO / doc).read_text()):
            for raw in block.splitlines():
                line = raw.split("#", 1)[0].strip()
                if line.startswith("$ "):       # transcript-style prompt
                    line = line[2:].strip()
                if line:
                    lines.append((doc, line))
    return lines


def _normalise(line: str) -> list[str] | None:
    """Turn a doc command line into psi-eval argv, or None if not psi-eval."""
    # `<a|b|c>` placeholders mean "one of": substitute the first option.
    line = _PLACEHOLDER.sub(lambda m: m.group(1).split("|")[0], line)
    try:
        tokens = shlex.split(line)
    except ValueError:
        return None
    # Strip leading VAR=VALUE environment assignments.
    while tokens and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*=.*", tokens[0]):
        tokens.pop(0)
    if not tokens:
        return None
    if tokens[0] == "psi-eval":
        return tokens[1:]
    if tokens[:3] == ["python", "-m", "repro.eval.cli"]:
        return tokens[3:]
    return None


PSI_EVAL_LINES = [(doc, line) for doc, line in shell_lines()
                  if _normalise(line) is not None]


def test_docs_contain_psi_eval_examples():
    """The extraction itself must keep working (guards the regexes)."""
    assert len(PSI_EVAL_LINES) >= 8
    docs = {doc for doc, _ in PSI_EVAL_LINES}
    assert "README.md" in docs


@pytest.mark.parametrize("doc,line", PSI_EVAL_LINES,
                         ids=[f"{d}:{c}" for d, c in PSI_EVAL_LINES])
def test_psi_eval_commands_parse(doc, line):
    argv = _normalise(line)
    try:
        # parse_intermixed_args, exactly as cli.main() parses: documented
        # commands may put flags before positionals (psi-eval debug --diff
        # qsort), which plain parse_args rejects.
        args = build_parser().parse_intermixed_args(argv)
    except SystemExit:
        pytest.fail(f"{doc}: documented command no longer parses: {line!r}")
    assert args.target


def test_referenced_scripts_exist():
    for doc, line in shell_lines():
        tokens = line.split()
        if len(tokens) >= 2 and tokens[0] == "python" and \
                tokens[1].endswith(".py"):
            assert (REPO / tokens[1]).exists(), \
                f"{doc} references missing script {tokens[1]}"
        if tokens and tokens[0] == "pytest":
            for token in tokens[1:]:
                if token.startswith("-"):
                    continue
                assert (REPO / token.rstrip("/")).exists(), \
                    f"{doc} references missing pytest path {token}"


def test_cache_admin_commands_run(tmp_path, monkeypatch, capsys):
    """The documented cache workflow, executed for real."""
    from repro.eval.cli import main

    monkeypatch.setenv("PSI_CACHE_DIR", str(tmp_path))
    assert main(["cache", "info"]) == 0
    assert "0 entries" in capsys.readouterr().out
    assert main(["cache", "clear"]) == 0
    assert "removed 0" in capsys.readouterr().out


def test_profile_command_runs_end_to_end(tmp_path, capsys):
    """`psi-eval profile` on the smallest workload: all artifacts appear."""
    import json

    from repro.eval.cli import main

    assert main(["profile", "bup-2", "--out", str(tmp_path), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "bup-2" in out and "total" in out
    chrome = json.loads((tmp_path / "bup-2.trace.json").read_text())
    assert isinstance(chrome["traceEvents"], list) and chrome["traceEvents"]
    collapsed = (tmp_path / "bup-2.collapsed.txt").read_text().splitlines()
    assert collapsed and all(" " in line for line in collapsed)
    jsonl = (tmp_path / "bup-2.trace.jsonl").read_text().splitlines()
    assert json.loads(jsonl[0])["meta"]["clock"] == "microsteps"


def test_internal_references_resolve():
    """`scripts/check_docs.py` on its default document set, as CI's
    docs job runs it: every link and quoted repo path resolves and the
    coverage gates pass."""
    import subprocess
    import sys

    result = subprocess.run([sys.executable, "scripts/check_docs.py"],
                            cwd=REPO, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
