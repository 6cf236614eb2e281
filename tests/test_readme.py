"""The README names only modules and commands that exist."""

import re
import shlex
from pathlib import Path

from fleetsim.harness import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fleetsim"


def code_snippets(markdown: str) -> list[str]:
    """Each line of a fenced block and each inline code span of ``markdown``."""
    fence = r"(?ms)^```[^\n]*\n(.*?)^```"
    lines = [line for block in re.findall(fence, markdown) for line in block.splitlines()]
    return lines + re.findall(r"`([^`\n]+)`", re.sub(fence, "", markdown))


def named_commands(markdown: str) -> list[str]:
    """The command of each ``fleetsim`` run in the code of ``markdown``."""
    commands = []
    for snippet in code_snippets(markdown):
        words = shlex.split(snippet, comments=True) if "fleetsim" in snippet else []
        if "fleetsim" not in words:
            continue
        args = words[words.index("fleetsim") + 1:]
        while args and args[0].startswith("-"):
            args = args[2:] if args[0] in ("--set", "--config") else args[1:]
        commands += args[:1]
    return commands


def missing_names(markdown: str, commands) -> list[str]:
    """The ``*.py`` files that the code of ``markdown`` names and that exist neither
    under the repository root nor under ``src/fleetsim``, then the ``fleetsim``
    commands it runs that are not in ``commands``."""
    files = [s for s in code_snippets(markdown) if re.fullmatch(r"[\w./]+\.py", s)]
    return ([f for f in files if not ((ROOT / f).is_file() or (SRC / f).is_file())]
            + [f"fleetsim {c}" for c in named_commands(markdown) if c not in commands])


def test_readme_names_existing_modules_and_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert missing_names(readme, cli._HANDLERS) == []
    assert set(named_commands(readme)) == set(cli._HANDLERS)


def test_missing_name_detection():
    markdown = ("Lives in `dqn.py`, `harness/synth.py` and `perfbench/run.py`,\n"
                "not in `planner.py` or `harness/ghost.py`.\n"
                "```\n"
                "fleetsim --set seed=1 --config a.cfg -v simulate   # runs\n"
                "PYTHONPATH=src fleetsim --set seed=1 fly\n"
                "fleetsim --set seed=1\n"
                "```\n"
                "Then `fleetsim report` and `fleetsim teleport`; `fleetsim` alone,\n"
                "or `python -m fleetsim.harness.cli`.\n")
    assert named_commands(markdown) == ["simulate", "fly", "report", "teleport"]
    assert missing_names(markdown, cli._HANDLERS) == [
        "planner.py", "harness/ghost.py", "fleetsim fly", "fleetsim teleport"]
