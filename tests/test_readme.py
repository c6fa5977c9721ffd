"""The README's library example runs as written, its commands parse and the
module attributes it names exist."""

import importlib
import re
import shlex
from functools import reduce
from pathlib import Path

from csgp.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_csgp_commands_parse():
    # Parsed, not run: a renamed or dropped flag fails here.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("csgp ")]
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_names_only_code_that_exists():
    # `game.` is left out: README writes game.values for a game instance.
    prefixes = ("csgp", "qaoa", "solvers", "transform", "cli", "analysis", "errors")
    modules = {p: importlib.import_module("csgp" if p == "csgp" else f"csgp.{p}") for p in prefixes}
    text = README.read_text(encoding="utf-8")
    names = re.findall(rf"`((?:{'|'.join(prefixes)})(?:\.\w+)+)", text)
    assert len(names) >= 15
    missing = []
    for name in names:
        head, *path = name.split(".")
        try:
            reduce(getattr, path, modules[head])
        except AttributeError:
            missing.append(name)
    assert missing == []
