"""The README's examples run as written.

Each python block runs in its own namespace, and the steady, evolve,
sweep and fig3 lines of its command-line block each exit 0 on the config
files the README gives: a config block is the file the README names last
before it.  A RuntimeWarning is an error here as in every test, so the
README cannot keep a name the package no longer has or a command that
fails.
"""

import pathlib
import re

import pytest

from mesorate import cli_main

TEXT = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = list(re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S))
PLAIN_BLOCKS = list(re.finditer(r"^```\n(.*?)^```", TEXT, re.M | re.S))
COMMAND_LINES = [line.split("#", 1)[0].split()[1:] for block in PLAIN_BLOCKS
                 for line in block[1].splitlines()
                 if re.match(r"mesorate (steady|evolve|sweep|fig3) ", line)]


def _configs():
    """{file name: text} of every config block of the README."""
    configs, end = {}, 0
    for block in PLAIN_BLOCKS:
        if block[1].startswith("[scenario]\n"):
            names = re.findall(r"`([\w.-]+\.cfg)`", TEXT[end:block.start()])
            assert names, f"README.md names no config file before the block at {block.start()}"
            configs[names[-1]] = block[1]
        end = block.end()
    return configs


def test_the_readme_gives_its_examples():
    assert PYTHON_BLOCKS, "README.md has no python block"
    assert [args[0] for args in COMMAND_LINES] == ["steady", "evolve", "sweep", "fig3"]
    assert {args[args.index("--config") + 1] for args in COMMAND_LINES} <= _configs().keys()


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{k}" for k in range(len(PYTHON_BLOCKS))])
def test_a_python_block_runs(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # padded so that a traceback names the README's own line
    source = "\n" * TEXT.count("\n", 0, block.start(1)) + block[1]
    exec(compile(source, "README.md", "exec"), {"__name__": "__main__"})


@pytest.mark.parametrize("args", COMMAND_LINES, ids=[args[0] for args in COMMAND_LINES])
def test_a_command_line_exits_zero(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in _configs().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert cli_main(args) == 0, capsys.readouterr().err
