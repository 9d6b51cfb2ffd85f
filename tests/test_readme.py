"""Every ``lelab`` command of the README's usage block must run."""

import shlex
from pathlib import Path

from lelab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """argv lists of the ``lelab ...`` lines in the block under "Command line"."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("lelab ")]


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
    commands = readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        # the usage line names a profile that an earlier line wrote
        argv = [next(tmp_path.glob(a.replace("<hash>", "*"))).name
                if "<hash>" in a else a for a in argv]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 0, (argv, err)
