"""Every ``lelab`` command of the README's usage block must run, its list
of global flags is the parser's, and its config example parses."""

import re
import shlex
from pathlib import Path

from lelab.cli import main
from lelab.config import load_config, parse_config_file

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


def test_readme_global_flags_match_the_parser():
    # the sentence that opens "Global flags:" names every flag of the root
    # parser but --help and --version
    from lelab.cli import _build_parser

    paragraph = README.read_text().split("Global flags:", 1)[1]
    sentence = re.split(r"\.\s", paragraph, maxsplit=1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", sentence))
    parser_flags = {s for a in _build_parser()._actions
                    for s in a.option_strings if s.startswith("--")}
    assert named == parser_flags - {"--help", "--version"}


def test_readme_config_example_parses(tmp_path):
    # a key the config no longer has would be refused as unknown
    text = README.read_text().split("The config file is a flat", 1)[1]
    example = tmp_path / "example.cfg"
    example.write_text(text.split("```", 2)[1])
    keys = parse_config_file(example)
    assert {"rtol", "resolution", "out", "cache"} <= set(keys)
    load_config(example)


def test_readme_exit_codes_name_the_exported_errors():
    # the "Exit codes:" paragraph names in backticks every error class that
    # lelab exports, and no class it no longer has; a class name is a
    # capitalized word, which `N` and `p q` are not
    import lelab

    paragraph = README.read_text().split("Exit codes:", 1)[1].split("\n\n")[0]
    named = set(re.findall(r"`([A-Z][a-z]\w*)`", paragraph))
    exported = {n for n in lelab.__all__
                if isinstance(getattr(lelab, n), type)
                and issubclass(getattr(lelab, n), lelab.LaneEmdenError)
                and n != "LaneEmdenError"}
    assert named == exported
