import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    # every python block of the section, in order and in one namespace; the
    # first asserts PV against spectral itself, and its minimize at N = 256
    # takes most of this test's time
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Library quick start\n(.*?)(?=^## )", text,
                        re.MULTILINE | re.DOTALL)
    assert section, "README has no 'Library quick start' section"
    blocks = re.findall(r"^```python\n(.*?)^```", section.group(1), re.MULTILINE | re.DOTALL)
    assert blocks, "the quick start has no python block"
    namespace = {"__name__": "quick_start"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README}:quick-start-{i}", "exec"), namespace)


def test_cli_block_parses():
    # every command of the CLI section's sh block against the parser, which
    # registers only the flags each command reads
    from nonlocper import cli

    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)(?=^## )", text, re.MULTILINE | re.DOTALL)
    block = re.search(r"^```sh\n(.*?)^```", section.group(1), re.MULTILINE | re.DOTALL)
    commands = [line.split() for line in block.group(1).replace("\\\n", " ").splitlines()
                if line.strip()]
    assert len(commands) == len(cli.COMMANDS)
    parser = cli.build_parser()
    for argv in commands:
        assert argv[0] == "nonlocper"
        assert parser.parse_args(argv[1:]).command == argv[1]
