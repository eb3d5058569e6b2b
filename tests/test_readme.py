import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh process whose imports of scipy fail, as they do without
# the quadrature extra: every python block of the library quick start, in
# order and in one namespace, then every command of the CLI section's sh
# block, each with a u.csv of its --N samples in the working directory.  A
# custom kernel's symbol, which needs adaptive quadrature, must raise
# UnsupportedKernelError naming the extra.  Prints the scipy modules loaded.
_NO_SCIPY_CHILD = """
import re, shlex, sys
import numpy as np


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
text = open(sys.argv[1], encoding="utf-8").read()
quick = re.search(r"^## Library quick start\\n(.*?)(?=^## )", text, re.M | re.S)[1]
blocks = re.findall(r"^```python\\n(.*?)^```", quick, re.M | re.S)
assert blocks, "the quick start has no python block"
namespace = {"__name__": "quick_start"}
for i, block in enumerate(blocks):
    exec(compile(block, f"quick-start-{i}", "exec"), namespace)

from nonlocper import cli
section = re.search(r"^## CLI\\n(.*?)(?=^## )", text, re.M | re.S)[1]
block = re.search(r"^```sh\\n(.*?)^```", section, re.M | re.S)[1]
commands = [shlex.split(line) for line in block.replace("\\\\\\n", " ").splitlines()
            if line.strip()]
assert len(commands) == len(cli.COMMANDS), commands
for argv in commands:
    n = int(argv[argv.index("--N") + 1]) if "--N" in argv else 64
    x = np.linspace(-np.pi, np.pi, n + 1)[:-1]
    np.savetxt("u.csv", np.column_stack([x, np.exp(np.cos(x))]), delimiter=",",
               header="x,u", comments="")
    assert cli.main(argv[1:]) == cli.EXIT_OK, argv

import nonlocper as nl
kernel = nl.CustomKernel(lambda t: t ** -2.0, s=0.5, Lambda_hi=1.0)
try:
    nl.symbol_of_kernel(kernel, nl.PeriodicGrid(np.pi, 16))
except nl.UnsupportedKernelError as exc:
    assert "nonlocper[quadrature]" in str(exc), exc
else:
    raise AssertionError("a custom kernel's symbol ran without scipy")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_readme_runs_without_scipy(tmp_path):
    # the quick start's minimize at N = 256 takes most of this test's time
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, str(README)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


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
